//! Intra-machine parallel execution for RADS.
//!
//! The paper's runtime gives every machine one engine thread; on a multicore
//! box that leaves most of the hardware idle. This crate provides the
//! *intra-machine* worker pool the engine uses to parallelize its two
//! embarrassingly decomposable phases — SM-E start-candidate enumeration and
//! R-Meef region-group processing — without changing any result:
//!
//! * [`parallel_map`] runs a function over a slice on a scoped work-stealing
//!   pool (per-worker [Chase–Lev-style deques](crossbeam::deque) seeded
//!   round-robin, idle workers steal from their siblings) and returns the
//!   results **in item order**, so the merged output is independent of which
//!   worker ran which task and of the interleaving between them.
//! * [`scoped_workers`] spawns `n` long-running workers that share work
//!   through caller-provided state (the engine's region-group queue plays
//!   the role of the injector there, because waiting groups must stay
//!   visible to *other machines'* `shareR` requests too) and returns their
//!   results in worker-id order.
//!
//! Determinism contract: for a pure task function, `parallel_map` output is
//! bit-identical for every worker count (including 1, which runs inline on
//! the caller's thread without spawning). [`ExecStats`] reports how much
//! stealing actually happened, which tests use to prove the pool does more
//! than decorate a sequential loop.

mod pool;

pub use pool::{parallel_map, scoped_workers, ExecStats};

/// Environment variable consulted by [`workers_from_env`] (and therefore by
/// `RadsConfig::default()`): the number of intra-machine worker threads.
pub const WORKERS_ENV: &str = "RADS_WORKERS";

/// Default number of SM-E start candidates per work unit (the stealing
/// granularity). Small enough that a handful of heavy candidates cannot
/// serialize a run, large enough that task bookkeeping stays negligible.
pub const DEFAULT_STEAL_GRANULARITY: usize = 8;

/// Configuration of the intra-machine worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of worker threads per machine. `1` (or `0`) runs inline on the
    /// engine thread — the exact sequential code path.
    pub workers: usize,
    /// Number of items per work unit in [`parallel_map`]: the knob trading
    /// stealing overhead (small values) against load imbalance (large
    /// values).
    pub steal_granularity: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { workers: workers_from_env(), steal_granularity: DEFAULT_STEAL_GRANULARITY }
    }
}

impl ExecConfig {
    /// The sequential configuration (one worker), independent of the
    /// environment. Tests that pin the sequential path use this.
    pub fn sequential() -> Self {
        ExecConfig { workers: 1, steal_granularity: DEFAULT_STEAL_GRANULARITY }
    }

    /// A pool of `workers` threads with the default granularity.
    pub fn with_workers(workers: usize) -> Self {
        ExecConfig { workers, steal_granularity: DEFAULT_STEAL_GRANULARITY }
    }

    /// The effective worker count (at least 1).
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }

    /// The effective stealing granularity (at least 1).
    pub fn effective_granularity(&self) -> usize {
        self.steal_granularity.max(1)
    }
}

/// Reads the worker count from the `RADS_WORKERS` environment variable,
/// defaulting to `1` (sequential) when unset, unparsable or zero.
///
/// The CI matrix runs the whole test suite under `RADS_WORKERS=1` and
/// `RADS_WORKERS=4`, so both the sequential and the parallel code paths stay
/// green.
pub fn workers_from_env() -> usize {
    std::env::var(WORKERS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_to_at_least_one() {
        let cfg = ExecConfig { workers: 0, steal_granularity: 0 };
        assert_eq!(cfg.effective_workers(), 1);
        assert_eq!(cfg.effective_granularity(), 1);
        assert_eq!(ExecConfig::sequential().workers, 1);
        assert_eq!(ExecConfig::with_workers(3).workers, 3);
    }

    #[test]
    fn env_parsing_defaults_to_sequential() {
        // `workers_from_env` reads whatever the harness set; it must always
        // return something usable.
        assert!(workers_from_env() >= 1);
    }
}
