//! The runtime memory governor (Section 6, enforced at runtime).
//!
//! Region groups are *sized* by the [`SpaceEstimator`] before R-Meef starts,
//! but the estimate is fitted on the SM-E sample — start candidates deep in
//! the partition interior. On adversarial inputs (power-law hubs near the
//! borders, clique queries) the distributed candidates behave nothing like
//! that sample and a group sized for `Φ` can blow an order of magnitude past
//! it. The governor closes the loop:
//!
//! * it **tracks live bytes** — embedding-trie nodes, the embeddings the
//!   depth-first descent deposited for a later round, and the expansion
//!   buffers — after every unit of expansion work and records the peak;
//! * when a region group threatens to overflow `Φ` mid-flight it **splits
//!   the group adaptively**: the start candidates not yet expanded are shed
//!   (their partial subtrees removed from the trie, their deposits and
//!   depth-first results dropped), re-grouped under the
//!   re-fitted estimator, and re-queued on the machine's shared group queue,
//!   where the work-stealing pool — or another machine's `shareR` — picks
//!   them up;
//! * every completed group and every split **re-fits the estimator online**
//!   ([`SpaceEstimator::refit`]) from the observed nodes-per-candidate, so
//!   follow-up groups are sized for the workload that is actually running.
//!
//! Splitting is *proactive*: the governor learns the largest byte delta one
//! start candidate (round 0) or one root subtree (later rounds) has produced
//! and sheds work as soon as the tracked bytes plus that headroom would
//! cross `Φ`; additionally, half of `Φ` is always reserved as headroom
//! against unit classes never observed before. The enforced bound is
//! therefore `peak ≤ Φ` whenever no *single* unit of work exceeds `Φ/2` — a
//! single start candidate is the floor below which no grouping policy can
//! subdivide work (the paper's `max_group_size ≥ 1` has the same floor), so
//! some slack at that granularity is unavoidable.
//!
//! Foreign-vertex bytes are governed separately: the paper gives fetched
//! vertices their own evictable allowance, which
//! [`crate::cache::ForeignVertexCache`] enforces with byte-bounded LRU
//! eviction ([`MemoryBudget::cache_bytes`]).

use rads_graph::VertexId;
use rads_partition::LocalPartition;

use crate::memory::{MemoryBudget, SpaceEstimator};
use crate::region::{find_region_groups, GroupingStrategy};

/// Counters describing what the governor did during one worker's drain loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Highest tracked bytes (trie + expansion buffers) observed at any
    /// governor checkpoint.
    pub peak_tracked_bytes: u64,
    /// Region groups that were split mid-flight.
    pub splits: u64,
    /// Start candidates shed from overflowing groups and re-queued.
    pub respilled_candidates: u64,
    /// Times the online re-fit raised the space estimate.
    pub estimator_refits: u64,
}

/// Per-worker runtime budget enforcement. One governor lives for a worker's
/// whole drain loop, so its observations and its re-fitted estimator carry
/// across region groups.
#[derive(Debug, Clone)]
pub struct MemoryGovernor {
    budget: MemoryBudget,
    /// `false` runs the paper's static a-priori sizing only (the
    /// `RADS-static` ablation of the robustness experiment).
    enforce: bool,
    estimator: SpaceEstimator,
    /// Largest byte delta one start candidate's round-0 expansion produced.
    max_candidate_delta: usize,
    /// Largest byte delta one root subtree produced in a single later round.
    max_root_delta: usize,
    /// Counters.
    pub stats: GovernorStats,
}

impl MemoryGovernor {
    /// A governor over `budget` seeded with the SM-E-fitted `estimator`.
    pub fn new(budget: MemoryBudget, enforce: bool, estimator: SpaceEstimator) -> Self {
        MemoryGovernor {
            budget,
            enforce,
            estimator,
            max_candidate_delta: 0,
            max_root_delta: 0,
            stats: GovernorStats::default(),
        }
    }

    /// The budget being enforced.
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// The current (possibly re-fitted) estimator.
    pub fn estimator(&self) -> &SpaceEstimator {
        &self.estimator
    }

    /// Records the current tracked bytes at a checkpoint (peak bookkeeping).
    pub fn track(&mut self, tracked_bytes: usize) {
        self.stats.peak_tracked_bytes = self.stats.peak_tracked_bytes.max(tracked_bytes as u64);
    }

    /// The spill rule: shed the next unit of work when admitting it could
    /// push the tracked bytes past `Φ`. Two triggers, either suffices:
    ///
    /// * `tracked + observed_max_delta > Φ` — a unit as large as the largest
    ///   seen would overflow;
    /// * `tracked > Φ/2` — half the budget is *reserved* as headroom against
    ///   units of a class never observed before (the first hub candidate a
    ///   worker meets has no precedent; without the reservation it lands on
    ///   top of an almost-full budget).
    ///
    /// Together they guarantee `peak ≤ Φ` whenever no single unit of work (a
    /// start candidate's round-0 expansion, or one root subtree's growth in
    /// a later round) exceeds `Φ/2` — the granularity floor below which no
    /// grouping policy can subdivide work.
    fn would_overflow(&self, tracked_bytes: usize, observed_max_delta: usize) -> bool {
        if !self.enforce || self.budget.region_group_bytes == usize::MAX {
            return false;
        }
        let budget = self.budget.region_group_bytes;
        tracked_bytes.saturating_add(observed_max_delta) > budget || tracked_bytes > budget / 2
    }

    /// Whether the next start candidate (round 0) should be shed instead of
    /// expanded.
    pub fn should_spill_candidate(&self, tracked_bytes: usize) -> bool {
        self.would_overflow(tracked_bytes, self.max_candidate_delta)
    }

    /// Whether the next root subtree (round ≥ 1) should be shed instead of
    /// expanded.
    pub fn should_spill_root(&self, tracked_bytes: usize) -> bool {
        self.would_overflow(tracked_bytes, self.max_root_delta)
    }

    /// Feeds back the byte delta one start candidate's round-0 expansion
    /// produced.
    pub fn observe_candidate_delta(&mut self, delta_bytes: usize) {
        self.max_candidate_delta = self.max_candidate_delta.max(delta_bytes);
    }

    /// Feeds back the byte delta one root subtree produced in a round ≥ 1.
    pub fn observe_root_delta(&mut self, delta_bytes: usize) {
        self.max_root_delta = self.max_root_delta.max(delta_bytes);
    }

    /// Online re-fit: raises the space estimate to `nodes` trie nodes
    /// observed over `candidates` start candidates (no-op when it would
    /// lower it, or when nothing was observed).
    pub fn refit(&mut self, nodes: usize, candidates: usize) {
        if candidates == 0 {
            return;
        }
        if self.estimator.refit(nodes as f64 / candidates as f64) {
            self.stats.estimator_refits += 1;
        }
    }

    /// Re-groups candidates shed from an overflowing region group under the
    /// re-fitted estimator. Counts the split. `seed` must be deterministic
    /// per spill site so `workers = 1` runs reproduce exactly.
    ///
    /// The new groups are sized to `Φ/2`, not `Φ`: the spill rule reserves
    /// half the budget as headroom, so a group whose projected footprint
    /// approached the full `Φ` would cross the reservation threshold and be
    /// split *again*, discarding and recomputing partial work every
    /// generation. Targeting the threshold itself makes a well-estimated
    /// re-grouped group finish without further spills.
    pub fn split(
        &mut self,
        local: &LocalPartition,
        shed_candidates: &[VertexId],
        strategy: GroupingStrategy,
        seed: u64,
    ) -> Vec<Vec<VertexId>> {
        debug_assert!(!shed_candidates.is_empty());
        self.stats.splits += 1;
        self.stats.respilled_candidates += shed_candidates.len() as u64;
        let split_budget = MemoryBudget {
            region_group_bytes: (self.budget.region_group_bytes / 2).max(1),
            ..self.budget
        };
        find_region_groups(local, shed_candidates, &self.estimator, &split_budget, strategy, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::EmbeddingTrie;
    use rads_partition::{Partitioning, PartitionedGraph};

    fn estimator() -> SpaceEstimator {
        SpaceEstimator::from_sme(100, 10) // 10 nodes per candidate
    }

    #[test]
    fn peak_tracking_is_monotone() {
        let mut g = MemoryGovernor::new(MemoryBudget::from_bytes(1000), true, estimator());
        g.track(10);
        g.track(500);
        g.track(200);
        assert_eq!(g.stats.peak_tracked_bytes, 500);
    }

    #[test]
    fn spill_decisions_use_observed_headroom() {
        let mut g = MemoryGovernor::new(MemoryBudget::from_bytes(1000), true, estimator());
        // nothing observed yet: the Φ/2 headroom reservation is in force
        assert!(!g.should_spill_candidate(400));
        assert!(g.should_spill_candidate(501));
        assert!(g.should_spill_candidate(1001));
        // after seeing a 300-byte candidate, 800 tracked leaves no headroom
        g.observe_candidate_delta(300);
        assert!(g.should_spill_candidate(800));
        assert!(!g.should_spill_candidate(400));
        // root observations are independent
        assert!(!g.should_spill_root(450));
        g.observe_root_delta(500);
        assert!(g.should_spill_root(501));
    }

    #[test]
    fn disabled_governor_never_spills() {
        let mut g = MemoryGovernor::new(MemoryBudget::from_bytes(100), false, estimator());
        g.observe_candidate_delta(1_000_000);
        assert!(!g.should_spill_candidate(usize::MAX - 1_000_000));
        // the unlimited budget never spills either, even when enforcing
        let g2 = MemoryGovernor::new(MemoryBudget::unlimited(), true, estimator());
        assert!(!g2.should_spill_candidate(usize::MAX / 2));
    }

    #[test]
    fn refit_raises_estimate_and_counts() {
        let mut g = MemoryGovernor::new(MemoryBudget::from_bytes(1000), true, estimator());
        g.refit(50, 10); // 5 nodes/candidate: below the prior, ignored
        assert_eq!(g.stats.estimator_refits, 0);
        g.refit(400, 10); // 40 nodes/candidate: raised
        assert_eq!(g.stats.estimator_refits, 1);
        assert!((g.estimator().nodes_per_candidate() - 40.0).abs() < 1e-9);
        g.refit(0, 0); // nothing observed: no-op
        assert_eq!(g.stats.estimator_refits, 1);
    }

    #[test]
    fn split_regroups_under_the_refit_estimate() {
        let graph = rads_graph::generators::community_graph(2, 6, 0.6, 0.05, 3);
        let pg = PartitionedGraph::build(
            &graph,
            Partitioning::single_machine(graph.vertex_count()),
        );
        let local = pg.local(0);
        let candidates: Vec<VertexId> = graph.vertices().collect();
        let budget = MemoryBudget::from_bytes(20 * EmbeddingTrie::NODE_BYTES);
        let mut g = MemoryGovernor::new(budget, true, SpaceEstimator::from_sme(10, 10));
        // estimate 1 node/candidate; split groups target Φ/2 = 10 nodes, so
        // the 12 candidates land in 2 groups of at most 10
        let before = g.split(local, &candidates, GroupingStrategy::Random, 7);
        assert!(before.len() >= 2, "{before:?}");
        assert!(before.iter().all(|grp| grp.len() <= 10), "{before:?}");
        assert_eq!(g.stats.splits, 1);
        assert_eq!(g.stats.respilled_candidates, candidates.len() as u64);
        // after observing 10 nodes/candidate, Φ/2 holds a single candidate
        g.refit(120, 12);
        let after = g.split(local, &candidates, GroupingStrategy::Random, 7);
        assert!(after.iter().all(|grp| grp.len() == 1), "{after:?}");
        let mut seen: Vec<VertexId> = after.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, candidates, "split must partition the shed candidates");
    }
}
