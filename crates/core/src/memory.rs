//! Memory estimation for region-group sizing (Section 6).
//!
//! The dominant memory consumers on a machine are the intermediate results
//! (stored in the embedding trie) and the fetched foreign vertices. The paper
//! estimates the space of a region group from the *average embedding-trie
//! node count per start candidate*, measured for free while SM-E runs its
//! backtracking search (the start candidates plus the vertices its
//! [`Expander`](crate::expand::Expander) places,
//! [`search_nodes`](crate::expand::Expander::search_nodes), equal the trie
//! node count of the local embeddings). Fetched foreign
//! vertices get a separate small allowance and can be evicted, so they are
//! excluded from the group estimate, just as in the paper.
//!
//! The estimate is only a *prior*: on adversarial inputs (power-law hubs,
//! clique queries) the distributed candidates behave nothing like the SM-E
//! sample and the static estimate can be an order of magnitude too low. The
//! [`crate::governor::MemoryGovernor`] therefore re-fits
//! [`SpaceEstimator::refit`] online from the nodes-per-candidate it actually
//! observes, and the engine enforces the budget at runtime instead of
//! trusting the prior.

use crate::trie::EmbeddingTrie;
use rads_runtime::ConfigError;

/// Environment variable read by [`MemoryBudget::from_env`] (and therefore by
/// `RadsConfig::default()`): the per-region-group budget `Φ` in bytes, with
/// optional `k`/`m`/`g` suffix (e.g. `RADS_MEMORY_BUDGET=64k`). The same
/// value also bounds the foreign-vertex cache allowance, so a tiny budget
/// exercises the governor's split *and* the cache's eviction paths — the CI
/// matrix runs the whole suite once under `RADS_MEMORY_BUDGET=4k`.
pub const MEMORY_BUDGET_ENV: &str = "RADS_MEMORY_BUDGET";

/// The per-machine memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    /// `Φ`: the bytes one region group's intermediate results (embedding-trie
    /// nodes, deposits waiting for a later round, expansion buffers) may
    /// occupy. Enforced a priori by region
    /// grouping and at runtime by the memory governor.
    pub region_group_bytes: usize,
    /// The separate, evictable allowance for fetched foreign vertices
    /// (Appendix B): the byte capacity of each worker's LRU
    /// [`crate::cache::ForeignVertexCache`].
    pub cache_bytes: usize,
}

impl Default for MemoryBudget {
    fn default() -> Self {
        MemoryBudget {
            // A deliberately small default so the grouping logic is exercised
            // even on the laptop-scale datasets of this reproduction.
            region_group_bytes: 4 * 1024 * 1024,
            // Foreign vertices are cheap to re-fetch; a few MiB of adjacency
            // lists is plenty at reproduction scale.
            cache_bytes: 8 * 1024 * 1024,
        }
    }
}

impl MemoryBudget {
    /// A budget of `mb` mebibytes per region group (cache allowance at its
    /// default).
    pub fn from_megabytes(mb: usize) -> Self {
        MemoryBudget { region_group_bytes: mb * 1024 * 1024, ..Default::default() }
    }

    /// A budget of `bytes` for the region groups *and* for the cache
    /// allowance — the shape the `RADS_MEMORY_BUDGET` variable configures.
    pub fn from_bytes(bytes: usize) -> Self {
        MemoryBudget { region_group_bytes: bytes, cache_bytes: bytes }
    }

    /// An effectively unlimited budget (grouping degenerates to one group per
    /// machine and the governor never splits).
    pub fn unlimited() -> Self {
        MemoryBudget { region_group_bytes: usize::MAX, cache_bytes: usize::MAX }
    }

    /// The budget configured by the `RADS_MEMORY_BUDGET` environment
    /// variable: `Ok(None)` when unset, `Ok(Some(..))` for a valid size, and
    /// a typed [`ConfigError`] for a malformed or zero value (instead of the
    /// old behaviour of silently falling back to the default). Accepts plain
    /// bytes or a `k`/`m`/`g` binary suffix, case-insensitive: `65536`,
    /// `64k`, `4m`, `1g`.
    pub fn from_env() -> Result<Option<Self>, ConfigError> {
        Self::from_env_value(std::env::var(MEMORY_BUDGET_ENV).ok().as_deref())
    }

    /// [`MemoryBudget::from_env`] over an explicit value (`None` = unset), so
    /// the parse rules are unit-testable without mutating the environment.
    pub fn from_env_value(raw: Option<&str>) -> Result<Option<Self>, ConfigError> {
        match raw {
            None => Ok(None),
            Some(raw) => match parse_bytes(raw) {
                Some(bytes) => Ok(Some(Self::from_bytes(bytes))),
                None => Err(ConfigError {
                    var: MEMORY_BUDGET_ENV,
                    value: raw.to_string(),
                    expected: "a positive byte count, optionally with a k/m/g suffix (e.g. 64k)",
                }),
            },
        }
    }

    /// [`MemoryBudget::from_env`] with the default as fallback. Library-level
    /// backstop: binaries should call `from_env()` up front and report the
    /// [`ConfigError`] cleanly; this panics only if they did not.
    pub fn default_from_env() -> Self {
        Self::from_env().unwrap_or_else(|e| panic!("{e}")).unwrap_or_default()
    }
}

/// Parses `64k`-style byte sizes (plain number, or `k`/`m`/`g` binary
/// suffix, case-insensitive). Returns `None` for malformed or zero values.
pub fn parse_bytes(raw: &str) -> Option<usize> {
    let s = raw.trim();
    let (digits, multiplier) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1024usize),
        'm' | 'M' => (&s[..s.len() - 1], 1024 * 1024),
        'g' | 'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    let value: usize = digits.trim().parse().ok()?;
    value.checked_mul(multiplier).filter(|&b| b > 0)
}

/// Estimates the space cost `φ(rg)` of the results originating from a region
/// group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceEstimator {
    /// Estimated trie nodes generated per start candidate.
    nodes_per_candidate: f64,
}

impl SpaceEstimator {
    /// Builds the estimator from SM-E measurements: `total_nodes` search-tree
    /// nodes observed over `candidates` start candidates.
    pub fn from_sme(total_nodes: u64, candidates: usize) -> Self {
        if candidates == 0 {
            return Self::fallback(8.0, 4);
        }
        SpaceEstimator {
            nodes_per_candidate: (total_nodes as f64 / candidates as f64).max(1.0),
        }
    }

    /// Fallback estimator when SM-E processed no candidates (e.g. hash
    /// partitioning where every vertex is a border vertex): a geometric model
    /// `avg_degree^(pattern_size - 1)`, clamped to keep groups non-degenerate.
    pub fn fallback(avg_degree: f64, pattern_size: usize) -> Self {
        let est = avg_degree.max(1.0).powi(pattern_size.saturating_sub(1).min(6) as i32);
        SpaceEstimator { nodes_per_candidate: est.clamp(1.0, 1e9) }
    }

    /// Estimated trie nodes generated per start candidate.
    pub fn nodes_per_candidate(&self) -> f64 {
        self.nodes_per_candidate
    }

    /// Online re-fit from runtime observations (the governor feeds it the
    /// per-candidate trie growth it actually saw). The estimate is raised to
    /// the observed value but never lowered — under-estimation is what blows
    /// the budget, while over-estimation merely yields smaller groups.
    /// Returns `true` when the estimate changed.
    pub fn refit(&mut self, observed_nodes_per_candidate: f64) -> bool {
        let observed = observed_nodes_per_candidate.min(1e12);
        if observed > self.nodes_per_candidate {
            self.nodes_per_candidate = observed;
            true
        } else {
            false
        }
    }

    /// Estimated bytes of intermediate results for a region group of
    /// `group_size` candidates (`φ(rg)`).
    pub fn estimate_group_bytes(&self, group_size: usize) -> usize {
        (self.nodes_per_candidate * group_size as f64 * EmbeddingTrie::NODE_BYTES as f64) as usize
    }

    /// The largest group size whose estimate fits in the budget (at least 1,
    /// so progress is always possible).
    pub fn max_group_size(&self, budget: &MemoryBudget) -> usize {
        if budget.region_group_bytes == usize::MAX {
            return usize::MAX;
        }
        let per_candidate = (self.nodes_per_candidate * EmbeddingTrie::NODE_BYTES as f64).max(1.0);
        ((budget.region_group_bytes as f64 / per_candidate) as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_env_value_parses_suffixes_and_rejects_garbage() {
        assert_eq!(MemoryBudget::from_env_value(None).expect("unset"), None);
        assert_eq!(
            MemoryBudget::from_env_value(Some("64k")).expect("64k"),
            Some(MemoryBudget::from_bytes(64 * 1024))
        );
        assert_eq!(
            MemoryBudget::from_env_value(Some("4M")).expect("4M"),
            Some(MemoryBudget::from_bytes(4 * 1024 * 1024))
        );
        for bad in ["", "lots", "-4k", "0", "4q"] {
            let err = MemoryBudget::from_env_value(Some(bad))
                .expect_err("garbage must be a typed error, not a silent default");
            assert_eq!(err.var, MEMORY_BUDGET_ENV);
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains(MEMORY_BUDGET_ENV), "{err}");
        }
    }

    #[test]
    fn sme_estimator_averages_nodes() {
        let e = SpaceEstimator::from_sme(1000, 10);
        assert!((e.nodes_per_candidate() - 100.0).abs() < 1e-9);
        let bytes = e.estimate_group_bytes(5);
        assert_eq!(bytes, (100.0 * 5.0 * EmbeddingTrie::NODE_BYTES as f64) as usize);
    }

    #[test]
    fn zero_candidates_falls_back() {
        let e = SpaceEstimator::from_sme(0, 0);
        assert!(e.nodes_per_candidate() >= 1.0);
    }

    #[test]
    fn fallback_grows_with_degree_and_pattern_size() {
        let small = SpaceEstimator::fallback(2.0, 3);
        let large = SpaceEstimator::fallback(10.0, 5);
        assert!(large.nodes_per_candidate() > small.nodes_per_candidate());
    }

    #[test]
    fn max_group_size_respects_budget() {
        let e = SpaceEstimator::from_sme(1200, 10); // 120 nodes per candidate
        let budget = MemoryBudget {
            region_group_bytes: 120 * EmbeddingTrie::NODE_BYTES * 7,
            ..Default::default()
        };
        assert_eq!(e.max_group_size(&budget), 7);
        // a tiny budget still allows one candidate per group
        let tiny = MemoryBudget { region_group_bytes: 1, ..Default::default() };
        assert_eq!(e.max_group_size(&tiny), 1);
        // the unlimited budget never caps a group
        assert_eq!(e.max_group_size(&MemoryBudget::unlimited()), usize::MAX);
    }

    #[test]
    fn budget_constructors() {
        assert_eq!(MemoryBudget::from_megabytes(2).region_group_bytes, 2 * 1024 * 1024);
        assert!(MemoryBudget::default().region_group_bytes > 0);
        assert!(MemoryBudget::default().cache_bytes > 0);
        let b = MemoryBudget::from_bytes(4096);
        assert_eq!((b.region_group_bytes, b.cache_bytes), (4096, 4096));
        assert_eq!(MemoryBudget::unlimited().region_group_bytes, usize::MAX);
    }

    #[test]
    fn byte_size_parsing() {
        assert_eq!(parse_bytes("65536"), Some(65536));
        assert_eq!(parse_bytes("64k"), Some(64 * 1024));
        assert_eq!(parse_bytes(" 4M "), Some(4 * 1024 * 1024));
        assert_eq!(parse_bytes("1g"), Some(1024 * 1024 * 1024));
        assert_eq!(parse_bytes("0"), None);
        assert_eq!(parse_bytes("nope"), None);
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("k"), None);
    }

    #[test]
    fn refit_only_raises_the_estimate() {
        let mut e = SpaceEstimator::from_sme(100, 10); // 10 nodes/candidate
        assert!(!e.refit(5.0), "refit must not lower the estimate");
        assert!((e.nodes_per_candidate() - 10.0).abs() < 1e-9);
        assert!(e.refit(250.0));
        assert!((e.nodes_per_candidate() - 250.0).abs() < 1e-9);
        // a raised estimate shrinks the admissible group size
        let budget = MemoryBudget {
            region_group_bytes: 250 * EmbeddingTrie::NODE_BYTES * 3,
            ..Default::default()
        };
        assert_eq!(e.max_group_size(&budget), 3);
    }
}
