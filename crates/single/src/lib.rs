//! Single-machine subgraph enumeration: the reference enumerator.
//!
//! The paper delegates purely local work to "a single-machine algorithm, such
//! as TurboIso" (Section 3.1). This crate is a backtracking
//! subgraph-isomorphism enumerator in the style of TurboIso / the generic
//! framework of Lee et al. (VLDB 2012), with
//!
//! * candidate filtering by degree and neighbourhood degree,
//! * a connected, selectivity-aware matching order,
//! * `IsJoinable`-style adjacency checks against already-matched vertices,
//! * automorphism-based symmetry breaking (shared with the distributed
//!   engines via [`rads_graph::SymmetryBreaking`]),
//! * per-level search statistics.
//!
//! It is the ground truth of every test and baseline that needs embedding
//! counts, and the single-thread baseline that the `intersect` experiment
//! and the benchmark's `single.*` probe time. The engines run
//! none of its search code: RADS's SM-E phase runs the engine's own
//! backtracker on the machine's owned subgraph. They share only
//! [`MatchingOrder`], whose greedy order SM-E may match in.

pub mod candidates;
pub mod enumerate;
pub mod order;

pub use candidates::FilterThresholds;
pub use enumerate::{
    collect_embeddings, count_embeddings, enumerate_embeddings, CandidateKernel,
    EnumerationConfig, EnumerationStats, Enumerator,
};
pub use order::MatchingOrder;
