//! RADS — the paper's primary contribution.
//!
//! This crate implements the complete RADS system on top of the substrates in
//! the sibling crates:
//!
//! * [`trie`] — the **embedding trie** (Section 5): a compact, dynamically
//!   maintained representation of intermediate results where every leaf is a
//!   (partial) embedding and node ids double as result ids.
//! * [`evi`] — the **edge verification index** (Definition 5): groups the
//!   undetermined edges of embedding candidates so each edge is verified at
//!   most once per round, no matter how many candidates share it.
//! * [`cache`] — the foreign-vertex cache: adjacency lists fetched from other
//!   machines are kept and never re-fetched (Appendix B).
//! * [`store`] — the resident foreign-adjacency store: keeps a machine's
//!   caches between queries, so "never re-fetched" holds for as long as the
//!   machine's partition stays loaded, not just for one query.
//! * [`sme`] — **SM-E**, the single-machine enumeration phase (Section 3.1):
//!   start candidates whose border distance is at least the span of the start
//!   query vertex are processed entirely locally.
//! * [`memory`] / [`region`] — the memory-control strategies of Section 6:
//!   per-candidate space estimation derived from SM-E statistics and the
//!   proximity-greedy region grouping of Algorithm 3.
//! * [`governor`] — the runtime memory governor: enforces the budget `Φ`
//!   *while* R-Meef runs by tracking live bytes, adaptively splitting
//!   overflowing region groups and re-fitting the space estimator online
//!   (static sizing alone is defeated by adversarial hub workloads).
//! * [`expand`] — the `expandEmbedTrie` / `adjEnum` backtracking expansion of
//!   Algorithms 1 and 2.
//! * [`engine`] — the **R-Meef** multi-round expand / verify & filter engine
//!   (Section 3.2, Algorithm 4), including batched `fetchV` / `verifyE`
//!   requests and checkR/shareR work stealing.
//! * [`daemon`] — the RADS daemon serving `verifyE`, `fetchV`, `checkR` and
//!   `shareR` requests from other machines.
//! * [`system`] — the public facade: [`run_rads`] executes
//!   the whole pipeline (plan → SM-E → region groups → R-Meef) on a
//!   [`rads_runtime::Cluster`] and reports embeddings, traffic and memory
//!   statistics.

pub mod cache;
pub mod daemon;
pub mod engine;
pub mod evi;
pub mod expand;
pub mod governor;
pub mod memory;
pub mod obs;
pub mod plancache;
pub mod region;
pub mod sme;
pub mod store;
pub mod system;
pub mod trie;

pub use cache::ForeignVertexCache;
pub use engine::{RoundDriver, ROUND_DRIVER_ENV};
pub use governor::MemoryGovernor;
pub use memory::{MemoryBudget, SpaceEstimator};
pub use plancache::{canonical_signature, PatternSignature, PlanCache};
pub use store::ForeignStore;
pub use system::{
    estimate_query_footprint, run_rads, run_rads_resident, run_rads_wrapped, MachineReport,
    RadsConfig, RadsOutcome,
    RegionGroupStrategy,
};
pub use trie::{EmbeddingTrie, NodeId};
