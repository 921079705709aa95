//! The production serving path: a multi-process cluster of symmetric
//! resident machines, and the `rads-node` / `rads-query` binaries in front
//! of it.
//!
//! There is **one cluster lifecycle**, [`serve::ResidentCluster`] — `launch`
//! the workers and machine 0, `query`, `shutdown` — and two thin entry
//! points around it: `rads-node serve` ([`serve::serve`]: launch, ready
//! line, client front door, a stream of queries, shutdown) and `rads-node
//! run` ([`serve::run_once`]: launch, one query, shutdown, print the
//! [`procs::ClusterSummary`]). The worker-loss watch, the observability
//! artifacts, the metrics stream and the summary types therefore exist once
//! and behave identically under both.
//!
//! [`procs`] is about *processes* (the spec they agree on, spawning,
//! watching and reaping workers, report and summary formats), [`serve`]
//! about *queries* (client protocol, admission, the per-query execution
//! every machine runs, the lifecycle itself); [`json`] is the minimal reader
//! behind the summary parser.

pub mod json;
pub mod procs;
pub mod serve;
