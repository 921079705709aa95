//! Graph substrate for the RADS reproduction.
//!
//! This crate provides everything the distributed subgraph-enumeration systems
//! need from a graph library:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) representation of an
//!   unlabeled, undirected data graph with sorted adjacency lists.
//! * [`GraphBuilder`] — incremental construction from edge lists or adjacency
//!   lists, with deduplication and self-loop removal.
//! * [`Pattern`] — small query graphs ("patterns") with the auxiliary
//!   information needed by enumeration engines (degrees, spans, distances,
//!   automorphism-based symmetry-breaking order).
//! * [`generators`] — synthetic data-graph generators (Erdős–Rényi,
//!   Barabási–Albert power-law, 2-D lattices / road-like graphs, clustered
//!   community graphs).
//! * [`queries`] — the query sets used in the paper's evaluation (q1–q8 of
//!   Figure 7 and the clique-heavy queries of Figure 14).
//! * [`algorithms`] — BFS, multi-source BFS, shortest distances, connected
//!   components, triangle/clique enumeration, spanning trees and diameter
//!   estimation.
//! * [`intersect`] — multi-way sorted-set intersection kernels (linear merge,
//!   galloping, adaptive k-way) used by the enumeration engines for
//!   intersection-based candidate generation.
//! * [`hash`] — [`VertexMap`] and [`VertexSet`], hash containers keyed by
//!   vertex id with a multiplicative hasher in place of SipHash.
//! * [`io`] — the plain-text adjacency-list format used by the paper for
//!   on-disk graphs.
//!
//! All higher-level crates (`rads-partition`, `rads-single`, `rads-plan`,
//! `rads-core`, `rads-baselines`) are built on top of these types.

pub mod algorithms;
pub mod builder;
pub mod csr;
pub mod generators;
pub mod hash;
pub mod intersect;
pub mod io;
pub mod metrics;
pub mod pattern;
pub mod queries;
pub mod symmetry;
pub mod types;

pub use builder::GraphBuilder;
pub use csr::Graph;
pub use hash::{VertexMap, VertexSet};
pub use intersect::IntersectStats;
pub use pattern::{Pattern, PatternBuilder};
pub use queries::{clique_query_set, standard_query_set, NamedQuery};
pub use symmetry::SymmetryBreaking;
pub use types::{PatternVertex, VertexId};
