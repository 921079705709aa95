//! The expansion step of R-Meef (Algorithms 1 and 2).
//!
//! Given an embedding of the previous sub-pattern `P_{i-1}`, expansion matches
//! the leaf vertices of the current decomposition unit `dp_i` within the
//! neighbourhood of the pivot's data vertex, checking every verification edge
//! that can be decided locally (owned or cached endpoint) and recording the
//! rest as *undetermined edges* to be verified remotely in batch.
//!
//! Candidate generation is intersection-based: the adjacency lists of every
//! back-edge endpoint whose adjacency is *locally known* (owned or cached) —
//! the pivot's first — are intersected ([`rads_graph::intersect`]), so
//! candidates refuted by a known back edge are never materialized. Symmetry
//! breaking bounds the candidates before that: once per vertex and parent,
//! [`SymmetryBreaking::bounds`] gives the open interval of data ids the
//! matched vertices allow it, and each known list is cut to that interval
//! with two binary searches before it is intersected, so no candidate is
//! checked against the constraints one by one. Only the back edges whose
//! endpoint adjacency is unknown fall back to per-candidate
//! [`AdjacencyOracle::decide_edge`] probes and the undetermined-edge
//! bookkeeping.
//!
//! The same backtracker matches the *whole rest* of a pattern one query
//! vertex at a time, in any connected order
//! ([`UnitExpansion::from_order`]): a vertex's candidates are then the
//! intersection of every matched neighbour's known list, with no pivot that
//! must seed them. That is the engine's depth-first descent
//! ([`Expander::expand_strict`] with a counting [`Sink`]), and SM-E's whole
//! search on a machine's owned subgraph ([`crate::sme`]).
//!
//! A strict counting expansion counts its last vertex instead of walking its
//! candidates, when every pattern neighbour of that vertex is a back edge
//! (always so in a [`UnitExpansion::from_order`] context) and every back
//! edge's list is known: the extensions are the intersection's candidates,
//! already inside the interval symmetry breaking allows, less the matched
//! vertices among them. That is sound without the degree filter, because
//! each candidate is adjacent to `deg(u)` distinct matched vertices already.

use rads_graph::intersect::{intersect_k_into, IntersectStats};
use rads_graph::{Graph, Pattern, PatternVertex, SymmetryBreaking, VertexId};
use rads_plan::ExecutionPlan;

/// Read-only access to adjacency lists the machine can see: owned vertices
/// and cached foreign vertices. Lists must be sorted and complete (global
/// adjacency), so membership tests, degree filters and intersections are
/// sound.
pub trait AdjacencyOracle {
    /// The full adjacency list of `v`, if known on this machine.
    fn adjacency(&self, v: VertexId) -> Option<&[VertexId]>;

    /// Whether the undirected edge `(u, v)` exists, if decidable locally.
    fn decide_edge(&self, u: VertexId, v: VertexId) -> Option<bool> {
        if let Some(adj) = self.adjacency(u) {
            return Some(adj.binary_search(&v).is_ok());
        }
        self.adjacency(v).map(|adj| adj.binary_search(&u).is_ok())
    }
}

/// A whole graph as an oracle: every list is known. SM-E runs on a
/// machine's owned induced subgraph ([`rads_partition::LocalPartition::owned_graph`]),
/// whose lists hold only the owned neighbours, not the full adjacency the
/// trait otherwise asks for. That suffices there: by Proposition 1, every
/// embedding rooted at an SM-E start candidate lies inside the owned
/// vertices, so each edge it needs is in the induced subgraph, and each of
/// its vertices has at least its query vertex's degree there, which keeps
/// the degree filter sound.
impl AdjacencyOracle for Graph {
    fn adjacency(&self, v: VertexId) -> Option<&[VertexId]> {
        Some(self.neighbors(v))
    }
}

/// Pre-computed expansion context shared by every parent embedding it is
/// applied to: which query vertices to match, in which order, and against
/// which already-matched vertices. Either one decomposition unit of a plan
/// ([`new`](Self::new)) or the rest of the pattern in a given order
/// ([`from_order`](Self::from_order)).
pub struct UnitExpansion<'a> {
    pattern: &'a Pattern,
    symmetry: &'a SymmetryBreaking,
    /// The pivot of a unit; `None` for a context built from an order.
    pivot: Option<PatternVertex>,
    /// The vertices to match, in matching order.
    leaves: Vec<PatternVertex>,
    /// For each leaf (by index into `leaves`): the endpoints of its back
    /// edges, i.e. every pattern neighbour that is matched before it — the
    /// pivot first, when there is one.
    back_edges: Vec<Vec<PatternVertex>>,
}

impl<'a> UnitExpansion<'a> {
    /// Builds the expansion context for `round` of `plan`.
    pub fn new(
        pattern: &'a Pattern,
        plan: &ExecutionPlan,
        symmetry: &'a SymmetryBreaking,
        round: usize,
    ) -> Self {
        let unit = &plan.units()[round];
        let order = plan.matching_order();
        let position: Vec<usize> = {
            let mut pos = vec![usize::MAX; pattern.vertex_count()];
            for (i, &u) in order.iter().enumerate() {
                pos[u] = i;
            }
            pos
        };
        // leaves of this unit, in matching order
        let mut leaves: Vec<PatternVertex> = unit.leaves.clone();
        leaves.sort_by_key(|&u| position[u]);
        let back_edges = leaves
            .iter()
            .map(|&u| {
                let earlier = pattern
                    .neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&w| w != unit.pivot && position[w] < position[u]);
                std::iter::once(unit.pivot).chain(earlier).collect()
            })
            .collect();
        UnitExpansion { pattern, symmetry, pivot: Some(unit.pivot), leaves, back_edges }
    }

    /// Matches `rest` one vertex at a time, in that order, below a parent
    /// that matches every other vertex of the pattern. Each vertex's back
    /// edges are all its neighbours outside `rest` and those before it in
    /// `rest`; there is no pivot.
    ///
    /// # Panics
    ///
    /// If a vertex of `rest` has no back edge (the parent plus the order
    /// must be connected, or its candidates would be a Cartesian product).
    pub fn from_order(
        pattern: &'a Pattern,
        symmetry: &'a SymmetryBreaking,
        rest: Vec<PatternVertex>,
    ) -> Self {
        let back_edges: Vec<Vec<PatternVertex>> = rest
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                let back: Vec<PatternVertex> = pattern
                    .neighbors(u)
                    .iter()
                    .copied()
                    .filter(|w| !rest[i..].contains(w))
                    .collect();
                assert!(!back.is_empty(), "query vertex {u} has no matched neighbour");
                back
            })
            .collect();
        UnitExpansion { pattern, symmetry, pivot: None, leaves: rest, back_edges }
    }

    /// The pivot query vertex of a unit (`None` for a context built from an
    /// order).
    pub fn pivot(&self) -> Option<PatternVertex> {
        self.pivot
    }

    /// The vertices this context matches, in matching order.
    pub fn leaves(&self) -> &[PatternVertex] {
        &self.leaves
    }
}

/// What an expansion keeps of the extensions it finds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Every extension, in the [`ExtensionBuffer`].
    Store,
    /// Only their number: the buffer stores nothing.
    Count,
}

/// One embedding candidate produced by expanding a single parent embedding:
/// the data vertices of the unit's leaves (aligned with
/// [`UnitExpansion::leaves`]) plus the undetermined edges it depends on.
///
/// The engine's hot loop reads extensions directly out of the flat
/// [`ExtensionBuffer`]; this owned form exists for tests and one-shot callers
/// ([`expand_embedding`], [`ExtensionBuffer::to_extensions`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateExtension {
    /// Data vertices assigned to the unit's leaves, in matching order.
    pub leaves: Vec<VertexId>,
    /// Data-edge pairs that could not be decided locally.
    pub undetermined: Vec<(VertexId, VertexId)>,
}

/// The embedding candidates of one parent embedding, stored flat: all leaf
/// assignments in one vector (extension `i` occupies the `i`-th chunk of
/// `leaf_count` entries) and all undetermined edges in one shared pool sliced
/// by per-extension ranges. Reused across parents — after the buffers have
/// grown to their working size, expansion allocates nothing per extension.
#[derive(Debug, Default)]
pub struct ExtensionBuffer {
    leaf_count: usize,
    /// `false` for a [`Sink::Count`] expansion: extensions are counted only.
    store: bool,
    /// Extensions found (stored or not).
    len: usize,
    leaves: Vec<VertexId>,
    /// Per-extension `(start, end)` range into `pool`.
    undetermined_ranges: Vec<(usize, usize)>,
    pool: Vec<(VertexId, VertexId)>,
}

impl ExtensionBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the buffer and fixes the per-extension leaf count and whether
    /// extensions are stored.
    fn reset(&mut self, leaf_count: usize, sink: Sink) {
        self.leaf_count = leaf_count;
        self.store = sink == Sink::Store;
        self.len = 0;
        self.leaves.clear();
        self.undetermined_ranges.clear();
        self.pool.clear();
    }

    /// Number of extensions found — stored ones, or under [`Sink::Count`]
    /// all that were counted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no extension was found.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The leaf assignment of extension `i`, aligned with
    /// [`UnitExpansion::leaves`] (stored extensions only).
    pub fn leaves(&self, i: usize) -> &[VertexId] {
        &self.leaves[i * self.leaf_count..(i + 1) * self.leaf_count]
    }

    /// The undetermined data edges of extension `i`.
    pub fn undetermined(&self, i: usize) -> &[(VertexId, VertexId)] {
        let (start, end) = self.undetermined_ranges[i];
        &self.pool[start..end]
    }

    /// Appends one complete extension (copies the current backtracking
    /// stacks into the flat storage), or only counts it.
    fn push(&mut self, leaves: &[VertexId], undetermined: &[(VertexId, VertexId)]) {
        debug_assert_eq!(leaves.len(), self.leaf_count);
        self.len += 1;
        if !self.store {
            return;
        }
        self.leaves.extend_from_slice(leaves);
        let start = self.pool.len();
        self.pool.extend_from_slice(undetermined);
        self.undetermined_ranges.push((start, self.pool.len()));
    }

    /// Live bytes of the stored extensions (what the memory governor charges
    /// against the intermediate-result budget: the data held for the parent
    /// currently being expanded, not the buffers' sticky capacity, which is
    /// reusable scratch).
    pub fn memory_bytes(&self) -> usize {
        self.leaves.len() * std::mem::size_of::<VertexId>()
            + self.undetermined_ranges.len() * std::mem::size_of::<(usize, usize)>()
            + self.pool.len() * std::mem::size_of::<(VertexId, VertexId)>()
    }

    /// Copies the buffer out into owned [`CandidateExtension`]s (tests and
    /// one-shot callers).
    pub fn to_extensions(&self) -> Vec<CandidateExtension> {
        (0..self.undetermined_ranges.len())
            .map(|i| CandidateExtension {
                leaves: self.leaves(i).to_vec(),
                undetermined: self.undetermined(i).to_vec(),
            })
            .collect()
    }
}

/// Back-edge endpoints whose adjacency is known locally are intersected
/// up-front; at most this many lists are collected per leaf (the rest fall
/// back to per-candidate probes, which is always correct, just slower).
/// Patterns have at most ~10 vertices, so the cap is never hit in practice.
const KNOWN_LISTS_CAP: usize = 16;

/// Reusable expansion state: per-leaf candidate buffers, per-leaf probe
/// lists, the backtracking stacks and the output [`ExtensionBuffer`]. One
/// `Expander` serves arbitrarily many parent embeddings, rounds and region
/// groups; every buffer is reused, so the steady-state expansion loop is
/// allocation-free.
#[derive(Debug, Default)]
pub struct Expander {
    out: ExtensionBuffer,
    /// Per-leaf candidate buffers (intersection results).
    bufs: Vec<Vec<VertexId>>,
    /// Per-leaf endpoints that must be probed per candidate (adjacency not
    /// locally known, or beyond [`KNOWN_LISTS_CAP`]).
    probes: Vec<Vec<VertexId>>,
    /// k-way intersection scratch.
    tmp: Vec<VertexId>,
    /// Backtracking stack of assigned leaves.
    leaves_assigned: Vec<VertexId>,
    /// Backtracking stack of undetermined edges.
    undetermined: Vec<(VertexId, VertexId)>,
    /// Intersection-kernel counters, accumulated over the expander's life.
    intersect_stats: IntersectStats,
    /// Search-tree nodes, accumulated over the expander's life: see
    /// [`search_nodes`](Self::search_nodes).
    search_nodes: u64,
}

impl Expander {
    /// A fresh expander with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intersection-kernel counters accumulated since construction.
    pub fn intersect_stats(&self) -> &IntersectStats {
        &self.intersect_stats
    }

    /// Search-tree nodes visited since construction: one per vertex placed,
    /// and one per extension of a last vertex counted in bulk, so a
    /// [`Sink::Count`] and a [`Sink::Store`] expansion of the same parent
    /// visit the same number. The parent's own vertices are not included.
    pub fn search_nodes(&self) -> u64 {
        self.search_nodes
    }

    /// Live bytes of the current extension output (see
    /// [`ExtensionBuffer::memory_bytes`]); the governor adds this to the trie
    /// footprint at every checkpoint.
    pub fn memory_bytes(&self) -> usize {
        self.out.memory_bytes()
    }

    /// Expands one embedding `f` of `P_{i-1}` (given as an assignment indexed
    /// by query vertex, with exactly the vertices of `P_{i-1}` set) into all
    /// embedding candidates of `P_i` visible from this machine. The returned
    /// buffer is valid until the next `expand` call.
    ///
    /// `f` is used as scratch space during the backtracking and restored
    /// before returning. Generic over the oracle so the innermost loop is
    /// statically dispatched (no `&dyn` indirection per candidate).
    pub fn expand<O: AdjacencyOracle + ?Sized>(
        &mut self,
        ctx: &UnitExpansion<'_>,
        f: &mut [Option<VertexId>],
        oracle: &O,
    ) -> &ExtensionBuffer {
        self.run::<false, O>(ctx, f, oracle, Sink::Store);
        &self.out
    }

    /// [`expand`](Self::expand) for a caller that can only use embeddings:
    /// gives up at the first edge the oracle cannot decide, and at the first
    /// vertex none of whose matched neighbours has a known adjacency list,
    /// and returns `None`, with the output empty and `f` restored. When it
    /// returns a buffer, that buffer holds (or, under [`Sink::Count`],
    /// counts) exactly what `expand` would have produced, and no extension
    /// in it has an undetermined edge.
    pub fn expand_strict<O: AdjacencyOracle + ?Sized>(
        &mut self,
        ctx: &UnitExpansion<'_>,
        f: &mut [Option<VertexId>],
        oracle: &O,
        sink: Sink,
    ) -> Option<&ExtensionBuffer> {
        if self.run::<true, O>(ctx, f, oracle, sink) {
            Some(&self.out)
        } else {
            self.out.reset(ctx.leaves.len(), sink);
            None
        }
    }

    /// Fills `out` with the extensions of `f`; `false` when `STRICT` and the
    /// enumeration was cut short.
    fn run<const STRICT: bool, O: AdjacencyOracle + ?Sized>(
        &mut self,
        ctx: &UnitExpansion<'_>,
        f: &mut [Option<VertexId>],
        oracle: &O,
        sink: Sink,
    ) -> bool {
        self.out.reset(ctx.leaves.len(), sink);
        if self.bufs.len() < ctx.leaves.len() {
            self.bufs.resize_with(ctx.leaves.len(), Vec::new);
            self.probes.resize_with(ctx.leaves.len(), Vec::new);
        }
        self.leaves_assigned.clear();
        self.undetermined.clear();
        self.backtrack::<STRICT, O>(ctx, 0, f, oracle)
    }

    fn backtrack<const STRICT: bool, O: AdjacencyOracle + ?Sized>(
        &mut self,
        ctx: &UnitExpansion<'_>,
        idx: usize,
        f: &mut [Option<VertexId>],
        oracle: &O,
    ) -> bool {
        if idx == ctx.leaves.len() {
            // split borrows: `out` is disjoint from the stacks
            let Expander { out, leaves_assigned, undetermined, .. } = self;
            out.push(leaves_assigned, undetermined);
            return true;
        }
        let u = ctx.leaves[idx];

        // Partition the leaf's back edges: endpoints with locally known
        // adjacency join the intersection, cut to the interval symmetry
        // breaking allows `u` (fixed while its candidates are walked), and
        // the rest are probed per candidate.
        let (lo, hi) = ctx.symmetry.bounds(u, f);
        let mut known: [&[VertexId]; KNOWN_LISTS_CAP] = [&[]; KNOWN_LISTS_CAP];
        let mut known_len = 0usize;
        let mut probe = std::mem::take(&mut self.probes[idx]);
        probe.clear();
        for &u2 in &ctx.back_edges[idx] {
            let v2 = f[u2].expect("back-edge endpoint is matched");
            match oracle.adjacency(v2) {
                Some(adj) if known_len < KNOWN_LISTS_CAP => {
                    known[known_len] = within(adj, lo, hi);
                    known_len += 1;
                }
                _ => probe.push(v2),
            }
        }

        let mut buf = std::mem::take(&mut self.bufs[idx]);
        let candidates: &[VertexId] = match known_len {
            // A unit's pivot is always known to the engine (it fetches it
            // first); without any list there is nothing to scan.
            0 => {
                self.probes[idx] = probe;
                self.bufs[idx] = buf;
                return !STRICT;
            }
            1 => known[0],
            _ => {
                intersect_k_into(
                    &mut known[..known_len],
                    &mut buf,
                    &mut self.tmp,
                    &mut self.intersect_stats,
                );
                &buf
            }
        };

        // A strict counting expansion counts its last vertex's candidates
        // instead of walking them, when every pattern neighbour of that
        // vertex is a back edge with a known list: see `count_last`.
        if STRICT
            && !self.out.store
            && idx + 1 == ctx.leaves.len()
            && probe.is_empty()
            && ctx.back_edges[idx].len() == ctx.pattern.degree(u)
        {
            let counted = count_last(candidates, f);
            self.out.len += counted;
            self.search_nodes += counted as u64;
            self.bufs[idx] = buf;
            self.probes[idx] = probe;
            return true;
        }

        let mut complete = true;
        'candidates: for &v in candidates {
            // injectivity against every matched query vertex
            if f.contains(&Some(v)) {
                continue;
            }
            // degree filter, only when the full adjacency of v is known locally
            if let Some(adj) = oracle.adjacency(v) {
                if adj.len() < ctx.pattern.degree(u) {
                    continue;
                }
            }
            let undetermined_before = self.undetermined.len();
            for &v2 in &probe {
                match oracle.decide_edge(v, v2) {
                    Some(true) => {}
                    Some(false) => {
                        self.undetermined.truncate(undetermined_before);
                        continue 'candidates;
                    }
                    None if STRICT => {
                        complete = false;
                        break 'candidates;
                    }
                    None => self.undetermined.push((v, v2)),
                }
            }
            f[u] = Some(v);
            self.leaves_assigned.push(v);
            self.search_nodes += 1;
            complete = self.backtrack::<STRICT, O>(ctx, idx + 1, f, oracle);
            self.leaves_assigned.pop();
            f[u] = None;
            self.undetermined.truncate(undetermined_before);
            if !complete {
                break;
            }
        }

        self.bufs[idx] = buf;
        self.probes[idx] = probe;
        complete
    }
}

/// The part of the sorted `list` inside the open interval `(lo, hi)`; an
/// absent bound does not cut.
fn within(list: &[VertexId], lo: Option<VertexId>, hi: Option<VertexId>) -> &[VertexId] {
    let start = lo.map_or(0, |lo| list.partition_point(|&v| v <= lo));
    let end = hi.map_or(list.len(), |hi| list.partition_point(|&v| v < hi));
    &list[start..end.max(start)]
}

/// The number of extensions the per-candidate walk would find at the last
/// vertex, whose sorted `candidates` are already refuted by no back edge and
/// cut to the interval symmetry breaking allows: the candidates less the
/// matched vertices among them (injectivity). The degree filter drops
/// nothing here: every pattern neighbour of the vertex is a back edge, so
/// each candidate is adjacent to as many distinct matched vertices as the
/// vertex has neighbours.
fn count_last(candidates: &[VertexId], f: &[Option<VertexId>]) -> usize {
    let matched = f.iter().flatten().filter(|v| candidates.binary_search(v).is_ok()).count();
    candidates.len() - matched
}

/// One-shot convenience over [`Expander::expand`] returning owned
/// extensions. The engine reuses an [`Expander`] instead; this entry point
/// serves tests and callers that expand a single embedding.
pub fn expand_embedding<O: AdjacencyOracle + ?Sized>(
    ctx: &UnitExpansion<'_>,
    f: &mut [Option<VertexId>],
    oracle: &O,
) -> Vec<CandidateExtension> {
    Expander::new().expand(ctx, f, oracle).to_extensions()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rads_graph::{queries, GraphBuilder};
    use rads_plan::{best_plan, PlannerConfig};
    use std::collections::HashMap;

    /// A toy oracle over an explicit adjacency map (only "known" vertices).
    struct MapOracle {
        adj: HashMap<VertexId, Vec<VertexId>>,
    }

    impl MapOracle {
        fn from_edges(known: &[VertexId], edges: &[(VertexId, VertexId)]) -> Self {
            let graph = GraphBuilder::from_edges(0, edges);
            let adj = known
                .iter()
                .map(|&v| (v, graph.neighbors(v).to_vec()))
                .collect();
            MapOracle { adj }
        }
    }

    impl AdjacencyOracle for MapOracle {
        fn adjacency(&self, v: VertexId) -> Option<&[VertexId]> {
            self.adj.get(&v).map(|a| a.as_slice())
        }
    }

    #[test]
    fn triangle_expansion_finds_local_embedding() {
        // data triangle 0-1-2 plus edge 2-3, everything known locally
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3)];
        let oracle = MapOracle::from_edges(&[0, 1, 2, 3], &edges);
        let pattern = queries::query_by_name("triangle").unwrap();
        let plan = best_plan(&pattern, &PlannerConfig::default());
        let symmetry = SymmetryBreaking::new(&pattern);
        let ctx = UnitExpansion::new(&pattern, &plan, &symmetry, 0);
        let mut f = vec![None; 3];
        f[ctx.pivot().unwrap()] = Some(2); // start from the hub vertex 2
        let extensions = expand_embedding(&ctx, &mut f, &oracle);
        // exactly one triangle through vertex 2 (symmetry breaking keeps one
        // of the two leaf orders)
        assert_eq!(extensions.len(), 1);
        assert!(extensions[0].undetermined.is_empty());
        let mut leaves = extensions[0].leaves.clone();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![0, 1]);
        // scratch restored
        assert_eq!(f.iter().filter(|a| a.is_some()).count(), 1);
    }

    #[test]
    fn unknown_sibling_edges_become_undetermined() {
        // Example 1: pivot v0 owned; neighbours v1, v2 foreign, so the sibling
        // edge (v1, v2) cannot be decided locally.
        let edges = [(0, 1), (0, 2), (1, 2)];
        let oracle = MapOracle::from_edges(&[0], &edges); // only v0 known
        let pattern = queries::query_by_name("triangle").unwrap();
        let plan = best_plan(&pattern, &PlannerConfig::default());
        // symmetry breaking disabled so both leaf orders survive and the test
        // can focus on the undetermined-edge bookkeeping
        let symmetry = SymmetryBreaking::disabled(&pattern);
        let ctx = UnitExpansion::new(&pattern, &plan, &symmetry, 0);
        let mut f = vec![None; 3];
        f[ctx.pivot().unwrap()] = Some(0);
        let extensions = expand_embedding(&ctx, &mut f, &oracle);
        assert_eq!(extensions.len(), 2);
        for ext in &extensions {
            assert_eq!(ext.undetermined.len(), 1);
            let (a, b) = ext.undetermined[0];
            assert_eq!([a.min(b), a.max(b)], [1, 2]);
        }
    }

    #[test]
    fn locally_refutable_candidates_are_pruned() {
        // star: 0 adjacent to 1, 2, 3 but no edges among the leaves, all known
        let edges = [(0, 1), (0, 2), (0, 3)];
        let oracle = MapOracle::from_edges(&[0, 1, 2, 3], &edges);
        let pattern = queries::query_by_name("triangle").unwrap();
        let plan = best_plan(&pattern, &PlannerConfig::default());
        let symmetry = SymmetryBreaking::new(&pattern);
        let ctx = UnitExpansion::new(&pattern, &plan, &symmetry, 0);
        let mut f = vec![None; 3];
        f[ctx.pivot().unwrap()] = Some(0);
        let extensions = expand_embedding(&ctx, &mut f, &oracle);
        assert!(extensions.is_empty());
    }

    #[test]
    fn second_round_uses_cross_unit_edges() {
        // pattern q4 (house) has two rounds; build a data graph that contains
        // it and check round-1 expansion from a completed round-0 embedding.
        let pattern = queries::q4();
        let plan = best_plan(&pattern, &PlannerConfig::default());
        assert!(plan.rounds() >= 2);
        // data graph = the house itself, vertices 10..15 to avoid id aliasing
        let edges: Vec<(VertexId, VertexId)> = pattern
            .edges()
            .iter()
            .map(|&(a, b)| (a as VertexId + 10, b as VertexId + 10))
            .collect();
        let all: Vec<VertexId> = (10..15).collect();
        let oracle = MapOracle::from_edges(&all, &edges);
        let symmetry = SymmetryBreaking::disabled(&pattern);
        // run round 0 from the identity start
        let ctx0 = UnitExpansion::new(&pattern, &plan, &symmetry, 0);
        let start = plan.start_vertex();
        let mut f = vec![None; pattern.vertex_count()];
        f[start] = Some(start as VertexId + 10);
        let ext0 = expand_embedding(&ctx0, &mut f, &oracle);
        // at least the identity extension exists
        assert!(!ext0.is_empty());
        // pick the identity one and continue to round 1
        let identity = ext0
            .iter()
            .find(|e| {
                e.leaves
                    .iter()
                    .zip(ctx0.leaves())
                    .all(|(&dv, &qv)| dv == qv as VertexId + 10)
            })
            .expect("identity extension present");
        for (&qv, &dv) in ctx0.leaves().iter().zip(&identity.leaves) {
            f[qv] = Some(dv);
        }
        let ctx1 = UnitExpansion::new(&pattern, &plan, &symmetry, 1);
        let ext1 = expand_embedding(&ctx1, &mut f, &oracle);
        assert!(ext1
            .iter()
            .any(|e| e.leaves.iter().zip(ctx1.leaves()).all(|(&dv, &qv)| dv == qv as VertexId + 10)));
        for e in &ext1 {
            assert!(e.undetermined.is_empty());
        }
    }

    /// A reusable expander and the one-shot helper must produce identical
    /// extension sets, and the flat buffer must round-trip through
    /// `to_extensions` — on a mixed known/unknown oracle so both the
    /// intersection path and the probe fallback are exercised.
    #[test]
    fn expander_reuse_matches_one_shot_expansion() {
        let pattern = queries::q1(); // 4-cycle: leaves with non-pivot back edges
        let plan = best_plan(&pattern, &PlannerConfig::default());
        let symmetry = SymmetryBreaking::disabled(&pattern);
        // a 4x4 grid-ish graph, half the vertices known locally
        let edges: Vec<(VertexId, VertexId)> = (0..12u32)
            .flat_map(|i| [(i, (i + 1) % 12), (i, (i + 3) % 12)])
            .collect();
        let known: Vec<VertexId> = (0..12).filter(|v| v % 2 == 0).collect();
        let oracle = MapOracle::from_edges(&known, &edges);
        let mut expander = Expander::new();
        let ctx = UnitExpansion::new(&pattern, &plan, &symmetry, 0);
        for start_data in 0..12u32 {
            if oracle.adjacency(start_data).is_none() {
                continue;
            }
            let mut f = vec![None; pattern.vertex_count()];
            f[ctx.pivot().unwrap()] = Some(start_data);
            let reused = expander.expand(&ctx, &mut f, &oracle).to_extensions();
            let mut f2 = vec![None; pattern.vertex_count()];
            f2[ctx.pivot().unwrap()] = Some(start_data);
            let one_shot = expand_embedding(&ctx, &mut f2, &oracle);
            assert_eq!(reused, one_shot, "pivot {start_data}");
            // scratch restored
            assert_eq!(f.iter().filter(|a| a.is_some()).count(), 1);
        }

        // A triangle unit has a leaf-to-leaf back edge, so with the endpoint
        // adjacency known locally the intersection kernel must run.
        let triangle = queries::query_by_name("triangle").unwrap();
        let tri_plan = best_plan(&triangle, &PlannerConfig::default());
        let tri_symmetry = SymmetryBreaking::disabled(&triangle);
        let tri_ctx = UnitExpansion::new(&triangle, &tri_plan, &tri_symmetry, 0);
        let tri_edges = [(0, 1), (1, 2), (2, 0), (2, 3)];
        let tri_oracle = MapOracle::from_edges(&[0, 1, 2, 3], &tri_edges);
        let mut f = vec![None; 3];
        f[tri_ctx.pivot().unwrap()] = Some(2);
        let exts = expander.expand(&tri_ctx, &mut f, &tri_oracle).to_extensions();
        assert_eq!(exts.len(), 2); // both leaf orders of the one triangle
        assert!(expander.intersect_stats().kernel_calls > 0);
    }

    /// Counts the edge decisions asked of the wrapped oracle.
    struct CountingOracle {
        inner: MapOracle,
        decisions: std::cell::Cell<usize>,
    }

    impl AdjacencyOracle for CountingOracle {
        fn adjacency(&self, v: VertexId) -> Option<&[VertexId]> {
            self.inner.adjacency(v)
        }

        fn decide_edge(&self, u: VertexId, v: VertexId) -> Option<bool> {
            self.decisions.set(self.decisions.get() + 1);
            self.inner.decide_edge(u, v)
        }
    }

    #[test]
    fn strict_expansion_stops_at_the_first_undetermined_edge() {
        // a 6-clique seen from vertex 0 alone: every sibling edge of a
        // triangle through 0 is undetermined
        let edges: Vec<(VertexId, VertexId)> =
            (0..6).flat_map(|a| (a + 1..6).map(move |b| (a, b))).collect();
        let oracle = CountingOracle {
            inner: MapOracle::from_edges(&[0], &edges),
            decisions: std::cell::Cell::new(0),
        };
        let pattern = queries::query_by_name("triangle").unwrap();
        let plan = best_plan(&pattern, &PlannerConfig::default());
        let symmetry = SymmetryBreaking::disabled(&pattern);
        let ctx = UnitExpansion::new(&pattern, &plan, &symmetry, 0);
        let mut f = vec![None; 3];
        f[ctx.pivot().unwrap()] = Some(0);
        let before = f.clone();
        let mut expander = Expander::new();

        assert_eq!(expander.expand(&ctx, &mut f, &oracle).len(), 20);
        assert_eq!(oracle.decisions.get(), 20, "one decision per ordered leaf pair");
        oracle.decisions.set(0);

        assert!(expander.expand_strict(&ctx, &mut f, &oracle, Sink::Store).is_none());
        assert_eq!(oracle.decisions.get(), 1, "strict expansion went past the first unknown");
        assert_eq!(f, before, "f not restored after the abort");
        assert_eq!(expander.memory_bytes(), 0, "an aborted expansion keeps no output");
    }

    /// Expands the parent in `f` at `round` with both modes and checks that
    /// strict expansion returns the full expansion's buffer and leaves `f`
    /// as it found it; then recurses into every extension. Returns the
    /// parents checked.
    fn check_strict_matches_full(
        units: &[UnitExpansion<'_>],
        round: usize,
        f: &mut [Option<VertexId>],
        oracle: &MapOracle,
        expanders: &mut (Expander, Expander),
    ) -> usize {
        let before = f.to_vec();
        let expected = expanders.0.expand(&units[round], f, oracle).to_extensions();
        let strict = expanders
            .1
            .expand_strict(&units[round], f, oracle, Sink::Store)
            .expect("nothing is undetermined when every vertex is known")
            .to_extensions();
        assert_eq!(strict, expected, "round {round}, parent {before:?}");
        assert_eq!(f, &before[..], "f not restored");
        let mut checked = 1;
        if round + 1 < units.len() {
            for extension in &expected {
                for (&u, &v) in units[round].leaves().iter().zip(&extension.leaves) {
                    f[u] = Some(v);
                }
                checked += check_strict_matches_full(units, round + 1, f, oracle, expanders);
                for &u in units[round].leaves() {
                    f[u] = None;
                }
            }
        }
        checked
    }

    #[test]
    fn strict_expansion_equals_full_expansion_without_undetermined_edges() {
        let edges: Vec<(VertexId, VertexId)> = (0..16u32)
            .flat_map(|i| [1, 2, 3, 5].map(|step| (i, (i + step) % 16)))
            .collect();
        let all: Vec<VertexId> = (0..16).collect();
        let oracle = MapOracle::from_edges(&all, &edges);
        let mut expanders = (Expander::new(), Expander::new());
        for pattern in [queries::q1(), queries::q4(), queries::q5(), queries::q7()] {
            let plan = best_plan(&pattern, &PlannerConfig::default());
            let symmetry = SymmetryBreaking::new(&pattern);
            let units: Vec<UnitExpansion<'_>> = (0..plan.rounds())
                .map(|round| UnitExpansion::new(&pattern, &plan, &symmetry, round))
                .collect();
            let mut checked = 0;
            for start in all.iter().copied() {
                let mut f = vec![None; pattern.vertex_count()];
                f[plan.start_vertex()] = Some(start);
                checked += check_strict_matches_full(&units, 0, &mut f, &oracle, &mut expanders);
            }
            assert!(checked > all.len(), "no parent beyond round 0 was checked");
        }
    }

    /// Every complete embedding below the parent in `f` at `round`, found
    /// unit by unit with full expansions.
    fn complete_by_units(
        units: &[UnitExpansion<'_>],
        round: usize,
        f: &mut [Option<VertexId>],
        oracle: &MapOracle,
        out: &mut Vec<Vec<VertexId>>,
    ) {
        let extensions = Expander::new().expand(&units[round], f, oracle).to_extensions();
        for extension in extensions {
            for (&u, &v) in units[round].leaves().iter().zip(&extension.leaves) {
                f[u] = Some(v);
            }
            if round + 1 == units.len() {
                out.push(f.iter().map(|v| v.expect("complete")).collect());
            } else {
                complete_by_units(units, round + 1, f, oracle, out);
            }
            for &u in units[round].leaves() {
                f[u] = None;
            }
        }
    }

    /// Matches the rest of the pattern below the parent in `f` at `round`
    /// one vertex at a time in `order`, checks it against unit-by-unit
    /// expansion (stored and counted) and the round's unit counted against
    /// it stored, then recurses into every parent of the next round. Returns
    /// the parents checked.
    fn check_whole_rest(
        symmetry: &SymmetryBreaking,
        units: &[UnitExpansion<'_>],
        order: &[PatternVertex],
        round: usize,
        f: &mut [Option<VertexId>],
        oracle: &MapOracle,
        whole: &mut Expander,
    ) -> usize {
        let pattern = units[0].pattern;
        let rest: Vec<PatternVertex> = order.iter().copied().filter(|&u| f[u].is_none()).collect();
        let ctx = UnitExpansion::from_order(pattern, symmetry, rest);
        let before = f.to_vec();
        let mut expected = Vec::new();
        complete_by_units(units, round, f, oracle, &mut expected);
        expected.sort();
        let nodes_before = whole.search_nodes();
        let stored = whole
            .expand_strict(&ctx, f, oracle, Sink::Store)
            .expect("nothing is unknown on a fully known graph")
            .to_extensions();
        let stored_nodes = whole.search_nodes() - nodes_before;
        assert_eq!(f, &before[..], "f not restored");
        let mut found: Vec<Vec<VertexId>> = stored
            .iter()
            .map(|extension| {
                assert!(extension.undetermined.is_empty());
                let mut embedding = f.to_vec();
                for (&u, &v) in ctx.leaves().iter().zip(&extension.leaves) {
                    embedding[u] = Some(v);
                }
                embedding.iter().map(|v| v.expect("complete")).collect()
            })
            .collect();
        found.sort();
        assert_eq!(found, expected, "{pattern:?}, order {order:?}, parent {before:?}");
        let counted = whole.expand_strict(&ctx, f, oracle, Sink::Count).expect("known").len();
        assert_eq!(counted, expected.len());
        // the counted last vertex adds what walking it would have placed
        let counted_nodes = whole.search_nodes() - nodes_before - stored_nodes;
        assert_eq!(counted_nodes, stored_nodes, "{pattern:?}, order {order:?}, parent {before:?}");
        assert!(stored_nodes >= expected.len() as u64, "one node per embedding at least");
        assert_eq!(whole.memory_bytes(), 0, "a counting sink stores nothing");
        // the round's unit alone, counted strictly: its last leaf is counted
        // in bulk only where all of its pattern neighbours are matched
        let extensions = Expander::new().expand(&units[round], f, oracle).to_extensions();
        let unit_counted =
            whole.expand_strict(&units[round], f, oracle, Sink::Count).expect("known").len();
        assert_eq!(unit_counted, extensions.len(), "round {round} unit, parent {before:?}");
        let mut checked = 1;
        if round + 1 < units.len() {
            for extension in extensions {
                for (&u, &v) in units[round].leaves().iter().zip(&extension.leaves) {
                    f[u] = Some(v);
                }
                checked += check_whole_rest(symmetry, units, order, round + 1, f, oracle, whole);
                for &u in units[round].leaves() {
                    f[u] = None;
                }
            }
        }
        checked
    }

    /// Checks whole-rest matching against unit-by-unit expansion for every
    /// query of q1–q8 and c1–c4, in the plan's and the greedy order, below
    /// every parent of every round from each vertex of `starts`.
    fn check_whole_rest_for_every_query(oracle: &MapOracle, starts: &[VertexId], symmetric: bool) {
        let mut whole = Expander::new();
        let mut patterns = queries::standard_query_set();
        patterns.extend(queries::clique_query_set());
        for query in patterns {
            let pattern = &query.pattern;
            let plan = best_plan(pattern, &PlannerConfig::default());
            let symmetry = if symmetric {
                SymmetryBreaking::new(pattern)
            } else {
                SymmetryBreaking::disabled(pattern)
            };
            let units: Vec<UnitExpansion<'_>> = (0..plan.rounds())
                .map(|round| UnitExpansion::new(pattern, &plan, &symmetry, round))
                .collect();
            let greedy = rads_single::MatchingOrder::greedy_from(pattern, plan.start_vertex());
            for order in [plan.matching_order(), greedy.order()] {
                let mut checked = 0;
                for &start in starts {
                    let mut f = vec![None; pattern.vertex_count()];
                    f[plan.start_vertex()] = Some(start);
                    checked +=
                        check_whole_rest(&symmetry, &units, order, 0, &mut f, oracle, &mut whole);
                }
                assert!(
                    plan.rounds() == 1 || checked > starts.len(),
                    "{}: no parent beyond round 0 was checked",
                    query.name
                );
            }
        }
    }

    #[test]
    fn whole_rest_matching_equals_unit_by_unit_expansion_in_both_orders() {
        let edges: Vec<(VertexId, VertexId)> = (0..16u32)
            .flat_map(|i| [1, 2, 3, 5].map(|step| (i, (i + step) % 16)))
            .collect();
        let all: Vec<VertexId> = (0..16).collect();
        let oracle = MapOracle::from_edges(&all, &edges);
        check_whole_rest_for_every_query(&oracle, &all, true);
    }

    /// The counted last vertex of a whole-rest attempt, on irregular graphs
    /// (where the degree filter of the unit-by-unit reference prunes), with
    /// symmetry breaking on and off; it adds to the search-node total what
    /// the stored walk places. On an oracle that knows only part of the
    /// graph, an attempt whose last vertex has an unknown back edge still
    /// gives up, counted or stored, and one that completes counts what the
    /// fully known graph has below its parent.
    #[test]
    fn counted_last_vertex_equals_unit_by_unit_expansion_on_irregular_graphs() {
        for seed in [1, 2, 3] {
            let graph = rads_graph::generators::erdos_renyi(20, 0.3, seed);
            let degrees: Vec<usize> = graph.vertices().map(|v| graph.degree(v)).collect();
            assert!(degrees.iter().min() < degrees.iter().max(), "seed {seed}: a regular graph");
            let edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
            let all: Vec<VertexId> = graph.vertices().collect();
            let oracle = MapOracle::from_edges(&all, &edges);
            for symmetric in [true, false] {
                check_whole_rest_for_every_query(&oracle, &all, symmetric);
            }

            let known: Vec<VertexId> = all.iter().copied().filter(|v| v % 3 != 0).collect();
            let partial = MapOracle::from_edges(&known, &edges);
            let (mut gave_up, mut completed) = (0, 0);
            let mut expander = Expander::new();
            for query in [queries::q1(), queries::q4(), queries::c1()] {
                let plan = best_plan(&query, &PlannerConfig::default());
                let symmetry = SymmetryBreaking::new(&query);
                let units: Vec<UnitExpansion<'_>> = (0..plan.rounds())
                    .map(|round| UnitExpansion::new(&query, &plan, &symmetry, round))
                    .collect();
                let rest: Vec<PatternVertex> = plan.matching_order()[1..].to_vec();
                let ctx = UnitExpansion::from_order(&query, &symmetry, rest);
                for &start in &known {
                    let mut f = vec![None; query.vertex_count()];
                    f[plan.start_vertex()] = Some(start);
                    let [(stored, stored_nodes), (counted, counted_nodes)] =
                        [Sink::Store, Sink::Count].map(|sink| {
                            let before = expander.search_nodes();
                            let found = expander.expand_strict(&ctx, &mut f, &partial, sink);
                            (found.map(|b| b.len()), expander.search_nodes() - before)
                        });
                    assert_eq!(counted, stored, "seed {seed}, {query:?}, start {start}");
                    assert_eq!(
                        counted_nodes, stored_nodes,
                        "seed {seed}, {query:?}, start {start}"
                    );
                    let Some(counted) = counted else {
                        gave_up += 1;
                        continue;
                    };
                    completed += 1;
                    let mut expected = Vec::new();
                    complete_by_units(&units, 0, &mut f, &oracle, &mut expected);
                    assert_eq!(counted, expected.len(), "seed {seed}, {query:?}, start {start}");
                }
            }
            assert!(gave_up > 0 && completed > 0, "seed {seed}: {gave_up} gave up, {completed} done");
        }

        // the last vertex of a triangle below 0 and 2 has the back edge to
        // vertex 2, whose list is unknown: the first candidate the known
        // lists cannot decide ends the attempt, counted as well as stored
        let edges: Vec<(VertexId, VertexId)> =
            (0..6).flat_map(|a| (a + 1..6).map(move |b| (a, b))).collect();
        let oracle = MapOracle::from_edges(&[0, 1], &edges);
        let pattern = queries::query_by_name("triangle").unwrap();
        let symmetry = SymmetryBreaking::disabled(&pattern);
        let ctx = UnitExpansion::from_order(&pattern, &symmetry, vec![2]);
        let mut f = vec![Some(0), Some(2), None];
        let mut expander = Expander::new();
        for sink in [Sink::Store, Sink::Count] {
            assert!(expander.expand_strict(&ctx, &mut f, &oracle, sink).is_none(), "{sink:?}");
            assert_eq!(f, vec![Some(0), Some(2), None]);
        }
        // below 0 and 1 both lists are known: the four other vertices count
        let mut f = vec![Some(0), Some(1), None];
        let counted = expander.expand_strict(&ctx, &mut f, &oracle, Sink::Count).map(|b| b.len());
        assert_eq!(counted, Some(4));
    }

    /// `ctx` with `symmetry` in place of its own, cut to its first `k`
    /// vertices.
    fn first_leaves<'a>(
        ctx: &UnitExpansion<'a>,
        symmetry: &'a SymmetryBreaking,
        k: usize,
    ) -> UnitExpansion<'a> {
        UnitExpansion {
            pattern: ctx.pattern,
            symmetry,
            pivot: ctx.pivot,
            leaves: ctx.leaves[..k].to_vec(),
            back_edges: ctx.back_edges[..k].to_vec(),
        }
    }

    /// The extensions of `ctx` below `f` found without cutting any list:
    /// expanded with symmetry breaking off, then kept where `check_partial`
    /// admits each leaf in turn.
    fn checked_leaf_by_leaf(
        ctx: &UnitExpansion<'_>,
        f: &mut [Option<VertexId>],
        oracle: &MapOracle,
    ) -> Vec<CandidateExtension> {
        let disabled = SymmetryBreaking::disabled(ctx.pattern);
        let open = first_leaves(ctx, &disabled, ctx.leaves.len());
        let mut extensions = expand_embedding(&open, f, oracle);
        extensions.retain(|extension| {
            let mut g = f.to_vec();
            ctx.leaves.iter().zip(&extension.leaves).all(|(&u, &v)| {
                let admitted = ctx.symmetry.check_partial(u, v, &g);
                g[u] = Some(v);
                admitted
            })
        });
        extensions
    }

    /// What [`check_clipped`] went through.
    #[derive(Debug, Default)]
    struct Clipped {
        parents: usize,
        /// Extensions of the unchecked expansion that symmetry breaking drops.
        removed: usize,
        /// Extensions with an undetermined edge.
        undetermined: usize,
    }

    /// Expands the parent in `f` at `round`, checks the extensions and the
    /// search nodes against [`checked_leaf_by_leaf`], then recurses into
    /// every extension.
    fn check_clipped(
        units: &[UnitExpansion<'_>],
        round: usize,
        f: &mut [Option<VertexId>],
        oracle: &MapOracle,
        expander: &mut Expander,
        seen: &mut Clipped,
    ) {
        let ctx = &units[round];
        let before = f.to_vec();
        let expected = checked_leaf_by_leaf(ctx, f, oracle);
        let nodes_before = expander.search_nodes();
        let clipped = expander.expand(ctx, f, oracle).to_extensions();
        assert_eq!(clipped, expected, "round {round}, parent {before:?}");
        // a node per vertex placed: the admitted extensions of each prefix
        let placed: usize = (1..=ctx.leaves.len())
            .map(|k| checked_leaf_by_leaf(&first_leaves(ctx, ctx.symmetry, k), f, oracle).len())
            .sum();
        let nodes = expander.search_nodes() - nodes_before;
        assert_eq!(nodes, placed as u64, "round {round}, parent {before:?}");
        assert_eq!(f, &before[..], "f not restored");
        let disabled = SymmetryBreaking::disabled(ctx.pattern);
        let open = first_leaves(ctx, &disabled, ctx.leaves.len());
        seen.parents += 1;
        seen.removed += expand_embedding(&open, f, oracle).len() - clipped.len();
        seen.undetermined += clipped.iter().filter(|e| !e.undetermined.is_empty()).count();
        if round + 1 < units.len() {
            for extension in &clipped {
                for (&u, &v) in ctx.leaves().iter().zip(&extension.leaves) {
                    f[u] = Some(v);
                }
                check_clipped(units, round + 1, f, oracle, expander, seen);
                for &u in ctx.leaves() {
                    f[u] = None;
                }
            }
        }
    }

    /// Cutting the known lists to the interval symmetry breaking allows
    /// keeps exactly the extensions, undetermined edges included, that a
    /// per-candidate `check_partial` keeps, and places the same vertices:
    /// every query, every round, on irregular graphs of which the oracle
    /// knows only part.
    #[test]
    fn clipped_lists_equal_checking_each_candidate() {
        let mut expander = Expander::new();
        for seed in [1, 2, 3] {
            let graph = rads_graph::generators::erdos_renyi(20, 0.3, seed);
            let edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
            let known: Vec<VertexId> = graph.vertices().filter(|v| v % 3 != 0).collect();
            let partial = MapOracle::from_edges(&known, &edges);
            let mut patterns = queries::standard_query_set();
            patterns.extend(queries::clique_query_set());
            for query in patterns {
                let pattern = &query.pattern;
                let plan = best_plan(pattern, &PlannerConfig::default());
                let symmetry = SymmetryBreaking::new(pattern);
                let units: Vec<UnitExpansion<'_>> = (0..plan.rounds())
                    .map(|round| UnitExpansion::new(pattern, &plan, &symmetry, round))
                    .collect();
                let mut seen = Clipped::default();
                for &start in &known {
                    let mut f = vec![None; pattern.vertex_count()];
                    f[plan.start_vertex()] = Some(start);
                    check_clipped(&units, 0, &mut f, &partial, &mut expander, &mut seen);
                }
                let what = format!("seed {seed}, {}: {seen:?}", query.name);
                assert!(plan.rounds() == 1 || seen.parents > known.len(), "{what}");
                assert!(seen.removed > 0 && seen.undetermined > 0, "{what}");
            }
        }
    }

    #[test]
    fn whole_rest_matching_gives_up_at_the_first_unknown_adjacency() {
        // a 6-clique seen from vertex 0 alone: after the start vertex, every
        // vertex has a known neighbour (0) but one unknown back edge
        let edges: Vec<(VertexId, VertexId)> =
            (0..6).flat_map(|a| (a + 1..6).map(move |b| (a, b))).collect();
        let oracle = CountingOracle {
            inner: MapOracle::from_edges(&[0], &edges),
            decisions: std::cell::Cell::new(0),
        };
        let pattern = queries::c1();
        let symmetry = SymmetryBreaking::disabled(&pattern);
        let ctx = UnitExpansion::from_order(&pattern, &symmetry, vec![1, 2, 3]);
        let mut f = vec![Some(0), None, None, None];
        let before = f.clone();
        let mut expander = Expander::new();
        for sink in [Sink::Store, Sink::Count] {
            oracle.decisions.set(0);
            assert!(expander.expand_strict(&ctx, &mut f, &oracle, sink).is_none());
            assert_eq!(oracle.decisions.get(), 1, "went past the first unknown edge");
            assert_eq!(f, before, "f not restored after the abort");
            assert_eq!(expander.memory_bytes(), 0, "an abandoned attempt keeps no output");
        }

        // matched from vertex 1 instead: vertex 1's own list is unknown, so
        // the first vertex to match has no known matched-neighbour list at
        // all and the attempt is abandoned before any decision
        let mut f = vec![Some(1), None, None, None];
        oracle.decisions.set(0);
        assert!(expander.expand_strict(&ctx, &mut f, &oracle, Sink::Count).is_none());
        assert_eq!(oracle.decisions.get(), 0);
        assert_eq!(f, vec![Some(1), None, None, None]);
    }

    /// The flat buffer addresses extensions correctly (leaf chunks and
    /// undetermined ranges).
    #[test]
    fn extension_buffer_layout() {
        let mut buf = ExtensionBuffer::new();
        buf.reset(2, Sink::Store);
        buf.push(&[10, 11], &[(1, 2)]);
        buf.push(&[10, 12], &[]);
        buf.push(&[13, 14], &[(3, 4), (5, 6)]);
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
        assert_eq!(buf.leaves(0), &[10, 11]);
        assert_eq!(buf.leaves(2), &[13, 14]);
        assert_eq!(buf.undetermined(0), &[(1, 2)]);
        assert_eq!(buf.undetermined(1), &[]);
        assert_eq!(buf.undetermined(2), &[(3, 4), (5, 6)]);
        let expected_bytes = 6 * std::mem::size_of::<VertexId>()
            + 3 * std::mem::size_of::<(usize, usize)>()
            + 3 * std::mem::size_of::<(VertexId, VertexId)>();
        assert_eq!(buf.memory_bytes(), expected_bytes);
        buf.reset(1, Sink::Store);
        assert!(buf.is_empty());
        // live bytes drop on reset even though capacity is retained
        assert_eq!(buf.memory_bytes(), 0);
    }
}
