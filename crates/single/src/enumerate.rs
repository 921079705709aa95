//! The backtracking enumerator.
//!
//! Candidate generation is **intersection-based** by default: at every
//! matching position the enumerator intersects the adjacency lists of all
//! already-matched pattern neighbours ([`rads_graph::intersect`]), so a
//! candidate is only ever inspected if it is adjacent to *every* matched
//! neighbour. The pre-intersection kernel — seed from one anchor adjacency
//! list, reject with one `has_edge` binary search per back edge — is kept as
//! [`CandidateKernel::Probe`] so tests and benchmarks can pin the two paths
//! against each other.

use rads_graph::intersect::{intersect_k_into, IntersectStats};
use rads_graph::{Graph, Pattern, SymmetryBreaking, VertexId};

use crate::candidates::FilterThresholds;
use crate::order::MatchingOrder;

/// How candidates for each matching position are generated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CandidateKernel {
    /// Intersect the adjacency lists of every already-matched pattern
    /// neighbour (shortest list first, galloping on skewed length ratios).
    /// The default and the fast path.
    #[default]
    Intersect,
    /// The pre-intersection kernel: scan the anchor's adjacency list and
    /// probe each remaining back edge with a binary search. Kept for
    /// equivalence tests and before/after benchmarks.
    Probe,
}

/// Configuration of an enumeration run.
#[derive(Debug, Clone, Default)]
pub struct EnumerationConfig {
    /// Apply automorphism-based symmetry breaking (the paper applies it "by
    /// default"); disable only to cross-check counts in tests.
    pub disable_symmetry_breaking: bool,
    /// Stop after this many embeddings have been reported.
    pub max_results: Option<u64>,
    /// Explicit matching order; `None` selects [`MatchingOrder::default_for`].
    pub order: Option<MatchingOrder>,
    /// Candidate-generation kernel (default: [`CandidateKernel::Intersect`]).
    pub kernel: CandidateKernel,
}

/// Statistics of an enumeration run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnumerationStats {
    /// Number of embeddings reported to the callback.
    pub embeddings: u64,
    /// Number of search-tree nodes (successful partial matches) per matching
    /// position. `nodes_per_level[i]` counts the partial matches in which
    /// `i + 1` query vertices are mapped. Identical for both
    /// [`CandidateKernel`]s.
    pub nodes_per_level: Vec<u64>,
    /// Candidates inspected but rejected by filters / adjacency checks /
    /// symmetry breaking. Kernel-dependent: the intersection kernel never
    /// materializes the candidates the probe kernel rejects with adjacency
    /// checks, so its `pruned` is smaller for the same search.
    pub pruned: u64,
    /// Intersection-kernel counters (all zero under the probe kernel).
    pub intersect: IntersectStats,
}

/// A reusable enumerator over a graph/pattern pair.
pub struct Enumerator<'a> {
    graph: &'a Graph,
    pattern: &'a Pattern,
    config: EnumerationConfig,
}

impl<'a> Enumerator<'a> {
    /// Creates an enumerator with the default configuration.
    pub fn new(graph: &'a Graph, pattern: &'a Pattern) -> Self {
        Enumerator { graph, pattern, config: EnumerationConfig::default() }
    }

    /// Creates an enumerator with an explicit configuration.
    pub fn with_config(graph: &'a Graph, pattern: &'a Pattern, config: EnumerationConfig) -> Self {
        Enumerator { graph, pattern, config }
    }

    /// Runs the enumeration. The callback receives each embedding as a slice
    /// indexed by query vertex (`mapping[u]` is the data vertex of `u`) and
    /// returns `true` to continue, `false` to stop early.
    pub fn run<F: FnMut(&[VertexId]) -> bool>(&self, callback: F) -> EnumerationStats {
        let n = self.pattern.vertex_count();
        if n == 0 {
            return EnumerationStats::default();
        }
        let symmetry = if self.config.disable_symmetry_breaking {
            SymmetryBreaking::disabled(self.pattern)
        } else {
            SymmetryBreaking::new(self.pattern)
        };
        let order = match &self.config.order {
            Some(order) => order.clone(),
            None => MatchingOrder::default_for(self.pattern),
        };
        let mut search = Search {
            graph: self.graph,
            pattern: self.pattern,
            order,
            symmetry,
            thresholds: FilterThresholds::new(self.pattern),
            kernel: self.config.kernel,
            max_results: self.config.max_results,
            assigned: vec![None; n],
            matched: Vec::with_capacity(n),
            mapping: vec![0; n],
            bufs: vec![Vec::new(); n],
            tmp: Vec::new(),
            lists: Vec::with_capacity(n),
            stats: EnumerationStats {
                nodes_per_level: vec![0; n],
                ..EnumerationStats::default()
            },
            callback,
            stop: false,
        };
        let start = search.order.start_vertex();
        for v0 in self.graph.vertices() {
            if search.stop {
                break;
            }
            if !search.thresholds.passes(self.graph, start, v0) {
                continue;
            }
            if !search.symmetry.check_partial(start, v0, &search.assigned) {
                search.stats.pruned += 1;
                continue;
            }
            search.place(start, v0, 0);
            search.extend(1);
            search.unplace(start, v0);
        }
        search.stats
    }
}

/// The backtracking state of one run: the matching order, the
/// symmetry-breaking constraints and filter thresholds, the partial
/// assignment, the reusable per-level candidate buffers and the statistics.
/// Scratch vectors are allocated once per [`Enumerator::run`] call and
/// reused across the whole search tree, so the inner loop is allocation-free
/// once the buffers have grown to their working size.
struct Search<'e, F> {
    graph: &'e Graph,
    pattern: &'e Pattern,
    order: MatchingOrder,
    symmetry: SymmetryBreaking,
    thresholds: FilterThresholds,
    kernel: CandidateKernel,
    max_results: Option<u64>,
    /// `assigned[u]` — the data vertex matched to query vertex `u`.
    assigned: Vec<Option<VertexId>>,
    /// The currently matched data vertices, kept sorted: injectivity is a
    /// binary search instead of an `assigned.contains(&Some(v))` scan.
    matched: Vec<VertexId>,
    /// Callback scratch (embedding indexed by query vertex).
    mapping: Vec<VertexId>,
    /// Per-level candidate buffers for the intersection kernel.
    bufs: Vec<Vec<VertexId>>,
    /// k-way intersection scratch.
    tmp: Vec<VertexId>,
    /// Adjacency-list collection scratch (used transiently before recursing,
    /// never across a recursive call).
    lists: Vec<&'e [VertexId]>,
    stats: EnumerationStats,
    callback: F,
    stop: bool,
}

impl<F: FnMut(&[VertexId]) -> bool> Search<'_, F> {
    /// Records the match `u -> v` (position `pos` of the order).
    fn place(&mut self, u: usize, v: VertexId, pos: usize) {
        self.assigned[u] = Some(v);
        let idx = self.matched.binary_search(&v).unwrap_err();
        self.matched.insert(idx, v);
        self.stats.nodes_per_level[pos] += 1;
    }

    /// Reverts [`Search::place`].
    fn unplace(&mut self, u: usize, v: VertexId) {
        self.assigned[u] = None;
        let idx = self.matched.binary_search(&v).expect("placed vertex");
        self.matched.remove(idx);
    }

    /// Extends the partial match at position `pos` of the matching order.
    fn extend(&mut self, pos: usize) {
        if pos == self.pattern.vertex_count() {
            self.emit();
            return;
        }
        let u = self.order.vertex_at(pos);
        match self.kernel {
            CandidateKernel::Intersect => self.extend_intersect(pos, u),
            CandidateKernel::Probe => self.extend_probe(pos, u),
        }
    }

    /// Reports a complete embedding.
    fn emit(&mut self) {
        for (u, a) in self.assigned.iter().enumerate() {
            self.mapping[u] = a.expect("complete assignment");
        }
        self.stats.embeddings += 1;
        if !(self.callback)(&self.mapping) {
            self.stop = true;
        }
        if let Some(max) = self.max_results {
            if self.stats.embeddings >= max {
                self.stop = true;
            }
        }
    }

    /// Intersection kernel: candidates are the intersection of the adjacency
    /// lists of every already-matched pattern neighbour of `u`, so no
    /// per-candidate adjacency check is needed afterwards.
    fn extend_intersect(&mut self, pos: usize, u: usize) {
        self.lists.clear();
        for &w in self.pattern.neighbors(u) {
            if let Some(vw) = self.assigned[w] {
                self.lists.push(self.graph.neighbors(vw));
            }
        }
        // The matching order is connected, so at least one neighbour of `u`
        // is always matched.
        debug_assert!(!self.lists.is_empty());
        if self.lists.len() == 1 {
            // Single back edge: the adjacency list itself is the candidate
            // set; intersecting would only copy it.
            let seed = self.lists[0];
            self.scan_candidates(pos, u, seed);
        } else {
            let mut buf = std::mem::take(&mut self.bufs[pos]);
            // Disjoint &mut borrows of self fields; `lists` is free for
            // reuse by deeper levels once the candidates are materialized.
            intersect_k_into(&mut self.lists, &mut buf, &mut self.tmp, &mut self.stats.intersect);
            self.scan_candidates(pos, u, &buf);
            self.bufs[pos] = buf;
        }
    }

    /// Filters `candidates` (already adjacency-correct) and recurses.
    fn scan_candidates(&mut self, pos: usize, u: usize, candidates: &[VertexId]) {
        for &v in candidates {
            if self.stop {
                return;
            }
            // injectivity
            if self.matched.binary_search(&v).is_ok() {
                self.stats.pruned += 1;
                continue;
            }
            if !self.thresholds.passes(self.graph, u, v) {
                self.stats.pruned += 1;
                continue;
            }
            if !self.symmetry.check_partial(u, v, &self.assigned) {
                self.stats.pruned += 1;
                continue;
            }
            self.place(u, v, pos);
            self.extend(pos + 1);
            self.unplace(u, v);
        }
    }

    /// Probe kernel (pre-intersection behaviour): seed candidates from the
    /// anchor's adjacency list, reject with one `has_edge` binary search per
    /// remaining back edge.
    fn extend_probe(&mut self, pos: usize, u: usize) {
        let anchor_pos = self.order.anchor_of(pos);
        let anchor_vertex = self.order.vertex_at(anchor_pos);
        let anchor_data = self.assigned[anchor_vertex].expect("anchor must be assigned");
        let seed = self.graph.neighbors(anchor_data);

        'candidates: for &v in seed {
            if self.stop {
                return;
            }
            // injectivity
            if self.matched.binary_search(&v).is_ok() {
                self.stats.pruned += 1;
                continue;
            }
            if !self.thresholds.passes(self.graph, u, v) {
                self.stats.pruned += 1;
                continue;
            }
            // adjacency with every already-matched neighbour of u
            for &w in self.pattern.neighbors(u) {
                if let Some(vw) = self.assigned[w] {
                    if !self.graph.has_edge(v, vw) {
                        self.stats.pruned += 1;
                        continue 'candidates;
                    }
                }
            }
            if !self.symmetry.check_partial(u, v, &self.assigned) {
                self.stats.pruned += 1;
                continue;
            }
            self.place(u, v, pos);
            self.extend(pos + 1);
            self.unplace(u, v);
        }
    }
}

/// Enumerates embeddings of `pattern` in `graph` under `config`, invoking
/// `callback` for each one. Returns run statistics.
pub fn enumerate_embeddings<F: FnMut(&[VertexId]) -> bool>(
    graph: &Graph,
    pattern: &Pattern,
    config: EnumerationConfig,
    callback: F,
) -> EnumerationStats {
    Enumerator::with_config(graph, pattern, config).run(callback)
}

/// Counts the embeddings of `pattern` in `graph` (with symmetry breaking, so
/// each occurrence is counted once).
pub fn count_embeddings(graph: &Graph, pattern: &Pattern) -> u64 {
    Enumerator::new(graph, pattern).run(|_| true).embeddings
}

/// Collects every embedding of `pattern` in `graph` as a vector indexed by
/// query vertex. Intended for tests and small graphs.
pub fn collect_embeddings(graph: &Graph, pattern: &Pattern) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    Enumerator::new(graph, pattern).run(|m| {
        out.push(m.to_vec());
        true
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rads_graph::generators::{erdos_renyi, grid_2d, ring_lattice};
    use rads_graph::{queries, GraphBuilder, PatternBuilder};

    fn triangle_pattern() -> Pattern {
        PatternBuilder::new(3).clique(&[0, 1, 2]).build()
    }

    #[test]
    fn counts_triangles_in_k4() {
        let mut b = GraphBuilder::new(4);
        for i in 0..4u32 {
            for j in i + 1..4 {
                b.add_edge(i, j);
            }
        }
        let g = b.build();
        assert_eq!(count_embeddings(&g, &triangle_pattern()), 4);
        // 4-clique occurs exactly once
        assert_eq!(count_embeddings(&g, &queries::c1()), 1);
        // 4-cycle occurs 3 times in K4
        assert_eq!(count_embeddings(&g, &queries::q1()), 3);
    }

    #[test]
    fn counts_match_triangle_counter_on_random_graphs() {
        for seed in 0..3u64 {
            let g = erdos_renyi(60, 0.12, seed);
            let expected = rads_graph::algorithms::triangle_count(&g) as u64;
            assert_eq!(count_embeddings(&g, &triangle_pattern()), expected, "seed {seed}");
        }
    }

    #[test]
    fn symmetry_breaking_divides_by_automorphism_count() {
        let g = erdos_renyi(40, 0.18, 9);
        for q in [queries::q1(), queries::q2(), queries::c1(), triangle_pattern()] {
            let with = count_embeddings(&g, &q);
            let without = Enumerator::with_config(
                &g,
                &q,
                EnumerationConfig { disable_symmetry_breaking: true, ..Default::default() },
            )
            .run(|_| true)
            .embeddings;
            let autos = SymmetryBreaking::new(&q).automorphism_count() as u64;
            assert_eq!(without, with * autos);
        }
    }

    #[test]
    fn squares_in_a_grid() {
        // Each unit cell of the lattice is exactly one 4-cycle; 2x2 cells in a
        // 3x3 grid -> 4 squares.
        let g = grid_2d(3, 3);
        assert_eq!(count_embeddings(&g, &queries::q1()), 4);
    }

    #[test]
    fn max_results_stops_early() {
        let g = ring_lattice(30, 2);
        let cfg = EnumerationConfig { max_results: Some(5), ..Default::default() };
        let stats = enumerate_embeddings(&g, &triangle_pattern(), cfg, |_| true);
        assert_eq!(stats.embeddings, 5);
    }

    #[test]
    fn callback_can_stop_enumeration() {
        let g = ring_lattice(30, 2);
        let mut seen = 0;
        enumerate_embeddings(&g, &triangle_pattern(), EnumerationConfig::default(), |_| {
            seen += 1;
            seen < 3
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn collected_embeddings_are_valid_and_distinct() {
        let g = erdos_renyi(30, 0.2, 2);
        let q = queries::q4();
        let embeddings = collect_embeddings(&g, &q);
        let mut seen = std::collections::HashSet::new();
        for m in &embeddings {
            // distinct data vertices
            let mut sorted = m.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), q.vertex_count());
            // every pattern edge is present
            for (a, b) in q.edges() {
                assert!(g.has_edge(m[a], m[b]));
            }
            assert!(seen.insert(m.clone()), "duplicate embedding {m:?}");
        }
        assert_eq!(embeddings.len() as u64, count_embeddings(&g, &q));
    }

    #[test]
    fn stats_levels_are_monotone_in_meaning() {
        let g = erdos_renyi(40, 0.15, 7);
        let q = queries::q3();
        let stats = Enumerator::new(&g, &q).run(|_| true);
        assert_eq!(stats.nodes_per_level.len(), q.vertex_count());
        assert_eq!(*stats.nodes_per_level.last().unwrap(), stats.embeddings);
        assert!(stats.nodes_per_level.iter().sum::<u64>() >= stats.embeddings);
    }

    #[test]
    fn empty_pattern_and_empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(count_embeddings(&g, &triangle_pattern()), 0);
        let g2 = erdos_renyi(10, 0.3, 1);
        let single_vertex = Pattern::from_edges(1, &[]);
        // a single query vertex matches every data vertex
        assert_eq!(count_embeddings(&g2, &single_vertex), 10);
    }

    #[test]
    fn all_standard_queries_run_on_a_small_graph() {
        let g = erdos_renyi(35, 0.2, 11);
        for q in queries::standard_query_set() {
            let c = count_embeddings(&g, &q.pattern);
            // sanity: enumeration terminates and counts are deterministic
            assert_eq!(c, count_embeddings(&g, &q.pattern), "{}", q.name);
        }
    }

    /// Both kernels must walk the *same* search tree: identical embeddings in
    /// identical order, identical per-level node counts. (`pruned` is
    /// kernel-dependent by design — the intersection kernel never sees the
    /// candidates the probe kernel rejects with adjacency checks.)
    #[test]
    fn kernels_agree_on_embeddings_and_search_tree() {
        let g = erdos_renyi(45, 0.18, 13);
        for q in queries::standard_query_set() {
            let run = |kernel: CandidateKernel| {
                let mut embeddings = Vec::new();
                let stats = Enumerator::with_config(
                    &g,
                    &q.pattern,
                    EnumerationConfig { kernel, ..Default::default() },
                )
                .run(|m| {
                    embeddings.push(m.to_vec());
                    true
                });
                (embeddings, stats)
            };
            let (fast, fast_stats) = run(CandidateKernel::Intersect);
            let (probe, probe_stats) = run(CandidateKernel::Probe);
            assert_eq!(fast, probe, "{}", q.name);
            assert_eq!(fast_stats.embeddings, probe_stats.embeddings, "{}", q.name);
            assert_eq!(fast_stats.nodes_per_level, probe_stats.nodes_per_level, "{}", q.name);
            assert_eq!(probe_stats.intersect, Default::default(), "{}", q.name);
        }
    }
}
