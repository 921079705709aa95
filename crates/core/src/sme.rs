//! SM-E: the single-machine enumeration phase (Section 3.1).
//!
//! By Proposition 1, any embedding that maps the start query vertex to a data
//! vertex whose border distance is at least the span of the start vertex lies
//! entirely inside the local partition. Those start candidates are therefore
//! processed over the induced subgraph of the machine's owned vertices,
//! without any communication; the remaining candidates are handed to the
//! distributed R-Meef phase. The kernel is the engine's own backtracker: one
//! [`Expander::expand_strict`] per start candidate matches the rest of the
//! order one vertex at a time ([`UnitExpansion::from_order`]), with the
//! owned graph as its [`AdjacencyOracle`](crate::expand::AdjacencyOracle),
//! exactly as the depth-first descent does on the engine's known lists.
//!
//! Since every start candidate roots an independent search tree, the phase
//! parallelizes trivially: the candidate list is cut into work units of
//! `steal_granularity` candidates and mapped over the [`rads_exec`] pool.
//! Per-unit embeddings and statistics are merged back **in unit order**, so
//! the outcome is bit-identical for every worker count.

use rads_exec::{parallel_map, ExecConfig};
use rads_graph::{Graph, IntersectStats, Pattern, PatternVertex, SymmetryBreaking, VertexId};
use rads_partition::LocalPartition;
use rads_plan::ExecutionPlan;
use rads_single::MatchingOrder;

use crate::expand::{Expander, ExtensionBuffer, Sink, UnitExpansion};
use crate::memory::SpaceEstimator;

/// Outcome of the SM-E phase on one machine.
#[derive(Debug, Clone)]
pub struct SmeResult {
    /// Embeddings found locally, indexed by query vertex (global data ids) —
    /// only when collected; a counting run leaves this empty.
    pub embeddings: Vec<Vec<VertexId>>,
    /// Number of embeddings found locally.
    pub count: u64,
    /// Start candidates processed by SM-E (`|C1(u_start)|`).
    pub local_candidates: usize,
    /// Start candidates left for the distributed phase (`C - C1`).
    pub remaining_candidates: Vec<VertexId>,
    /// Space estimator derived from the SM-E search statistics (Section 6).
    pub estimator: SpaceEstimator,
    /// Total search-tree nodes visited by SM-E (embedding-trie size of the
    /// local results).
    pub trie_nodes: u64,
    /// Intersection-kernel counters of SM-E's candidate generation, summed
    /// over the work units in unit order.
    pub intersect: IntersectStats,
}

/// Runs SM-E on one machine as a served query does, counting only: in the
/// order [`choose_descent_order`] measures as cheaper on this machine, then
/// [`run_sme_in_order`]. Its cost therefore includes the order sample (at
/// most two orders over 128 start candidates each), which a resident
/// machine pays once per pattern and keeps.
pub fn run_sme(
    local: &LocalPartition,
    pattern: &Pattern,
    plan: &ExecutionPlan,
    enabled: bool,
    exec: &ExecConfig,
) -> SmeResult {
    let order = choose_descent_order(local, pattern, plan);
    run_sme_in_order(local, pattern, &order, enabled, false, exec)
}

/// Runs SM-E on one machine in `order` (which starts at the plan's start
/// vertex), fanning the start candidates out to `exec.workers` pool
/// workers. It enumerates on the partition's owned induced subgraph
/// ([`LocalPartition::owned_graph`]) and keeps the embeddings themselves
/// only when `collect` is set.
///
/// * `enabled = false` (ablation) sends every start candidate to the
///   distributed phase and derives the space estimator from a degree-based
///   fallback instead.
pub fn run_sme_in_order(
    local: &LocalPartition,
    pattern: &Pattern,
    order: &MatchingOrder,
    enabled: bool,
    collect: bool,
    exec: &ExecConfig,
) -> SmeResult {
    let start = order.start_vertex();
    let span = pattern.span(start) as u32;
    let min_degree = pattern.degree(start);
    // C(u_start): owned vertices passing the degree filter.
    let all_candidates = local.candidates_with_min_degree(min_degree);
    let (local_cands, remote_cands): (Vec<VertexId>, Vec<VertexId>) = if enabled {
        all_candidates.into_iter().partition(|&v| {
            local.border_distance(v).map(|d| d >= span).unwrap_or(false)
        })
    } else {
        (Vec::new(), all_candidates)
    };

    if local_cands.is_empty() {
        let avg_degree = if local.owned_count() == 0 {
            1.0
        } else {
            local
                .owned_vertices()
                .iter()
                .map(|&v| local.degree(v).unwrap_or(0))
                .sum::<usize>() as f64
                / local.owned_count() as f64
        };
        return SmeResult {
            embeddings: Vec::new(),
            count: 0,
            local_candidates: 0,
            remaining_candidates: remote_cands,
            estimator: SpaceEstimator::fallback(avg_degree, pattern.vertex_count()),
            trie_nodes: 0,
            intersect: IntersectStats::default(),
        };
    }

    let graph = local.owned_graph();
    let global_of_dense = local.owned_vertices();
    let dense_candidates = dense_ids(local, &local_cands);
    // The rest of the order, its back edges and the symmetry constraints are
    // derived once per machine run and shared (borrowed) by every work unit
    // — a unit is only `steal_granularity` start candidates, far too small
    // to amortize re-deriving them.
    let symmetry = SymmetryBreaking::new(pattern);
    let rest = UnitExpansion::from_order(pattern, &symmetry, order.order()[1..].to_vec());
    let sink = if collect { Sink::Store } else { Sink::Count };

    // One work unit per `steal_granularity` start candidates, each a slice of
    // the shared candidate list, so the units partition the result set.
    let units: Vec<&[VertexId]> =
        dense_candidates.chunks(exec.effective_granularity()).collect();
    let unit_exec = ExecConfig { workers: exec.effective_workers(), steal_granularity: 1 };
    let (unit_results, _) = parallel_map(&unit_exec, &units, |_, _, unit| {
        let mut embeddings: Vec<Vec<VertexId>> = Vec::new();
        let mut count = 0u64;
        let (nodes, intersect) = match_below(graph, &rest, start, unit, sink, |dv, done| {
            count += done.len() as u64;
            if collect {
                embeddings.extend((0..done.len()).map(|i| {
                    // the start vertex's slot keeps the fill value
                    let mut embedding = vec![global_of_dense[dv as usize]; pattern.vertex_count()];
                    for (&u, &v) in rest.leaves().iter().zip(done.leaves(i)) {
                        embedding[u] = global_of_dense[v as usize];
                    }
                    embedding
                }));
            }
        });
        (embeddings, count, nodes, intersect)
    });

    // Merge in unit order: identical to one sequential sweep.
    let mut embeddings = Vec::new();
    let (mut count, mut nodes) = (0, 0);
    let mut intersect = IntersectStats::default();
    for (unit_embeddings, unit_count, unit_nodes, unit_intersect) in unit_results {
        embeddings.extend(unit_embeddings);
        count += unit_count;
        nodes += unit_nodes;
        intersect.absorb(&unit_intersect);
    }

    SmeResult {
        count,
        embeddings,
        local_candidates: local_cands.len(),
        remaining_candidates: remote_cands,
        estimator: SpaceEstimator::from_sme(nodes, local_cands.len()),
        trie_nodes: nodes,
        intersect,
    }
}

/// Matches `rest` on `graph` below each of `candidates` (dense ids) as the
/// start vertex `start`, with one [`Expander`], and hands each candidate's
/// extensions to `found`. Returns the search nodes visited, one per start
/// candidate included, and the expander's intersection counters.
fn match_below(
    graph: &Graph,
    rest: &UnitExpansion<'_>,
    start: PatternVertex,
    candidates: &[VertexId],
    sink: Sink,
    mut found: impl FnMut(VertexId, &ExtensionBuffer),
) -> (u64, IntersectStats) {
    let mut expander = Expander::new();
    // the start vertex and the rest
    let mut f = vec![None; rest.leaves().len() + 1];
    for &dv in candidates {
        f[start] = Some(dv);
        let done = expander
            .expand_strict(rest, &mut f, graph, sink)
            .expect("a whole graph knows every adjacency list");
        found(dv, done);
    }
    (candidates.len() as u64 + expander.search_nodes(), expander.intersect_stats().clone())
}

/// Start candidates each order enumerates when [`choose_descent_order`]
/// compares them: an evenly spaced sample of the machine's owned
/// candidates.
const ORDER_SAMPLE: usize = 128;

/// Measures which of two orders matches `pattern` more cheaply on this
/// machine: the plan's Definition-10 order or the greedy order
/// ([`MatchingOrder::greedy_from`]) from the plan's start vertex. Both
/// count, with the [`Expander`] SM-E runs, the embeddings below the same
/// deterministic sample of owned start candidates on the owned induced
/// subgraph; the one that visits fewer search nodes
/// ([`Expander::search_nodes`]) wins, the plan's on a tie.
pub fn choose_descent_order(
    local: &LocalPartition,
    pattern: &Pattern,
    plan: &ExecutionPlan,
) -> MatchingOrder {
    let start = plan.start_vertex();
    let plan_order = MatchingOrder::from_order(pattern, plan.matching_order().to_vec());
    let greedy = MatchingOrder::greedy_from(pattern, start);
    if greedy == plan_order {
        return plan_order;
    }
    let candidates = local.candidates_with_min_degree(pattern.degree(start));
    let stride = candidates.len().div_ceil(ORDER_SAMPLE).max(1);
    let sample: Vec<VertexId> = candidates.into_iter().step_by(stride).collect();
    let sample = dense_ids(local, &sample);
    let symmetry = SymmetryBreaking::new(pattern);
    let nodes = |order: &MatchingOrder| {
        let rest = UnitExpansion::from_order(pattern, &symmetry, order.order()[1..].to_vec());
        match_below(local.owned_graph(), &rest, start, &sample, Sink::Count, |_, _| {}).0
    };
    if nodes(&greedy) < nodes(&plan_order) {
        greedy
    } else {
        plan_order
    }
}

/// The dense ids ([`LocalPartition::dense_id`]) of owned vertices.
fn dense_ids(local: &LocalPartition, owned: &[VertexId]) -> Vec<VertexId> {
    owned.iter().map(|&v| local.dense_id(v).expect("an owned vertex")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rads_graph::generators::{barabasi_albert, community_graph, grid_2d};
    use rads_graph::queries;
    use rads_partition::{BfsPartitioner, PartitionedGraph, Partitioner, Partitioning};
    use rads_plan::{best_plan, PlannerConfig};
    use rads_single::{collect_embeddings, count_embeddings};

    /// Where no edge crosses machines every start candidate is interior:
    /// SM-E finds every embedding, for every query and in either order, and
    /// collects exactly the reference enumerator's embeddings. One cluster
    /// is a single machine; on the other, each machine owns communities with
    /// interleaved ids, so dense ids differ from global ones.
    #[test]
    fn single_machine_cluster_finds_everything_locally() {
        let g = community_graph(3, 12, 0.4, 0.0, 5);
        let interleaved: Vec<usize> = g.vertices().map(|v| usize::from(v / 12 == 1)).collect();
        let clusters = [
            PartitionedGraph::build(&g, Partitioning::single_machine(g.vertex_count())),
            PartitionedGraph::build(&g, Partitioning::new(interleaved, 2)),
        ];
        assert_eq!(clusters[1].local(0).dense_id(24), Some(12), "dense ids equal global ones");
        let mut patterns = queries::standard_query_set();
        patterns.extend(queries::clique_query_set());
        for query in patterns {
            let pattern = &query.pattern;
            let plan = best_plan(pattern, &PlannerConfig::default());
            let mut expected = collect_embeddings(&g, pattern);
            expected.sort_unstable();
            assert_eq!(expected.len() as u64, count_embeddings(&g, pattern), "{}", query.name);
            let plan_order = MatchingOrder::from_order(pattern, plan.matching_order().to_vec());
            let greedy = MatchingOrder::greedy_from(pattern, plan.start_vertex());
            for order in [plan_order, greedy] {
                for pg in &clusters {
                    let (mut found, mut count) = (Vec::new(), 0);
                    for local in pg.locals() {
                        let exec = ExecConfig::sequential();
                        let result = run_sme_in_order(local, pattern, &order, true, true, &exec);
                        // no border vertices at all: every candidate is local
                        assert!(result.remaining_candidates.is_empty(), "{}", query.name);
                        count += result.count;
                        found.extend(result.embeddings);
                    }
                    let what = format!("{}, {order:?}, {} machines", query.name, pg.num_machines());
                    assert_eq!(count, expected.len() as u64, "{what}");
                    found.sort_unstable();
                    assert_eq!(found, expected, "{what}");
                }
            }
        }
    }

    #[test]
    fn sme_embeddings_never_touch_foreign_vertices() {
        let g = grid_2d(10, 10);
        let partitioning = BfsPartitioner.partition(&g, 4);
        let pg = PartitionedGraph::build(&g, partitioning);
        let pattern = queries::q1();
        let plan = best_plan(&pattern, &PlannerConfig::default());
        let order = MatchingOrder::greedy_from(&pattern, plan.start_vertex());
        for m in 0..4 {
            let local = pg.local(m);
            let result =
                run_sme_in_order(local, &pattern, &order, true, true, &ExecConfig::sequential());
            assert_eq!(result.embeddings.len() as u64, result.count);
            for emb in &result.embeddings {
                for &v in emb {
                    assert!(local.owns(v), "SM-E produced a foreign vertex {v} on machine {m}");
                }
            }
        }
    }

    #[test]
    fn sme_plus_remaining_covers_all_candidates() {
        let g = grid_2d(8, 8);
        let partitioning = BfsPartitioner.partition(&g, 2);
        let pg = PartitionedGraph::build(&g, partitioning);
        let pattern = queries::q1();
        let plan = best_plan(&pattern, &PlannerConfig::default());
        for m in 0..2 {
            let local = pg.local(m);
            let with = run_sme(local, &pattern, &plan, true, &ExecConfig::sequential());
            let without = run_sme(local, &pattern, &plan, false, &ExecConfig::sequential());
            assert_eq!(without.count, 0);
            assert_eq!(without.local_candidates, 0);
            assert_eq!(
                with.local_candidates + with.remaining_candidates.len(),
                without.remaining_candidates.len(),
                "machine {m}: candidate split is not a partition"
            );
        }
    }

    #[test]
    fn parallel_sme_is_bit_identical_to_sequential() {
        let g = grid_2d(12, 12);
        let partitioning = BfsPartitioner.partition(&g, 2);
        let pg = PartitionedGraph::build(&g, partitioning);
        let pattern = queries::q1();
        let plan = best_plan(&pattern, &PlannerConfig::default());
        let order = MatchingOrder::greedy_from(&pattern, plan.start_vertex());
        for m in 0..2 {
            let local = pg.local(m);
            let sequential =
                run_sme_in_order(local, &pattern, &order, true, true, &ExecConfig::sequential());
            assert_eq!(sequential.embeddings.len() as u64, sequential.count);
            for workers in [2, 4, 8] {
                let exec = ExecConfig { workers, steal_granularity: 3 };
                let parallel = run_sme_in_order(local, &pattern, &order, true, true, &exec);
                assert_eq!(parallel.embeddings, sequential.embeddings, "machine {m}");
                assert_eq!(parallel.count, sequential.count);
                assert_eq!(parallel.trie_nodes, sequential.trie_nodes);
                assert_eq!(parallel.intersect, sequential.intersect);
                assert_eq!(parallel.local_candidates, sequential.local_candidates);
                assert_eq!(parallel.remaining_candidates, sequential.remaining_candidates);
                assert_eq!(parallel.estimator, sequential.estimator);
            }
        }
    }

    #[test]
    fn estimator_reflects_search_effort() {
        let g = community_graph(2, 15, 0.5, 0.02, 9);
        let pg = PartitionedGraph::build(&g, Partitioning::single_machine(g.vertex_count()));
        let pattern = queries::q4();
        let plan = best_plan(&pattern, &PlannerConfig::default());
        let result = run_sme(pg.local(0), &pattern, &plan, true, &ExecConfig::sequential());
        assert!(result.trie_nodes > 0);
        assert!(result.estimator.nodes_per_candidate() >= 1.0);
    }

    #[test]
    fn owned_subgraph_maps_ids_consistently() {
        let g = grid_2d(4, 4);
        let partitioning = BfsPartitioner.partition(&g, 2);
        let pg = PartitionedGraph::build(&g, partitioning);
        let local = pg.local(1);
        let sub = local.owned_graph();
        assert_eq!(sub.vertex_count(), local.owned_count());
        let global_of_dense = local.owned_vertices();
        for (dense, &global) in global_of_dense.iter().enumerate() {
            assert_eq!(local.dense_id(global), Some(dense as VertexId));
        }
        // dense ids keep the order of global ids
        assert!(global_of_dense.windows(2).all(|w| w[0] < w[1]));
        // every edge of the subgraph is an edge of the original graph, and
        // every edge between two owned vertices is in the subgraph
        for (a, b) in sub.edges() {
            let (ga, gb) = (global_of_dense[a as usize], global_of_dense[b as usize]);
            assert!(g.has_edge(ga, gb));
        }
        let owned_edges = g.edges().filter(|&(a, b)| local.owns(a) && local.owns(b)).count();
        assert_eq!(sub.edge_count(), owned_edges);
        assert!(std::ptr::eq(sub, local.owned_graph()), "built once per partition");
    }

    #[test]
    fn the_cheaper_order_is_chosen_and_the_plan_order_wins_ties() {
        let g = community_graph(3, 20, 0.4, 0.05, 11);
        let pg = PartitionedGraph::build(&g, BfsPartitioner.partition(&g, 2));
        let local = pg.local(0);
        let mut patterns = queries::standard_query_set();
        patterns.extend(queries::clique_query_set());
        for query in patterns {
            let pattern = &query.pattern;
            let plan = best_plan(pattern, &PlannerConfig::default());
            let start = plan.start_vertex();
            // the partition is small enough that the sample is all of it
            let candidates =
                dense_ids(local, &local.candidates_with_min_degree(pattern.degree(start)));
            let symmetry = SymmetryBreaking::new(pattern);
            let all = |order: &MatchingOrder| {
                let rest = order.order()[1..].to_vec();
                let rest = UnitExpansion::from_order(pattern, &symmetry, rest);
                let mut count = 0;
                let graph = local.owned_graph();
                let (nodes, _) =
                    match_below(graph, &rest, start, &candidates, Sink::Count, |_, done| {
                        count += done.len()
                    });
                (nodes, count)
            };
            let chosen = choose_descent_order(local, pattern, &plan);
            let plan_order = MatchingOrder::from_order(pattern, plan.matching_order().to_vec());
            let greedy = MatchingOrder::greedy_from(pattern, start);
            assert!(chosen == plan_order || chosen == greedy, "{}", query.name);
            let (plan_nodes, plan_count) = all(&plan_order);
            let (greedy_nodes, greedy_count) = all(&greedy);
            let expected = if greedy_nodes < plan_nodes { &greedy } else { &plan_order };
            assert_eq!(&chosen, expected, "{}: {plan_nodes} vs {greedy_nodes}", query.name);
            // either order finds the same embeddings
            assert_eq!(plan_count, greedy_count, "{}", query.name);
        }
    }

    /// `run_sme` runs the phase in the order a served query runs it, which
    /// on this graph is not always the greedy one. One machine owns it all,
    /// so every start candidate is SM-E's.
    #[test]
    fn run_sme_runs_the_chosen_order() {
        let g = barabasi_albert(60, 3, 7);
        let pg = PartitionedGraph::build(&g, Partitioning::single_machine(g.vertex_count()));
        let exec = ExecConfig::sequential();
        let mut not_greedy = 0;
        let mut patterns = queries::standard_query_set();
        patterns.extend(queries::clique_query_set());
        for query in patterns {
            let pattern = &query.pattern;
            let plan = best_plan(pattern, &PlannerConfig::default());
            let greedy = MatchingOrder::greedy_from(pattern, plan.start_vertex());
            for local in pg.locals() {
                let chosen = choose_descent_order(local, pattern, &plan);
                not_greedy += usize::from(chosen != greedy);
                let served = run_sme_in_order(local, pattern, &chosen, true, false, &exec);
                let timed = run_sme(local, pattern, &plan, true, &exec);
                assert_eq!(timed.count, served.count, "{}", query.name);
                assert_eq!(timed.trie_nodes, served.trie_nodes, "{}", query.name);
                assert_eq!(timed.intersect, served.intersect, "{}", query.name);
            }
        }
        assert!(not_greedy > 0, "the greedy order won everywhere");
    }
}
