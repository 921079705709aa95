//! In-process probes: each calls one layer's public functions on the
//! workload's own graph, partition and pattern classes, and reports what
//! that layer costs per unit of its work. A probe is the only place the
//! harness names a function of the program; when one is renamed or moved,
//! the fix is a benchmark change that alters nothing else.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rads::core::cache::ForeignVertexCache;
use rads::core::evi::EdgeVerificationIndex;
use rads::core::expand::{AdjacencyOracle, Expander, UnitExpansion};
use rads::core::region::{find_region_groups, GroupingStrategy};
use rads::core::sme::run_sme;
use rads::core::{
    canonical_signature, estimate_query_footprint, run_rads, EmbeddingTrie, MemoryBudget, NodeId,
    PlanCache, RadsConfig, RoundDriver,
};
use rads::datasets::{generate, DatasetKind, Scale};
use rads::exec::{parallel_map, ExecConfig};
use rads::graph::intersect::{intersect_k_into, intersect_pair_into, GALLOP_RATIO};
use rads::graph::{queries, Graph, IntersectStats, Pattern, SymmetryBreaking, VertexId};
use rads::obs;
use rads::partition::{
    LabelPropagationPartitioner, LocalPartition, PartitionStats, PartitionedGraph, Partitioner,
};
use rads::plan::{best_plan, ExecutionPlan, PlannerConfig};
use rads::runtime::message::response_bytes;
use rads::runtime::wire::{decode_response, encode_response, frame_bytes};
use rads::runtime::{Cluster, PartitionDaemon, Request, Response, TransportKind};
use rads::single::count_embeddings;

use crate::spans;
use crate::stats::{mean, median};
use crate::workload::{Rng, Workload};

const RHO: f64 = 1.0;
/// `RadsConfig`'s default seed, which the engine hands to region grouping.
const GROUPING_SEED: u64 = 42;
/// Vertices per `fetchV` chunk in the wire and transport probes: the
/// engine's default chunk.
const FETCH_CHUNK: usize = rads::core::engine::DEFAULT_FETCH_CHUNK_VERTICES;
/// Adjacency-list pairs (triples) per intersection kernel sample.
const INTERSECT_SAMPLE: usize = 4096;

/// A named per-layer value.
pub type Metric = (&'static str, f64);

/// What the cluster processes load, rebuilt in the harness with the three
/// lines of the program's `build_partitioned`, plus the workload's pattern
/// classes, their plans and their ground-truth counts.
pub struct Inputs {
    pub kind: DatasetKind,
    pub graph_seed: u64,
    pub graph: Graph,
    pub partitioned: Arc<PartitionedGraph>,
    pub patterns: Vec<Pattern>,
    pub plans: Vec<ExecutionPlan>,
    /// `count_embeddings` on the whole graph, per class: every reply's
    /// count must equal it.
    pub truth: Vec<u64>,
    /// Seconds each ground-truth enumeration took.
    pub truth_secs: Vec<f64>,
}

impl Inputs {
    pub fn build(workload: &Workload, graph_seed: u64) -> Result<Inputs, String> {
        let kind = DatasetKind::all()
            .into_iter()
            .find(|kind| kind.name() == workload.dataset)
            .ok_or_else(|| format!("unknown dataset {}", workload.dataset))?;
        let graph = {
            let _span = spans::span("inputs.generate");
            generate(kind, Scale(workload.scale), graph_seed).graph
        };
        let partitioned = {
            let _span = spans::span("inputs.partition");
            let partitioning =
                LabelPropagationPartitioner::default().partition(&graph, workload.machines);
            Arc::new(PartitionedGraph::build(&graph, partitioning))
        };
        let patterns = workload
            .classes
            .iter()
            .map(|(name, _)| {
                queries::query_by_name(name).ok_or_else(|| format!("unknown query {name}"))
            })
            .collect::<Result<Vec<Pattern>, String>>()?;
        let plans = patterns
            .iter()
            .map(|p| best_plan(p, &PlannerConfig { rho: RHO }))
            .collect();
        let _span = spans::span("probe.single");
        let (mut truth, mut truth_secs) = (Vec::new(), Vec::new());
        for pattern in &patterns {
            let start = Instant::now();
            truth.push(count_embeddings(&graph, pattern));
            truth_secs.push(start.elapsed().as_secs_f64());
        }
        Ok(Inputs {
            kind,
            graph_seed,
            graph,
            partitioned,
            patterns,
            plans,
            truth,
            truth_secs,
        })
    }
}

fn secs(body: impl FnOnce()) -> f64 {
    let start = Instant::now();
    body();
    start.elapsed().as_secs_f64()
}

/// Repeats `body` until `slice` has passed, at least three times, and
/// returns the median of what it returned.
fn median_of(slice: Duration, mut body: impl FnMut() -> f64) -> f64 {
    let deadline = Instant::now() + slice;
    let mut samples = Vec::new();
    while samples.len() < 3 || Instant::now() < deadline {
        samples.push(body());
    }
    median(&samples)
}

/// Median seconds per call of a short operation, timed in batches so the
/// clock's resolution does not show.
fn per_call<T>(slice: Duration, batch: usize, mut op: impl FnMut() -> T) -> f64 {
    median_of(slice, || {
        secs(|| {
            for _ in 0..batch {
                black_box(op());
            }
        }) / batch as f64
    })
}

/// The ground-truth enumeration doubles as the plain single-thread
/// baseline.
fn single(inputs: &Inputs) -> Vec<Metric> {
    let embeddings: u64 = inputs.truth.iter().sum();
    let total: f64 = inputs.truth_secs.iter().sum();
    vec![
        ("single.enumerate_ms", mean(&inputs.truth_secs) * 1e3),
        (
            "single.embeddings_per_s",
            embeddings as f64 / total.max(1e-9),
        ),
    ]
}

fn datasets(inputs: &Inputs, workload: &Workload, slice: Duration) -> Vec<Metric> {
    let _span = spans::span("probe.datasets");
    let seconds = median_of(slice, || {
        secs(|| {
            black_box(generate(
                inputs.kind,
                Scale(workload.scale),
                inputs.graph_seed,
            ));
        })
    });
    vec![("datasets.generate_ms", seconds * 1e3)]
}

fn partition(inputs: &Inputs, workload: &Workload, slice: Duration) -> Vec<Metric> {
    let _span = spans::span("probe.partition");
    let partitioner = LabelPropagationPartitioner::default();
    let partition_s = median_of(slice / 2, || {
        secs(|| {
            black_box(partitioner.partition(&inputs.graph, workload.machines));
        })
    });
    let partitioning = inputs.partitioned.partitioning();
    let build_s = median_of(slice / 2, || {
        let owned = partitioning.clone();
        secs(|| {
            black_box(PartitionedGraph::build(&inputs.graph, owned));
        })
    });
    vec![
        ("partition.partition_ms", partition_s * 1e3),
        ("partition.build_ms", build_s * 1e3),
        (
            "partition.cut_edge_share",
            PartitionStats::compute(&inputs.graph, partitioning).cut_fraction(),
        ),
    ]
}

/// Planning, the plan cache and the admission estimate: the per-query fixed
/// cost before any machine is asked to do anything.
fn plan(inputs: &Inputs, slice: Duration) -> Vec<Metric> {
    let _span = spans::span("probe.plan");
    let each = slice / (4 * inputs.patterns.len() as u32);
    let cache = PlanCache::new();
    let (mut planning, mut signature, mut lookup, mut footprint) = (vec![], vec![], vec![], vec![]);
    for pattern in &inputs.patterns {
        // the arguments pass through `black_box` so that no call is hoisted
        // out of its timing loop as loop-invariant
        planning.push(per_call(each, 4, || {
            best_plan(black_box(pattern), &PlannerConfig { rho: RHO })
        }));
        signature.push(per_call(each, 16, || {
            canonical_signature(black_box(pattern))
        }));
        cache.get_or_compute(pattern, RHO);
        lookup.push(per_call(each, 16, || {
            cache.get_or_compute(black_box(pattern), RHO)
        }));
        footprint.push(per_call(each, 64, || {
            estimate_query_footprint(black_box(&inputs.partitioned), black_box(pattern))
        }));
    }
    vec![
        ("plan.best_plan_us", mean(&planning) * 1e6),
        ("plan.signature_us", mean(&signature) * 1e6),
        ("plan.cache_lookup_us", mean(&lookup) * 1e6),
        ("core.system.footprint_estimate_us", mean(&footprint) * 1e6),
    ]
}

/// SM-E and region grouping, per class and partition, as the engine calls
/// them: grouping runs on the candidates and the estimator SM-E leaves.
fn sme_and_grouping(inputs: &Inputs, workload: &Workload, slice: Duration) -> Vec<Metric> {
    let exec = ExecConfig::with_workers(workload.workers);
    let budget = MemoryBudget::default();
    let calls = (inputs.patterns.len() * workload.machines) as u32;
    let each = slice / (2 * calls);
    let (mut sme_s, mut grouping_s) = (Vec::new(), Vec::new());
    for (pattern, plan) in inputs.patterns.iter().zip(&inputs.plans) {
        for local in inputs.partitioned.locals() {
            let sme = {
                let _span = spans::span("probe.core.sme");
                sme_s.push(median_of(each, || {
                    secs(|| {
                        black_box(run_sme(local, pattern, plan, true, &exec));
                    })
                }));
                run_sme(local, pattern, plan, true, &exec)
            };
            let _span = spans::span("probe.core.region");
            grouping_s.push(median_of(each, || {
                secs(|| {
                    black_box(find_region_groups(
                        local,
                        &sme.remaining_candidates,
                        &sme.estimator,
                        &budget,
                        GroupingStrategy::Proximity,
                        GROUPING_SEED,
                    ));
                })
            }));
        }
    }
    vec![
        ("core.sme.run_ms", mean(&sme_s) * 1e3),
        ("core.region.grouping_ms", mean(&grouping_s) * 1e3),
    ]
}

/// Nanoseconds per element scanned, from the kernels' own counters.
fn ns_per_element(slice: Duration, mut pass: impl FnMut(&mut IntersectStats)) -> f64 {
    median_of(slice, || {
        let mut stats = IntersectStats::default();
        let seconds = secs(|| pass(&mut stats));
        if stats.elements_scanned == 0 {
            0.0
        } else {
            seconds * 1e9 / stats.elements_scanned as f64
        }
    })
}

/// The intersection kernels on a seeded sample of the graph's own adjacency
/// lists: pairs the dispatcher sends to the merge kernel, pairs it sends to
/// the galloping kernel (none on a graph without skewed degrees: the value
/// is then 0), and three-way folds.
fn intersect(inputs: &Inputs, slice: Duration, rng: &mut Rng) -> Vec<Metric> {
    let _span = spans::span("probe.graph.intersect");
    let graph = &inputs.graph;
    let (mut merge, mut gallop): (Vec<_>, Vec<_>) = graph.edges().partition(|&(u, v)| {
        let (a, b) = (graph.degree(u), graph.degree(v));
        a.max(b) / a.min(b).max(1) < GALLOP_RATIO
    });
    for pairs in [&mut merge, &mut gallop] {
        rng.shuffle(pairs);
        pairs.truncate(INTERSECT_SAMPLE);
    }
    let triples: Vec<(VertexId, VertexId, VertexId)> = merge
        .iter()
        .filter_map(|&(u, v)| {
            graph
                .neighbors(u)
                .iter()
                .find(|&&w| w != v)
                .map(|&w| (u, v, w))
        })
        .collect();
    let mut out = Vec::new();
    let mut tmp = Vec::new();
    let pairwise = |pairs: &[(VertexId, VertexId)], out: &mut Vec<VertexId>| {
        ns_per_element(slice / 3, |stats| {
            for &(u, v) in pairs {
                intersect_pair_into(graph.neighbors(u), graph.neighbors(v), out, stats);
                black_box(out.len());
            }
        })
    };
    let merge_ns = pairwise(&merge, &mut out);
    let gallop_ns = pairwise(&gallop, &mut out);
    let kway_ns = ns_per_element(slice / 3, |stats| {
        for &(u, v, w) in &triples {
            let mut lists = [graph.neighbors(u), graph.neighbors(v), graph.neighbors(w)];
            intersect_k_into(&mut lists, &mut out, &mut tmp, stats);
            black_box(out.len());
        }
    });
    vec![
        ("graph.intersect.merge_ns_per_elem", merge_ns),
        ("graph.intersect.gallop_ns_per_elem", gallop_ns),
        ("graph.intersect.kway_ns_per_elem", kway_ns),
    ]
}

/// What a machine sees without any fetch: its own partition.
struct LocalOracle<'a>(&'a LocalPartition);

impl AdjacencyOracle for LocalOracle<'_> {
    fn adjacency(&self, v: VertexId) -> Option<&[VertexId]> {
        self.0.neighbors(v)
    }
}

/// First-round expansion of machine 0's start candidates, per class, against
/// the local partition only (foreign endpoints become undetermined edges,
/// as in the engine before any fetch).
fn expand(inputs: &Inputs, slice: Duration) -> Vec<Metric> {
    let _span = spans::span("probe.core.expand");
    let local = inputs.partitioned.local(0);
    let oracle = LocalOracle(local);
    let each = slice / inputs.patterns.len() as u32;
    let mut ns = Vec::new();
    for (pattern, plan) in inputs.patterns.iter().zip(&inputs.plans) {
        let symmetry = SymmetryBreaking::new(pattern);
        let unit = UnitExpansion::new(pattern, plan, &symmetry, 0);
        let start = plan.start_vertex();
        let candidates = local.candidates_with_min_degree(pattern.degree(start));
        let mut expander = Expander::new();
        let mut f: Vec<Option<VertexId>> = vec![None; pattern.vertex_count()];
        ns.push(median_of(each, || {
            let mut extensions = 0usize;
            let seconds = secs(|| {
                for &v in &candidates {
                    f[start] = Some(v);
                    extensions += expander.expand(&unit, &mut f, &oracle).len();
                }
            });
            seconds * 1e9 / extensions.max(1) as f64
        }));
    }
    vec![("core.expand.ns_per_extension", mean(&ns))]
}

/// The embedding trie on paths of the graph: every root gets its neighbours
/// as children and their neighbours as grandchildren (bounded fan-out).
fn trie(inputs: &Inputs, slice: Duration) -> Vec<Metric> {
    const ROOTS: usize = 1024;
    const FAN_OUT: usize = 8;
    let _span = spans::span("probe.core.trie");
    let graph = &inputs.graph;
    let (mut insert, mut result, mut remove) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + slice;
    while insert.len() < 3 || Instant::now() < deadline {
        let mut trie = EmbeddingTrie::new();
        let mut leaves: Vec<NodeId> = Vec::new();
        let insert_s = secs(|| {
            for root_vertex in graph.vertices().take(ROOTS) {
                let root = trie.add_root(root_vertex);
                for &child_vertex in graph.neighbors(root_vertex).iter().take(FAN_OUT) {
                    let child = trie.add_child(root, child_vertex);
                    for &leaf_vertex in graph.neighbors(child_vertex).iter().take(FAN_OUT) {
                        leaves.push(trie.add_child(child, leaf_vertex));
                    }
                }
            }
        });
        let nodes = trie.node_count().max(1) as f64;
        insert.push(insert_s * 1e9 / nodes);
        let result_s = secs(|| {
            for &leaf in &leaves {
                black_box(trie.result(leaf));
            }
        });
        result.push(result_s * 1e9 / leaves.len().max(1) as f64);
        let remove_s = secs(|| {
            for &leaf in &leaves {
                trie.remove(leaf);
            }
        });
        let removed = nodes - trie.node_count() as f64;
        remove.push(remove_s * 1e9 / removed.max(1.0));
    }
    vec![
        ("core.trie.insert_ns_per_node", median(&insert)),
        ("core.trie.remove_ns_per_node", median(&remove)),
        ("core.trie.result_ns", median(&result)),
    ]
}

/// The foreign-vertex cache on machine 0's foreign working set (every
/// vertex another machine owns that a vertex of machine 0 is adjacent to),
/// once with twice the capacity the set needs and once with half of it.
fn cache(inputs: &Inputs, slice: Duration, rng: &mut Rng) -> Vec<Metric> {
    let _span = spans::span("probe.core.cache");
    let local = inputs.partitioned.local(0);
    let mut foreign: Vec<VertexId> = local
        .owned_vertices()
        .iter()
        .flat_map(|&v| local.neighbors(v).unwrap_or(&[]).iter().copied())
        .filter(|&w| !local.owns(w))
        .collect();
    foreign.sort_unstable();
    foreign.dedup();
    rng.shuffle(&mut foreign);
    let lists = || -> Vec<(VertexId, Vec<VertexId>)> {
        foreign
            .iter()
            .map(|&v| (v, inputs.graph.neighbors(v).to_vec()))
            .collect()
    };
    let working_set: usize = foreign
        .iter()
        .map(|&v| ForeignVertexCache::entry_bytes(inputs.graph.degree(v)))
        .sum();
    let n = foreign.len().max(1) as f64;

    let mut warm = ForeignVertexCache::with_capacity(2 * working_set);
    let insert_ns = median_of(slice / 3, || {
        let fresh = lists();
        warm = ForeignVertexCache::with_capacity(2 * working_set);
        secs(|| warm.insert_all(fresh)) * 1e9 / n
    });
    let hit_ns = median_of(slice / 3, || {
        secs(|| {
            for &v in &foreign {
                black_box(warm.get(v));
            }
        }) * 1e9
            / n
    });
    // Every insert into the full small cache has to evict first.
    let mut small = ForeignVertexCache::with_capacity(working_set / 2);
    small.insert_all(lists());
    let evict_ns = median_of(slice / 3, || {
        let fresh = lists();
        let before = small.stats().evictions;
        let seconds = secs(|| small.insert_all(fresh));
        let evicted = small.stats().evictions - before;
        seconds * 1e9 / evicted.max(1) as f64
    });
    vec![
        ("core.cache.hit_ns", hit_ns),
        ("core.cache.insert_ns", insert_ns),
        ("core.cache.evict_ns", evict_ns),
    ]
}

/// The edge verification index on the partition's cut edges: the edges a
/// machine cannot decide locally.
fn evi(inputs: &Inputs, slice: Duration) -> Vec<Metric> {
    const EDGES: usize = 1 << 16;
    let _span = spans::span("probe.core.evi");
    let ownership = inputs.partitioned.partitioning();
    let cut: Vec<(VertexId, VertexId)> = inputs
        .graph
        .edges()
        .filter(|&(u, v)| ownership.owner(u) != ownership.owner(v))
        .take(EDGES)
        .collect();
    let n = cut.len().max(1) as f64;
    let mut index = EdgeVerificationIndex::new();
    let add_ns = median_of(slice / 2, || {
        index = EdgeVerificationIndex::new();
        secs(|| {
            for (id, &(u, v)) in cut.iter().enumerate() {
                index.add(u, v, id as NodeId);
            }
        }) * 1e9
            / n
    });
    let group_ns = median_of(slice / 2, || {
        secs(|| {
            black_box(index.group_by_verifier(ownership));
        }) * 1e9
            / n
    });
    vec![
        ("core.evi.add_ns", add_ns),
        ("core.evi.group_ns_per_edge", group_ns),
    ]
}

/// The vertices a `fetchV` chunk to `machine` would ask for.
fn fetch_chunk(partitioned: &PartitionedGraph, machine: usize) -> Vec<VertexId> {
    partitioned
        .local(machine)
        .owned_vertices()
        .iter()
        .copied()
        .take(FETCH_CHUNK)
        .collect()
}

/// The wire codec on a `fetchV` response carrying one chunk of real
/// adjacency lists.
fn wire(inputs: &Inputs, workload: &Workload, slice: Duration) -> Vec<Metric> {
    let _span = spans::span("probe.runtime.wire");
    let owner = 1 % workload.machines;
    let chunk = fetch_chunk(&inputs.partitioned, owner);
    let lists = PartitionDaemon::fetch_vertices(inputs.partitioned.local(owner), &chunk);
    let ids: usize = lists.iter().map(|(_, adjacency)| 1 + adjacency.len()).sum();
    let response = Response::Adjacency(lists);
    let mut buf = Vec::new();
    let encode_s = per_call(slice / 2, 4, || {
        buf.clear();
        encode_response(&response, &mut buf);
        buf.len()
    });
    let decode_s = per_call(slice / 2, 4, || {
        decode_response(&buf).map(|decoded| response_bytes(&decoded))
    });
    let payload = buf.len().max(1) as f64;
    vec![
        ("runtime.wire.encode_ns_per_byte", encode_s * 1e9 / payload),
        ("runtime.wire.decode_ns_per_byte", decode_s * 1e9 / payload),
        (
            "runtime.wire.envelope_overhead_bytes",
            frame_bytes(buf.len()) as f64 - (ids * std::mem::size_of::<VertexId>()) as f64,
        ),
    ]
}

/// `fetchV` of one vertex and of one chunk from machine 0 to machine 1 over
/// a real Unix-socket fabric inside the harness.
fn transport(inputs: &Inputs, workload: &Workload, slice: Duration) -> Result<Vec<Metric>, String> {
    let _span = spans::span("probe.runtime.transport");
    let owner = 1 % workload.machines;
    let chunk = fetch_chunk(&inputs.partitioned, owner);
    let single = vec![*chunk.first().ok_or("machine 1 owns no vertex")?];
    let cluster = Cluster::with_transport(inputs.partitioned.clone(), TransportKind::Uds);
    let outcome = cluster.run(|ctx| {
        if ctx.machine() != 0 {
            return Ok(None);
        }
        let mut failure = None;
        let mut fetch = |vertices: &Vec<VertexId>| -> usize {
            match ctx.request(owner, Request::FetchVertices(vertices.clone())) {
                Ok(response) => response_bytes(&response),
                Err(e) => {
                    failure.get_or_insert(e.to_string());
                    0
                }
            }
        };
        let rtt_s = per_call(slice / 2, 8, || fetch(&single));
        let mut bytes = 0;
        let chunk_s = per_call(slice / 2, 1, || bytes = fetch(&chunk));
        match failure {
            Some(e) => Err(e),
            None => Ok(Some((rtt_s, bytes as f64 / chunk_s.max(1e-9)))),
        }
    });
    let (rtt_s, bytes_per_s) = outcome
        .results
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?
        .into_iter()
        .flatten()
        .next()
        .ok_or("machine 0 did not report")?;
    Ok(vec![
        ("runtime.transport.uds_rtt_us", rtt_s * 1e6),
        ("runtime.transport.uds_mb_per_s", bytes_per_s / 1e6),
    ])
}

/// The worker pool's own cost: two workers, units that do nothing.
fn pool(slice: Duration) -> Vec<Metric> {
    let _span = spans::span("probe.exec.pool");
    let config = ExecConfig::with_workers(2);
    let items: Vec<u32> = (0..1 << 15).collect();
    let mut steals = Vec::new();
    let ns = median_of(slice, || {
        let mut tasks = 1;
        let seconds = secs(|| {
            let (out, stats) = parallel_map(&config, &items, |_, _, item| black_box(*item));
            black_box(out.len());
            tasks = stats.tasks.max(1);
            steals.push(stats.steals as f64);
        });
        seconds * 1e9 / tasks as f64
    });
    vec![
        ("exec.pool.ns_per_unit", ns),
        ("exec.pool.steals", mean(&steals)),
    ]
}

/// The whole engine on an in-process cluster, per class, checked against
/// ground truth. Returns the per-class milliseconds as well: the cluster's
/// `elapsed_us` minus this is what the processes and sockets add.
fn engine(
    inputs: &Inputs,
    workload: &Workload,
    slice: Duration,
) -> Result<(Vec<Metric>, Vec<f64>), String> {
    let _span = spans::span("probe.core.engine");
    let cluster = Cluster::with_transport(inputs.partitioned.clone(), TransportKind::InProcess);
    let config = RadsConfig {
        workers: workload.workers,
        round_driver: RoundDriver::Async,
        ..RadsConfig::from_env().map_err(|e| e.to_string())?
    };
    let each = slice / inputs.patterns.len() as u32;
    let mut per_class_ms = Vec::new();
    for (class, pattern) in inputs.patterns.iter().enumerate() {
        let mut wrong = None;
        per_class_ms.push(
            median_of(each, || {
                let mut total = 0;
                let seconds =
                    secs(|| total = run_rads(&cluster, pattern, &config).total_embeddings);
                if total != inputs.truth[class] {
                    wrong = Some(total);
                }
                seconds
            }) * 1e3,
        );
        if let Some(total) = wrong {
            return Err(format!(
                "in-process {} counted {total}, ground truth is {}",
                workload.classes[class].0, inputs.truth[class]
            ));
        }
    }
    Ok((
        vec![("core.engine.inproc_ms", mean(&per_class_ms))],
        per_class_ms,
    ))
}

/// What a span costs where the program opens one: with tracing off and on.
fn span_cost(slice: Duration) -> Vec<Metric> {
    const BATCH: usize = 256;
    let _span = spans::span("probe.obs");
    obs::set_trace_enabled(false);
    let disabled = per_call(slice, BATCH, || obs::span("obs.noop", "bench"));
    // Only a few batches with tracing on: each span lands in the trace.
    obs::set_trace_enabled(true);
    let batches: Vec<f64> = (0..4)
        .map(|_| {
            secs(|| (0..BATCH).for_each(|_| drop(obs::span("obs.noop", "bench")))) / BATCH as f64
        })
        .collect();
    obs::set_trace_enabled(false);
    let enabled = median(&batches);
    vec![
        ("obs.span_disabled_ns", disabled * 1e9),
        ("obs.span_enabled_ns", enabled * 1e9),
    ]
}

/// Everything the probes found, plus the in-process engine's milliseconds
/// per class.
pub struct ProbeReport {
    pub metrics: Vec<Metric>,
    pub engine_ms: Vec<f64>,
}

/// Runs every probe, giving each an equal share of `budget`.
pub fn run_all(
    inputs: &Inputs,
    workload: &Workload,
    budget: Duration,
    seed: u64,
) -> Result<ProbeReport, String> {
    const PROBES: u32 = 14;
    let slice = budget / PROBES;
    let mut rng = Rng::new(seed);
    let mut metrics = single(inputs);
    metrics.extend(datasets(inputs, workload, slice));
    metrics.extend(partition(inputs, workload, slice));
    metrics.extend(plan(inputs, slice));
    metrics.extend(sme_and_grouping(inputs, workload, slice));
    metrics.extend(intersect(inputs, slice, &mut rng));
    metrics.extend(expand(inputs, slice));
    metrics.extend(trie(inputs, slice));
    metrics.extend(cache(inputs, slice, &mut rng));
    metrics.extend(evi(inputs, slice));
    metrics.extend(wire(inputs, workload, slice));
    metrics.extend(transport(inputs, workload, slice)?);
    metrics.extend(pool(slice));
    let (engine_metrics, engine_ms) = engine(inputs, workload, slice)?;
    metrics.extend(engine_metrics);
    metrics.extend(span_cost(slice));
    Ok(ProbeReport { metrics, engine_ms })
}
