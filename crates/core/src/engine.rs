//! The R-Meef engine (Section 3.2, Algorithm 4) and the per-machine driver.
//!
//! Every machine runs [`run_machine`]: SM-E first, then region grouping of the
//! remaining start candidates, then the multi-round expand / verify & filter
//! loop per region group, and finally checkR/shareR work stealing once the
//! local queue is empty.
//!
//! With `workers > 1` the machine drains its region groups with an
//! intra-machine [`rads_exec`] worker pool instead of a single loop. Region
//! groups are fully independent units of work, so each pool worker runs the
//! exact sequential drain loop — pop a group from the shared queue, process
//! it, steal from other machines once the queue is empty — against a
//! foreign-vertex cache of its own, checked out of the machine's
//! [`ForeignStore`] for the length of the drain (contention-free reads: no
//! worker ever blocks on another worker's cache), and its own partial
//! [`MachineOutput`]. The
//! partials are merged at the end-of-phase barrier by summing counters,
//! maxing peaks and sorting collected embeddings, all order-insensitive
//! reductions, so every result surfaced by [`run_machine`] is independent of
//! the worker count and of scheduling. Only the communication-volume
//! counters (cache hits/misses, `fetchV`/`verifyE` request counts) and the
//! statistics of what was materialised (see
//! [below](self#depth-first-as-far-as-adjacency-is-known)) may vary with
//! `workers > 1`, because which worker's cache already holds a foreign
//! vertex depends on which worker processed the earlier group.
//!
//! # Foreign adjacency outlives the run
//!
//! The caches are not the run's: they belong to the [`ForeignStore`] passed
//! to [`run_machine`], and go back to it — contents and all — when the drain
//! ends. A caller that hands every run a fresh store ([`crate::run_rads`])
//! gets runs that are pure functions of their inputs; a caller that keeps
//! one store for as long as the machine's partition is loaded (the resident
//! `serve` machine) pays each `fetchV` once per process rather than once per
//! query, and — since an undetermined edge with a cached endpoint is decided
//! in the intersect — most `verifyE` traffic with it. Embedding counts are
//! the same either way; see the [`crate::store`] docs for why that is sound.
//! The cache counters in [`EngineStats`] are per run regardless: deltas
//! between check-out and check-in.
//!
//! # Depth-first as far as adjacency is known
//!
//! Algorithm 4 materialises every round breadth-first into the embedding
//! trie and the EVI, because some edge *might* be undetermined. Here each
//! parent goes depth-first for as long as the adjacency it needs is known
//! on the machine — owned, in the checked-out cache or in the round's
//! scratch cache — and only the unknown frontier waits for the batched
//! rounds (a deliberate deviation from the paper):
//!
//! * A parent of a round (a start candidate in round 0, a trie node later,
//!   deposits included) first tries to match the **whole rest of the
//!   pattern one query vertex at a time**, in the machine's descent order
//!   ([`Expander::expand_strict`] over [`UnitExpansion::from_order`]). A
//!   vertex's candidates are the intersection of every matched neighbour's
//!   known list; a neighbour whose list is unknown is asked through
//!   [`AdjacencyOracle::decide_edge`]. The embeddings it completes are
//!   counted, or collected.
//! * The attempt is *abandoned* at the first edge it cannot decide, or at
//!   the first vertex none of whose matched neighbours has a known list. It
//!   keeps nothing — no count, no embedding — and the parent takes the unit
//!   path below, exactly as if the attempt had never run
//!   ([`EngineStats::depth_first_abandoned`] counts these).
//! * The unit path expands the parent's unit in full. An extension with an
//!   undetermined edge goes into the trie and the EVI as in the paper; any
//!   other extension is an embedding of the sub-pattern already and
//!   descends into the next round, where one [`Expander`] per round expands
//!   it strictly. At the last unit the extensions are counted, or
//!   collected.
//! * An embedding of `P_{r-1}` whose round-`r` pivot is unknown, or whose
//!   strict unit expansion gave up, is *deposited*: it waits in a per-round
//!   list and joins the trie, under its start candidate's one root, when
//!   round `r` starts, so that round's batched `fetchV` and `verifyE` cover
//!   it with the breadth-first parents.
//! * The governor charges the deposits with the trie. A candidate shed in a
//!   later round takes back its depth-first count, its deposits for later
//!   rounds and its collected embeddings before it restarts from round 0.
//!
//! **The descent order.** A unit matches all its leaves from its pivot, so
//! K3,3's round 0 enumerates a three-leaf star before any back edge prunes
//! it. One vertex at a time, the order decides how early the back edges
//! prune, and no order derived from the pattern alone wins everywhere: the
//! plan's Definition-10 order visits half the greedy order's search nodes
//! on the 5-cycle of the LiveJournal stand-in, the greedy order a fifth of
//! the plan's on K3,3 there and on the 6-cycle of the RoadNet stand-in. So
//! each machine measures: once per pattern it counts, with the descent's own
//! [`Expander`], both orders below the same sample of its own start
//! candidates and keeps the one that visits fewer nodes
//! ([`crate::sme::choose_descent_order`], cached in the [`ForeignStore`]).
//! SM-E matches in the same order, with the same kernel.
//!
//! **What the attempts cost.** On a warm resident machine nearly every
//! attempt completes: the machine enumerates like a single-machine
//! backtracker, with an empty trie. On a cold one a start candidate's attempt
//! often enumerates most of its search tree before it meets two adjacent
//! vertices the machine knows nothing about, and the unit path then does that
//! work again. Measured ungated on the LiveJournal stand-in (scale 0.25, 4
//! machines, 1 worker, one-shot `run_rads`, a 2-core host): c3's abandoned
//! attempts visited 240 k search nodes beside the 459 k its completed ones
//! kept, and the run cost 1.6× the CPU of the same run without attempts (q3
//! 1.25×). So each round's attempts pass a gate: while most of the last 32
//! attempts gave up, one parent in 16 tries. Cold c3 and q3 then cost what
//! they cost without attempts (c3 219–239 against 219–231 CPU-ms, q3 300–305
//! against 291–299).
//!
//! The Tables 3–4 accounting (`trie_nodes_created`, `embedding_*_bytes`)
//! counts only what was materialised; [`EngineStats::depth_first_embeddings`]
//! counts the rest. Which parent goes which way depends on the cache
//! contents, so — like the undetermined edges before them — these
//! statistics vary with the schedule wherever the cache contents do.
//!
//! # Round drivers: scatter / harvest
//!
//! The communication of each round runs under one of two [`RoundDriver`]s,
//! selected by [`EngineConfig::driver`] (`RADS_ROUND_DRIVER=serial|async`
//! for the env-driven default):
//!
//! * [`RoundDriver::Serial`] issues every `fetchV` / `verifyE` request with
//!   a blocking round-trip, exactly the paper's sequential loop — the
//!   differential-testing oracle.
//! * [`RoundDriver::Async`] (the default) splits each round's communication
//!   into a *scatter* phase — every per-owner request chunk is issued
//!   immediately via the transport's split-phase RPC, so their round-trips
//!   overlap on the wire — and a *harvest* phase that redeems the pending
//!   responses **in issue order**. A round fetches only what it needs
//!   (HUGE's pull-based model). Nothing is fetched a group ahead: R-Meef
//!   forms a machine's region groups from its own start candidates, so a
//!   group's round-0 adjacency is local unless the group was stolen.
//!
//! **Determinism contract under reordering.** Requests are scattered in a
//! deterministic order (owners ascending, chunks in sorted-vertex order)
//! and harvested in that same issue order, and the transport guarantees
//! each pending handle resolves to *its own* request's response no matter
//! how the network interleaves or reorders the replies (the fault-injection
//! suite pins this with adversarial completion orders). Embedding counts,
//! collected embeddings and every schedule-independent statistic are
//! therefore bit-identical between the two drivers.

use std::collections::{BTreeMap, HashMap, HashSet};

use parking_lot::Mutex;
use rads_exec::{scoped_workers, ExecConfig};
use rads_graph::{Pattern, PatternVertex, SymmetryBreaking, VertexId, VertexMap, VertexSet};
use rads_graph::types::EdgeKey;
use rads_partition::LocalPartition;
use rads_plan::ExecutionPlan;
use rads_runtime::{ConfigError, MachineContext, PendingResponse, Request, Response, TransportError};

use crate::cache::ForeignVertexCache;
use crate::daemon::GroupQueue;
use crate::evi::EdgeVerificationIndex;
use crate::expand::{AdjacencyOracle, Expander, ExtensionBuffer, Sink, UnitExpansion};
use crate::governor::MemoryGovernor;
use crate::memory::{MemoryBudget, SpaceEstimator};
use crate::region::{find_region_groups, foreign_members, GroupingStrategy};
use crate::sme::run_sme_in_order;
use crate::store::ForeignStore;
use crate::trie::{EmbeddingTrie, NodeId};

/// Environment variable selecting the [`RoundDriver`]
/// (`RADS_ROUND_DRIVER=serial|async`); consulted by
/// [`RoundDriver::from_env`] and therefore by `RadsConfig::default()`.
pub const ROUND_DRIVER_ENV: &str = "RADS_ROUND_DRIVER";

/// How a round's `fetchV` / `verifyE` communication is driven; see the
/// [module docs](self#round-drivers-scatter--harvest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RoundDriver {
    /// Blocking round-trip per request — the paper's sequential loop, kept
    /// as the differential-testing oracle.
    Serial,
    /// Scatter all per-owner chunks concurrently, harvest in issue order.
    #[default]
    Async,
}

impl RoundDriver {
    /// Parses a driver name (the accepted `RADS_ROUND_DRIVER` values).
    pub fn parse(name: &str) -> Option<RoundDriver> {
        match name {
            "serial" => Some(RoundDriver::Serial),
            "async" => Some(RoundDriver::Async),
            _ => None,
        }
    }

    /// The driver's name as accepted by [`parse`](Self::parse).
    pub fn name(self) -> &'static str {
        match self {
            RoundDriver::Serial => "serial",
            RoundDriver::Async => "async",
        }
    }

    /// Reads [`ROUND_DRIVER_ENV`], defaulting to [`RoundDriver::Async`].
    /// An unknown value is a typed [`ConfigError`] (a typo silently running
    /// the wrong driver would defeat the differential matrix; binaries exit
    /// cleanly with the message instead of panicking mid-run).
    pub fn from_env() -> Result<RoundDriver, ConfigError> {
        Self::from_env_value(std::env::var(ROUND_DRIVER_ENV).ok().as_deref())
    }

    /// [`from_env`](Self::from_env) over an explicit value (`None` = unset),
    /// so the parse is testable without racing on process-global env state.
    pub fn from_env_value(raw: Option<&str>) -> Result<RoundDriver, ConfigError> {
        match raw {
            None => Ok(RoundDriver::default()),
            Some(value) => RoundDriver::parse(value).ok_or_else(|| ConfigError {
                var: ROUND_DRIVER_ENV,
                value: value.to_string(),
                expected: "\"serial\" or \"async\"",
            }),
        }
    }
}

/// Per-machine engine configuration (the knobs of `RadsConfig` that the
/// engine itself needs).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Run the SM-E phase (Section 3.1). Disabling it is the `ablation_sme`
    /// experiment.
    pub enable_sme: bool,
    /// Keep fetched foreign vertices cached across rounds and region groups
    /// (and, through the [`ForeignStore`], across runs). Disabled, the store
    /// is bypassed altogether.
    pub enable_cache: bool,
    /// Steal region groups from the most loaded machine when idle.
    pub enable_load_sharing: bool,
    /// How region groups are formed.
    pub grouping: GroupingStrategy,
    /// Per-group memory budget `Φ`. Its cache allowance sizes only the
    /// per-round scratch cache of a cache-disabled run: the persistent
    /// caches are sized by the [`ForeignStore`] that owns them.
    pub budget: MemoryBudget,
    /// Enforce the budget at runtime (the [`MemoryGovernor`]): overflowing
    /// region groups are split mid-flight and the space estimator is
    /// re-fitted online. `false` trusts the a-priori sizing only — the
    /// `RADS-static` ablation of the robustness experiment.
    pub enforce_budget: bool,
    /// Collect full embeddings (tests / small runs) instead of only counting.
    pub collect_embeddings: bool,
    /// RNG seed for region grouping.
    pub seed: u64,
    /// Intra-machine worker threads (see the [module docs](self)).
    pub workers: usize,
    /// Start candidates per SM-E work unit (the stealing granularity).
    pub steal_granularity: usize,
    /// How the rounds' communication is driven (see the
    /// [module docs](self#round-drivers-scatter--harvest)).
    pub driver: RoundDriver,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            enable_sme: true,
            enable_cache: true,
            enable_load_sharing: true,
            grouping: GroupingStrategy::Proximity,
            budget: MemoryBudget::default(),
            enforce_budget: true,
            collect_embeddings: false,
            seed: 0x5AD5,
            workers: 1,
            steal_granularity: rads_exec::DEFAULT_STEAL_GRANULARITY,
            driver: RoundDriver::default(),
        }
    }
}

/// Counters describing one machine's run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Embeddings found by SM-E.
    pub sme_embeddings: u64,
    /// Embeddings found by the distributed R-Meef phase.
    pub distributed_embeddings: u64,
    /// The part of `distributed_embeddings` completed depth-first, without
    /// a trie node or a `verifyE` (see the
    /// [module docs](self#depth-first-as-far-as-adjacency-is-known)).
    pub depth_first_embeddings: u64,
    /// Sub-pattern embeddings the depth-first descent deposited for a later
    /// batched round, because that round's pivot adjacency was unknown or
    /// its unit met an undetermined edge.
    pub depth_first_deposits: u64,
    /// Parents whose attempt to match the whole rest of the pattern in the
    /// descent order gave up at an unknown adjacency, and which went the
    /// unit path instead (see the
    /// [module docs](self#depth-first-as-far-as-adjacency-is-known)).
    pub depth_first_abandoned: u64,
    /// The order this machine's depth-first descent and SM-E matched the
    /// pattern in: the plan's or the greedy one, whichever the machine
    /// measured as cheaper ([`ForeignStore::descent_order`]).
    pub descent_order: Vec<PatternVertex>,
    /// Start candidates handled by SM-E.
    pub sme_candidates: usize,
    /// Start candidates handled by R-Meef (own groups).
    pub distributed_candidates: usize,
    /// Region groups created locally.
    pub groups_created: usize,
    /// Region groups processed (own + stolen).
    pub groups_processed: usize,
    /// Region groups stolen from other machines: groups *received*, not
    /// `shareR` replies — one reply hands over half the victim's queue. A
    /// group stolen twice (queued by one thief, taken by another) counts on
    /// both. Feeds `rads_groups_stolen_total` and the benchmark's
    /// `core.region.groups_stolen_share`.
    pub groups_stolen: usize,
    /// Peak number of live trie nodes over all region groups.
    pub peak_trie_nodes: usize,
    /// Total trie nodes ever created (space accounting of Tables 3–4). Only
    /// what was materialised counts: embeddings completed depth-first never
    /// enter the trie.
    pub trie_nodes_created: u64,
    /// Bytes an uncompressed embedding list of the intermediate results in
    /// the trie would have required.
    pub embedding_list_bytes: u64,
    /// Bytes the embedding trie required for the same results.
    pub embedding_trie_bytes: u64,
    /// Foreign vertices held in this run's caches when they were checked
    /// back in — the resident footprint, which on a store that outlives the
    /// run includes what earlier runs left there.
    pub cache_entries: usize,
    /// Foreign-vertex cache hits of this run (since check-out, like the two
    /// counters below — never a resident cache's lifetime totals).
    pub cache_hits: u64,
    /// Foreign-vertex cache misses of this run.
    pub cache_misses: u64,
    /// Entries the byte-bounded caches evicted during this run to stay
    /// under their allowance.
    pub cache_evictions: u64,
    /// Highest byte footprint any single cache this run used ever reached
    /// (resident, like `cache_entries`; each cache has its own
    /// [`MemoryBudget::cache_bytes`] allowance).
    pub cache_peak_bytes: u64,
    /// Highest bytes of intermediate results (trie, deposits waiting for a
    /// later round, expansion buffers) seen at any governor checkpoint on any
    /// worker — the runtime counterpart of `Φ`.
    pub peak_tracked_bytes: u64,
    /// Region groups the governor split mid-flight.
    pub governor_splits: u64,
    /// Start candidates shed from overflowing groups and re-queued.
    pub respilled_candidates: u64,
    /// Times the online re-fit raised the space estimate.
    pub estimator_refits: u64,
    /// Bytes per start candidate the *static* (SM-E-fitted) estimator
    /// predicted — comparing it against `peak_tracked_bytes` of an
    /// unlimited-budget run shows how wrong the prior was.
    pub estimated_bytes_per_candidate: u64,
    /// Number of `fetchV` requests sent.
    pub fetch_requests: u64,
    /// EWMA (µs) of how long the async driver waited for the *first*
    /// `fetchV` response after scattering a round's *demand* chunks — about
    /// one link round trip (everything after the first response overlaps).
    /// Zero until an async round has fetched something; merged across
    /// workers by `max`.
    pub fetch_wait_micros: u64,
    /// Number of `verifyE` requests sent.
    pub verify_requests: u64,
    /// Transient RPC failures healed by transparent re-issue (retry with
    /// backoff, or a synchronous re-send after a failed async harvest).
    /// Zero on a healthy fabric; under fault injection this proves the
    /// retry layer fired while counts stayed bit-identical.
    pub rpc_retries: u64,
    /// Distinct undetermined edges put into the EVI.
    pub undetermined_edges: u64,
    /// Embedding candidates removed by remote verification.
    pub candidates_filtered: u64,
    /// Intersection-kernel counters of SM-E and of the R-Meef expansion.
    /// Like the communication counters, the R-Meef share may vary with
    /// `workers > 1`: which back-edge endpoints have locally known adjacency
    /// depends on the worker-private cache contents and therefore on the
    /// schedule.
    pub intersect: rads_graph::IntersectStats,
}

/// Result of one machine's run.
#[derive(Debug, Clone, Default)]
pub struct MachineOutput {
    /// Total embeddings found by this machine (SM-E + distributed).
    pub count: u64,
    /// The embeddings themselves (only when `collect_embeddings` is set),
    /// indexed by query vertex and sorted lexicographically — the sort is
    /// what keeps the output independent of the intra-machine worker
    /// schedule.
    pub embeddings: Vec<Vec<VertexId>>,
    /// Run statistics.
    pub stats: EngineStats,
}

impl MachineOutput {
    /// Folds one pool worker's partial output into the machine total. Every
    /// reduction is order-insensitive (sums and maxes), so the merged result
    /// does not depend on worker order or scheduling.
    fn absorb(&mut self, worker: MachineOutput) {
        self.count += worker.count;
        self.embeddings.extend(worker.embeddings);
        let s = &mut self.stats;
        let w = worker.stats;
        s.sme_embeddings += w.sme_embeddings;
        s.distributed_embeddings += w.distributed_embeddings;
        s.depth_first_embeddings += w.depth_first_embeddings;
        s.depth_first_deposits += w.depth_first_deposits;
        s.depth_first_abandoned += w.depth_first_abandoned;
        s.sme_candidates += w.sme_candidates;
        s.distributed_candidates += w.distributed_candidates;
        s.groups_created += w.groups_created;
        s.groups_processed += w.groups_processed;
        s.groups_stolen += w.groups_stolen;
        s.peak_trie_nodes = s.peak_trie_nodes.max(w.peak_trie_nodes);
        s.trie_nodes_created += w.trie_nodes_created;
        s.embedding_list_bytes += w.embedding_list_bytes;
        s.embedding_trie_bytes += w.embedding_trie_bytes;
        s.cache_entries += w.cache_entries;
        s.cache_hits += w.cache_hits;
        s.cache_misses += w.cache_misses;
        s.cache_evictions += w.cache_evictions;
        s.cache_peak_bytes = s.cache_peak_bytes.max(w.cache_peak_bytes);
        s.peak_tracked_bytes = s.peak_tracked_bytes.max(w.peak_tracked_bytes);
        s.governor_splits += w.governor_splits;
        s.respilled_candidates += w.respilled_candidates;
        s.estimator_refits += w.estimator_refits;
        s.estimated_bytes_per_candidate =
            s.estimated_bytes_per_candidate.max(w.estimated_bytes_per_candidate);
        s.fetch_requests += w.fetch_requests;
        s.fetch_wait_micros = s.fetch_wait_micros.max(w.fetch_wait_micros);
        s.verify_requests += w.verify_requests;
        s.rpc_retries += w.rpc_retries;
        s.undetermined_edges += w.undetermined_edges;
        s.candidates_filtered += w.candidates_filtered;
        s.intersect.absorb(&w.intersect);
    }
}

/// Adjacency oracle over the machine's partition, the persistent cache, a
/// per-round scratch cache (used when caching is disabled for the ablation)
/// and an optional transient entry: the adjacency of the pivot currently
/// being expanded when the byte-bounded cache evicted it (or refused it as
/// oversized) between fetch and use. The transient keeps expansion correct
/// under arbitrary cache pressure — a pivot whose adjacency is invisible
/// would silently drop every embedding extending through it.
///
/// The caches are borrowed mutably so that the depth-first descent's pivot
/// lookups ([`knows_pivot`](Self::knows_pivot)) are recorded; the oracle
/// reads themselves never are.
struct MachineOracle<'a> {
    local: &'a LocalPartition,
    cache: &'a mut ForeignVertexCache,
    scratch: &'a mut ForeignVertexCache,
    transient: Option<&'a (VertexId, Vec<VertexId>)>,
}

impl AdjacencyOracle for MachineOracle<'_> {
    fn adjacency(&self, v: VertexId) -> Option<&[VertexId]> {
        let transient = match self.transient {
            Some((tv, adj)) if *tv == v => Some(adj.as_slice()),
            _ => None,
        };
        self.local
            .neighbors(v)
            .or_else(|| self.cache.peek(v))
            .or_else(|| self.scratch.peek(v))
            .or(transient)
    }
}

impl MachineOracle<'_> {
    /// Whether the adjacency of `pivot` is known. A lookup of a foreign
    /// pivot counts as a cache hit or miss and refreshes its LRU recency,
    /// exactly as [`ensure_pivot_adjacency`] does for the batched rounds.
    fn knows_pivot(&mut self, pivot: VertexId) -> bool {
        self.local.owns(pivot)
            || self.transient.is_some_and(|(v, _)| *v == pivot)
            || self.cache.get(pivot).is_some()
            || self.scratch.get(pivot).is_some()
    }
}

/// Makes sure the adjacency of `pivot` is visible to the next expansion:
/// owned, cached, or fetched now (the round's batch fetch can be undone by
/// LRU eviction before the pivot is reached, and an adjacency list larger
/// than the whole cache allowance is never retained at all). Returns the
/// fetched list for use as the oracle's transient entry when the cache would
/// refuse to retain it.
///
/// This is the *recorded* cache access of the engine: it uses
/// [`ForeignVertexCache::get`], so every pivot expansion counts a hit or
/// miss and refreshes the entry's LRU recency — without it, eviction would
/// degenerate to FIFO and the hottest hub adjacency would be the first to
/// go. (The read-only `peek`/`verify_edge` paths deliberately stay
/// non-recording.)
fn ensure_pivot_adjacency(
    ctx: &MachineContext,
    local: &LocalPartition,
    pivot: VertexId,
    cache: &mut ForeignVertexCache,
    scratch: &mut ForeignVertexCache,
    stats: &mut EngineStats,
) -> Option<(VertexId, Vec<VertexId>)> {
    if local.owns(pivot) {
        return None;
    }
    // records the hit/miss on the worker's reported cache, even when the
    // cache is disabled (the ablation still counts the misses it causes)
    if cache.get(pivot).is_some() || scratch.get(pivot).is_some() {
        return None;
    }
    stats.fetch_requests += 1;
    let owner = ctx.ownership().owner(pivot);
    let request = Request::FetchVertices(vec![pivot]);
    let pending = ctx.request_async(owner, request.clone());
    let correlation = pending.correlation();
    match ctx.harvest(pending, owner, &request).unwrap_or_else(|e| transport_failed(ctx, e)) {
        Response::Adjacency(lists) => {
            let mut transient = None;
            for (v, mut adj) in lists {
                let target = if cache.is_enabled() { &mut *cache } else { &mut *scratch };
                if v == pivot
                    && ForeignVertexCache::entry_bytes(adj.len()) > target.capacity_bytes()
                {
                    // the cache would refuse it as oversized: hand the list
                    // to the oracle directly instead of losing it
                    adj.sort_unstable();
                    transient = Some((v, adj));
                } else {
                    target.insert(v, adj);
                }
            }
            transient
        }
        other => unexpected_response(ctx, "fetchV", owner, correlation, &other),
    }
}

/// A daemon answered with the wrong response variant: a routing or protocol
/// bug. The message names both ends of the exchange and the correlation id
/// of the pipelined connection (`n/a` on transports without correlation
/// ids, e.g. a local short-circuited or channel-simulated request), which
/// is what lets the mis-tagged frame be found in a wire capture.
fn unexpected_response(
    ctx: &MachineContext,
    what: &str,
    from: usize,
    correlation: Option<u64>,
    response: &Response,
) -> ! {
    let me = ctx.machine();
    let correlation = correlation.map_or_else(|| "n/a".to_string(), |c| c.to_string());
    panic!(
        "machine {me}: unexpected {what} response from machine {from} \
         (correlation {correlation}): {response:?}"
    )
}

/// An RPC failed past the retry/backoff policy (terminal error, or the
/// retry budget ran out). The engine cannot make progress without the
/// answer, so the machine goes down carrying the typed error message; the
/// engine-thread panic is tagged with the machine id by the runtime, and in
/// a multi-process cluster the coordinator observes the worker's exit and
/// applies `RADS_FAULT_POLICY` (fail fast with a structured report, or
/// recompute the lost shares).
fn transport_failed(ctx: &MachineContext, error: TransportError) -> ! {
    panic!("machine {}: unrecoverable transport failure: {error}", ctx.machine())
}

/// Runs the full RADS pipeline on one machine of the cluster. `store` is
/// where the run's foreign-vertex caches come from and go back to (see the
/// [module docs](self#foreign-adjacency-outlives-the-run)).
pub fn run_machine(
    ctx: &MachineContext,
    pattern: &Pattern,
    plan: &ExecutionPlan,
    config: &EngineConfig,
    group_queue: GroupQueue,
    store: &ForeignStore,
) -> MachineOutput {
    let mut output = MachineOutput::default();
    let local = ctx.partition();
    let symmetry = SymmetryBreaking::new(pattern);
    let exec = ExecConfig { workers: config.workers, steal_granularity: config.steal_granularity };
    let mut query_span = rads_obs::span("query", "engine");
    query_span.attr("machine", ctx.machine() as u64);
    query_span.attr("workers", config.workers as u64);
    // peers' checkR waits for the publication below: make it happen (empty)
    // even if SM-E or grouping unwinds, so no peer waits out the limit
    let unwind_guard = PublishOnDrop(&group_queue);

    // The order SM-E and the depth-first descent match in: measured once
    // per pattern on this machine, then kept in the store.
    let descent_order = {
        let _order_span = rads_obs::span("descent_order", "engine");
        store.descent_order(local, pattern, plan)
    };
    if let Some(packed) = packed_order(descent_order.order()) {
        query_span.attr("descent_order", packed);
    }

    // ---- Phase 1: SM-E -----------------------------------------------------
    let mut sme_span = rads_obs::span("sme", "engine");
    let sme = run_sme_in_order(
        local,
        pattern,
        &descent_order,
        config.enable_sme,
        config.collect_embeddings,
        &exec,
    );
    sme_span.attr("embeddings", sme.count);
    drop(sme_span);
    output.stats.sme_embeddings = sme.count;
    output.stats.sme_candidates = sme.local_candidates;
    output.stats.intersect.absorb(&sme.intersect);
    output.count += sme.count;
    output.embeddings = sme.embeddings;

    // ---- Phase 2: region grouping -------------------------------------------
    output.stats.distributed_candidates = sme.remaining_candidates.len();
    let mut grouping_span = rads_obs::span("region_grouping", "engine");
    let groups = find_region_groups(
        local,
        &sme.remaining_candidates,
        &sme.estimator,
        &config.budget,
        config.grouping,
        config.seed ^ ctx.machine() as u64,
    );
    grouping_span.attr("groups", groups.len() as u64);
    drop(grouping_span);
    output.stats.groups_created = groups.len();
    // The group this machine starts on is never published: a thief released
    // by the publication would otherwise race the owner for it, and win
    // whenever the owner is descheduled — taking work its owner was about to
    // begin, at the price of fetching its adjacency.
    let mut groups = groups.into_iter();
    let first = Mutex::new(groups.next());
    group_queue.publish(groups);
    drop(unwind_guard);

    // ---- Phases 3 + 4: drain region groups on the worker pool ----------------
    // The shared queue doubles as the pool's injector; it must stay the
    // single source of waiting groups because other machines' shareR
    // requests take from it too (and because the governor re-queues the
    // shed half of a split group there). With workers == 1 the closure runs
    // inline on the engine thread — the paper's sequential path, unchanged.
    let estimator = sme.estimator;
    let worker_outputs = scoped_workers(exec.effective_workers(), |_worker| {
        let first = first.lock().take();
        let descent = Descent::new(
            pattern,
            plan,
            &symmetry,
            descent_order.order(),
            config.collect_embeddings,
        );
        drain_region_groups(ctx, plan, descent, first, &group_queue, config, estimator, store)
    });
    for worker_output in worker_outputs {
        output.absorb(worker_output);
    }
    output.stats.descent_order = descent_order.order().to_vec();
    output.stats.estimated_bytes_per_candidate =
        (estimator.nodes_per_candidate() * EmbeddingTrie::NODE_BYTES as f64).round() as u64;
    if config.collect_embeddings {
        output.embeddings.sort_unstable();
    }
    // The retry counter lives on the shared context (all workers funnel
    // through it), so it is read once here, not summed from worker partials.
    output.stats.rpc_retries = ctx.rpc_retries();
    crate::obs::publish_engine_stats(&output.stats);
    drop(query_span);
    // The engine thread may live past this run (it is the process main
    // thread in `rads-node`); push its buffered spans to the collector so a
    // drain right after the run sees the full timeline. Worker threads
    // flushed when they exited.
    rads_obs::flush_thread();
    output
}

/// Packs `order` into one hexadecimal digit per vertex, the first vertex
/// highest — the form a span attribute can carry. `None` past 16 vertices.
fn packed_order(order: &[PatternVertex]) -> Option<u64> {
    if order.len() > 16 || order.iter().any(|&u| u >= 16) {
        return None;
    }
    Some(order.iter().fold(0, |packed, &u| packed << 4 | u as u64))
}

/// Publishes its queue (adding nothing) when dropped.
struct PublishOnDrop<'a>(&'a GroupQueue);

impl Drop for PublishOnDrop<'_> {
    fn drop(&mut self) {
        self.0.publish([]);
    }
}

/// One pool worker's share of phases 3 and 4: process `first` (if given) and
/// then local region groups until the machine's queue is empty, then steal
/// groups from the most loaded other machine (checkR / shareR) until the
/// cluster has none left.
/// Exactly the sequential drain loop, against a worker-private governor and
/// output and a cache checked out of `store` for the length of the drain. A
/// drain that unwinds (see [`transport_failed`]) never checks its cache back
/// in.
///
/// The governor's split path re-queues shed candidates on this machine's
/// shared queue, so a worker that splits a group finds the shed half on its
/// own next `pop_front` (it is still inside this loop when it pushes), and
/// other machines' `shareR` requests can steal it meanwhile.
#[allow(clippy::too_many_arguments)]
fn drain_region_groups(
    ctx: &MachineContext,
    plan: &ExecutionPlan,
    mut descent: Descent<'_>,
    mut first: Option<Vec<VertexId>>,
    group_queue: &GroupQueue,
    config: &EngineConfig,
    estimator: SpaceEstimator,
    store: &ForeignStore,
) -> MachineOutput {
    let mut output = MachineOutput::default();
    let mut cache =
        if config.enable_cache { store.check_out() } else { ForeignVertexCache::disabled() };
    let stats_at_check_out = cache.stats();
    // One expander per round per pool worker: its candidate buffers,
    // backtracking stacks and flat extension output are reused across every
    // parent embedding and region group this worker processes, and the
    // depth-first descent holds one round's output while the next round
    // expands. Likewise one governor: its observations and re-fitted
    // estimator carry across groups.
    let mut expanders: Vec<Expander> = (0..plan.rounds()).map(|_| Expander::new()).collect();
    let mut governor = MemoryGovernor::new(config.budget, config.enforce_budget, estimator);
    let _drain_span = rads_obs::span("drain", "engine");

    // ---- Phase 3: R-Meef over the local region groups ------------------------
    while let Some(group) = first.take().or_else(|| group_queue.lock().pop_front()) {
        process_region_group(
            ctx, plan, &mut descent, &group, &mut cache, &mut expanders, &mut governor,
            group_queue, config, &mut output,
        );
        output.stats.groups_processed += 1;
    }

    // ---- Phase 4: work stealing (checkR / shareR) -----------------------------
    if config.enable_load_sharing && ctx.machines() > 1 {
        let _steal_span = rads_obs::span("steal", "engine");
        loop {
            // the async driver scatters the checkR poll so the peers serve
            // it concurrently; results are identical, only pacing differs
            // checkR is idempotent: both paths retry transient failures
            // internally; an error here means a peer is gone past recovery.
            let polled = match config.driver {
                RoundDriver::Serial => ctx.broadcast(Request::CheckRegionGroups),
                RoundDriver::Async => ctx.broadcast_scatter(Request::CheckRegionGroups),
            }
            .unwrap_or_else(|e| transport_failed(ctx, e));
            let counts: Vec<(usize, usize)> = polled
                .into_iter()
                .filter_map(|(m, resp)| match resp {
                    Response::RegionGroupCount(n) => Some((m, n)),
                    _ => None,
                })
                .collect();
            let Some(&(target, pending)) = counts.iter().max_by_key(|&&(_, n)| n) else { break };
            if pending == 0 {
                break;
            }
            // shareR drains the target's queue — not idempotent, so a failure
            // is returned on first error, never blindly re-sent (a duplicate
            // could lose region groups). Terminal for this machine.
            match ctx
                .request(target, Request::ShareRegionGroup)
                .unwrap_or_else(|e| transport_failed(ctx, e))
            {
                Response::RegionGroups(groups) if !groups.is_empty() => {
                    output.stats.groups_stolen += groups.len();
                    // Run the first stolen group; the rest wait on *this*
                    // machine's queue, where a third machine's shareR can
                    // take them. A stolen group that overflows is split onto
                    // the same queue — the thief keeps the shed work.
                    let mut groups = groups.into_iter();
                    let first = groups.next().expect("non-empty");
                    group_queue.lock().extend(groups);
                    process_region_group(
                        ctx, plan, &mut descent, &first, &mut cache, &mut expanders,
                        &mut governor, group_queue, config, &mut output,
                    );
                    output.stats.groups_processed += 1;
                    // drain the rest and any shed work before stealing more
                    loop {
                        let local_group = group_queue.lock().pop_front();
                        let Some(local_group) = local_group else { break };
                        process_region_group(
                            ctx, plan, &mut descent, &local_group, &mut cache, &mut expanders,
                            &mut governor, group_queue, config, &mut output,
                        );
                        output.stats.groups_processed += 1;
                    }
                }
                // Someone else got there first; re-check the cluster.
                Response::RegionGroups(_) => continue,
                _ => break,
            }
        }
    }

    let cache_stats = cache.stats().since(stats_at_check_out);
    output.stats.cache_hits = cache_stats.hits;
    output.stats.cache_misses = cache_stats.misses;
    output.stats.cache_evictions = cache_stats.evictions;
    output.stats.cache_peak_bytes = cache.peak_memory_bytes() as u64;
    output.stats.cache_entries = cache.len();
    if config.enable_cache {
        store.check_in(cache);
    }
    for expander in expanders.iter().chain([&descent.whole]) {
        output.stats.intersect.absorb(expander.intersect_stats());
    }
    output.stats.peak_tracked_bytes = governor.stats.peak_tracked_bytes;
    output.stats.governor_splits = governor.stats.splits;
    output.stats.respilled_candidates = governor.stats.respilled_candidates;
    output.stats.estimator_refits = governor.stats.estimator_refits;
    output
}

/// Processes one region group: the multi-round expand / verify & filter loop
/// of Algorithm 4, depth-first wherever the adjacency is known (see the
/// [module docs](self#depth-first-as-far-as-adjacency-is-known)), under
/// runtime budget enforcement.
///
/// The governor checkpoints the tracked bytes (trie + deposits + expansion
/// buffers) after every start candidate in round 0 and after every root
/// subtree in later rounds. When admitting the next unit of work could cross
/// `Φ`, the not-yet-expanded start candidates are shed: their partial
/// subtrees are removed from the trie, their deposits for later rounds,
/// depth-first counts and collected embeddings are dropped, and the
/// candidates are re-grouped under the re-fitted estimator and pushed back
/// on `group_queue`. Shed candidates restart from round 0 in their new
/// group, so every embedding is still found exactly once — region groups
/// partition the start candidates, and the shed candidates' partial results
/// are discarded before harvest. The first in-flight candidate of a group is
/// never shed, so re-queued groups shrink strictly and the split recursion
/// terminates.
#[allow(clippy::too_many_arguments)]
fn process_region_group(
    ctx: &MachineContext,
    plan: &ExecutionPlan,
    descent: &mut Descent<'_>,
    group: &[VertexId],
    cache: &mut ForeignVertexCache,
    expanders: &mut [Expander],
    governor: &mut MemoryGovernor,
    group_queue: &GroupQueue,
    config: &EngineConfig,
    output: &mut MachineOutput,
) {
    let local = ctx.partition();
    let n = plan.pattern().vertex_count();
    let order = plan.matching_order();
    let mut trie = EmbeddingTrie::new();
    let mut evi = EdgeVerificationIndex::new();
    let mut scratch_cache = ForeignVertexCache::with_capacity(config.budget.cache_bytes);
    let mut frontier = Frontier::new(plan);
    // Start candidates still in flight; shrinks when the governor sheds.
    let mut retained = group.len();
    let mut group_span = rads_obs::span("region_group", "engine");
    group_span.attr("candidates", group.len() as u64);
    let scanned = |expanders: &[Expander]| -> u64 {
        expanders.iter().map(|e| e.intersect_stats().elements_scanned).sum()
    };
    let scanned_before = scanned(expanders);

    for round in 0..plan.rounds() {
        let mut round_span = rads_obs::span("round", "engine");
        round_span.attr("round", round as u64);
        evi.clear();
        if !config.enable_cache {
            scratch_cache.clear();
        }
        let prefix_before = if round == 0 { 0 } else { plan.sub_pattern_vertices(round - 1).len() };
        let prefix_after = plan.sub_pattern_vertices(round).len();
        // The deposits of this round join the trie only now: planted any
        // earlier, their interior nodes would be taken for parents of the
        // rounds in between.
        frontier.plant(round, &mut trie);

        // -- fetchV: gather the foreign pivot vertices this round expands from
        let parents: Vec<NodeId> = if round == 0 {
            Vec::new()
        } else {
            trie.nodes_at_depth(prefix_before - 1)
        };
        let pivot_vertex = plan.units()[round].pivot;
        let pivot_pos = order.iter().position(|&u| u == pivot_vertex).expect("pivot in order");
        let mut to_fetch: Vec<VertexId> = Vec::new();
        if round == 0 {
            // stolen region groups may contain candidates owned elsewhere
            to_fetch.extend(foreign_members(local, group, |v| {
                cache.contains(v) || scratch_cache.contains(v)
            }));
        } else {
            for &leaf in &parents {
                let result = trie.result(leaf);
                let v = result[pivot_pos];
                if !local.owns(v) && !cache.contains(v) && !scratch_cache.contains(v) {
                    to_fetch.push(v);
                }
            }
        }
        fetch_foreign(
            ctx,
            config.driver,
            &mut to_fetch,
            cache,
            &mut scratch_cache,
            &mut output.stats,
        );

        // -- expand (with governor checkpoints; the oracle is rebuilt per
        //    pivot because the byte-bounded cache may have to re-fetch)
        let mut expand_span = rads_obs::span("expand", "engine");
        let mut f: Vec<Option<VertexId>> = vec![None; n];
        if round == 0 {
            let start = plan.start_vertex();
            for (i, &v0) in group.iter().enumerate() {
                let tracked = tracked_bytes(&trie, &frontier, expanders);
                if i > 0 && governor.should_spill_candidate(tracked) {
                    retained = i;
                    // re-fit from the candidates expanded so far, so the shed
                    // remainder is re-grouped at the observed cost, not the
                    // defeated prior (otherwise the spill would recurse one
                    // candidate at a time)
                    governor.refit(frontier.live_nodes(&trie), i);
                    spill_candidates(governor, local, &group[i..], config, group_queue, round);
                    break;
                }
                let before = trie.memory_bytes() + frontier.memory_bytes();
                let transient = ensure_pivot_adjacency(
                    ctx, local, v0, cache, &mut scratch_cache, &mut output.stats,
                );
                let mut oracle = MachineOracle {
                    local,
                    cache,
                    scratch: &mut scratch_cache,
                    transient: transient.as_ref(),
                };
                f.fill(None);
                f[start] = Some(v0);
                descent.expand_parent(
                    &mut frontier, round, None, &mut f, &mut trie, &mut evi, expanders, &mut oracle,
                );
                let tracked = tracked_bytes(&trie, &frontier, expanders);
                governor.observe_candidate_delta(tracked.saturating_sub(before));
                governor.track(tracked);
            }
        } else {
            // Cluster the parents by their root (start candidate) so whole
            // subtrees can be shed mid-round: the EVI of this round only
            // references nodes under already-expanded roots, which shedding
            // the *remaining* roots never touches.
            let mut clustered: Vec<(NodeId, NodeId)> =
                parents.iter().map(|&p| (trie.root_of(p), p)).collect();
            clustered.sort_unstable();
            let mut idx = 0;
            let mut expanded_roots = 0usize;
            while idx < clustered.len() {
                let root = clustered[idx].0;
                let end = clustered[idx..]
                    .iter()
                    .position(|&(r, _)| r != root)
                    .map_or(clustered.len(), |o| idx + o);
                let tracked = tracked_bytes(&trie, &frontier, expanders);
                if expanded_roots > 0 && governor.should_spill_root(tracked) {
                    // shed this and every remaining root in one pass
                    let mut shed_roots: HashSet<NodeId> = HashSet::new();
                    let mut shed_candidates: Vec<VertexId> = Vec::new();
                    for &(r, _) in &clustered[idx..] {
                        if shed_roots.insert(r) {
                            shed_candidates.push(trie.vertex(r));
                        }
                    }
                    // re-fit from the in-flight candidates before re-grouping
                    // the shed ones (see the round-0 spill above)
                    governor.refit(frontier.live_nodes(&trie), retained);
                    retained -= shed_candidates.len();
                    trie.remove_subtrees(&shed_roots);
                    frontier.shed(&shed_candidates, round);
                    spill_candidates(governor, local, &shed_candidates, config, group_queue, round);
                    break;
                }
                let before = trie.memory_bytes() + frontier.memory_bytes();
                for &(_, parent) in &clustered[idx..end] {
                    let result = trie.result(parent);
                    let transient = ensure_pivot_adjacency(
                        ctx, local, result[pivot_pos], cache, &mut scratch_cache,
                        &mut output.stats,
                    );
                    let mut oracle = MachineOracle {
                        local,
                        cache,
                        scratch: &mut scratch_cache,
                        transient: transient.as_ref(),
                    };
                    f.fill(None);
                    for (pos, &v) in result.iter().enumerate() {
                        f[order[pos]] = Some(v);
                    }
                    descent.expand_parent(
                        &mut frontier, round, Some(parent), &mut f, &mut trie, &mut evi,
                        expanders, &mut oracle,
                    );
                }
                let tracked = tracked_bytes(&trie, &frontier, expanders);
                governor.observe_root_delta(tracked.saturating_sub(before));
                governor.track(tracked);
                expanded_roots += 1;
                idx = end;
            }
        }
        expand_span.attr("trie_nodes", trie.node_count() as u64);
        drop(expand_span);
        output.stats.undetermined_edges += evi.len() as u64;

        // -- verify & filter
        let mut verify_span = rads_obs::span("verifyE", "engine");
        verify_span.attr("edges", evi.len() as u64);
        verify_and_filter(
            ctx, config.driver, &evi, &mut trie, cache, &scratch_cache, local, &mut output.stats,
        );
        drop(verify_span);

        // -- intermediate-result accounting (Tables 3–4): what an uncompressed
        //    embedding list of this round's results in the trie would cost vs
        //    the trie.
        let results_this_round = trie.count_at_depth(prefix_after - 1) as u64;
        output.stats.embedding_list_bytes +=
            results_this_round * prefix_after as u64 * std::mem::size_of::<VertexId>() as u64;
        output.stats.embedding_trie_bytes +=
            trie.node_count() as u64 * EmbeddingTrie::NODE_BYTES as u64;
        output.stats.peak_trie_nodes = output.stats.peak_trie_nodes.max(trie.peak_node_count());
        if rads_obs::metrics_enabled() {
            let live = tracked_bytes(&trie, &frontier, expanders) as u64;
            crate::obs::live_bytes_histogram().observe(live);
            crate::obs::live_bytes_watermark().observe_max(live);
        }
    }

    // -- harvest the final embeddings of this region group
    let full_depth = n - 1;
    let final_leaves = trie.nodes_at_depth(full_depth);
    let depth_first = frontier.depth_first_embeddings();
    let found = final_leaves.len() as u64 + depth_first;
    output.stats.depth_first_embeddings += depth_first;
    output.stats.depth_first_deposits += frontier.deposited;
    output.stats.depth_first_abandoned += frontier.abandoned;
    output.stats.distributed_embeddings += found;
    output.count += found;
    if config.collect_embeddings {
        for leaf in &final_leaves {
            let result = trie.result(*leaf);
            let mut embedding = vec![0; n];
            for (pos, &v) in result.iter().enumerate() {
                embedding[order[pos]] = v;
            }
            output.embeddings.push(embedding);
        }
        output.embeddings.append(&mut frontier.collected);
    }
    output.stats.trie_nodes_created += trie.total_created();
    if rads_obs::metrics_enabled() {
        // Intersect selectivity of this group: trie nodes produced per 100
        // elements the kernels scanned while generating its candidates.
        let scanned = scanned(expanders) - scanned_before;
        if let Some(pct) = (trie.total_created() * 100).checked_div(scanned) {
            crate::obs::selectivity_histogram().observe(pct.min(100));
        }
    }
    group_span.attr("retained", retained as u64);
    group_span.attr("embeddings", found);
    group_span.attr("depth_first", depth_first);
    drop(group_span);
    // -- online re-fit: what this group's retained candidates actually cost
    governor.refit(trie.peak_node_count(), retained);
}

/// Bytes of intermediate results the governor charges against `Φ`: the
/// trie, the deposits waiting for a later round, and every round's
/// expansion output.
fn tracked_bytes(trie: &EmbeddingTrie, frontier: &Frontier<'_>, expanders: &[Expander]) -> usize {
    trie.memory_bytes()
        + frontier.memory_bytes()
        + expanders.iter().map(Expander::memory_bytes).sum::<usize>()
}

/// How one drain goes depth-first: per round, the whole rest of the pattern
/// in the machine's descent order, and the plan's units chained for the
/// parents where that attempt gives up.
struct Descent<'a> {
    units: Vec<UnitExpansion<'a>>,
    /// `rest[r]`: the vertices a parent of round `r` leaves unmatched, in
    /// the descent order.
    rest: Vec<UnitExpansion<'a>>,
    /// The expander of the whole-rest attempts; the unit path has one per
    /// round of its own.
    whole: Expander,
    /// `gates[r]` admits the attempts of round `r`'s parents: a start
    /// candidate's attempt enumerates its whole search tree and fails far
    /// more often than a deep parent's, so each round is judged alone.
    gates: Vec<AttemptGate>,
    start: PatternVertex,
    collect: bool,
}

/// Whole-rest attempts a drain makes per round before it judges how they
/// fare, and again after every such window.
const ATTEMPT_WINDOW: u32 = 32;

/// While most attempts of the last window gave up, one parent in this many
/// makes one.
const SPARSE_ATTEMPTS: u32 = 16;

/// Which parents try the whole rest first: every one while most attempts
/// complete, one in [`SPARSE_ATTEMPTS`] while most give up. An attempt that
/// gives up late costs nearly the work of the unit path it falls back to,
/// and on a cold cache most do; the sparse attempts still notice when the
/// cache has warmed.
#[derive(Debug, Default)]
struct AttemptGate {
    /// Attempts, and how many of them gave up, in the current window.
    tried: u32,
    abandoned: u32,
    /// Most attempts of the last window gave up.
    sparse: bool,
    /// Parents seen while sparse.
    passed: u32,
}

impl AttemptGate {
    fn admits(&mut self) -> bool {
        if !self.sparse {
            return true;
        }
        self.passed += 1;
        self.passed.is_multiple_of(SPARSE_ATTEMPTS)
    }

    fn record(&mut self, abandoned: bool) {
        self.tried += 1;
        self.abandoned += u32::from(abandoned);
        if self.tried == ATTEMPT_WINDOW {
            self.sparse = 2 * self.abandoned > self.tried;
            self.tried = 0;
            self.abandoned = 0;
        }
    }
}

impl<'a> Descent<'a> {
    fn new(
        pattern: &'a Pattern,
        plan: &ExecutionPlan,
        symmetry: &'a SymmetryBreaking,
        order: &[PatternVertex],
        collect: bool,
    ) -> Self {
        let start = plan.start_vertex();
        let rest = (0..plan.rounds())
            .map(|round| {
                let matched =
                    if round == 0 { &[start][..] } else { plan.sub_pattern_vertices(round - 1) };
                let rest = order.iter().copied().filter(|u| !matched.contains(u)).collect();
                UnitExpansion::from_order(pattern, symmetry, rest)
            })
            .collect();
        Descent {
            units: (0..plan.rounds())
                .map(|round| UnitExpansion::new(pattern, plan, symmetry, round))
                .collect(),
            rest,
            whole: Expander::new(),
            gates: (0..plan.rounds()).map(|_| AttemptGate::default()).collect(),
            start,
            collect,
        }
    }

    /// What the descent keeps of the embeddings it completes.
    fn sink(&self) -> Sink {
        if self.collect {
            Sink::Store
        } else {
            Sink::Count
        }
    }

    /// Expands one parent of `round`: a start candidate in round 0 (`parent`
    /// is `None`), a trie node later. First — when the gate admits it — it
    /// tries to match the whole rest of the pattern one vertex at a time;
    /// when that gives up, or is not tried, it expands the round's unit in
    /// full. An extension with an undetermined edge goes
    /// into the trie under the parent and its edges into the EVI, for this
    /// round's `verifyE` to decide; every other extension is an embedding of
    /// `P_round` already and goes on depth-first. A trie parent left without
    /// children is removed.
    #[allow(clippy::too_many_arguments)]
    fn expand_parent(
        &mut self,
        frontier: &mut Frontier<'_>,
        round: usize,
        parent: Option<NodeId>,
        f: &mut [Option<VertexId>],
        trie: &mut EmbeddingTrie,
        evi: &mut EdgeVerificationIndex,
        expanders: &mut [Expander],
        oracle: &mut MachineOracle<'_>,
    ) {
        if self.gates[round].admits() {
            let completed = self.complete_rest(frontier, round, parent, f, trie, oracle);
            self.gates[round].record(!completed);
            if completed {
                return;
            }
            frontier.abandoned += 1;
        }
        self.expand_unit(frontier, round, parent, f, trie, evi, expanders, oracle);
    }

    /// Tries to match the whole rest of the pattern below the parent of
    /// `round` in `f`, one vertex at a time in the descent order. When it
    /// completes, what it found is counted (or collected) and a trie parent
    /// is removed; when it gives up, nothing is kept. Returns whether it
    /// completed.
    fn complete_rest(
        &mut self,
        frontier: &mut Frontier<'_>,
        round: usize,
        parent: Option<NodeId>,
        f: &mut [Option<VertexId>],
        trie: &mut EmbeddingTrie,
        oracle: &MachineOracle<'_>,
    ) -> bool {
        let sink = self.sink();
        let rest = &self.rest[round];
        let Some(done) = self.whole.expand_strict(rest, f, oracle, sink) else {
            return false;
        };
        if !done.is_empty() {
            let candidate = f[self.start].expect("the start vertex is matched");
            *frontier.found.entry(candidate).or_default() += done.len() as u64;
        }
        if self.collect {
            for i in 0..done.len() {
                let mut embedding: Vec<VertexId> = f.iter().map(|v| v.unwrap_or(0)).collect();
                for (&u, &v) in rest.leaves().iter().zip(done.leaves(i)) {
                    embedding[u] = v;
                }
                frontier.collected.push(embedding);
            }
        }
        if let Some(parent) = parent {
            trie.remove(parent);
        }
        true
    }

    /// The unit path of [`expand_parent`](Self::expand_parent): expands the
    /// round's unit in full, sends what waits for `verifyE` into the trie and
    /// the EVI, and everything else on depth-first.
    #[allow(clippy::too_many_arguments)]
    fn expand_unit(
        &self,
        frontier: &mut Frontier<'_>,
        round: usize,
        parent: Option<NodeId>,
        f: &mut [Option<VertexId>],
        trie: &mut EmbeddingTrie,
        evi: &mut EdgeVerificationIndex,
        expanders: &mut [Expander],
        oracle: &mut MachineOracle<'_>,
    ) {
        let candidate = f[self.start].expect("the start vertex is matched");
        let (head, deeper) = expanders.split_at_mut(round + 1);
        let extensions = head[round].expand(&self.units[round], f, &*oracle);
        let mut found = 0;
        let mut waiting = false;
        for i in 0..extensions.len() {
            if extensions.undetermined(i).is_empty() {
                found += self.follow(frontier, round, extensions.leaves(i), f, deeper, oracle);
            } else {
                waiting = true;
            }
        }
        if found > 0 {
            *frontier.found.entry(candidate).or_default() += found;
        }
        if waiting {
            let parent = parent.unwrap_or_else(|| frontier.root(candidate, trie));
            insert_extensions(trie, parent, extensions, evi);
        } else if let Some(parent) = parent {
            trie.remove(parent);
        }
    }

    /// Goes on from one extension, free of undetermined edges, of the
    /// embedding of `P_{round-1}` in `f`: counts it at the last unit, and
    /// descends into the next round otherwise. `deeper` holds the expanders
    /// of the rounds after `round`. Returns the embeddings completed.
    fn follow(
        &self,
        frontier: &mut Frontier<'_>,
        round: usize,
        leaves: &[VertexId],
        f: &mut [Option<VertexId>],
        deeper: &mut [Expander],
        oracle: &mut MachineOracle<'_>,
    ) -> u64 {
        let unit_leaves = self.units[round].leaves();
        for (&u, &v) in unit_leaves.iter().zip(leaves) {
            f[u] = Some(v);
        }
        let found = if round + 1 == self.units.len() {
            if self.collect {
                let embedding = f.iter().map(|v| v.expect("a complete embedding")).collect();
                frontier.collected.push(embedding);
            }
            1
        } else {
            self.descend(frontier, round + 1, f, deeper, oracle)
        };
        for &u in unit_leaves {
            f[u] = None;
        }
        found
    }

    /// Expands the embedding of `P_{round-1}` in `f` depth-first, with
    /// `expanders` holding those of `round` and later. With the pivot's
    /// adjacency known and no undetermined edge in the unit, every extension
    /// goes on; otherwise the embedding is deposited for `round`'s batched
    /// `fetchV` and `verifyE`. Returns the embeddings completed.
    fn descend(
        &self,
        frontier: &mut Frontier<'_>,
        round: usize,
        f: &mut [Option<VertexId>],
        expanders: &mut [Expander],
        oracle: &mut MachineOracle<'_>,
    ) -> u64 {
        let unit = &self.units[round];
        let pivot = unit.pivot().expect("a unit has a pivot");
        let pivot = f[pivot].expect("the pivot is matched by the parent embedding");
        let (expander, deeper) = expanders.split_first_mut().expect("one expander per round");
        let last = round + 1 == self.units.len();
        let sink = if last { self.sink() } else { Sink::Store };
        let extensions = if oracle.knows_pivot(pivot) {
            expander.expand_strict(unit, f, &*oracle, sink)
        } else {
            None
        };
        let Some(extensions) = extensions else {
            frontier.deposit(round, f);
            return 0;
        };
        if last && !self.collect {
            return extensions.len() as u64;
        }
        (0..extensions.len())
            .map(|i| self.follow(frontier, round, extensions.leaves(i), f, deeper, oracle))
            .sum()
    }
}

/// What the depth-first descent leaves behind in one region group: the
/// embeddings deposited for a later round's batch, and — per start
/// candidate, so that a shed candidate can take it back — what it completed.
struct Frontier<'a> {
    order: &'a [PatternVertex],
    /// `widths[r]`: vertices of `P_{r-1}` (0 for round 0).
    widths: Vec<usize>,
    /// `deposits[r]`: embeddings of `P_{r-1}` waiting for round `r`, flat,
    /// `widths[r]` data vertices each in matching order — the start
    /// candidate first.
    deposits: Vec<Vec<VertexId>>,
    /// Embeddings completed depth-first, per start candidate.
    found: VertexMap<u64>,
    /// The completed embeddings themselves, when collected.
    collected: Vec<Vec<VertexId>>,
    /// The trie root of each start candidate that has been given one.
    roots: VertexMap<NodeId>,
    /// Deposits ever made, shed ones included.
    deposited: u64,
    /// Whole-rest attempts that gave up, shed candidates' included.
    abandoned: u64,
}

impl<'a> Frontier<'a> {
    fn new(plan: &'a ExecutionPlan) -> Self {
        let widths = (0..plan.rounds())
            .map(|round| if round == 0 { 0 } else { plan.sub_pattern_vertices(round - 1).len() })
            .collect();
        Frontier {
            order: plan.matching_order(),
            widths,
            deposits: vec![Vec::new(); plan.rounds()],
            found: VertexMap::default(),
            collected: Vec::new(),
            roots: VertexMap::default(),
            deposited: 0,
            abandoned: 0,
        }
    }

    /// Deposits the embedding of `P_{round-1}` in `f` for `round`.
    fn deposit(&mut self, round: usize, f: &[Option<VertexId>]) {
        self.deposited += 1;
        let prefix = &self.order[..self.widths[round]];
        self.deposits[round]
            .extend(prefix.iter().map(|&u| f[u].expect("a deposit is a whole embedding")));
    }

    /// Moves the deposits for `round` into the trie, under their start
    /// candidate's root. A descent deposits in backtracking order, so
    /// neighbouring deposits share prefixes, which share nodes as in
    /// [`insert_extensions`].
    fn plant(&mut self, round: usize, trie: &mut EmbeddingTrie) {
        let deposits = std::mem::take(&mut self.deposits[round]);
        if deposits.is_empty() {
            return;
        }
        let width = self.widths[round];
        let mut path: Vec<NodeId> = Vec::with_capacity(width);
        let mut previous: &[VertexId] = &[];
        for deposit in deposits.chunks_exact(width) {
            // the last vertex always gets a node of its own: no two deposits
            // are the same embedding
            let common = previous
                .iter()
                .zip(deposit)
                .take(width - 1)
                .take_while(|(a, b)| a == b)
                .count();
            if common == 0 {
                path.clear();
                path.push(self.root(deposit[0], trie));
            } else {
                path.truncate(common);
            }
            for &v in &deposit[path.len()..] {
                let node = trie.add_child(*path.last().expect("a root"), v);
                path.push(node);
            }
            previous = deposit;
        }
    }

    /// The trie root of `candidate`, created if it has none. A candidate has
    /// at most one live root, so shedding it sheds all of its trie.
    fn root(&mut self, candidate: VertexId, trie: &mut EmbeddingTrie) -> NodeId {
        if let Some(&id) = self.roots.get(&candidate) {
            // the id may have been freed (the root lost its last child) and
            // reused for another node since
            if trie.is_live(id) && trie.parent(id).is_none() && trie.vertex(id) == candidate {
                return id;
            }
        }
        let id = trie.add_root(candidate);
        self.roots.insert(candidate, id);
        id
    }

    /// Takes back what the descent did for `candidates`, shed in `round`:
    /// their deposits for later rounds, counts and collected embeddings.
    /// (Their deposits for `round` are in the trie, under the shed roots.)
    fn shed(&mut self, candidates: &[VertexId], round: usize) {
        let shed: VertexSet = candidates.iter().copied().collect();
        for later in round + 1..self.deposits.len() {
            let width = self.widths[later];
            self.deposits[later] = self.deposits[later]
                .chunks_exact(width)
                .filter(|deposit| !shed.contains(&deposit[0]))
                .flatten()
                .copied()
                .collect();
        }
        self.found.retain(|candidate, _| !shed.contains(candidate));
        let start = self.order[0];
        self.collected.retain(|embedding| !shed.contains(&embedding[start]));
    }

    /// Bytes of the waiting deposits.
    fn memory_bytes(&self) -> usize {
        self.deposits.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<VertexId>()
    }

    /// Trie nodes plus the deposits counted in nodes: what the governor's
    /// re-fit charges to the candidates in flight.
    fn live_nodes(&self, trie: &EmbeddingTrie) -> usize {
        trie.node_count() + self.memory_bytes().div_ceil(EmbeddingTrie::NODE_BYTES)
    }

    fn depth_first_embeddings(&self) -> u64 {
        self.found.values().sum()
    }
}

/// Re-groups candidates shed from an overflowing region group and re-queues
/// them on the machine's shared queue, where this worker's drain loop (or
/// another machine's `shareR`) picks them up.
fn spill_candidates(
    governor: &mut MemoryGovernor,
    local: &LocalPartition,
    shed: &[VertexId],
    config: &EngineConfig,
    group_queue: &GroupQueue,
    round: usize,
) {
    // Deterministic per spill site, so `workers = 1` runs reproduce exactly.
    let seed = config
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(shed.len() as u64)
        .wrapping_add((round as u64) << 32);
    let groups = governor.split(local, shed, config.grouping, seed);
    group_queue.lock().extend(groups);
}

/// Inserts the extensions of one parent embedding that wait for `verifyE`
/// (those with an undetermined edge) under `parent`, sharing the prefixes
/// that consecutive insertions have in common (extensions are produced in
/// backtracking order, so identical prefixes are adjacent), and records
/// every undetermined edge in the EVI keyed by the completed candidate's
/// node id.
fn insert_extensions(
    trie: &mut EmbeddingTrie,
    parent: NodeId,
    extensions: &ExtensionBuffer,
    evi: &mut EdgeVerificationIndex,
) {
    let mut prev: Vec<(VertexId, NodeId)> = Vec::new();
    for i in 0..extensions.len() {
        if extensions.undetermined(i).is_empty() {
            continue;
        }
        let leaves = extensions.leaves(i);
        let mut common = 0;
        while common < prev.len()
            && common < leaves.len().saturating_sub(1)
            && prev[common].0 == leaves[common]
        {
            common += 1;
        }
        prev.truncate(common);
        let mut node = if common == 0 { parent } else { prev[common - 1].1 };
        for &v in &leaves[common..] {
            node = trie.add_child(node, v);
            prev.push((v, node));
        }
        for &(a, b) in extensions.undetermined(i) {
            evi.add(a, b, node);
        }
    }
}

/// Vertices per `fetchV` request. Per-owner batches are chunked
/// so one response cannot grow without bound: the socket transport caps
/// frames at 64 MiB ([`rads_runtime::wire::MAX_FRAME_BYTES`]), and an
/// uncapped round's foreign set would cross it long before a single
/// adjacency list does. At 4096 vertices a response stays far under the cap
/// for any realistic degree distribution of the dataset stand-ins.
pub const DEFAULT_FETCH_CHUNK_VERTICES: usize = 4096;

/// Batches `fetchV` requests per owner machine (chunked, see
/// [`DEFAULT_FETCH_CHUNK_VERTICES`]) and inserts the returned adjacency
/// lists into the cache (or the per-round scratch cache when the persistent
/// cache is disabled).
///
/// Owners are visited in ascending machine order and each owner's vertices
/// in sorted order, so the request sequence is deterministic. The serial
/// driver round-trips each chunk before issuing the next; the async driver
/// scatters every chunk first and then harvests the responses in issue
/// order, overlapping all the round-trips of the round on the wire.
fn fetch_foreign(
    ctx: &MachineContext,
    driver: RoundDriver,
    to_fetch: &mut Vec<VertexId>,
    cache: &mut ForeignVertexCache,
    scratch: &mut ForeignVertexCache,
    stats: &mut EngineStats,
) {
    if to_fetch.is_empty() {
        return;
    }
    to_fetch.sort_unstable();
    to_fetch.dedup();
    let mut by_owner: BTreeMap<usize, Vec<VertexId>> = BTreeMap::new();
    for &v in to_fetch.iter() {
        by_owner.entry(ctx.ownership().owner(v)).or_default().push(v);
    }
    let insert = |cache: &mut ForeignVertexCache, scratch: &mut ForeignVertexCache, lists| {
        if cache.is_enabled() {
            cache.insert_all(lists);
        } else {
            scratch.insert_all(lists);
        }
    };
    // async scatter: each handle keeps its request so a transiently failed
    // harvest can re-issue it synchronously (fetchV is idempotent)
    let mut pending: Vec<(Request, PendingResponse)> = Vec::new();
    {
        // The serial driver round-trips inside this span, the async driver
        // only issues — either way "scatter" covers the request-side work.
        let mut scatter_span = rads_obs::span("scatter", "engine");
        let mut chunks = 0u64;
        for (&owner, vertices) in &by_owner {
            for chunk in vertices.chunks(DEFAULT_FETCH_CHUNK_VERTICES) {
                stats.fetch_requests += 1;
                chunks += 1;
                let request = Request::FetchVertices(chunk.to_vec());
                match driver {
                    RoundDriver::Serial => {
                        match ctx
                            .request(owner, request)
                            .unwrap_or_else(|e| transport_failed(ctx, e))
                        {
                            Response::Adjacency(lists) => insert(cache, scratch, lists),
                            other => unexpected_response(ctx, "fetchV", owner, None, &other),
                        }
                    }
                    RoundDriver::Async => {
                        let p = ctx.request_async(owner, request.clone());
                        pending.push((request, p));
                    }
                }
            }
        }
        scatter_span.attr("chunks", chunks);
    }
    if driver == RoundDriver::Serial {
        return;
    }
    let mut harvest_span = rads_obs::span("harvest", "engine");
    harvest_span.attr("chunks", pending.len() as u64);
    // harvest in issue order: the cache's LRU recency is then independent of
    // the order in which the network delivered the responses
    let mut pending = pending.into_iter();
    if let Some((request, p)) = pending.next() {
        // The wait for the first response approximates one link round trip
        // (every later response overlaps with it).
        let started = std::time::Instant::now();
        let (owner, correlation) = (p.to(), p.correlation());
        let response = ctx.harvest(p, owner, &request).unwrap_or_else(|e| transport_failed(ctx, e));
        let waited = (started.elapsed().as_micros() as u64).max(1);
        stats.fetch_wait_micros = match stats.fetch_wait_micros {
            0 => waited,
            ewma => (3 * ewma + waited) / 4,
        };
        if rads_obs::metrics_enabled() {
            crate::obs::demand_wait_histogram().observe(waited);
        }
        match response {
            Response::Adjacency(lists) => insert(cache, scratch, lists),
            other => unexpected_response(ctx, "fetchV", owner, correlation, &other),
        }
    }
    for (request, p) in pending {
        let (owner, correlation) = (p.to(), p.correlation());
        match ctx.harvest(p, owner, &request).unwrap_or_else(|e| transport_failed(ctx, e)) {
            Response::Adjacency(lists) => insert(cache, scratch, lists),
            other => unexpected_response(ctx, "fetchV", owner, correlation, &other),
        }
    }
}

/// Verifies the undetermined edges of the round: edges decidable from the
/// cache are answered locally, the rest are batched per verifier machine into
/// `verifyE` requests; candidates depending on a non-existent edge are removed
/// from the trie.
///
/// The EVI already batches every undetermined edge of all the round's
/// expansions into one request per verifier machine, in deterministic
/// (sorted-edge, ascending-owner) order. The async driver additionally
/// scatters all per-machine requests before harvesting any answer, so the
/// verifiers work concurrently instead of one blocking round-trip at a time.
#[allow(clippy::too_many_arguments)]
fn verify_and_filter(
    ctx: &MachineContext,
    driver: RoundDriver,
    evi: &EdgeVerificationIndex,
    trie: &mut EmbeddingTrie,
    cache: &ForeignVertexCache,
    scratch: &ForeignVertexCache,
    local: &LocalPartition,
    stats: &mut EngineStats,
) {
    if evi.is_empty() {
        return;
    }
    let mut verdicts: HashMap<EdgeKey, bool> = HashMap::new();
    let mut remote: Vec<EdgeKey> = Vec::new();
    for &edge in evi.edges() {
        let locally = local
            .verify_edge(edge.lo, edge.hi)
            .or_else(|| cache.verify_edge(edge.lo, edge.hi))
            .or_else(|| scratch.verify_edge(edge.lo, edge.hi));
        match locally {
            Some(exists) => {
                verdicts.insert(edge, exists);
            }
            None => remote.push(edge),
        }
    }
    // group the remaining edges by the owner of their lower endpoint
    // (`remote` is in sorted-edge order, so the grouped requests are too)
    let mut by_owner: BTreeMap<usize, Vec<(VertexId, VertexId)>> = BTreeMap::new();
    for edge in remote {
        by_owner.entry(ctx.ownership().owner(edge.lo)).or_default().push((edge.lo, edge.hi));
    }
    // The pairs are read back from the request itself — kept anyway, for
    // harvest's retry re-issue — so the only copy made is the one sent.
    let record = |verdicts: &mut HashMap<EdgeKey, bool>, request: &Request, answers: Vec<bool>| {
        let Request::VerifyEdges(pairs) = request else {
            unreachable!("only verifyE requests are recorded")
        };
        for (&(u, v), exists) in pairs.iter().zip(answers) {
            verdicts.insert(EdgeKey::new(u, v), exists);
        }
    };
    let mut pending: Vec<(Request, PendingResponse)> = Vec::new();
    for (owner, pairs) in by_owner {
        stats.verify_requests += 1;
        let request = Request::VerifyEdges(pairs);
        match driver {
            RoundDriver::Serial => {
                match ctx
                    .request(owner, request.clone())
                    .unwrap_or_else(|e| transport_failed(ctx, e))
                {
                    Response::EdgeVerification(answers) => record(&mut verdicts, &request, answers),
                    other => unexpected_response(ctx, "verifyE", owner, None, &other),
                }
            }
            RoundDriver::Async => {
                let p = ctx.request_async(owner, request.clone());
                pending.push((request, p));
            }
        }
    }
    for (request, p) in pending {
        let (owner, correlation) = (p.to(), p.correlation());
        match ctx.harvest(p, owner, &request).unwrap_or_else(|e| transport_failed(ctx, e)) {
            Response::EdgeVerification(answers) => record(&mut verdicts, &request, answers),
            other => unexpected_response(ctx, "verifyE", owner, correlation, &other),
        }
    }
    stats.candidates_filtered += evi.filter_failed(trie, &verdicts) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `parents` parents through `gate`, each admitted attempt giving
    /// up when `gives_up` says so; returns the attempts admitted.
    fn admitted(gate: &mut AttemptGate, parents: u32, gives_up: bool) -> u32 {
        let mut tried = 0;
        for _ in 0..parents {
            if gate.admits() {
                tried += 1;
                gate.record(gives_up);
            }
        }
        tried
    }

    #[test]
    fn the_attempt_gate_thins_out_attempts_while_most_give_up() {
        let mut gate = AttemptGate::default();
        // attempts that complete are always admitted
        let parents = 30 * ATTEMPT_WINDOW;
        assert_eq!(admitted(&mut gate, parents, false), parents);
        // a window that mostly gives up makes the gate sparse
        assert_eq!(admitted(&mut gate, ATTEMPT_WINDOW, true), ATTEMPT_WINDOW);
        let parents = 100 * SPARSE_ATTEMPTS;
        assert_eq!(admitted(&mut gate, parents, true), parents / SPARSE_ATTEMPTS);
        // once a sparse window mostly completes, every parent tries again
        admitted(&mut gate, ATTEMPT_WINDOW * SPARSE_ATTEMPTS, false);
        assert_eq!(admitted(&mut gate, 500, false), 500);
    }
}
