//! Fault-injection layer over the async round engine: wrap every machine's
//! transport in a [`FaultTransport`] that delays, reorders and duplicates
//! responses, and prove the scatter/harvest loops still produce the exact
//! ground-truth counts. The harvest's only ordering assumption is that each
//! [`PendingResponse`] resolves to *its own* response — never that
//! responses arrive in issue order — so arbitrary completion inversion must
//! be invisible to everything but the fault counters.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rads::prelude::*;
use rads_core::{run_rads_wrapped, RadsConfig as Config, RoundDriver};
use rads_graph::queries;
use rads_runtime::{
    Envelope, FaultPlan, FaultStats, FaultTransport, Request, Response, TrafficSnapshot,
    Transport, TransportError,
};

fn small_cluster(machines: usize) -> (Cluster, u64, Pattern) {
    let dataset = generate(DatasetKind::Dblp, Scale(0.02), 5);
    let pattern = queries::q4();
    let expected = count_embeddings(&dataset.graph, &pattern);
    let partitioning = LabelPropagationPartitioner::default().partition(&dataset.graph, machines);
    let pg = Arc::new(PartitionedGraph::build(&dataset.graph, partitioning));
    (Cluster::new(pg), expected, pattern)
}

/// Runs the engine under `plan` on every machine and returns the outcome
/// plus the per-machine fault stats. `shared_pen` selects cross-peer
/// inversion (one pen for all peers) over the per-peer pens.
fn run_with_faults(
    cluster: &Cluster,
    pattern: &Pattern,
    config: &Config,
    plan: FaultPlan,
    shared_pen: bool,
) -> (rads_core::RadsOutcome, Vec<Arc<FaultStats>>) {
    let stats: Mutex<Vec<Arc<FaultStats>>> = Mutex::new(Vec::new());
    let outcome = run_rads_wrapped(cluster, pattern, config, |_, transport| {
        let faulty = if shared_pen {
            FaultTransport::with_shared_pen(transport, plan)
        } else {
            FaultTransport::new(transport, plan)
        };
        stats.lock().unwrap().push(faulty.stats());
        Arc::new(faulty)
    });
    (outcome, stats.into_inner().unwrap())
}

#[test]
fn async_harvest_tolerates_arbitrary_reordering() {
    let (cluster, expected, pattern) = small_cluster(4);
    let plan = FaultPlan { reorder: true, ..FaultPlan::benign() };
    // The shared pen reverses completion order *across* peers — the
    // engine's scatters put one chunk per owner in flight, so per-peer pens
    // would never hold two requests at once, but the global pen forces every
    // multi-owner harvest to receive its responses in exact reverse issue
    // order. Counts must not move, and the stats must prove inversions fired.
    for workers in [1usize, 4] {
        let config = Config { workers, ..Config::with_round_driver(RoundDriver::Async) };
        let (outcome, stats) = run_with_faults(&cluster, &pattern, &config, plan, true);
        assert_eq!(outcome.total_embeddings, expected, "{workers} workers");
        let reordered: u64 = stats.iter().map(|s| s.counts().1).sum();
        assert!(
            reordered > 0,
            "{workers} workers: no completion was ever inverted — the test proved nothing"
        );
    }
}

#[test]
fn duplicated_responses_are_discarded_not_double_counted() {
    let (cluster, expected, pattern) = small_cluster(3);
    let plan = FaultPlan { duplicate: true, ..FaultPlan::benign() };
    let config = Config::with_round_driver(RoundDriver::Async);
    let (outcome, stats) = run_with_faults(&cluster, &pattern, &config, plan, false);
    assert_eq!(outcome.total_embeddings, expected);
    let duplicates: u64 = stats.iter().map(|s| s.counts().2).sum();
    assert!(duplicates > 0, "no duplicate was ever injected");
}

#[test]
fn hostile_network_is_invisible_to_both_drivers() {
    let (cluster, expected, pattern) = small_cluster(4);
    let plan = FaultPlan::hostile(Duration::from_micros(200));
    for driver in [RoundDriver::Serial, RoundDriver::Async] {
        let config = Config::with_round_driver(driver);
        let (outcome, stats) = run_with_faults(&cluster, &pattern, &config, plan, true);
        assert_eq!(outcome.total_embeddings, expected, "{}", driver.name());
        let delayed: u64 = stats.iter().map(|s| s.counts().0).sum();
        assert!(delayed > 0, "{}: no fault fired", driver.name());
    }
}

// ---------------------------------------------------------------------------
// Chaos faults: drops, resets and corrupted frames, healed by the retry
// layer. Load sharing stays off in these runs so every remote RPC is an
// idempotent read (`fetchV` / `verifyE`) — an injected fault on the
// non-idempotent `shareR` is *supposed* to be terminal, which is a different
// test's job (the process-level fail-fast/recover suite).
// ---------------------------------------------------------------------------

#[test]
fn injected_drops_resets_and_corruptions_are_healed_by_retries() {
    let (cluster, expected, pattern) = small_cluster(3);
    let config = Config {
        enable_load_sharing: false,
        workers: 1,
        ..Config::with_round_driver(RoundDriver::Async)
    };
    for (name, plan, pick) in [
        ("drop", FaultPlan { drop_every: 3, ..FaultPlan::benign() }, 0usize),
        ("reset", FaultPlan { reset_every: 2, ..FaultPlan::benign() }, 1),
        ("corrupt", FaultPlan { corrupt_every: 2, ..FaultPlan::benign() }, 2),
    ] {
        let (outcome, stats) = run_with_faults(&cluster, &pattern, &config, plan, false);
        assert_eq!(outcome.total_embeddings, expected, "{name}: counts drifted under faults");
        let fired: u64 = stats
            .iter()
            .map(|s| {
                let (dropped, resets, corrupted, _) = s.chaos_counts();
                [dropped, resets, corrupted][pick]
            })
            .sum();
        assert!(fired > 0, "{name}: no fault ever fired — the test proved nothing");
        let retries: u64 = outcome.per_machine.iter().map(|m| m.stats.rpc_retries).sum();
        assert!(retries > 0, "{name}: {fired} faults fired but no retry was ever recorded");
    }
}

#[test]
fn combined_chaos_plan_is_invisible_to_both_drivers() {
    let (cluster, expected, pattern) = small_cluster(4);
    // Periods 3/4/5 interleave all three fault kinds across the run.
    let plan = FaultPlan::chaos(3);
    for driver in [RoundDriver::Serial, RoundDriver::Async] {
        let config =
            Config { enable_load_sharing: false, ..Config::with_round_driver(driver) };
        let (outcome, stats) = run_with_faults(&cluster, &pattern, &config, plan, false);
        assert_eq!(outcome.total_embeddings, expected, "{}", driver.name());
        let (dropped, resets, corrupted) = stats.iter().fold((0, 0, 0), |acc, s| {
            let (d, r, c, _) = s.chaos_counts();
            (acc.0 + d, acc.1 + r, acc.2 + c)
        });
        assert!(
            dropped + resets + corrupted > 0,
            "{}: the chaos plan never fired",
            driver.name()
        );
    }
}

#[test]
fn stalls_slow_the_run_down_but_never_change_counts() {
    let (cluster, expected, pattern) = small_cluster(3);
    let plan = FaultPlan {
        stall_every: 4,
        stall: Duration::from_millis(1),
        ..FaultPlan::benign()
    };
    let config = Config::with_round_driver(RoundDriver::Async);
    let (outcome, stats) = run_with_faults(&cluster, &pattern, &config, plan, false);
    assert_eq!(outcome.total_embeddings, expected);
    let stalled: u64 = stats.iter().map(|s| s.chaos_counts().3).sum();
    assert!(stalled > 0, "no stall ever fired");
}

// ---------------------------------------------------------------------------
// Mis-tagged responses: the engine must name the culprit, not just die.
// ---------------------------------------------------------------------------

/// A single-process stand-in for a 2-machine cluster whose peer answers
/// every `fetchV` with the wrong response variant — a mis-tagged frame from
/// a buggy or hostile daemon. Every other request is served faithfully by
/// the peer's real daemon; barriers are no-ops because only machine 0's
/// engine runs (which is exactly what keeps this test hang-free: a real
/// 2-process cluster would leave the healthy machine blocked on a barrier
/// once the poisoned one dies).
struct MisTagTransport {
    peer: Arc<rads_core::daemon::RadsDaemon>,
}

impl Transport for MisTagTransport {
    fn machine(&self) -> usize {
        0
    }
    fn machines(&self) -> usize {
        2
    }
    fn request(&self, to: usize, envelope: Envelope) -> Result<Response, TransportError> {
        if matches!(envelope.body, Request::FetchVertices(_)) {
            return Ok(Response::Ack);
        }
        Ok(rads_runtime::Daemon::handle(&*self.peer, to, envelope))
    }
    fn barrier(&self) -> Result<(), TransportError> {
        Ok(())
    }
    fn send_rows(
        &self,
        _to: usize,
        _tag: u32,
        _rows: Vec<Vec<VertexId>>,
    ) -> Result<(), TransportError> {
        Ok(())
    }
    fn take_rows(&self, _tag: u32) -> Vec<Vec<VertexId>> {
        Vec::new()
    }
    fn traffic(&self) -> TrafficSnapshot {
        TrafficSnapshot::default()
    }
}

#[test]
fn mis_tagged_fetch_response_names_machine_and_correlation() {
    use rads_core::daemon::{new_group_queue, RadsDaemon};
    use rads_core::engine::{run_machine, EngineConfig};
    use rads_runtime::{Daemon, MachineContext};

    let dataset = generate(DatasetKind::Dblp, Scale(0.02), 5);
    let pattern = queries::q4();
    let partitioning = LabelPropagationPartitioner::default().partition(&dataset.graph, 2);
    let pg = Arc::new(PartitionedGraph::build(&dataset.graph, partitioning));
    let queue = new_group_queue();
    let peer = Arc::new(RadsDaemon::new(pg.clone(), 1, new_group_queue()));
    let transport: Arc<dyn Transport> = Arc::new(MisTagTransport { peer });
    let daemon: Arc<dyn Daemon> = Arc::new(RadsDaemon::new(pg.clone(), 0, queue.clone()));
    let ctx = MachineContext::assemble(pg, transport, daemon);
    let plan = best_plan(&pattern, &PlannerConfig { rho: 1.0 });
    let config = EngineConfig { driver: RoundDriver::Async, ..EngineConfig::default() };
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let store = rads_core::ForeignStore::new(config.budget.cache_bytes);
        run_machine(&ctx, &pattern, &plan, &config, queue, &store)
    }))
    .expect_err("a mis-tagged fetchV response must abort the run");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string");
    assert!(
        message.contains("unexpected fetchV response"),
        "panic does not identify the request kind: {message}"
    );
    assert!(
        message.contains("machine"),
        "panic does not identify the machines involved: {message}"
    );
    assert!(
        message.contains("correlation"),
        "panic does not carry the correlation id: {message}"
    );
    assert!(message.contains("Ack"), "panic does not show the offending response: {message}");
}
