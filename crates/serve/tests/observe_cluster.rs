//! Observability artifacts from a **real 4-process cluster** over
//! Unix-domain sockets: every process must write a schema-valid Chrome
//! trace and metrics snapshot (plus the Prometheus sibling), the
//! coordinator's JSON summary must carry the cluster-wide metrics object,
//! and the traces must *show the pipelining*: under the async round driver
//! the `rpc.fetchV` spans overlap each other (or expansion work they are
//! not nested inside), while the serial driver's single-worker trace is
//! strictly sequential. Both legs must enumerate bit-identical counts —
//! recording the timeline never perturbs the engine.
//!
//! This is the test the `observe` CI job runs under a hard timeout.

use std::path::{Path, PathBuf};
use std::process::Command;

use rads_serve::json::Json;
use rads_serve::procs::{machine_artifact, prometheus_sibling, ClusterSummary};
use rads_bench::{validate_metrics_json, validate_trace_json};

const MACHINES: usize = 4;
const SCALE: f64 = 0.05;
const SEED: u64 = 42;

fn node_binary() -> &'static str {
    env!("CARGO_BIN_EXE_rads-node")
}

/// One client-side RPC or engine span lifted out of a trace file.
struct Span {
    name: String,
    cat: String,
    ts: u64,
    end: u64,
    id: u64,
    parent: u64,
}

fn spans_of(trace: &str) -> Vec<Span> {
    let parsed = Json::parse(trace).expect("trace parses as JSON");
    let events = parsed.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    let mut spans = Vec::new();
    for event in events {
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let u64_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64).expect(key);
        let ts = u64_of(event, "ts");
        let args = event.get("args").expect("args");
        spans.push(Span {
            name: event.get("name").and_then(Json::as_str).expect("name").to_string(),
            cat: event.get("cat").and_then(Json::as_str).expect("cat").to_string(),
            ts,
            end: ts + u64_of(event, "dur"),
            id: u64_of(args, "id"),
            parent: u64_of(args, "parent"),
        });
    }
    spans
}

/// Half-open interval overlap: shared wall-clock time, not mere adjacency.
fn overlaps(a: &Span, b: &Span) -> bool {
    a.ts < b.end && b.ts < a.end
}

/// Walks `span`'s parent chain looking for `ancestor` — a nested RPC
/// *contains* no pipelining even though the intervals intersect.
fn is_ancestor<'a>(spans: &'a [Span], mut span: &'a Span, ancestor: &Span) -> bool {
    let by_id = |id: u64| spans.iter().find(|s| s.id == id);
    while span.parent != 0 {
        if span.parent == ancestor.id {
            return true;
        }
        match by_id(span.parent) {
            Some(parent) => span = parent,
            None => return false,
        }
    }
    false
}

/// The pipelining signature of one process's trace: two in-flight `fetchV`
/// requests at once, or an RPC in flight while expansion it is not nested
/// inside makes progress.
fn shows_overlap(spans: &[Span]) -> bool {
    let fetches: Vec<&Span> = spans.iter().filter(|s| s.name == "rpc.fetchV").collect();
    for (i, a) in fetches.iter().enumerate() {
        if fetches[i + 1..].iter().any(|b| overlaps(a, b)) {
            return true;
        }
    }
    spans.iter().filter(|s| s.cat == "rpc").any(|rpc| {
        spans
            .iter()
            .filter(|s| s.name == "expand")
            .any(|expand| overlaps(rpc, expand) && !is_ancestor(spans, rpc, expand))
    })
}

/// Runs the coordinator for one driver with both artifact flags set and
/// returns the parsed summary.
fn run_cluster(driver: &str, trace_base: &Path, metrics_base: &Path) -> ClusterSummary {
    let output = Command::new(node_binary())
        .args([
            "run",
            "--machines",
            &MACHINES.to_string(),
            "--transport",
            "uds",
            "--dataset",
            "LiveJournal",
            "--scale",
            &SCALE.to_string(),
            "--seed",
            &SEED.to_string(),
            "--query",
            "q5",
            "--driver",
            driver,
            // one worker per machine: the serial leg's trace must be
            // strictly sequential (a second worker's demand fetches would
            // overlap the first's)
            "--workers",
            "1",
            "--trace-out",
            &trace_base.display().to_string(),
            "--metrics-out",
            &metrics_base.display().to_string(),
            "--timeout-secs",
            "300",
            "--json",
        ])
        .output()
        .expect("spawn rads-node coordinator");
    assert!(
        output.status.success(),
        "{driver}: coordinator failed with {}\nstdout: {}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    ClusterSummary::parse_json(&String::from_utf8_lossy(&output.stdout))
        .expect("coordinator prints a JSON summary line")
}

#[test]
#[ignore = "multi-process cluster; run by the observe CI job via --ignored"]
fn cluster_traces_show_async_overlap_and_validate() {
    let dir = std::env::temp_dir().join(format!("rads-observe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let mut totals = Vec::new();
    for driver in ["serial", "async"] {
        let trace_base = dir.join(format!("trace-{driver}.json"));
        let metrics_base = dir.join(format!("metrics-{driver}.json"));
        let summary = run_cluster(driver, &trace_base, &metrics_base);
        totals.push(summary.total_embeddings);

        // cluster-wide metrics made it into the summary: the absorbed
        // registry counters agree with the run's own embedding count
        let scalar = |name: &str| {
            summary.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or_else(|| {
                panic!("{driver}: summary metrics object misses {name}")
            })
        };
        assert_eq!(
            scalar("rads_sme_embeddings_total") + scalar("rads_distributed_embeddings_total"),
            summary.total_embeddings,
            "{driver}: absorbed cluster metrics disagree with the enumeration count"
        );
        assert!(scalar("rads_net_bytes_total") > 0, "{driver}: no traffic in the metrics");

        // every process wrote schema-valid artifacts; the traces carry the
        // per-driver pipelining signature
        let mut machines_with_overlap = 0usize;
        for machine in 0..MACHINES {
            let trace_path = machine_artifact(&trace_base, machine);
            let trace = std::fs::read_to_string(&trace_path)
                .unwrap_or_else(|e| panic!("{driver}: read {}: {e}", trace_path.display()));
            let span_count = validate_trace_json(&trace)
                .unwrap_or_else(|e| panic!("{driver}: {}: {e}", trace_path.display()));
            assert!(span_count > 0, "{driver}: machine {machine} recorded no spans");
            if shows_overlap(&spans_of(&trace)) {
                machines_with_overlap += 1;
            }

            let metrics_path = machine_artifact(&metrics_base, machine);
            let metrics = std::fs::read_to_string(&metrics_path)
                .unwrap_or_else(|e| panic!("{driver}: read {}: {e}", metrics_path.display()));
            validate_metrics_json(&metrics)
                .unwrap_or_else(|e| panic!("{driver}: {}: {e}", metrics_path.display()));
            let prom = std::fs::read_to_string(prometheus_sibling(&metrics_path))
                .unwrap_or_else(|e| panic!("{driver}: missing Prometheus sibling: {e}"));
            assert!(
                prom.contains("# TYPE rads_net_bytes_total counter"),
                "{driver}: machine {machine} Prometheus export misses the traffic counter"
            );
        }
        match driver {
            // single worker, blocking round-trips: nothing may pipeline
            "serial" => assert_eq!(
                machines_with_overlap, 0,
                "serial trace shows overlapping RPCs — the span nesting (or the driver) is wrong"
            ),
            // scatter issues every owner's chunk before the first harvest,
            // so a round that fetches from several owners has them in
            // flight at once: some machine must show it
            _ => assert!(
                machines_with_overlap > 0,
                "async trace never overlaps an RPC with other work — no pipelining visible"
            ),
        }
    }
    assert_eq!(totals[0], totals[1], "drivers disagree on the embedding count");
    std::fs::remove_dir_all(&dir).ok();
}

/// `machine_artifact` / `prometheus_sibling` naming is load-bearing for the
/// CI job's glob patterns — pin it.
#[test]
fn artifact_naming_matches_the_ci_globs() {
    let base = PathBuf::from("/tmp/obs/trace.json");
    assert_eq!(machine_artifact(&base, 0), base);
    assert_eq!(machine_artifact(&base, 3), PathBuf::from("/tmp/obs/trace.json.m3"));
    assert_eq!(
        prometheus_sibling(&PathBuf::from("/tmp/obs/metrics.json.m2")),
        PathBuf::from("/tmp/obs/metrics.json.m2.prom")
    );
}
