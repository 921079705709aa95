//! The cluster smoke test: a **real 4-process cluster** over Unix-domain
//! sockets must produce embedding counts bit-identical to the in-process
//! transport for every standard query, with real framed bytes on the wire.
//!
//! This is the test the `cluster-smoke` CI job runs under a hard timeout:
//! it spawns the `rads-node` coordinator (which spawns three worker
//! processes), parses its JSON summary and compares against `run_rads` on
//! the same dataset stand-in. A deadlocked transport trips the
//! coordinator's own `--timeout-secs` deadline and fails the test instead
//! of hanging the runner.

use std::process::Command;

use rads_serve::procs::ClusterSummary;
use rads_bench::build_cluster;
use rads_core::{run_rads, RadsConfig};
use rads_datasets::{generate, DatasetKind, Scale};
use rads_graph::queries;

const MACHINES: usize = 4;
const SCALE: f64 = 0.05;
const SEED: u64 = 42;

fn node_binary() -> &'static str {
    env!("CARGO_BIN_EXE_rads-node")
}

/// Runs the coordinator for one query and parses its summary.
fn run_cluster(query: &str, transport: &str) -> ClusterSummary {
    let output = Command::new(node_binary())
        .args([
            "run",
            "--machines",
            &MACHINES.to_string(),
            "--transport",
            transport,
            "--dataset",
            "LiveJournal",
            "--scale",
            &SCALE.to_string(),
            "--seed",
            &SEED.to_string(),
            "--query",
            query,
            // generous: debug builds on loaded CI runners are an order of
            // magnitude slower than the release-mode cluster-smoke steps
            "--timeout-secs",
            "300",
            "--json",
        ])
        .output()
        .expect("spawn rads-node coordinator");
    assert!(
        output.status.success(),
        "{query}: coordinator failed with {}\nstdout: {}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    ClusterSummary::parse_json(&String::from_utf8_lossy(&output.stdout))
        .expect("coordinator prints a JSON summary line")
}

// The two cluster-running tests are #[ignore]d by default: they spawn 4-process
// clusters per query, which belongs in the dedicated release-mode
// `cluster-smoke` CI job (run there via `--ignored`), not in every debug-mode
// leg of the test matrix. Locally: `cargo test -p rads-serve --test
// socket_cluster -- --ignored`.

#[test]
#[ignore = "multi-process cluster; run by the cluster-smoke CI job via --ignored"]
fn four_process_uds_cluster_matches_in_process_counts_on_all_queries() {
    let dataset = generate(DatasetKind::LiveJournal, Scale(SCALE), SEED);
    let cluster = build_cluster(&dataset.graph, MACHINES);
    for query in ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"] {
        let pattern = queries::query_by_name(query).expect("known query");
        let expected = run_rads(&cluster, &pattern, &RadsConfig::default());
        let summary = run_cluster(query, "uds");
        assert_eq!(
            summary.total_embeddings, expected.total_embeddings,
            "{query}: 4-process UDS cluster deviates from the in-process transport"
        );
        assert_eq!(summary.machines, MACHINES);
        assert_eq!(summary.per_machine.len(), MACHINES);
        assert_eq!(
            summary.per_machine.iter().map(|m| m.embeddings).sum::<u64>(),
            summary.total_embeddings,
            "{query}: per-machine counts do not add up"
        );
        // the socket transport reports real framed bytes: a 4-machine RADS
        // run always talks (fetchV/verifyE/checkR at minimum)
        assert!(summary.wire_bytes > 0, "{query}: no bytes on the wire");
        assert!(summary.wire_messages > 0, "{query}: no requests on the wire");
    }
}

#[test]
#[ignore = "multi-process cluster; run by the cluster-smoke CI job via --ignored"]
fn tcp_cluster_agrees_with_uds_cluster() {
    let uds = run_cluster("q5", "uds");
    let tcp = run_cluster("q5", "tcp");
    assert_eq!(uds.total_embeddings, tcp.total_embeddings);
    assert_eq!(uds.transport, "uds");
    assert_eq!(tcp.transport, "tcp");
}

#[test]
fn coordinator_rejects_unknown_queries_fast() {
    let output = Command::new(node_binary())
        .args(["run", "--machines", "2", "--query", "q99", "--scale", "0.02", "--json"])
        .output()
        .expect("spawn rads-node coordinator");
    assert!(!output.status.success(), "unknown query must fail the run");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("q99"), "stderr names the bad query: {stderr}");
}

#[test]
fn worker_mode_validates_its_flags() {
    // machine id out of range
    let output = Command::new(node_binary())
        .args([
            "worker", "--machine", "5", "--machines", "2", "--addrs", "uds:/tmp/a,uds:/tmp/b",
            "--dataset", "DBLP", "--scale", "0.02", "--seed", "1", "--query", "q1",
        ])
        .output()
        .expect("spawn rads-node worker");
    assert!(!output.status.success());
    // address count mismatch
    let output = Command::new(node_binary())
        .args([
            "worker", "--machine", "1", "--machines", "3", "--addrs", "uds:/tmp/a,uds:/tmp/b",
            "--dataset", "DBLP", "--scale", "0.02", "--seed", "1", "--query", "q1",
        ])
        .output()
        .expect("spawn rads-node worker");
    assert!(!output.status.success());
}
