//! The serving-mode smoke test: a **resident 4-process cluster** over
//! Unix-domain sockets must answer a stream of queries with counts
//! bit-identical to one-shot runs, serve its plan cache (observable as a
//! `plan_cache_hit` on a repeated query), keep a live Prometheus page, and
//! reject over-budget queries at admission instead of dispatching them. It
//! must also *keep* what its queries fetched: a query that finds the foreign
//! adjacency earlier queries paid for ships a fraction of the bytes, whatever
//! per-query budgets ran in between.
//!
//! This is the test the `serve` CI job runs under a hard timeout (via
//! `--ignored`, like the `cluster-smoke` job). Every blocking step has its
//! own deadline and the server child is killed on panic, so a wedged
//! cluster fails the test instead of hanging the runner.
//!
//! The **concurrency-equivalence suite** lives here too: with the
//! query-scoped envelope protocol, N overlapping queries must return
//! counts bit-identical to the same queries run serially — across the
//! in-process transport and the real UDS cluster, under both round
//! drivers, and with a deliberately slow (budget-starved) query running
//! in the middle of fast ones (the chaos variant: one query's stalling
//! workers must not corrupt another query's results).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rads_bench::build_cluster;
use rads_serve::json::Json;
use rads_serve::serve::{client_round_trip, ClientOp, QueryReply};
use rads_core::{run_rads, RadsConfig, RoundDriver};
use rads_datasets::{generate, DatasetKind, Scale};
use rads_graph::queries;

const MACHINES: usize = 4;
const SCALE: f64 = 0.05;
const SEED: u64 = 42;
const READY_DEADLINE: Duration = Duration::from_secs(120);
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(30);

fn node_binary() -> &'static str {
    env!("CARGO_BIN_EXE_rads-node")
}

fn query_binary() -> &'static str {
    env!("CARGO_BIN_EXE_rads-query")
}

/// Kills the serve coordinator (which reaps its workers' sockets with it)
/// if the test panics before the clean shutdown path runs.
struct ServeGuard {
    child: Child,
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Pulls a string field out of the ready line's flat JSON object.
fn json_str_field(line: &str, field: &str) -> String {
    let key = format!("\"{field}\":\"");
    let at = line.find(&key).unwrap_or_else(|| panic!("no {field:?} in ready line {line:?}"));
    let rest = &line[at + key.len()..];
    rest[..rest.find('"').expect("unterminated string")].to_string()
}

/// Spawns `rads-node serve` and waits for its ready line, returning the
/// guard plus the client and Prometheus addresses.
fn start_serve(extra: &[&str]) -> (ServeGuard, String, String) {
    let mut child = Command::new(node_binary())
        .args([
            "serve",
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
            "--timeout-secs",
            "300",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stdin(Stdio::null())
        .spawn()
        .expect("spawn rads-node serve");
    let stdout = child.stdout.take().expect("stdout is piped");
    let (line_tx, line_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        if reader.read_line(&mut line).is_ok() {
            let _ = line_tx.send(line);
        }
        // keep draining so the server never blocks on a full stdout pipe
        std::io::copy(&mut reader, &mut std::io::sink()).ok();
    });
    let guard = ServeGuard { child };
    let ready = line_rx
        .recv_timeout(READY_DEADLINE)
        .expect("serve coordinator prints its ready line before the deadline");
    assert!(ready.contains("\"serving\":true"), "unexpected ready line: {ready}");
    let client_addr = json_str_field(&ready, "client_addr");
    let http_addr = json_str_field(&ready, "http_addr");
    (guard, client_addr, http_addr)
}

fn expect_ok(reply: QueryReply, what: &str) -> (u64, bool, Vec<(u32, u64)>) {
    match reply {
        QueryReply::Ok { count, plan_cache_hit, per_machine, .. } => {
            (count, plan_cache_hit, per_machine)
        }
        other => panic!("{what}: expected Ok, got {other:?}"),
    }
}

/// One plain-HTTP scrape of the Prometheus page.
fn scrape(http_addr: &str) -> String {
    let mut stream = TcpStream::connect(http_addr).expect("connect to Prometheus page");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: serve\r\nConnection: close\r\n\r\n")
        .expect("send scrape request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read scrape response");
    body
}

fn shutdown(mut guard: ServeGuard, client_addr: &str) {
    let reply = client_round_trip(client_addr, &ClientOp::Shutdown, 99)
        .expect("shutdown round trip succeeds");
    assert_eq!(reply, QueryReply::ShutdownAck);
    let deadline = Instant::now() + SHUTDOWN_DEADLINE;
    loop {
        match guard.child.try_wait().expect("poll serve coordinator") {
            Some(status) => {
                assert!(status.success(), "serve coordinator exited with {status}");
                break;
            }
            None if Instant::now() > deadline => {
                panic!("serve coordinator still running {SHUTDOWN_DEADLINE:?} after ShutdownAck")
            }
            None => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

#[test]
#[ignore = "multi-process resident cluster; run by the serve CI job via --ignored"]
fn resident_cluster_answers_a_query_stream_bit_identically() {
    // ground truth from the in-process transport, computed once
    let dataset = generate(DatasetKind::LiveJournal, Scale(SCALE), SEED);
    let cluster = build_cluster(&dataset.graph, MACHINES);
    let expected: Vec<(&str, u64)> = ["q1", "q5"]
        .iter()
        .map(|name| {
            let pattern = queries::query_by_name(name).expect("known query");
            (*name, run_rads(&cluster, &pattern, &RadsConfig::default()).total_embeddings)
        })
        .collect();

    let (guard, client_addr, http_addr) = start_serve(&[]);

    // q1 then q5 straight through the library client
    let mut first_q1 = None;
    for (name, want) in &expected {
        let op = ClientOp::Query { pattern: (*name).to_string(), budget: None };
        let reply = client_round_trip(&client_addr, &op, 7).expect("query round trip");
        let (count, hit, per_machine) = expect_ok(reply, name);
        assert_eq!(
            count, *want,
            "{name}: resident cluster deviates from the one-shot in-process count"
        );
        assert!(!hit, "{name}: first submission cannot hit the plan cache");
        assert_eq!(per_machine.len(), MACHINES);
        assert_eq!(per_machine.iter().map(|(_, n)| n).sum::<u64>(), count);
        if *name == "q1" {
            first_q1 = Some(per_machine);
        }
    }

    // the repeated q1 goes through the rads-query binary: same count,
    // same per-machine split, and this time the plan comes from the cache
    let output = Command::new(query_binary())
        .args(["--addr", &client_addr, "--query", "q1", "--json"])
        .output()
        .expect("spawn rads-query");
    assert!(
        output.status.success(),
        "rads-query failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let answer = String::from_utf8_lossy(&output.stdout);
    assert!(answer.contains("\"plan_cache_hit\":true"), "repeated q1 misses the plan cache: {answer}");
    assert!(
        answer.contains(&format!("\"count\":{},", expected[0].1)),
        "repeated q1 changed its count: {answer}"
    );
    let per: Vec<String> =
        first_q1.unwrap().iter().map(|(m, n)| format!("[{m},{n}]")).collect();
    assert!(
        answer.contains(&format!("\"per_machine\":[{}]", per.join(","))),
        "repeated q1 changed its per-machine split: {answer}"
    );

    // the Prometheus page is live and cumulative across the stream
    let page = scrape(&http_addr);
    for needle in
        ["rads_serve_queries_total 3", "rads_plan_cache_hits_total 1", "rads_plan_cache_misses_total"]
    {
        assert!(page.contains(needle), "scrape is missing {needle:?}:\n{page}");
    }

    shutdown(guard, &client_addr);
}

#[test]
#[ignore = "multi-process resident cluster; run by the serve CI job via --ignored"]
fn admission_control_rejects_over_budget_queries() {
    // 1 KiB admission limit: every query's conservative footprint estimate
    // is orders of magnitude above it, so nothing may be dispatched
    let (guard, client_addr, _http) = start_serve(&["--admission-bytes", "1k"]);
    let op = ClientOp::Query { pattern: "q1".to_string(), budget: None };
    match client_round_trip(&client_addr, &op, 1).expect("round trip") {
        QueryReply::Rejected { query_id, estimate, limit } => {
            assert!(query_id > 0, "rejections carry the assigned query id");
            assert_eq!(limit, 1024);
            assert!(estimate > limit, "rejection must carry the offending estimate");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    // the rads-query binary maps Rejected to exit code 3
    let output = Command::new(query_binary())
        .args(["--addr", &client_addr, "--query", "q1"])
        .output()
        .expect("spawn rads-query");
    assert_eq!(output.status.code(), Some(3), "rejection exit code");
    shutdown(guard, &client_addr);
}

/// Pulls an unsigned integer field out of a flat JSON object line.
fn json_u64_field(line: &str, field: &str) -> u64 {
    let key = format!("\"{field}\":");
    let at = line.find(&key).unwrap_or_else(|| panic!("no {field:?} in {line:?}"));
    let rest = &line[at + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("non-numeric {field:?} in {line:?}"))
}

/// The bytes the cluster put on its fabric for one query: the
/// `rads_net_bytes_total` counter of the reply's own metrics delta.
fn wire_bytes(metrics_json: &str) -> u64 {
    Json::parse(metrics_json)
        .ok()
        .and_then(|delta| {
            delta.get("metrics")?.get("rads_net_bytes_total")?.get("value")?.as_u64()
        })
        .unwrap_or_else(|| panic!("no rads_net_bytes_total counter in {metrics_json}"))
}

/// Foreign adjacency outlives the query. On one resident cluster: q4 three
/// times, q4 under a 64 KiB per-query budget, q4 once more, then two
/// overlapping q5. Every count is the one-shot golden, and every default-
/// budget q4 after the first ships fewer bytes than the cold one did.
///
/// How many fewer, for a query repeated on its own: measured 0.73–0.91 of
/// cold for the third q4 and 0.59–0.71 for the one after the override (20
/// launches of this spec) — not the "under a tenth" ISSUE 13 expected. The
/// store keeps adjacency, and q4's `verifyE` traffic is for edges between
/// two leaves that q4's plan never fetches; the saving arrives once *other*
/// plans have made those leaves pivots, as in the benchmark's query mixes
/// (`lj-heavy`: 0.02 of the parent's bytes). Keeping `verifyE` verdicts is
/// the open follow-up (ROADMAP item 3). The budget override bounds `Φ` for
/// its own query only: it splits into more region groups (and ships more
/// than the cold q4), but must neither fail nor empty the resident caches.
#[test]
#[ignore = "multi-process resident cluster; run by the serve CI job via --ignored"]
fn foreign_adjacency_outlives_the_query() {
    let dataset = generate(DatasetKind::LiveJournal, Scale(SCALE), SEED);
    let cluster = build_cluster(&dataset.graph, MACHINES);
    let golden = |name: &str| {
        let pattern = queries::query_by_name(name).expect("known query");
        run_rads(&cluster, &pattern, &RadsConfig::default()).total_embeddings
    };
    let (q4, q5) = (golden("q4"), golden("q5"));

    let (guard, client_addr, _http) = start_serve(&["--max-concurrent-queries", "2"]);
    let submit = |name: &str, budget: Option<u64>, want: u64| -> u64 {
        let op = ClientOp::Query { pattern: name.to_string(), budget };
        match client_round_trip(&client_addr, &op, 3).expect("query round trip") {
            QueryReply::Ok { count, metrics_json, .. } => {
                assert_eq!(count, want, "{name} (budget {budget:?}) deviates from the golden");
                wire_bytes(&metrics_json)
            }
            other => panic!("{name} (budget {budget:?}): expected Ok, got {other:?}"),
        }
    };
    let cold = submit("q4", None, q4);
    submit("q4", None, q4);
    let third = submit("q4", None, q4);
    assert!(
        third < cold,
        "the third q4 shipped {third} B, the cold one {cold} B: the store did not outlive the query"
    );
    submit("q4", Some(64 << 10), q4);
    let after_override = submit("q4", None, q4);
    assert!(
        after_override < cold,
        "q4 shipped {after_override} B after a --budget 64k query, {cold} B cold: \
         the override reached the resident caches"
    );
    std::thread::scope(|scope| {
        let overlapped: Vec<_> = (0..2).map(|_| scope.spawn(|| submit("q5", None, q5))).collect();
        for handle in overlapped {
            handle.join().expect("overlapped q5");
        }
    });
    shutdown(guard, &client_addr);
}

/// Concurrency equivalence on the in-process transport, both round
/// drivers: three threads running the same query at once (each on its own
/// cluster — process-global state like the metrics registry, the trace
/// buffers and the planner are the shared surface) must reproduce the
/// serial counts exactly.
#[test]
fn concurrent_in_process_runs_match_serial_runs() {
    let dataset = generate(DatasetKind::LiveJournal, Scale(0.02), SEED);
    for driver in [RoundDriver::Serial, RoundDriver::Async] {
        let config = RadsConfig { round_driver: driver, ..RadsConfig::default() };
        for name in ["q1", "q5"] {
            let pattern = queries::query_by_name(name).expect("known query");
            let serial =
                run_rads(&build_cluster(&dataset.graph, MACHINES), &pattern, &config)
                    .total_embeddings;
            let concurrent: Vec<u64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..3)
                    .map(|_| {
                        let (graph, pattern, config) = (&dataset.graph, &pattern, &config);
                        scope.spawn(move || {
                            run_rads(&build_cluster(graph, MACHINES), pattern, config)
                                .total_embeddings
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("runner thread")).collect()
            });
            for count in concurrent {
                assert_eq!(
                    count, serial,
                    "{name} under {driver:?}: overlapped run deviates from the serial count"
                );
            }
        }
    }
}

/// Concurrency equivalence over the real 4-process UDS cluster, both round
/// drivers: four overlapping submissions of the same query (via
/// `rads-query --concurrency 4`, one connection each) must each return the
/// serial in-process count, under four distinct server-assigned query ids.
#[test]
#[ignore = "multi-process resident cluster; run by the serve CI job via --ignored"]
fn overlapping_queries_are_bit_identical_to_serial() {
    let dataset = generate(DatasetKind::LiveJournal, Scale(SCALE), SEED);
    let cluster = build_cluster(&dataset.graph, MACHINES);
    let pattern = queries::query_by_name("q5").expect("known query");
    let expected = run_rads(&cluster, &pattern, &RadsConfig::default()).total_embeddings;

    for driver in ["serial", "async"] {
        let (guard, client_addr, http_addr) =
            start_serve(&["--max-concurrent-queries", "4", "--driver", driver]);
        let output = Command::new(query_binary())
            .args(["--addr", &client_addr, "--query", "q5", "--concurrency", "4", "--json"])
            .output()
            .expect("spawn rads-query");
        assert!(
            output.status.success(),
            "driver {driver}: overlapping rads-query failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
        assert_eq!(lines.len(), 4, "driver {driver}: one reply line per submission:\n{stdout}");
        let mut ids = Vec::new();
        for line in &lines {
            assert!(line.contains("\"ok\":true"), "driver {driver}: failed reply: {line}");
            assert_eq!(
                json_u64_field(line, "count"),
                expected,
                "driver {driver}: overlapped count deviates from the serial in-process count"
            );
            ids.push(json_u64_field(line, "query_id"));
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "driver {driver}: query ids must be distinct: {lines:?}");

        // a serialized follow-up on the same warm cluster agrees too
        let op = ClientOp::Query { pattern: "q5".to_string(), budget: None };
        let reply = client_round_trip(&client_addr, &op, 5).expect("serial follow-up");
        let (count, _, _) = expect_ok(reply, "serial follow-up");
        assert_eq!(count, expected, "driver {driver}: serial follow-up changed the count");

        let page = scrape(&http_addr);
        assert!(
            page.contains("rads_serve_queries_total 5"),
            "driver {driver}: scrape is missing the 5 completed queries:\n{page}"
        );
        shutdown(guard, &client_addr);
    }
}

/// The chaos variant: a budget-starved q5 (its workers grind through
/// maximally split region groups — the slow lane) overlaps two normal q1
/// submissions. If query-scoped routing leaked between streams, the fast
/// queries would harvest the slow query's region groups or responses;
/// bit-identical counts on all three prove they stayed apart.
#[test]
#[ignore = "multi-process resident cluster; run by the serve CI job via --ignored"]
fn a_stalled_query_does_not_corrupt_overlapping_results() {
    let dataset = generate(DatasetKind::LiveJournal, Scale(SCALE), SEED);
    let cluster = build_cluster(&dataset.graph, MACHINES);
    let expected: Vec<(&str, u64)> = ["q1", "q5"]
        .iter()
        .map(|name| {
            let pattern = queries::query_by_name(name).expect("known query");
            (*name, run_rads(&cluster, &pattern, &RadsConfig::default()).total_embeddings)
        })
        .collect();

    let (guard, client_addr, _http) = start_serve(&["--max-concurrent-queries", "3"]);
    let replies: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let slow = {
            let client_addr = client_addr.clone();
            scope.spawn(move || {
                let op = ClientOp::Query { pattern: "q5".to_string(), budget: Some(64 << 10) };
                client_round_trip(&client_addr, &op, 11).expect("slow q5 round trip")
            })
        };
        let fast: Vec<_> = (0..2)
            .map(|slot| {
                let client_addr = client_addr.clone();
                scope.spawn(move || {
                    let op = ClientOp::Query { pattern: "q1".to_string(), budget: None };
                    client_round_trip(&client_addr, &op, 21 + slot).expect("fast q1 round trip")
                })
            })
            .collect();
        let mut replies = Vec::new();
        for (want, handle) in [(expected[1].1, slow)]
            .into_iter()
            .chain(fast.into_iter().map(|h| (expected[0].1, h)))
        {
            let reply = handle.join().expect("client thread");
            match reply {
                QueryReply::Ok { query_id, count, .. } => replies.push((query_id, count)),
                other => panic!("expected Ok, got {other:?}"),
            }
            let (_, count) = replies.last().unwrap();
            assert_eq!(*count, want, "overlapped count deviates from the serial count");
        }
        replies
    });
    let mut ids: Vec<u64> = replies.iter().map(|&(id, _)| id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 3, "query ids must be distinct: {replies:?}");
    shutdown(guard, &client_addr);
}

#[test]
fn serve_mode_validates_its_flags() {
    let output = Command::new(node_binary())
        .args(["serve", "--machines", "0"])
        .output()
        .expect("spawn rads-node serve");
    assert!(!output.status.success());
    let output = Command::new(node_binary())
        .args(["serve", "--machines", "2", "--admission-bytes", "lots"])
        .output()
        .expect("spawn rads-node serve");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("admission-bytes"), "stderr names the bad flag: {stderr}");
}
