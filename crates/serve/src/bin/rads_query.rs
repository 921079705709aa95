//! `rads-query` — thin client for a resident `rads-node serve` cluster.
//!
//! Connects to the serve coordinator's client front door (the
//! `client_addr` printed on the server's ready line), sends one or more
//! [`ClientOp`]s and prints the [`QueryReply`]s.
//!
//! ```text
//! rads-query --addr 127.0.0.1:4567 --query q5 [--budget 64m] [--json]
//! rads-query --addr 127.0.0.1:4567 --query q5 --concurrency 4 --json
//! rads-query --addr 127.0.0.1:4567 --shutdown
//! ```
//!
//! `--concurrency N` submits the query N times **at once**, each over its
//! own connection (the serve protocol is one request in flight per
//! connection), and prints one reply line per submission — the way to
//! exercise or benchmark the server's concurrent scheduler. Every JSON
//! reply carries the server-assigned `query_id`, so the N replies can be
//! matched to per-query server metrics and trace spans.
//!
//! Exit codes (see `--help`): `0` all submissions answered (or shutdown
//! acknowledged), `1` any error, `2` usage error, `3` no errors but at
//! least one submission rejected by admission control.

use std::process::exit;

use rads_serve::serve::{client_round_trip, ClientOp, QueryReply};

fn fail(message: &str) -> ! {
    eprintln!("rads-query: {message}");
    exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         rads-query --addr HOST:PORT --query NAME [--budget BYTES]\n  \
         \x20          [--concurrency N] [--json]\n  \
         rads-query --addr HOST:PORT --shutdown\n\
         \n\
         --concurrency N submits the query N times concurrently, one\n\
         connection per submission, and prints one reply per line.\n\
         \n\
         exit codes:\n  \
         0  every submission was answered (or the shutdown was acknowledged)\n  \
         1  an error (connection failure, server-side query error, ...)\n  \
         2  usage error\n  \
         3  no errors, but admission control rejected at least one submission"
    );
    exit(2);
}

/// Runs one op on its own connection and prints the reply. Returns the
/// submission's exit code (0 ok, 1 error, 3 rejected).
fn submit(addr: &str, op: &ClientOp, correlation: u64, json: bool) -> i32 {
    let reply = match client_round_trip(addr, op, correlation) {
        Ok(reply) => reply,
        Err(e) => {
            eprintln!("rads-query: {e}");
            return 1;
        }
    };
    match reply {
        QueryReply::Ok { query_id, count, elapsed_us, plan_cache_hit, per_machine, metrics_json } => {
            if json {
                let per: Vec<String> = per_machine
                    .iter()
                    .map(|(machine, embeddings)| format!("[{machine},{embeddings}]"))
                    .collect();
                println!(
                    "{{\"ok\":true,\"query_id\":{query_id},\"count\":{count},\
                     \"elapsed_us\":{elapsed_us},\
                     \"plan_cache_hit\":{plan_cache_hit},\"per_machine\":[{}],\
                     \"metrics\":{metrics_json}}}",
                    per.join(",")
                );
            } else {
                println!(
                    "query {query_id}: count {count} | {:.3} ms | plan cache {}",
                    elapsed_us as f64 / 1000.0,
                    if plan_cache_hit { "hit" } else { "miss" },
                );
                for (machine, embeddings) in &per_machine {
                    println!("  machine {machine}: {embeddings}");
                }
            }
            0
        }
        QueryReply::Rejected { query_id, estimate, limit } => {
            if json {
                println!(
                    "{{\"ok\":false,\"query_id\":{query_id},\"rejected\":true,\
                     \"estimate\":{estimate},\"limit\":{limit}}}"
                );
            } else {
                eprintln!(
                    "query {query_id} rejected: estimated footprint {estimate} bytes \
                     exceeds admission limit {limit} bytes"
                );
            }
            3
        }
        QueryReply::Error { query_id, message } => {
            eprintln!("rads-query: query {query_id}: {message}");
            1
        }
        QueryReply::ShutdownAck => {
            if json {
                println!("{{\"ok\":true,\"shutdown\":true}}");
            } else {
                println!("shutdown acknowledged");
            }
            0
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut query: Option<String> = None;
    let mut budget: Option<u64> = None;
    let mut concurrency: usize = 1;
    let mut shutdown = false;
    let mut json = false;

    let mut at = 0;
    while at < args.len() {
        match args[at].as_str() {
            "--addr" => {
                addr = Some(args.get(at + 1).cloned().unwrap_or_else(|| usage()));
                at += 2;
            }
            "--query" => {
                query = Some(args.get(at + 1).cloned().unwrap_or_else(|| usage()));
                at += 2;
            }
            "--budget" => {
                let raw = args.get(at + 1).cloned().unwrap_or_else(|| usage());
                let bytes = rads_core::memory::parse_bytes(&raw)
                    .unwrap_or_else(|| fail(&format!("invalid byte size {raw:?} for --budget")));
                budget = Some(bytes as u64);
                at += 2;
            }
            "--concurrency" => {
                let raw = args.get(at + 1).cloned().unwrap_or_else(|| usage());
                concurrency = raw
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail(&format!("--concurrency must be >= 1, got {raw:?}")));
                at += 2;
            }
            "--shutdown" => {
                shutdown = true;
                at += 1;
            }
            "--json" => {
                json = true;
                at += 1;
            }
            "--help" | "-h" => usage(),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }

    let Some(addr) = addr else { usage() };
    let op = if shutdown {
        if concurrency != 1 {
            fail("--concurrency applies to --query, not --shutdown");
        }
        ClientOp::Shutdown
    } else {
        let Some(pattern) = query else { usage() };
        ClientOp::Query { pattern, budget }
    };

    if concurrency == 1 {
        // the correlation id only has to be echoed back on this connection
        exit(submit(&addr, &op, 1, json));
    }

    // N submissions at once, one connection each; stdout lines stay whole
    // because each println! writes one line atomically
    let handles: Vec<_> = (0..concurrency)
        .map(|slot| {
            let addr = addr.clone();
            let op = op.clone();
            std::thread::spawn(move || submit(&addr, &op, slot as u64 + 1, json))
        })
        .collect();
    let codes: Vec<i32> =
        handles.into_iter().map(|h| h.join().unwrap_or(1)).collect();
    if codes.contains(&1) {
        exit(1);
    }
    if codes.contains(&3) {
        exit(3);
    }
    exit(0);
}
