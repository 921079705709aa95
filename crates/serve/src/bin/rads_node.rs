//! `rads-node` — run RADS as a real multi-process cluster.
//!
//! One binary, one cluster lifecycle, two entry points and one worker role:
//!
//! ```text
//! # one query: launch a resident single-host cluster, run it, shut down
//! rads-node run --machines 4 --query q5 \
//!     [--transport uds|tcp] [--dataset LiveJournal] [--scale 0.05]
//!     [--seed 42] [--workers N] [--budget BYTES] [--timeout-secs 300] [--json]
//!
//! # a query stream: the same cluster kept resident behind a client door
//! rads-node serve --machines 4 [--max-concurrent-queries N] ...
//!
//! # worker: one resident machine of a cluster (spawned by run / serve)
//! rads-node worker --machine M --machines N --addrs uds:...,uds:... \
//!     --dataset ... --scale ... --seed ... [--workers N] [--budget BYTES]
//! ```
//!
//! Both entry points go through [`rads_serve::serve::ResidentCluster`]:
//! `launch` allocates the listen addresses (fresh Unix socket paths under
//! the temp dir, or probed loopback TCP ports), spawns `machines - 1`
//! worker processes of **this same executable** and acts as machine 0
//! itself; `query` runs a pattern on every machine under a hard deadline
//! (`--timeout-secs`, default 300 — a deadlocked transport exits nonzero
//! instead of hanging a CI runner) while watching the worker processes;
//! `shutdown` orders the workers down and reaps them.
//!
//! `run` is launch → one query → shutdown, and prints the aggregate:
//! embedding counts per machine and in total, plus the *real framed bytes*
//! each process put on the wire. The last stdout line is a single-line
//! JSON summary (only line with `--json`) that scripts and the CI smoke
//! job parse. `--fault-policy` decides what a lost worker means for the
//! run. `serve` keeps the cluster resident behind a TCP client door (the
//! `rads-query` binary is the client) and a Prometheus text page; a lost
//! worker takes the cluster down (fail-fast). See [`rads_serve::serve`].
//!
//! `--trace-out FILE` / `--metrics-out FILE` (both entry points) turn on
//! the observability layer (equivalently: `RADS_TRACE=1` /
//! `RADS_METRICS=1`) and write each process's Chrome trace-event JSON and
//! metrics snapshot when it shuts down: the coordinator writes `FILE`
//! itself, worker `K` writes `FILE.mK`, and each metrics JSON gets a
//! Prometheus-text sibling at `<path>.prom`. With metrics on, busy workers
//! also stream their registry snapshots to the coordinator over the wire,
//! and the JSON summary gains a cluster-wide `metrics` object.
//!
//! Every process rebuilds the deterministic dataset stand-in and
//! partitioning locally from `(dataset, scale, seed, machines)`, so no
//! graph data is shipped; the engine, planner, governor and worker pool are
//! exactly the code the in-process simulator runs — which is why the
//! counts must be (and are, see the `cluster-smoke` CI job) bit-identical
//! across transports.

use std::time::Duration;

use rads_serve::procs::{
    dataset_by_name, validate_env, ClusterSpec, ClusterSummary, FaultPolicy,
};
use rads_serve::serve::{run_once, run_worker, serve, ServeOptions};
use rads_core::RoundDriver;
use rads_datasets::DatasetKind;
use rads_runtime::{PeerAddr, TransportKind};

const DEFAULT_TIMEOUT_SECS: u64 = 300;

fn usage() -> ! {
    eprintln!(
        "usage:\n  rads-node run --machines N --query Q [--transport uds|tcp] [--dataset D]\n\
         \x20          [--scale S] [--seed K] [--workers W] [--budget BYTES]\n\
         \x20          [--driver serial|async] [--no-cache]\n\
         \x20          [--trace-out FILE] [--metrics-out FILE]\n\
         \x20          [--fault-policy fail-fast|recover] [--chaos-kill-ms MS]\n\
         \x20          [--timeout-secs T] [--json]\n\
         \x20 rads-node serve --machines N [--transport uds|tcp] [--dataset D] [--scale S]\n\
         \x20          [--seed K] [--workers W] [--budget BYTES] [--driver serial|async]\n\
         \x20          [--admission-bytes BYTES] [--max-concurrent-queries N]\n\
         \x20          [--client-addr H:P] [--http-addr H:P]\n\
         \x20          [--timeout-secs T]   (resident daemon; query it with rads-query)\n\
         \x20 rads-node worker --machine M --machines N --addrs A0,A1,.. --dataset D\n\
         \x20          --scale S --seed K --query Q [--workers W] [--budget BYTES]\n\
         \x20          [--driver serial|async] [--no-cache]\n\
         \x20          [--trace-out FILE] [--metrics-out FILE]\n\
         \x20          [--timeout-secs T]\n\
         \x20 rads-node serve-worker ...   (spawned by serve; worker flags plus\n\
         \x20          --max-concurrent-queries N)"
    );
    std::process::exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

struct Flags {
    values: Vec<(String, String)>,
    json: bool,
    no_cache: bool,
}

impl Flags {
    /// Parses `--flag value` pairs (plus the bare `--json` / `--no-cache`
    /// switches).
    fn parse(args: &[String]) -> Flags {
        let mut values = Vec::new();
        let mut json = false;
        let mut no_cache = false;
        let mut i = 0;
        while i < args.len() {
            let flag = &args[i];
            if flag == "--json" {
                json = true;
                i += 1;
                continue;
            }
            if flag == "--no-cache" {
                no_cache = true;
                i += 1;
                continue;
            }
            if flag == "--help" || flag == "-h" {
                usage();
            }
            let Some(name) = flag.strip_prefix("--") else {
                eprintln!("error: unexpected argument {flag:?}");
                usage();
            };
            let Some(value) = args.get(i + 1) else {
                eprintln!("error: {flag} requires a value");
                usage();
            };
            values.push((name.to_string(), value.clone()));
            i += 2;
        }
        Flags { values, json, no_cache }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.get(name).map(|raw| {
            raw.parse().unwrap_or_else(|_| {
                fail(&format!("invalid value {raw:?} for --{name}"));
            })
        })
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> T {
        self.parsed(name).unwrap_or_else(|| fail(&format!("--{name} is required")))
    }
}

fn spec_from_flags(flags: &Flags, machines: usize) -> ClusterSpec {
    // The artifact flags imply their toggles: pointing a run at an output
    // file is the request to record. (The RADS_TRACE / RADS_METRICS env
    // toggles work too — every worker inherits the coordinator's env.)
    let trace_out = flags.get("trace-out").map(std::path::PathBuf::from);
    if trace_out.is_some() {
        rads_obs::set_trace_enabled(true);
    }
    let metrics_out = flags.get("metrics-out").map(std::path::PathBuf::from);
    if metrics_out.is_some() {
        rads_obs::set_metrics_enabled(true);
    }
    let dataset_name = flags.get("dataset").unwrap_or("LiveJournal");
    let dataset: DatasetKind = dataset_by_name(dataset_name)
        .unwrap_or_else(|| fail(&format!("unknown dataset {dataset_name:?} (RoadNet | DBLP | LiveJournal | UK2002)")));
    let budget = flags.get("budget").map(|raw| {
        rads_core::memory::parse_bytes(raw)
            .unwrap_or_else(|| fail(&format!("invalid byte size {raw:?} for --budget")))
    });
    let scale: f64 = flags.parsed("scale").unwrap_or(0.05);
    if !scale.is_finite() || scale <= 0.0 {
        fail(&format!("--scale must be positive, got {scale}"));
    }
    ClusterSpec {
        machines,
        dataset,
        scale,
        seed: flags.parsed("seed").unwrap_or(42),
        workers: flags.parsed("workers").unwrap_or_else(rads_exec::workers_from_env),
        budget,
        driver: flags
            .get("driver")
            .map(|raw| {
                RoundDriver::parse(raw)
                    .unwrap_or_else(|| fail(&format!("--driver must be serial or async, got {raw:?}")))
            })
            .unwrap_or_else(|| {
                RoundDriver::from_env().unwrap_or_else(|e| fail(&e.to_string()))
            }),
        cache: !flags.no_cache,
        trace_out,
        metrics_out,
        fault_policy: flags
            .get("fault-policy")
            .map(|raw| {
                FaultPolicy::from_env_value(Some(raw))
                    .unwrap_or_else(|_| fail(&format!("--fault-policy must be fail-fast or recover, got {raw:?}")))
            })
            .unwrap_or_else(|| FaultPolicy::from_env().unwrap_or_else(|e| fail(&e.to_string()))),
        chaos_kill_ms: flags.parsed("chaos-kill-ms"),
    }
}

fn timeout_from_flags(flags: &Flags) -> Duration {
    Duration::from_secs(flags.parsed::<u64>("timeout-secs").unwrap_or(DEFAULT_TIMEOUT_SECS).max(1))
}

/// Multi-process modes need a real socket transport; the in-process
/// simulator makes no sense when the machines are separate OS processes.
fn socket_transport_from_flags(flags: &Flags) -> TransportKind {
    match flags.get("transport") {
        None => TransportKind::Uds.effective(),
        Some(raw) => match TransportKind::parse(raw) {
            Some(TransportKind::InProcess) | None => {
                fail(&format!("--transport must be uds or tcp, got {raw:?}"))
            }
            Some(kind) => kind.effective(),
        },
    }
}

/// What both entry points need to launch a cluster: the spec, the socket
/// transport and the executable to spawn as workers (this one).
fn launch_inputs(flags: &Flags) -> (ClusterSpec, TransportKind, std::path::PathBuf) {
    let machines: usize = flags.require("machines");
    if machines == 0 {
        fail("--machines must be at least 1");
    }
    let node_binary = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("cannot locate this executable: {e}")));
    (spec_from_flags(flags, machines), socket_transport_from_flags(flags), node_binary)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else { usage() };
    let flags = Flags::parse(&args[1..]);
    if let Err(e) = validate_env() {
        fail(&e.to_string());
    }

    match mode.as_str() {
        "run" => {
            let (spec, kind, node_binary) = launch_inputs(&flags);
            let query: String = flags.require("query");
            let timeout = timeout_from_flags(&flags);
            if !flags.json {
                println!(
                    "cluster: {} machines over {} | dataset {} scale {} seed {} | query {} | workers {} | driver {}",
                    spec.machines,
                    kind.name(),
                    spec.dataset.name(),
                    spec.scale,
                    spec.seed,
                    query,
                    spec.workers,
                    spec.driver.name(),
                );
            }
            match run_once(&spec, &query, kind, &node_binary, timeout) {
                Ok(summary) => {
                    if !flags.json {
                        print_human(&summary);
                    }
                    println!("{}", summary.to_json());
                }
                Err(e) => fail(&e),
            }
        }
        "serve" => {
            let (spec, kind, node_binary) = launch_inputs(&flags);
            let admission_bytes = flags.get("admission-bytes").map(|raw| {
                rads_core::memory::parse_bytes(raw).unwrap_or_else(|| {
                    fail(&format!("invalid byte size {raw:?} for --admission-bytes"))
                }) as u64
            });
            let max_concurrent_queries =
                flags.parsed::<usize>("max-concurrent-queries").unwrap_or(1);
            if max_concurrent_queries == 0 {
                fail("--max-concurrent-queries must be at least 1");
            }
            let options = ServeOptions {
                admission_bytes,
                client_addr: flags.get("client-addr").unwrap_or("127.0.0.1:0").to_string(),
                http_addr: flags.get("http-addr").unwrap_or("127.0.0.1:0").to_string(),
                query_timeout: timeout_from_flags(&flags),
                max_concurrent_queries,
            };
            if let Err(e) = serve(&spec, kind, &node_binary, &options) {
                fail(&e);
            }
        }
        "worker" => {
            let machines: usize = flags.require("machines");
            let machine: usize = flags.require("machine");
            let spec = spec_from_flags(&flags, machines);
            let addr_list: String = flags.require("addrs");
            let addrs: Vec<PeerAddr> = addr_list
                .split(',')
                .map(|raw| PeerAddr::parse(raw).unwrap_or_else(|e| fail(&e)))
                .collect();
            if addrs.len() != machines {
                fail(&format!("--addrs lists {} addresses for {machines} machines", addrs.len()));
            }
            let max_concurrent = flags.parsed::<usize>("max-concurrent-queries").unwrap_or(1);
            if let Err(e) = run_worker(&spec, machine, addrs, max_concurrent) {
                fail(&e);
            }
        }
        other => {
            eprintln!("error: unknown mode {other:?}");
            usage();
        }
    }
}

fn print_human(summary: &ClusterSummary) {
    println!("machine\tembeddings\tsme\twire bytes\twire msgs\tengine ms");
    for m in &summary.per_machine {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{:.1}",
            m.machine, m.embeddings, m.sme_embeddings, m.wire_bytes, m.wire_messages, m.elapsed_ms
        );
    }
    println!(
        "total\t{} embeddings\t{} wire bytes\t{} requests\t{:.1} ms",
        summary.total_embeddings, summary.wire_bytes, summary.wire_messages, summary.elapsed_ms
    );
    println!(
        "resilience ({})\t{} rpc retries\t{} reconnects\t{} heartbeats missed",
        summary.fault_policy, summary.rpc_retries, summary.reconnects, summary.heartbeats_missed
    );
    if !summary.machines_recovered.is_empty() {
        println!(
            "recovered machines {:?}: {} region groups recomputed in-process after worker loss",
            summary.machines_recovered, summary.groups_recovered
        );
    }
}
