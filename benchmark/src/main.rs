//! `rads-benchmark`: the repository's benchmark. `benchmark/run.sh` builds
//! the workspace and this harness and then calls it; see `README.md` here
//! for what is measured and why.

mod cluster;
mod hostspeed;
mod json;
mod layers;
mod measure;
mod probes;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use cluster::Env;
use json::Json;
use probes::Inputs;
use workload::{workload_by_name, workloads, Workload, DEFAULT_GRAPH_SEED};

const USAGE: &str = "usage:
  rads-benchmark [run] --bin-dir DIR [--workload NAME] [--seed N] [--seconds S]
                 [--trace 0|1 | --traced] [--graph-seed N]
  rads-benchmark selfcheck --bin-dir DIR [--sets N] [--seed N] [--seconds S]

run        one workload (or all four): prints every metric by name with its
           unit, then one JSON line {correct, attempted, failed, metrics}.
           --trace 1 (= --traced) prints the per-layer metrics instead of the
           end-to-end ones and writes benchmark/out/<workload>.trace.json.
selfcheck  runs the end-to-end set N times (default 2), seeds S, S+1, ..,
           and prints per workload and metric every value, their spread and
           the bound from BENCHMARK.json.
--seed       shuffles each workload's query list (default 42)
--graph-seed regenerates the data graph (default 42; metrics of different
             graphs are not comparable)
--seconds    how long a run measures (default: run_seconds of BENCHMARK.json)";

/// Metrics as they are printed: name, unit, value.
type Values = Vec<(String, String, f64)>;

const OUT_DIR: &str = "benchmark/out";
const CONTRACT: &str = "BENCHMARK.json";

struct Args {
    selfcheck: bool,
    bin_dir: PathBuf,
    workload: Option<String>,
    seed: u64,
    graph_seed: u64,
    seconds: Option<u64>,
    traced: bool,
    sets: usize,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        selfcheck: false,
        bin_dir: PathBuf::new(),
        workload: None,
        seed: 42,
        graph_seed: DEFAULT_GRAPH_SEED,
        seconds: None,
        traced: false,
        sets: 2,
    };
    let mut at = 0;
    match raw.first().map(String::as_str) {
        Some("selfcheck") => {
            args.selfcheck = true;
            at = 1;
        }
        Some("run") => at = 1,
        _ => {}
    }
    while at < raw.len() {
        let flag = raw[at].as_str();
        if flag == "--traced" {
            args.traced = true;
            at += 1;
            continue;
        }
        let value = raw
            .get(at + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag {
            "--bin-dir" => args.bin_dir = PathBuf::from(value),
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = number()?,
            "--graph-seed" => args.graph_seed = number()?,
            "--seconds" => args.seconds = Some(number()?.max(1)),
            "--sets" => args.sets = number()?.max(2) as usize,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
        at += 2;
    }
    if args.bin_dir.as_os_str().is_empty() {
        return Err("--bin-dir is required (benchmark/run.sh passes it)".to_string());
    }
    Ok(args)
}

/// The end-to-end metrics with their bounds, and `run_seconds`, as
/// `BENCHMARK.json` fixes them.
struct Contract {
    run_seconds: u64,
    /// Workload name and why it was chosen.
    workloads: Vec<(String, String)>,
    end_to_end: Vec<(String, String, f64)>,
    per_layer: Vec<(String, String)>,
}

fn read_contract() -> Result<Contract, String> {
    let text =
        std::fs::read_to_string(CONTRACT).map_err(|e| format!("cannot read {CONTRACT}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{CONTRACT}: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{CONTRACT} lacks {key}"))
    };
    let text_of = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{CONTRACT}: metric lacks {key}"))
    };
    let mut end_to_end = Vec::new();
    for entry in list("end_to_end")? {
        let bound = entry
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric lacks bound")?;
        end_to_end.push((text_of(entry, "name")?, text_of(entry, "unit")?, bound));
    }
    let mut per_layer = Vec::new();
    for entry in list("per_layer")? {
        per_layer.push((text_of(entry, "name")?, text_of(entry, "unit")?));
    }
    let mut workloads = Vec::new();
    for entry in list("workloads")? {
        workloads.push((text_of(entry, "name")?, text_of(entry, "why")?));
    }
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .ok_or("no run_seconds")?;
    Ok(Contract {
        run_seconds,
        workloads,
        end_to_end,
        per_layer,
    })
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    // the ceiling keeps git from looking for a repository above this one
    let cwd = std::env::current_dir().unwrap_or_default();
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .env(
            "GIT_CEILING_DIRECTORIES",
            cwd.parent().unwrap_or(Path::new("/")),
        )
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or("unknown".to_string(), |hash| hash.trim().to_string());
    format!(
        "# host: nproc={nproc} kernel={} commit={commit}",
        kernel.trim()
    )
}

/// The last line of a run: one JSON object with exactly these keys.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, String, f64)],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

/// The values of one end-to-end run, in the order of `BENCHMARK.json`.
fn end_to_end_values(contract: &Contract, run: &measure::EndToEnd) -> Result<Values, String> {
    contract
        .end_to_end
        .iter()
        .map(|(name, unit, _)| {
            let value = match name.as_str() {
                "setup_s" => run.setup_s,
                "qps" => run.qps,
                "latency_p50_ms" => run.latency_p50_ms,
                "latency_p90_ms" => run.latency_p90_ms,
                "net_bytes_per_query" => run.net_bytes_per_query,
                other => {
                    return Err(format!(
                    "{CONTRACT} names an end-to-end metric this harness does not measure: {other}"
                ))
                }
            };
            Ok((name.clone(), unit.clone(), value))
        })
        .collect()
}

fn print_failures(tally: &measure::Tally) {
    for reason in &tally.reasons {
        println!("  FAILED {reason}");
    }
}

fn run_end_to_end(
    env: &Env,
    contract: &Contract,
    workload: &Workload,
    args: &Args,
    seed: u64,
    seconds: u64,
) -> Result<(bool, Values), String> {
    let inputs = Inputs::build(workload, args.graph_seed)?;
    let run = measure::run(env, workload, &inputs, seed, Duration::from_secs(seconds))?;
    let values = end_to_end_values(contract, &run)?;
    println!(
        "workload {}: {} correct replies in {:.2} s from {} closed-loop caller(s)",
        workload.name, run.n, run.wall_s, workload.concurrency
    );
    println!(
        "  times are scaled to nominal host speed; the host ran at {:.3} of it during the list, {:.3} during the cold launches",
        run.host_speed, run.setup_host_speed
    );
    for (name, unit, value) in &values {
        let note = match name.as_str() {
            "setup_s" => format!(
                "raw {:.4}; median of 5 cold launches, spawn to first correct reply",
                value / run.setup_host_speed
            ),
            "qps" => format!("raw {:.4}", value * run.host_speed),
            "latency_p50_ms" => format!("raw {:.4}; N={}", value / run.host_speed, run.n),
            "latency_p90_ms" if run.p90_has_ten_beyond => {
                format!("raw {:.4}; N={}", value / run.host_speed, run.n)
            }
            "latency_p90_ms" => format!(
                "raw {:.4}; N={}: fewer than ten samples beyond it",
                value / run.host_speed,
                run.n
            ),
            "net_bytes_per_query" if workload.concurrency > 1 => {
                "class-weighted, from the serial tail passes".to_string()
            }
            _ => String::new(),
        };
        println!("  {name:<22} {value:>14.4} {unit:<5} {note}");
    }
    println!(
        "  {:<22} {:>14.4} {:<5} {} of {} attempted",
        "error_share",
        run.tally.failed as f64 / run.tally.attempted.max(1) as f64,
        "ratio",
        run.tally.failed,
        run.tally.attempted
    );
    for class in &run.classes {
        println!(
            "  class {:<9} n={:<4} median {:>9.2} ms   {:>12.0} B/query",
            class.name, class.n, class.median_ms, class.mean_net_bytes
        );
    }
    print_failures(&run.tally);
    let correct = run.tally.failed == 0;
    println!(
        "{}",
        result_line(correct, run.tally.attempted, run.tally.failed, &values)?
    );
    Ok((correct, values))
}

fn run_traced(
    env: &Env,
    contract: &Contract,
    workload: &Workload,
    args: &Args,
    seconds: u64,
    started: Instant,
) -> Result<bool, String> {
    let trace_file = Path::new(OUT_DIR).join(format!("{}.trace.json", workload.name));
    let run = layers::run(
        env,
        workload,
        args.seed,
        args.graph_seed,
        Duration::from_secs(seconds),
        &trace_file,
        started,
    )?;
    println!(
        "workload {} (traced): {} queries replayed serially",
        workload.name, run.replayed
    );
    let mut values = Vec::new();
    for (name, unit) in &contract.per_layer {
        let (_, value) = run
            .metrics
            .iter()
            .find(|(measured, _)| measured == name)
            .ok_or_else(|| {
                format!("{CONTRACT} names a per-layer metric this harness does not measure: {name}")
            })?;
        println!("  {name:<42} {value:>16.4} {unit}");
        values.push((name.clone(), unit.clone(), *value));
    }
    println!(
        "  self time per harness span (ms), from {}:",
        trace_file.display()
    );
    for (name, ms) in run.self_ms.iter().take(12) {
        println!("    {name:<26} {ms:>10.1}");
    }
    println!(
        "  span self times sum to {:.1} ms of {:.1} ms wall clock ({:.1} %)",
        run.spans_total_ms,
        run.wall_ms,
        100.0 * run.spans_total_ms / run.wall_ms
    );
    print_failures(&run.tally);
    let correct = run.tally.failed == 0;
    println!(
        "{}",
        result_line(correct, run.tally.attempted, run.tally.failed, &values)?
    );
    Ok(correct)
}

/// Runs the end-to-end set several times and shows whether the runs agree
/// within the bounds the benchmark itself fixes.
fn selfcheck(env: &Env, contract: &Contract, args: &Args, seconds: u64) -> Result<bool, String> {
    let all = workloads();
    let mut correct = true;
    // values[workload][metric] = one value per set
    let mut values: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); contract.end_to_end.len()]; all.len()];
    for set in 0..args.sets {
        for (w, workload) in all.iter().enumerate() {
            let (ok, run) = run_end_to_end(
                env,
                contract,
                workload,
                args,
                args.seed + set as u64,
                seconds,
            )?;
            correct &= ok;
            for (m, (_, _, value)) in run.iter().enumerate() {
                values[w][m].push(*value);
            }
        }
    }
    println!(
        "selfcheck: {} sets, seeds {}..{}",
        args.sets,
        args.seed,
        args.seed + args.sets as u64 - 1
    );
    println!(
        "{:<11} {:<20} {:>9} {:>7}  values",
        "workload", "metric", "spread", "bound"
    );
    let mut within = true;
    for (w, workload) in all.iter().enumerate() {
        for (m, (name, _, bound)) in contract.end_to_end.iter().enumerate() {
            let runs = &values[w][m];
            // two sets: their difference over the first; more: the distance
            // between the quartiles over the median, as the acceptance check
            let (spread, how) = if runs.len() < 4 {
                ((runs[1] - runs[0]).abs() / runs[0], "diff/first")
            } else {
                let (q1, q2, q3) = stats::quartiles(runs);
                ((q3 - q1) / q2, "iqr/median")
            };
            let ok = spread <= *bound || name == "setup_s";
            within &= ok;
            let listed: Vec<String> = runs.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<11} {:<20} {:>8.2}% {:>6.0}%  {} [{}] {}",
                workload.name,
                name,
                spread * 100.0,
                bound * 100.0,
                if ok { "ok  " } else { "WIDE" },
                how,
                listed.join(" ")
            );
        }
    }
    println!(
        "selfcheck: {}",
        if within && correct {
            "runs agree within the bounds"
        } else {
            "runs do NOT agree within the bounds"
        }
    );
    Ok(within && correct)
}

fn real_main() -> Result<bool, String> {
    let started = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(true);
    }
    let args = parse_args(&raw).map_err(|e| format!("{e}\n{USAGE}"))?;
    let contract = read_contract()?;
    let seconds = args.seconds.unwrap_or(contract.run_seconds);

    // Before any thread exists: nothing of the calling shell's RADS_*
    // settings may reach the in-process probes or the processes spawned
    // from here, and every scratch file (the program's Unix sockets
    // included) stays under the checkout.
    let tmp_root = Path::new(OUT_DIR).join("tmp");
    std::fs::create_dir_all(&tmp_root)
        .map_err(|e| format!("cannot create {}: {e}", tmp_root.display()))?;
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RADS_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("TMPDIR", &tmp_root);
    let env = Env {
        node: args.bin_dir.join("rads-node"),
        query: args.bin_dir.join("rads-query"),
        tmp_root,
    };
    for binary in [&env.node, &env.query] {
        if !binary.is_file() {
            return Err(format!("{} is not built", binary.display()));
        }
    }

    println!("{}", host_line());
    if args.selfcheck {
        return selfcheck(&env, &contract, &args, seconds);
    }
    let selected: Vec<Workload> = match &args.workload {
        Some(name) => vec![workload_by_name(name).ok_or_else(|| {
            let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; there are {}", names.join(", "))
        })?],
        None => workloads(),
    };
    let mut correct = true;
    for workload in &selected {
        println!(
            "# {}: seed={} graph_seed={} seconds={seconds} trace={} | {} machines, {} scale {}, {} worker(s), {} in flight",
            workload.name, args.seed, args.graph_seed, u8::from(args.traced),
            workload.machines, workload.dataset, workload.scale, workload.workers, workload.concurrency
        );
        if let Some((_, why)) = contract
            .workloads
            .iter()
            .find(|(name, _)| name == workload.name)
        {
            println!("# why: {why}");
        }
        correct &= if args.traced {
            run_traced(&env, &contract, workload, &args, seconds, started)?
        } else {
            run_end_to_end(&env, &contract, workload, &args, args.seed, seconds)?.0
        };
    }
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rads-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
