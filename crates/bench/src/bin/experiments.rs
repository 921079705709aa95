//! Regenerates every table and figure of the paper's evaluation on the
//! synthetic dataset suite.
//!
//! ```text
//! experiments [EXPERIMENT..] [--scale S] [--machines N] [--seed K] [--out FILE]
//!             [--reps R] [--budget BYTES]
//! experiments validate [--out FILE] [--trace FILE] [--metrics FILE]
//!
//! EXPERIMENT: all | table1 | table2 | fig8 | fig9 | fig10 | fig11 | fig12
//!           | fig13 | table3 | table4 | fig15 | robustness | ablation
//!           | intersect | sockets | observe
//! ```
//!
//! `validate` is the schema gate: it parses the committed
//! `BENCH_results.json` (or `--out FILE`) and exits nonzero if the file is
//! missing, malformed, empty, or any row lacks a required field — so
//! experiment-format drift is caught at PR time, not when a later analysis
//! breaks. With `--trace FILE` and/or `--metrics FILE` it instead validates
//! observability artifacts written by `rads-node --trace-out` /
//! `--metrics-out` (`validate_trace_json` checks every span closed, parent
//! ids resolving and parent-before-child timestamps;
//! `validate_metrics_json` checks metric types and histogram-bucket
//! consistency). `observe` measures the overhead of enabling tracing +
//! metrics on identical runs, asserting bit-identical embedding counts.
//! `sockets` runs the same queries over the in-process transport
//! and over a real 4-process Unix-domain-socket cluster (spawning the
//! `rads-node` binary built next to this one), asserts count equality and
//! records simulated-model bytes vs real framed wire bytes side by side.
//!
//! `--reps` controls how many timed repetitions the `intersect` experiment
//! averages per kernel (default 3; CI smoke runs use 1 with a small
//! `--scale`). `--budget` overrides the governor budget `Φ` of the
//! `robustness` experiment (accepts `65536`, `64k`, `4m`, …; every RADS run
//! additionally honours the `RADS_MEMORY_BUDGET` environment variable via
//! `RadsConfig::default`). The robustness rows are self-verifying — the run
//! aborts unless the workload defeats the static estimate by ≥ 10x *and*
//! the governor holds the peak under `Φ` — so an overridden `Φ` must stay
//! between roughly twice the largest single-candidate footprint (≈ 16 KiB)
//! and a tenth of the unguarded peak (≈ 100 KiB at the default scales).
//!
//! The defaults (`--scale 0.12 --machines 4`) keep a full `all` run within a
//! few minutes on a laptop. Larger scales sharpen the separation between the
//! systems but the qualitative shape is already visible at the default.
//!
//! Measurement-shaped experiments (`fig8`–`fig10`, `fig15`, `robustness`,
//! `intersect`, `sockets`, `observe`) additionally emit machine-readable
//! rows; when any were produced, the whole `BENCH_results.json`
//! (overridable with `--out`) is rewritten with exactly this invocation's
//! rows — run the experiments you want recorded together in one invocation.

use std::time::Duration;

use rads_bench::{
    ablations, clique_queries_figure, compression_table, governor_robustness, intersect_speedup,
    observe_overhead, performance_figure, plan_effectiveness_figure, robustness_experiment,
    scalability_figure, table1, table2, write_results_json, BenchRecord, System,
};
use rads_datasets::{DatasetKind, Scale};

const KNOWN_EXPERIMENTS: &[&str] = &[
    "all", "table1", "table2", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "table3",
    "table4", "fig15", "robustness", "ablation", "intersect", "sockets", "observe", "validate",
];

struct Options {
    experiments: Vec<String>,
    scale: Scale,
    machines: usize,
    seed: u64,
    out: std::path::PathBuf,
    reps: u32,
    budget: usize,
    trace: Option<std::path::PathBuf>,
    metrics: Option<std::path::PathBuf>,
}

/// Exits with an error message on stderr (malformed command lines must not
/// silently fall back to defaults).
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: experiments [EXPERIMENT..] [--scale S] [--machines N] [--seed K] [--out FILE] [--reps R] [--budget BYTES]"
    );
    std::process::exit(2);
}

/// Parses the value of `flag`, exiting with an error when it is missing or
/// malformed.
fn parse_flag_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> T {
    let Some(raw) = args.next() else {
        usage_error(&format!("{flag} requires a value"));
    };
    match raw.parse() {
        Ok(v) => v,
        Err(_) => usage_error(&format!("invalid value {raw:?} for {flag}")),
    }
}

fn parse_args() -> Options {
    let mut experiments = Vec::new();
    let mut scale = 0.12f64;
    let mut machines = 4usize;
    let mut seed = 42u64;
    let mut out = std::path::PathBuf::from("BENCH_results.json");
    let mut reps = 3u32;
    let mut budget = GOVERNOR_BUDGET;
    let mut trace = None;
    let mut metrics = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace = Some(parse_flag_value(&mut args, "--trace")),
            "--metrics" => metrics = Some(parse_flag_value(&mut args, "--metrics")),
            "--scale" => scale = parse_flag_value(&mut args, "--scale"),
            "--machines" => machines = parse_flag_value(&mut args, "--machines"),
            "--seed" => seed = parse_flag_value(&mut args, "--seed"),
            "--out" => out = parse_flag_value(&mut args, "--out"),
            "--reps" => reps = parse_flag_value(&mut args, "--reps"),
            "--budget" => {
                let raw: String = parse_flag_value(&mut args, "--budget");
                match rads_core::memory::parse_bytes(&raw) {
                    Some(bytes) => budget = bytes,
                    None => usage_error(&format!("invalid byte size {raw:?} for --budget")),
                }
            }
            "--help" | "-h" => {
                println!("usage: experiments [EXPERIMENT..] [--scale S] [--machines N] [--seed K] [--out FILE] [--reps R] [--budget BYTES]");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                usage_error(&format!("unknown flag {other:?}"));
            }
            other if KNOWN_EXPERIMENTS.contains(&other) => experiments.push(other.to_string()),
            other => usage_error(&format!(
                "unknown experiment {other:?} (known: {})",
                KNOWN_EXPERIMENTS.join(", ")
            )),
        }
    }
    if !scale.is_finite() || scale <= 0.0 {
        usage_error(&format!("--scale must be positive, got {scale}"));
    }
    if machines == 0 {
        usage_error("--machines must be at least 1");
    }
    if reps == 0 {
        usage_error("--reps must be at least 1");
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    Options { experiments, scale: Scale(scale), machines, seed, out, reps, budget, trace, metrics }
}

const STANDARD_QUERIES: [&str; 8] = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"];
const PLAN_QUERIES: [&str; 5] = ["q4", "q5", "q6", "q7", "q8"];

/// `Φ` of the governor robustness experiment: small enough that the hub-pod
/// aggregate (≈ 0.8 MiB unguarded) overflows it by ≥ 10x, large enough that a
/// single pod candidate's subtree (≈ 7 KiB) stays within the governor's
/// `Φ/2` single-unit contract with ample margin.
const GOVERNOR_BUDGET: usize = 64 * 1024;

/// The `validate` subcommand. Default target: the committed results file
/// (`--out`), failing on schema drift. With `--trace` / `--metrics` it
/// validates those observability artifacts instead.
fn run_validate(opts: &Options) -> ! {
    let read = |path: &std::path::Path| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {}: {e}", path.display());
            std::process::exit(1);
        })
    };
    let report = |path: &std::path::Path, what: &str, outcome: Result<usize, String>| {
        match outcome {
            Ok(n) => println!("{}: {n} {what}, schema OK", path.display()),
            Err(e) => {
                eprintln!("error: {} failed schema validation: {e}", path.display());
                std::process::exit(1);
            }
        }
    };
    if opts.trace.is_none() && opts.metrics.is_none() {
        report(&opts.out, "result rows", rads_bench::validate_results_json(&read(&opts.out)));
        std::process::exit(0);
    }
    if let Some(path) = &opts.trace {
        report(path, "spans", rads_bench::validate_trace_json(&read(path)));
    }
    if let Some(path) = &opts.metrics {
        report(path, "metrics", rads_bench::validate_metrics_json(&read(path)));
    }
    std::process::exit(0);
}

fn main() {
    let opts = parse_args();
    if opts.experiments.iter().any(|e| e == "validate") {
        if opts.experiments.len() > 1 {
            usage_error("validate cannot be combined with experiments");
        }
        run_validate(&opts);
    }
    let want = |name: &str| {
        opts.experiments.iter().any(|e| e == name || e == "all")
    };
    let mut records: Vec<BenchRecord> = Vec::new();

    if want("table1") {
        println!("== Table 1: dataset profiles (scale {:.2}) ==", opts.scale.0);
        println!("dataset\t|V|\t|E|\tavg degree\tdiameter");
        for p in table1(opts.scale, opts.seed) {
            println!(
                "{}\t{}\t{}\t{:.2}\t{}",
                p.name, p.vertices, p.edges, p.average_degree, p.diameter
            );
        }
        println!();
    }

    if want("table2") {
        println!("== Table 2: data graph size vs Crystal clique-index size ==");
        println!("dataset\tgraph bytes\tindex bytes\tratio");
        for (name, graph_bytes, index_bytes) in table2(opts.scale, opts.seed) {
            println!(
                "{}\t{}\t{}\t{:.2}x",
                name,
                graph_bytes,
                index_bytes,
                index_bytes as f64 / graph_bytes.max(1) as f64
            );
        }
        println!();
    }

    let perf = |tag: &str, fig: &str, kind: DatasetKind, records: &mut Vec<BenchRecord>| {
        println!(
            "== {fig}: performance on {} ({} machines, scale {:.2}) ==",
            kind.name(),
            opts.machines,
            opts.scale.0
        );
        println!("dataset\tquery\tsystem\tmachines\tembeddings\ttime\tcomm\tpeak-intermediate");
        let rows = performance_figure(
            kind,
            opts.scale,
            opts.machines,
            opts.seed,
            &System::all(),
            &STANDARD_QUERIES,
        );
        for row in rows {
            println!("{}", row.render());
            records.push(BenchRecord::from_measurement(tag, &row));
        }
        println!();
    };
    if want("fig8") {
        perf("fig8", "Figure 8", DatasetKind::RoadNet, &mut records);
    }
    if want("fig9") {
        perf("fig9", "Figure 9", DatasetKind::Dblp, &mut records);
    }
    if want("fig10") {
        perf("fig10", "Figure 10", DatasetKind::LiveJournal, &mut records);
    }
    if want("fig11") {
        perf("fig11", "Figure 11", DatasetKind::Uk2002, &mut records);
    }

    if want("fig12") {
        println!("== Figure 12: scalability ratio (baseline 5 machines) ==");
        println!("dataset\tsystem\tmachines\tspeedup-vs-5");
        for kind in [DatasetKind::RoadNet, DatasetKind::Dblp, DatasetKind::LiveJournal, DatasetKind::Uk2002] {
            // the paper omits the failing systems on the two large datasets
            let systems: Vec<System> = if matches!(kind, DatasetKind::LiveJournal | DatasetKind::Uk2002) {
                vec![System::Crystal, System::Rads]
            } else {
                System::all().to_vec()
            };
            let rows = scalability_figure(
                kind,
                opts.scale,
                &[5, 10, 15],
                opts.seed,
                &systems,
                &["q1", "q2", "q4"],
            );
            for (system, machines, ratio) in rows {
                println!("{}\t{}\t{}\t{:.2}", kind.name(), system, machines, ratio);
            }
        }
        println!();
    }

    if want("fig13") {
        println!("== Figure 13: execution-plan effectiveness (RanS / RanM / RADS) ==");
        println!("dataset\tquery\tplanner\ttime(ms)");
        for kind in [DatasetKind::RoadNet, DatasetKind::Dblp, DatasetKind::LiveJournal, DatasetKind::Uk2002] {
            for (query, planner, ms) in plan_effectiveness_figure(
                kind,
                opts.scale,
                opts.machines,
                opts.seed,
                &PLAN_QUERIES,
                3,
            ) {
                println!("{}\t{}\t{}\t{:.1}", kind.name(), query, planner, ms);
            }
        }
        println!();
    }

    if want("table3") {
        println!("== Table 3: intermediate-result compression on RoadNet ==");
        println!("query\tEL bytes\tET bytes\tratio");
        for (query, el, et) in compression_table(
            DatasetKind::RoadNet,
            opts.scale,
            opts.machines,
            opts.seed,
            &["q1", "q2", "q3", "q4", "q5", "q6"],
        ) {
            println!("{}\t{}\t{}\t{:.2}x", query, el, et, el as f64 / et.max(1) as f64);
        }
        println!();
    }

    if want("table4") {
        println!("== Table 4: intermediate-result compression on DBLP ==");
        println!("query\tEL bytes\tET bytes\tratio");
        for (query, el, et) in compression_table(
            DatasetKind::Dblp,
            opts.scale,
            opts.machines,
            opts.seed,
            &STANDARD_QUERIES,
        ) {
            println!("{}\t{}\t{}\t{:.2}x", query, el, et, el as f64 / et.max(1) as f64);
        }
        println!();
    }

    if want("fig15") {
        println!("== Figure 15: clique-heavy queries (SEED / Crystal / RADS) ==");
        println!("dataset\tquery\tsystem\tmachines\tembeddings\ttime\tcomm\tpeak-intermediate");
        for kind in [DatasetKind::RoadNet, DatasetKind::Dblp, DatasetKind::LiveJournal, DatasetKind::Uk2002] {
            for row in clique_queries_figure(kind, opts.scale, opts.machines, opts.seed) {
                println!("{}", row.render());
                records.push(BenchRecord::from_measurement("fig15", &row));
            }
        }
        println!();
    }

    if want("robustness") {
        println!("== Robustness (Exp-4 style): peak per-machine intermediate state under a memory cap ==");
        let cap = 256 * 1024; // scaled-down stand-in for the paper's 8 GB cap
        println!("dataset\tsystem\tpeak bytes\twithin {cap} B cap");
        // LiveJournal only: the join-based baselines need many minutes for
        // q6 on the denser UK2002 stand-in even at smoke scales — exactly
        // the blow-up this experiment demonstrates, but not worth the wait.
        for kind in [DatasetKind::LiveJournal] {
            for (system, peak, ok) in
                robustness_experiment(kind, opts.scale, opts.machines, opts.seed, "q6", cap)
            {
                println!("{}\t{}\t{}\t{}", kind.name(), system, peak, if ok { "yes" } else { "NO" });
            }
        }
        println!();

        println!("== Robustness: runtime memory governor on the adversarial hub workload (q2, Φ = {} B) ==", opts.budget);
        println!("dataset\tsystem\tworkers\tembeddings\tpeak bytes\tΦ bytes\tpeak/Φ");
        // `governor_robustness` asserts internally: counts equal ground
        // truth everywhere, peak ≤ Φ with the governor, peak ≥ 10 Φ without
        // (the workload defeats the static estimate by an order of
        // magnitude).
        let rows = governor_robustness(opts.scale, opts.seed, opts.budget, &[1, 4]);
        for r in &rows {
            println!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{:.2}x",
                r.dataset,
                r.system,
                r.workers,
                r.embeddings,
                r.peak_tracked_bytes,
                r.budget_bytes,
                r.peak_tracked_bytes as f64 / r.budget_bytes.max(1) as f64,
            );
        }
        records.extend(rows);
        println!();
    }

    if want("ablation") {
        println!("== Ablations: RADS design choices (query q4) ==");
        println!("dataset\tvariant\ttime(ms)\tcomm(MB)");
        for kind in [DatasetKind::Dblp, DatasetKind::LiveJournal] {
            for (label, ms, mb) in ablations(kind, opts.scale, opts.machines, opts.seed, "q4") {
                println!("{}\t{}\t{:.1}\t{:.4}", kind.name(), label, ms, mb);
            }
        }
        println!();
    }

    if want("intersect") {
        println!(
            "== Intersect: candidate-generation kernels on LiveJournal (single thread, scale {:.2}, {} reps) ==",
            opts.scale.0, opts.reps
        );
        println!("dataset\tquery\tkernel\tembeddings\ttime(ms)\temb/s\tspeedup-vs-probe");
        let rows = intersect_speedup(
            DatasetKind::LiveJournal,
            opts.scale,
            opts.machines,
            opts.seed,
            &["q5", "q8", "c1", "c2", "c3", "c4"],
            &[1, 2, 4, 8],
            opts.reps,
        );
        // intersect_speedup emits a (probe, intersect) pair per query
        for pair in rows.chunks(2) {
            let probe_ms = pair[0].elapsed_ms;
            assert_eq!(pair[0].system, "probe-kernel");
            for r in pair {
                println!(
                    "{}\t{}\t{}\t{}\t{:.1}\t{:.0}\t{:.2}x",
                    r.dataset,
                    r.query,
                    r.system,
                    r.embeddings,
                    r.elapsed_ms,
                    r.embeddings_per_sec,
                    probe_ms / r.elapsed_ms.max(1e-6),
                );
            }
        }
        records.extend(rows);
        println!();
    }

    if want("sockets") {
        let explicit = opts.experiments.iter().any(|e| e == "sockets");
        match rads_serve::procs::sibling_node_binary() {
            Ok(node_binary) => {
                println!(
                    "== Sockets: real {}-process UDS cluster vs the simulated transport (scale {:.2}) ==",
                    opts.machines, opts.scale.0
                );
                println!("dataset\tquery\tsystem\tembeddings\ttime(ms)\tbytes shipped");
                // asserts internally that the multi-process cluster's counts
                // equal the in-process transport's on every query
                let rows = rads_bench::socket_vs_simulated(
                    DatasetKind::LiveJournal,
                    opts.scale,
                    opts.machines,
                    opts.seed,
                    &["q1", "q5"],
                    &node_binary,
                    Duration::from_secs(300),
                )
                .unwrap_or_else(|e| {
                    eprintln!("error: sockets experiment failed: {e}");
                    std::process::exit(1);
                });
                for pair in rows.chunks(2) {
                    assert_eq!(pair[0].system, "RADS-sim");
                    for r in pair {
                        println!(
                            "{}\t{}\t{}\t{}\t{:.1}\t{}",
                            r.dataset, r.query, r.system, r.embeddings, r.elapsed_ms,
                            r.bytes_shipped,
                        );
                    }
                }
                records.extend(rows);
                println!();
            }
            // `all` runs stay usable without a pre-built rads-node; asking
            // for the experiment by name makes the missing binary an error
            Err(e) if explicit => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            Err(e) => println!("skipping sockets experiment: {e}\n"),
        }
    }

    if want("observe") {
        println!(
            "== Observe: observability overhead on LiveJournal ({} machines, scale {:.2}, {} reps) ==",
            opts.machines, opts.scale.0, opts.reps
        );
        println!("dataset\tquery\tsystem\tembeddings\ttime(ms)\toverhead-vs-off");
        // asserts internally that enabling tracing + metrics changes no
        // embedding count; the timings are a coarse minimum of `--reps` runs
        let rows = observe_overhead(
            DatasetKind::LiveJournal,
            opts.scale,
            opts.machines,
            opts.seed,
            &["q5", "q8"],
            opts.reps,
        );
        for pair in rows.chunks(2) {
            let off_ms = pair[0].elapsed_ms;
            assert_eq!(pair[0].system, "RADS-obs-off");
            for r in pair {
                println!(
                    "{}\t{}\t{}\t{}\t{:.1}\t{:+.2}%",
                    r.dataset,
                    r.query,
                    r.system,
                    r.embeddings,
                    r.elapsed_ms,
                    (r.elapsed_ms / off_ms.max(1e-6) - 1.0) * 100.0,
                );
            }
        }
        records.extend(rows);
        println!();
    }

    if !records.is_empty() {
        match write_results_json(&opts.out, &records) {
            Ok(()) => println!("wrote {} result rows to {}", records.len(), opts.out.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", opts.out.display());
                std::process::exit(1);
            }
        }
    }
}
