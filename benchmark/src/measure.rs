//! The end-to-end run: everything a caller of the resident cluster sees,
//! measured from outside the program with tracing off.
//!
//! Phases: (1) cold launches for `setup_s`; (2) launch the measured cluster;
//! (3) serial warm-up, one query per class; (4) the measured list;
//! (5) where queries overlapped, a serial tail pass for bytes per query;
//! (6) drain and reap.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::cluster::{Client, Cluster, Env, Observed, Reply};
use crate::hostspeed::Calibrator;
use crate::probes::Inputs;
use crate::stats::{class_weighted_mean, mean, median, percentile, sorted, ten_beyond};
use crate::workload::{QueryList, Workload, MIN_MEASURED_QUERIES};

const COLD_LAUNCHES: usize = 5;
/// Serial passes over the classes after an overlapped list, to read bytes
/// per query where no other query shares the registry window.
const TAIL_PASSES: usize = 3;
/// How often the measured list stops between two blocks to sample the
/// host's speed.
const CALIBRATE_EVERY: Duration = Duration::from_secs(2);

/// One submitted query.
pub struct Sample {
    pub class: usize,
    pub latency_ms: f64,
    /// The reply, if it came and its count equals ground truth.
    pub reply: Result<Reply, String>,
}

impl Sample {
    pub fn net_bytes(&self) -> Option<f64> {
        self.reply
            .as_ref()
            .ok()
            .map(|reply| reply.scalar("rads_net_bytes_total"))
    }
}

/// Submits one query of `class` and checks the count against ground truth.
pub fn submit(client: &Client, workload: &Workload, inputs: &Inputs, class: usize) -> Sample {
    let Observed { latency, reply } = client.query(workload.classes[class].0);
    let reply = reply.and_then(|reply| {
        if reply.count == inputs.truth[class] {
            Ok(reply)
        } else {
            Err(format!(
                "count {} differs from ground truth {}",
                reply.count, inputs.truth[class]
            ))
        }
    });
    Sample {
        class,
        latency_ms: latency.as_secs_f64() * 1e3,
        reply,
    }
}

/// Counts what was attempted and what failed, and keeps the first few
/// reasons for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, workload: &Workload, sample: &Sample) {
        self.attempted += 1;
        if let Err(reason) = &sample.reply {
            self.fail(format!("{}: {reason}", workload.classes[sample.class].0));
        }
    }

    /// An operation that is not a query (a launch, a drain) went wrong.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }
}

/// One serial pass: every class once, in class order.
pub fn serial_pass(client: &Client, workload: &Workload, inputs: &Inputs) -> Vec<Sample> {
    (0..workload.classes.len())
        .map(|class| submit(client, workload, inputs, class))
        .collect()
}

struct Feeder {
    list: QueryList,
    block: std::vec::IntoIter<usize>,
    issued: usize,
    in_flight: usize,
    last_calibration: Option<Instant>,
    speeds: Vec<f64>,
    calibrating: Duration,
}

/// What the measured list produced.
struct Measured {
    samples: Vec<Sample>,
    /// Wall time of the list without the calibration passes.
    wall: Duration,
    /// Host speed, sampled between blocks.
    speeds: Vec<f64>,
}

/// Runs the measured list: `workload.concurrency` closed-loop callers pull
/// from one seeded list, whole blocks at a time, until `seconds` have
/// passed and the list is long enough for its percentiles (or half as long
/// again has passed: a slow host must not stretch the run without limit).
///
/// Between blocks, every `CALIBRATE_EVERY`, the caller that finds the block
/// empty waits until no query is in flight and samples the host's speed on
/// the then idle machine.
fn measured_list(
    cluster: &Cluster,
    workload: &Workload,
    inputs: &Inputs,
    calibrator: &Calibrator,
    seed: u64,
    seconds: Duration,
) -> Measured {
    let feeder = Mutex::new(Feeder {
        list: QueryList::new(workload, seed),
        block: Vec::new().into_iter(),
        issued: 0,
        in_flight: 0,
        last_calibration: None,
        speeds: Vec::new(),
        calibrating: Duration::ZERO,
    });
    let idle = Condvar::new();
    let clients: Vec<Client> = (0..workload.concurrency)
        .map(|_| cluster.client())
        .collect();
    let start = Instant::now();
    let next = |finished_one: bool| -> Option<usize> {
        let mut feeder = feeder
            .lock()
            .expect("no caller panics while holding the feeder");
        if finished_one {
            feeder.in_flight -= 1;
            idle.notify_all();
        }
        while feeder.block.len() == 0 {
            let elapsed = start.elapsed();
            let long_enough =
                feeder.issued >= MIN_MEASURED_QUERIES || elapsed >= seconds.mul_f64(1.5);
            if elapsed >= seconds && long_enough {
                return None;
            }
            if feeder
                .last_calibration
                .is_none_or(|at| at.elapsed() >= CALIBRATE_EVERY)
            {
                if feeder.in_flight > 0 {
                    feeder = idle
                        .wait(feeder)
                        .expect("no caller panics while holding the feeder");
                    continue;
                }
                let began = Instant::now();
                let speed = calibrator.speed();
                feeder.speeds.push(speed);
                feeder.calibrating += began.elapsed();
                feeder.last_calibration = Some(Instant::now());
            }
            feeder.block = feeder.list.next_block().into_iter();
        }
        feeder.issued += 1;
        feeder.in_flight += 1;
        feeder.block.next()
    };
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let callers: Vec<_> = clients
            .iter()
            .map(|client| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    let mut class = next(false);
                    while let Some(this) = class {
                        mine.push(submit(client, workload, inputs, this));
                        class = next(true);
                    }
                    mine
                })
            })
            .collect();
        for caller in callers {
            samples.extend(caller.join().expect("a caller thread panicked"));
        }
    });
    let wall = start.elapsed();
    let feeder = feeder.into_inner().expect("every caller has returned");
    let mut speeds = feeder.speeds;
    speeds.push(calibrator.speed());
    Measured {
        samples,
        wall: wall - feeder.calibrating,
        speeds,
    }
}

/// Median client latency and mean bytes of one class.
pub struct ClassRow {
    pub name: &'static str,
    pub n: usize,
    pub median_ms: f64,
    pub mean_net_bytes: f64,
}

/// Every time in here is scaled to nominal host speed (see `hostspeed`):
/// multiply by the speed it was taken at; divide to get the raw reading.
pub struct EndToEnd {
    pub tally: Tally,
    /// Host speed around the cold launches and around the measured list.
    pub setup_host_speed: f64,
    pub host_speed: f64,
    pub setup_s: f64,
    pub qps: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub net_bytes_per_query: f64,
    /// Correct replies of the measured list, and its wall time.
    pub n: usize,
    pub wall_s: f64,
    pub p90_has_ten_beyond: bool,
    pub classes: Vec<ClassRow>,
}

/// Spawn of `rads-node serve` to the first correct reply to the list's
/// first class, on a cluster that is then drained.
fn cold_launch(env: &Env, workload: &Workload, inputs: &Inputs, tally: &mut Tally) -> Option<f64> {
    let start = Instant::now();
    let cluster = match Cluster::launch(env, workload, inputs.graph_seed) {
        Ok(cluster) => cluster,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(format!("cold launch: {e}"));
            return None;
        }
    };
    let first = submit(&cluster.client(), workload, inputs, 0);
    let seconds = start.elapsed().as_secs_f64();
    tally.record(workload, &first);
    if let Err(e) = cluster.shutdown() {
        tally.fail(format!("cold launch drain: {e}"));
    }
    first.reply.is_ok().then_some(seconds)
}

pub fn run(
    env: &Env,
    workload: &Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: Duration,
) -> Result<EndToEnd, String> {
    let mut tally = Tally::default();
    let calibrator = Calibrator::new();
    let mut setup_speeds = vec![calibrator.speed()];
    let mut cold = Vec::new();
    for _ in 0..COLD_LAUNCHES {
        cold.extend(cold_launch(env, workload, inputs, &mut tally));
        setup_speeds.push(calibrator.speed());
    }
    if cold.is_empty() {
        return Err(format!("no cold launch answered: {:?}", tally.reasons));
    }
    let setup_host_speed = median(&setup_speeds);

    let cluster = Cluster::launch(env, workload, inputs.graph_seed)?;
    let serial_client = cluster.client();
    for sample in serial_pass(&serial_client, workload, inputs) {
        tally.record(workload, &sample);
    }
    let Measured {
        samples,
        wall,
        speeds,
    } = measured_list(&cluster, workload, inputs, &calibrator, seed, seconds);
    let speed = median(&speeds);
    // Under overlap a reply's registry delta also holds the other query's
    // traffic, so bytes per query are read from serial passes instead.
    let overlapped = workload.concurrency > 1;
    let tail: Vec<Sample> = if overlapped {
        (0..TAIL_PASSES)
            .flat_map(|_| serial_pass(&serial_client, workload, inputs))
            .collect()
    } else {
        Vec::new()
    };
    if let Err(e) = cluster.shutdown() {
        tally.fail(format!("drain: {e}"));
    }
    for sample in samples.iter().chain(&tail) {
        tally.record(workload, sample);
    }

    let correct: Vec<&Sample> = samples.iter().filter(|s| s.reply.is_ok()).collect();
    if correct.is_empty() {
        return Err(format!(
            "no query of the measured list was answered: {:?}",
            tally.reasons
        ));
    }
    let latencies = sorted(correct.iter().map(|s| s.latency_ms * speed).collect());
    let bytes_samples: Vec<&Sample> = if overlapped {
        tail.iter().collect()
    } else {
        correct.clone()
    };
    let of_class = |class: usize, from: &[&Sample], value: &dyn Fn(&Sample) -> Option<f64>| {
        from.iter()
            .filter(|s| s.class == class)
            .filter_map(|s| value(s))
            .collect::<Vec<f64>>()
    };
    let mut classes = Vec::new();
    let mut weighted_bytes = Vec::new();
    for (class, (name, weight)) in workload.classes.iter().enumerate() {
        let latency = of_class(class, &correct, &|s| Some(s.latency_ms * speed));
        let bytes = of_class(class, &bytes_samples, &Sample::net_bytes);
        classes.push(ClassRow {
            name,
            n: latency.len(),
            median_ms: if latency.is_empty() {
                0.0
            } else {
                median(&latency)
            },
            mean_net_bytes: mean(&bytes),
        });
        weighted_bytes.push((*weight, bytes));
    }

    Ok(EndToEnd {
        setup_host_speed,
        host_speed: speed,
        setup_s: median(&cold) * setup_host_speed,
        qps: correct.len() as f64 / (wall.as_secs_f64() * speed),
        latency_p50_ms: percentile(&latencies, 50.0),
        latency_p90_ms: percentile(&latencies, 90.0),
        net_bytes_per_query: class_weighted_mean(&weighted_bytes),
        n: correct.len(),
        wall_s: wall.as_secs_f64(),
        p90_has_ten_beyond: ten_beyond(latencies.len(), 90.0),
        classes,
        tally,
    })
}
