//! The program under test, driven through its process and CLI contract
//! only: `rads-node serve` is spawned and reaped here, queries go through
//! one `rads-query` process each. Nothing in this file links against the
//! serving code, so the end-to-end numbers survive crate moves.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::workload::Workload;

/// A query that has not answered after this long is killed and counted as
/// failed.
pub const QUERY_TIMEOUT: Duration = Duration::from_secs(60);
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(60);
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(10);

/// Where the built binaries are and where clusters may put their files.
#[derive(Debug, Clone)]
pub struct Env {
    pub node: PathBuf,
    pub query: PathBuf,
    /// Parent of the per-cluster private temp dirs. Kept relative to the
    /// working directory so Unix socket paths under it stay short however
    /// deep the checkout lies.
    pub tmp_root: PathBuf,
}

/// A child command. `main` removes every `RADS_*` variable from this
/// process before anything is spawned, so children inherit none either.
fn command(program: &Path) -> Command {
    let mut command = Command::new(program);
    command.stdin(Stdio::null());
    command
}

fn kill(target: &str) {
    // `kill` is run as a command because the harness links no libc crate
    let _ = Command::new("kill")
        .args(["-KILL", "--", target])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

enum Watch {
    Arm(String, Duration),
    Disarm,
}

/// Kills a process (or, with a `-pgid` target, a process group) that
/// outlives its deadline, so a hung child fails the query instead of
/// hanging the run. One armed target at a time.
pub struct Watchdog {
    tx: Option<Sender<Watch>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn new() -> Watchdog {
        let (tx, rx) = mpsc::channel::<Watch>();
        let thread = std::thread::spawn(move || {
            while let Ok(message) = rx.recv() {
                let Watch::Arm(target, timeout) = message else {
                    continue;
                };
                match rx.recv_timeout(timeout) {
                    Ok(_) => {}
                    Err(RecvTimeoutError::Timeout) => kill(&target),
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        });
        Watchdog {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    fn send(&self, message: Watch) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(message);
        }
    }

    fn arm(&self, target: String, timeout: Duration) {
        self.send(Watch::Arm(target, timeout));
    }

    fn disarm(&self) {
        self.send(Watch::Disarm);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The server's ready line: `{"serving":true,"client_addr":"H:P",...}`.
pub fn parse_ready_line(line: &str) -> Result<String, String> {
    let ready =
        Json::parse(line.trim()).map_err(|e| format!("ready line is not JSON ({e}): {line:?}"))?;
    if ready.get("serving").and_then(Json::as_bool) != Some(true) {
        return Err(format!("ready line does not say serving: {line:?}"));
    }
    ready
        .get("client_addr")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("ready line has no client_addr: {line:?}"))
}

/// One answered query, as `rads-query --json` printed it.
#[derive(Debug, Clone)]
pub struct Reply {
    pub count: u64,
    pub elapsed_us: u64,
    pub plan_cache_hit: bool,
    /// This query's delta of the cluster-wide metrics registry.
    pub metrics: Json,
}

impl Reply {
    /// A counter or gauge of the reply's registry delta (0 when absent:
    /// the registry only lists metrics that were ever touched).
    pub fn scalar(&self, name: &str) -> f64 {
        self.metrics
            .at(&[name, "value"])
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// The sum of a histogram of the reply's registry delta.
    pub fn histogram_sum(&self, name: &str) -> f64 {
        self.metrics
            .at(&[name, "sum"])
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }
}

pub fn parse_reply(stdout: &str) -> Result<Reply, String> {
    let line = stdout.lines().last().ok_or("no reply on stdout")?;
    let reply = Json::parse(line).map_err(|e| format!("reply is not JSON ({e})"))?;
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        let kind = if reply.get("rejected").is_some() {
            "rejected by admission"
        } else {
            "not ok"
        };
        return Err(format!("query {kind}: {line}"));
    }
    let field = |name: &str| {
        reply
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("reply has no {name}"))
    };
    Ok(Reply {
        count: field("count")?,
        elapsed_us: field("elapsed_us")?,
        plan_cache_hit: reply
            .get("plan_cache_hit")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        metrics: reply
            .at(&["metrics", "metrics"])
            .cloned()
            .unwrap_or(Json::Null),
    })
}

/// One closed-loop caller: submits a query, waits for the reply.
pub struct Client {
    query_binary: PathBuf,
    addr: String,
    watchdog: Watchdog,
}

/// What a caller saw of one query: how long it waited, and the reply or
/// why there is none.
pub struct Observed {
    pub latency: Duration,
    pub reply: Result<Reply, String>,
}

impl Client {
    pub fn new(env: &Env, addr: &str) -> Client {
        Client {
            query_binary: env.query.clone(),
            addr: addr.to_string(),
            watchdog: Watchdog::new(),
        }
    }

    fn run(&self, args: &[&str]) -> (Duration, Result<String, String>) {
        let start = Instant::now();
        let spawned = command(&self.query_binary)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn();
        let child = match spawned {
            Ok(child) => child,
            Err(e) => {
                return (
                    start.elapsed(),
                    Err(format!("cannot spawn rads-query: {e}")),
                )
            }
        };
        self.watchdog.arm(child.id().to_string(), QUERY_TIMEOUT);
        let output = child.wait_with_output();
        let latency = start.elapsed();
        self.watchdog.disarm();
        let outcome = match output {
            Ok(output) if output.status.success() => {
                String::from_utf8(output.stdout).map_err(|_| "reply is not UTF-8".to_string())
            }
            Ok(output) => Err(format!(
                "rads-query exited with {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            )),
            Err(e) => Err(format!("cannot wait for rads-query: {e}")),
        };
        (latency, outcome)
    }

    /// Submits one query and times spawn to exit of the client process.
    pub fn query(&self, pattern: &str) -> Observed {
        let (latency, outcome) = self.run(&["--addr", &self.addr, "--query", pattern, "--json"]);
        Observed {
            latency,
            reply: outcome.and_then(|stdout| parse_reply(&stdout)),
        }
    }

    /// Spawn and exit of the client binary with no server work: the load
    /// generator's own cost inside every client-observed latency.
    pub fn spawn_only(&self) -> Duration {
        self.run(&["--help"]).0
    }

    fn shutdown(&self) -> Result<(), String> {
        self.run(&["--addr", &self.addr, "--shutdown"])
            .1
            .map(|_| ())
    }
}

static CLUSTER_SEQ: AtomicU64 = AtomicU64::new(0);

/// A resident `rads-node serve` cluster in its own process group and its
/// own temp dir. Dropping it reaps every process and removes the dir,
/// whether the run succeeded, failed or panicked.
pub struct Cluster {
    coordinator: Child,
    /// Held open so the server never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    tmp: PathBuf,
    env: Env,
}

impl Cluster {
    pub fn launch(env: &Env, workload: &Workload, graph_seed: u64) -> Result<Cluster, String> {
        let tmp = env.tmp_root.join(format!(
            "c{}-{}",
            std::process::id(),
            CLUSTER_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&tmp)
            .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        let mut coordinator = command(&env.node)
            .arg("serve")
            .args(["--machines", &workload.machines.to_string()])
            .args(["--dataset", workload.dataset])
            .args(["--scale", &workload.scale.to_string()])
            .args(["--seed", &graph_seed.to_string()])
            .args(["--workers", &workload.workers.to_string()])
            .args([
                "--max-concurrent-queries",
                &workload.concurrency.to_string(),
            ])
            .args(["--transport", "uds", "--driver", "async"])
            .env("TMPDIR", &tmp)
            .stdout(Stdio::piped())
            // own group: the workers the coordinator spawns can be killed
            // with it even when the coordinator itself is already gone
            .process_group(0)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", env.node.display()))?;
        let stdout = BufReader::new(coordinator.stdout.take().expect("stdout is piped"));
        let mut cluster = Cluster {
            coordinator,
            stdout,
            addr: String::new(),
            tmp,
            env: env.clone(),
        };

        let watchdog = Watchdog::new();
        watchdog.arm(cluster.group(), LAUNCH_TIMEOUT);
        let mut line = String::new();
        let read = cluster.stdout.read_line(&mut line);
        watchdog.disarm();
        match read {
            Ok(n) if n > 0 => cluster.addr = parse_ready_line(&line)?,
            Ok(_) => return Err("rads-node serve exited before its ready line".to_string()),
            Err(e) => return Err(format!("cannot read the ready line: {e}")),
        }
        Ok(cluster)
    }

    fn group(&self) -> String {
        format!("-{}", self.coordinator.id())
    }

    pub fn client(&self) -> Client {
        Client::new(&self.env, &self.addr)
    }

    /// Coordinator and worker process ids (the workers are the
    /// coordinator's children).
    pub fn pids(&self) -> Vec<u32> {
        let coordinator = self.coordinator.id();
        let mut pids = vec![coordinator];
        let Ok(entries) = std::fs::read_dir("/proc") else {
            return pids;
        };
        for entry in entries.flatten() {
            let Some(pid) = entry
                .file_name()
                .to_str()
                .and_then(|name| name.parse::<u32>().ok())
            else {
                continue;
            };
            let parent = std::fs::read_to_string(entry.path().join("stat"))
                .ok()
                .and_then(|stat| stat_fields(&stat).and_then(|f| f.get(1)?.parse::<u32>().ok()));
            if parent == Some(coordinator) {
                pids.push(pid);
            }
        }
        pids
    }

    /// Orders the drain and waits for the coordinator to exit; `Drop` does
    /// the rest. An error means the cluster had to be killed.
    pub fn shutdown(mut self) -> Result<(), String> {
        let ordered = self.client().shutdown();
        let deadline = Instant::now() + SHUTDOWN_TIMEOUT;
        loop {
            match self.coordinator.try_wait() {
                Ok(Some(status)) if status.success() => return ordered,
                Ok(Some(status)) => return Err(format!("rads-node serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("rads-node serve did not drain in time".to_string()),
                Err(e) => return Err(format!("cannot wait for rads-node serve: {e}")),
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // after a clean drain the group is already empty and this is a no-op
        kill(&self.group());
        let _ = self.coordinator.wait();
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// The fields of `/proc/<pid>/stat` after the command name, which may
/// itself contain spaces and parentheses: index 0 is the state, 1 the
/// parent pid, 11 and 12 are utime and stime.
fn stat_fields(stat: &str) -> Option<Vec<&str>> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    Some(after_name.split_ascii_whitespace().collect())
}

/// CPU time (user + system) a process has used, in clock ticks.
fn cpu_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let fields = stat_fields(&stat)?;
    Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
}

/// Peak resident set size of a process in KiB (`VmHWM`).
fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

fn clock_ticks_per_second() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|raw| raw.trim().parse::<f64>().ok())
        .filter(|hz| *hz > 0.0)
        .unwrap_or(100.0)
}

/// Process-level accounting of a set of processes.
pub struct ProcSample {
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
}

pub fn sample_processes(pids: &[u32]) -> ProcSample {
    let ticks: u64 = pids.iter().filter_map(|&pid| cpu_ticks(pid)).sum();
    let peak = pids
        .iter()
        .filter_map(|&pid| peak_rss_kib(pid))
        .max()
        .unwrap_or(0);
    ProcSample {
        cpu_ms: ticks as f64 * 1000.0 / clock_ticks_per_second(),
        peak_rss_mb: peak as f64 / 1024.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_line_gives_the_client_address() {
        let line = r#"{"serving":true,"client_addr":"127.0.0.1:45251","http_addr":"127.0.0.1:45885","machines":4,"transport":"uds","dataset":"LiveJournal","scale":0.5,"admission_bytes":null,"max_concurrent_queries":1}"#;
        assert_eq!(parse_ready_line(line).unwrap(), "127.0.0.1:45251");
        assert!(parse_ready_line("error: cannot bind").is_err());
        assert!(parse_ready_line(r#"{"serving":false,"client_addr":"x"}"#).is_err());
        assert!(parse_ready_line(r#"{"serving":true}"#).is_err());
    }

    #[test]
    fn reply_json_is_read_field_by_field() {
        let stdout = concat!(
            r#"{"ok":true,"query_id":21,"count":1778,"elapsed_us":292962,"plan_cache_hit":true,"#,
            r#""per_machine":[[0,1054],[1,247]],"metrics":{"metrics":{"#,
            r#""rads_net_bytes_total":{"type":"counter","value":440393},"#,
            r#""rads_fetch_demand_wait_us":{"type":"histogram","buckets":[{"le":50,"count":3},{"le":"+Inf","count":0}],"count":3,"sum":112}}}}"#,
            "\n"
        );
        let reply = parse_reply(stdout).unwrap();
        assert_eq!(reply.count, 1778);
        assert_eq!(reply.elapsed_us, 292962);
        assert!(reply.plan_cache_hit);
        assert_eq!(reply.scalar("rads_net_bytes_total"), 440393.0);
        assert_eq!(reply.scalar("rads_never_touched_total"), 0.0);
        assert_eq!(reply.histogram_sum("rads_fetch_demand_wait_us"), 112.0);
    }

    #[test]
    fn rejections_and_garbage_are_errors() {
        let rejected = r#"{"ok":false,"query_id":3,"rejected":true,"estimate":9,"limit":1}"#;
        assert!(parse_reply(rejected).unwrap_err().contains("rejected"));
        assert!(parse_reply("").is_err());
        assert!(parse_reply("query 3: count 5").is_err());
        assert!(parse_reply(r#"{"ok":true,"count":1}"#).is_err());
    }

    #[test]
    fn stat_fields_skip_a_hostile_command_name() {
        let stat = "1234 (a b) c) S 77 1234 1234 0 -1 4194304 1 2 3 4 250 50 0 0 20 0";
        let fields = stat_fields(stat).unwrap();
        assert_eq!(fields[0], "S");
        assert_eq!(fields[1], "77");
        assert_eq!((fields[11], fields[12]), ("250", "50"));
    }
}
