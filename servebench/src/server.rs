//! Starting and stopping `gables serve`, and reading what it exposes
//! about itself: `/v1/healthz`, `/v1/metrics`, and `/proc` for its
//! process tree.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use gables_model::json::Json;

/// A running `gables serve` (one process, or a router with shards).
pub struct Server {
    child: Child,
    /// Held open: `--announce` shuts the server down when stdin closes.
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    /// Spawn to the first `200` on `/v1/healthz`, seconds.
    pub setup_s: f64,
    /// The server process and every descendant (shards).
    pub pids: Vec<u32>,
}

impl Server {
    /// Spawns `gables serve 127.0.0.1:0 --workers N [--replicas R]
    /// --announce`, waits for its `LISTENING` line (the router prints it
    /// only after every shard has announced), then polls `/v1/healthz`
    /// until it answers `200`.
    pub fn start(gables: &Path, workers: usize, replicas: usize) -> Result<Self, String> {
        let started = Instant::now();
        let mut cmd = Command::new(gables);
        cmd.args(["serve", "127.0.0.1:0", "--workers", &workers.to_string()]);
        if replicas > 1 {
            cmd.args(["--replicas", &replicas.to_string()]);
        }
        cmd.arg("--announce")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", gables.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("LISTENING ")) {
            (Ok(_), Some(addr)) => addr.parse::<SocketAddr>().ok(),
            _ => None,
        };
        let mut server = Self {
            child,
            stdin,
            addr: addr.unwrap_or_else(|| "127.0.0.1:9".parse().expect("valid")),
            setup_s: 0.0,
            pids: Vec::new(),
        };
        if addr.is_none() {
            server.stop();
            return Err(format!(
                "server did not announce its address (got {line:?})"
            ));
        }
        let deadline = started + Duration::from_secs(30);
        loop {
            if let Ok((200, _)) = get(server.addr, "/v1/healthz") {
                break;
            }
            if Instant::now() > deadline {
                server.stop();
                return Err("server never answered /v1/healthz".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.setup_s = started.elapsed().as_secs_f64();
        server.pids = process_tree(server.child.id());
        Ok(server)
    }

    /// Closes stdin (graceful shutdown), waits for the whole process tree
    /// to exit, and kills whatever is left after a grace period.
    pub fn stop(&mut self) {
        drop(self.stdin.take());
        let pids = if self.pids.is_empty() {
            process_tree(self.child.id())
        } else {
            self.pids.clone()
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut exited = false;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                exited = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if !exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        // Shards are the router's children; they exit when its pipes
        // close. Wait for them too, and kill stragglers.
        for pid in pids.into_iter().skip(1) {
            let deadline = Instant::now() + Duration::from_secs(5);
            while alive(pid) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            if alive(pid) {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
    }

    /// CPU seconds (user + system) used so far by the process tree.
    pub fn cpu_s(&self) -> f64 {
        self.pids.iter().map(|&p| proc_cpu_s(p)).sum()
    }

    /// Summed peak resident set (`VmHWM`) of the process tree, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        self.pids
            .iter()
            .filter_map(|&p| status_kib(p, "VmHWM:"))
            .sum::<f64>()
            / 1024.0
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            self.stop();
        }
    }
}

/// A blocking `GET` over a fresh `Connection: close` connection.
pub fn get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("no response head"))?;
    let status = std::str::from_utf8(&raw[..end])
        .ok()
        .and_then(|h| h.get(9..12))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    Ok((status, raw[end + 4..].to_vec()))
}

/// The request bytes of a keep-alive `GET`.
pub fn get_wire(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n").into_bytes()
}

/// Routes the benchmark itself calls to read or wait for the server.
const CONTROL_ROUTES: [&str; 2] = ["/v1/metrics", "/v1/healthz"];

/// The counters of one `/v1/metrics` snapshot that the benchmark reads.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Requests handled, not counting the benchmark's own control-plane
    /// requests (`CONTROL_ROUTES`), so a window's delta holds only the
    /// workload. Their few latencies do stay in `latency_sum_us`.
    pub handled: f64,
    pub rejected: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub latency_sum_us: f64,
    pub phase_self_us: BTreeMap<String, f64>,
}

impl Counters {
    /// Parses the `/v1/metrics` JSON envelope.
    pub fn parse(body: &[u8]) -> Option<Self> {
        let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
        let data = doc.get("data")?;
        let num = |k: &str| data.get(k).and_then(Json::as_f64);
        let routes = data.get("routes")?;
        let control: f64 = CONTROL_ROUTES
            .iter()
            .filter_map(|r| routes.get(r).and_then(Json::as_f64))
            .sum();
        Some(Self {
            handled: num("handled")? - control,
            rejected: num("rejected")?,
            cache_hits: num("cache_hits")?,
            cache_misses: num("cache_misses")?,
            latency_sum_us: num("latency_sum_us")?,
            phase_self_us: data
                .get("phase_self_us")
                .and_then(Json::as_object)
                .map(|fields| {
                    fields
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// `self - earlier`, counter by counter.
    pub fn since(&self, earlier: &Self) -> Self {
        let mut phases = self.phase_self_us.clone();
        for (k, v) in &mut phases {
            *v -= earlier.phase_self_us.get(k).copied().unwrap_or(0.0);
        }
        Self {
            handled: self.handled - earlier.handled,
            rejected: self.rejected - earlier.rejected,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            latency_sum_us: self.latency_sum_us - earlier.latency_sum_us,
            phase_self_us: phases,
        }
    }

    /// Summed self time of the phases named, or starting with a `prefix*`.
    pub fn phases(&self, names: &[&str]) -> f64 {
        self.phase_self_us
            .iter()
            .filter(|(k, _)| {
                names.iter().any(|n| match n.strip_suffix('*') {
                    Some(prefix) => k.starts_with(prefix),
                    None => k == n,
                })
            })
            .map(|(_, v)| v)
            .sum()
    }
}

/// `pid` and all its descendants, found by scanning `/proc`.
pub fn process_tree(pid: u32) -> Vec<u32> {
    let mut parents: Vec<(u32, u32)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir("/proc") {
        for entry in entries.flatten() {
            let Some(p) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            if let Some(ppid) = stat_fields(p).and_then(|f| f.get(1)?.parse().ok()) {
                parents.push((p, ppid));
            }
        }
    }
    let mut tree = vec![pid];
    let mut i = 0;
    while i < tree.len() {
        let parent = tree[i];
        tree.extend(
            parents
                .iter()
                .filter(|(_, pp)| *pp == parent)
                .map(|(p, _)| *p),
        );
        i += 1;
    }
    tree
}

fn alive(pid: u32) -> bool {
    // A zombie has exited; only its parent's wait is missing.
    stat_fields(pid).is_some_and(|f| f.first().is_some_and(|s| *s != "Z"))
}

/// The fields of `/proc/<pid>/stat` after the command name, starting
/// with the state (field 3).
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

fn proc_cpu_s(pid: u32) -> f64 {
    // utime and stime are fields 14 and 15, in clock ticks.
    let Some(f) = stat_fields(pid) else {
        return 0.0;
    };
    let ticks: f64 = [11, 12]
        .iter()
        .filter_map(|&i| f.get(i)?.parse::<f64>().ok())
        .sum();
    ticks / clock_ticks_per_s()
}

fn clock_ticks_per_s() -> f64 {
    extern "C" {
        fn sysconf(name: std::os::raw::c_int) -> std::os::raw::c_long;
    }
    const SC_CLK_TCK: std::os::raw::c_int = 2;
    // SAFETY: sysconf reads a configuration value and takes no pointers.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

fn status_kib(pid: u32, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}
