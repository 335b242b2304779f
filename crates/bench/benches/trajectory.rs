//! The committed benchmark trajectory: five fixed-seed, fixed-scale
//! benches whose medians are snapshotted at the repository root
//! (`BENCH_eval.json`, `BENCH_sweep.json`, `BENCH_serve.json`,
//! `BENCH_parallel.json`, `BENCH_carm.json`) and regression-gated by
//! `scripts/perf_gate.sh` on every full `scripts/check.sh` run.
//!
//! Each artifact records the machine (`available_parallelism`, OS,
//! arch), the `GABLES_BENCH_SCALE` it was produced at, a `metrics`
//! object of gated numbers (all nanoseconds, lower is better), and an
//! `info` object of ungated context (allocation counts, speedups,
//! profiler overhead). The gate compares `metrics` only, and refuses to
//! compare artifacts produced at different scales.
//!
//! Environment knobs:
//!
//! * `GABLES_BENCH_TRAJECTORY_DIR` — output directory for the five
//!   candidate artifacts (default `target/trajectory`).
//! * `GABLES_BENCH_SCALE` — workload scale factor (default 8). The
//!   committed baselines record the scale they ran at; re-baseline with
//!   `scripts/perf_gate.sh --update` after changing it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gables_cli::serve::build_router;
use gables_cli::spec::FIGURE_6B_SPEC;
use gables_cli::{eval_command, sweep_command_with};
use gables_model::explore::{explore_with, CandidateGrid, CostModel};
use gables_model::json::Json;
use gables_model::prof::{self, AllocScope, SampleConfig};
use gables_model::{Parallelism, Workload};
use gables_serve::{Server, ServerConfig, ServerHandle, ShardedCache};

/// Median ns per operation: one warm-up batch, then `batches` timed
/// batches of `ops` calls each, taking the median of the per-batch
/// means. Batching keeps every timed region in the milliseconds so
/// scheduler noise amortizes instead of dominating the median — the
/// gated numbers must be stable run to run, not just centrally
/// located.
fn time_median_ns<F: FnMut()>(batches: usize, ops: usize, mut f: F) -> f64 {
    let ops = ops.max(1);
    let run_batch = |f: &mut F| -> f64 {
        let start = Instant::now();
        for _ in 0..ops {
            f();
        }
        start.elapsed().as_nanos() as f64 / ops as f64
    };
    run_batch(&mut f);
    let mut samples: Vec<f64> = (0..batches.max(1)).map(|_| run_batch(&mut f)).collect();
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Minimum ns per operation over `batches` batches of `ops` calls. The
/// min, not the median: scheduler noise (CPU steal on shared machines)
/// only ever *adds* time, so the minimum is the stablest estimate of
/// the true cost. Used for the explore metric, whose sub-200µs calls
/// are the most exposed to steal spikes.
fn time_min_ns<F: FnMut()>(batches: usize, ops: usize, mut f: F) -> f64 {
    let ops = ops.max(1);
    f();
    (0..batches.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..ops {
                f();
            }
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Nanoseconds for a fixed pure-CPU spin (integer mixing, no memory
/// traffic, no code under test). Committed alongside every artifact so
/// the perf gate can tell "this machine is in a slow episode" (both
/// the calibration and the metrics move together) from "the code got
/// slower" (the metrics move relative to the calibration).
fn calibration_ns() -> f64 {
    const ITERS: u64 = 2_000_000;
    let spin = || {
        // SplitMix64-style mixing: fixed instruction stream, cannot be
        // vectorized away, and never touches repository code.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..ITERS {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= z >> 31;
        }
        std::hint::black_box(x);
    };
    spin();
    (0..7)
        .map(|_| {
            let start = Instant::now();
            spin();
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Writes one `BENCH_<name>.json` artifact with the shared schema.
fn write_artifact(
    dir: &str,
    name: &str,
    scale: usize,
    calibration: f64,
    metrics: Vec<(String, Json)>,
    info: Vec<(String, Json)>,
) -> String {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let doc = Json::Object(vec![
        ("bench".into(), Json::str(name)),
        ("schema".into(), Json::num(1.0)),
        (
            "machine".into(),
            Json::Object(vec![
                ("available_parallelism".into(), Json::num(available as f64)),
                ("os".into(), Json::str(std::env::consts::OS)),
                ("arch".into(), Json::str(std::env::consts::ARCH)),
            ]),
        ),
        ("gables_bench_scale".into(), Json::num(scale as f64)),
        ("calibration_ns".into(), Json::num(calibration)),
        ("metrics".into(), Json::Object(metrics)),
        ("info".into(), Json::Object(info)),
    ]);
    std::fs::create_dir_all(dir).expect("create trajectory dir");
    let path = format!("{dir}/BENCH_{name}.json");
    std::fs::write(&path, doc.to_string()).expect("write artifact");
    path
}

/// `eval` bench: the analytical model end to end through the CLI spec
/// parser, on the paper's Figure 6b SoC.
fn bench_eval(dir: &str, scale: usize, calibration: f64) {
    let reps = (64 * scale).max(128);
    let ns = time_median_ns(7, reps, || {
        std::hint::black_box(eval_command(FIGURE_6B_SPEC).expect("eval"));
    });
    let scope = AllocScope::begin();
    std::hint::black_box(eval_command(FIGURE_6B_SPEC).expect("eval"));
    let alloc = scope.delta();

    // Gated rung: the steady-state *model* evaluate (spec parsed once,
    // outside the scope) must do zero heap allocations per call. The
    // gate holds this at exactly zero, so any future allocation on the
    // hot path fails the trajectory instead of creeping in.
    let spec = gables_cli::spec::Spec::parse(FIGURE_6B_SPEC).expect("spec");
    let soc = spec.soc().expect("soc");
    let workload = spec.workload().expect("workload");
    for _ in 0..8 {
        std::hint::black_box(gables_model::evaluate(&soc, &workload).expect("evaluate"));
    }
    let steady_reps = 256u64;
    let steady = AllocScope::begin();
    for _ in 0..steady_reps {
        std::hint::black_box(gables_model::evaluate(&soc, &workload).expect("evaluate"));
    }
    let eval_allocs = steady.delta().allocs as f64 / steady_reps as f64;

    let path = write_artifact(
        dir,
        "eval",
        scale,
        calibration,
        vec![
            ("eval_ns".into(), Json::num(ns)),
            ("eval_allocs".into(), Json::num(eval_allocs)),
        ],
        vec![
            ("reps".into(), Json::num(reps as f64)),
            ("allocs_per_eval".into(), Json::num(alloc.allocs as f64)),
            ("alloc_bytes_per_eval".into(), Json::num(alloc.bytes as f64)),
        ],
    );
    println!(
        "eval      {:>12.0} ns/eval ({eval_allocs} allocs steady-state)  wrote {path}",
        ns
    );
}

/// `sweep` bench: an ERT-style intensity sweep, serial policy so the
/// gated number is independent of the machine's core count.
fn bench_sweep(dir: &str, scale: usize, calibration: f64) {
    let steps = 16 * scale;
    let run_steps = |steps: usize| {
        std::hint::black_box(
            sweep_command_with(
                FIGURE_6B_SPEC,
                "intensity",
                0.25,
                64.0,
                steps,
                Parallelism::Serial,
            )
            .expect("sweep"),
        );
    };
    let run = || run_steps(steps);
    let ns = time_median_ns(7, 20, run);
    let scope = AllocScope::begin();
    run();
    let alloc = scope.delta();

    // Gated rung: the marginal allocation cost of one extra sweep
    // point, from two sweeps that differ only in step count — the fixed
    // setup (result storage, parsed spec) cancels out. Held at exactly
    // zero by the gate.
    let base = AllocScope::begin();
    run_steps(steps);
    let small = base.delta();
    run_steps(steps * 2);
    let large = base.delta().since(small);
    let sweep_point_allocs = (large.allocs.saturating_sub(small.allocs)) as f64 / steps as f64;

    let path = write_artifact(
        dir,
        "sweep",
        scale,
        calibration,
        vec![
            ("sweep_serial_ns".into(), Json::num(ns)),
            ("sweep_point_ns".into(), Json::num(ns / (steps + 1) as f64)),
            ("sweep_point_allocs".into(), Json::num(sweep_point_allocs)),
        ],
        vec![
            ("steps".into(), Json::num(steps as f64)),
            (
                "allocs_per_point".into(),
                Json::num(alloc.allocs as f64 / (steps + 1) as f64),
            ),
        ],
    );
    println!(
        "sweep     {:>12.0} ns/sweep ({} pts, {sweep_point_allocs} allocs/extra pt)  wrote {path}",
        ns,
        steps + 1
    );
}

/// `parallel` bench: the Figure-7-scale design-space exploration. Only
/// the serial time is gated — the two-thread time and the speedup are
/// recorded as context, because they depend on the machine's core
/// count and scheduler, not on this repository's code.
fn bench_parallel(dir: &str, scale: usize, calibration: f64) {
    let axis = |lo: f64, hi: f64| -> Vec<f64> {
        (0..scale)
            .map(|k| lo + (hi - lo) * k as f64 / (scale - 1) as f64)
            .collect()
    };
    let grid = CandidateGrid {
        ppeak_gops: 40.0,
        b0_gbps: 6.0,
        accelerations: axis(1.0, 16.0),
        b1_gbps: axis(4.0, 32.0),
        bpeak_gbps: axis(6.0, 48.0),
    };
    let cost = CostModel::unit();
    let usecase = Workload::two_ip(0.75, 8.0, 0.25).expect("valid workload");
    let serial_points =
        explore_with(&grid, &cost, &usecase, Parallelism::Serial).expect("serial explore");
    let parallel_points =
        explore_with(&grid, &cost, &usecase, Parallelism::Threads(2)).expect("parallel explore");
    assert_eq!(
        serial_points, parallel_points,
        "explore must be bit-identical across policies"
    );

    let serial_ns = time_min_ns(12, 25, || {
        std::hint::black_box(
            explore_with(&grid, &cost, &usecase, Parallelism::Serial).expect("explore"),
        );
    });
    let threads2_ns = time_min_ns(12, 25, || {
        std::hint::black_box(
            explore_with(&grid, &cost, &usecase, Parallelism::Threads(2)).expect("explore"),
        );
    });
    let path = write_artifact(
        dir,
        "parallel",
        scale,
        calibration,
        vec![("explore_serial_ns".into(), Json::num(serial_ns))],
        vec![
            ("grid_points".into(), Json::num(serial_points.len() as f64)),
            ("explore_threads2_ns".into(), Json::num(threads2_ns)),
            (
                "speedup_threads2".into(),
                Json::num(serial_ns / threads2_ns),
            ),
            ("determinism_checked".into(), Json::Bool(true)),
        ],
    );
    println!(
        "parallel  {:>12.0} ns serial / {:.0} ns threads_2  wrote {path}",
        serial_ns, threads2_ns
    );
}

/// `carm` bench: the cache-hierarchy bandwidth-ladder sweep that feeds
/// the cache-aware roofline. Only the serial time is gated (the
/// two-thread time depends on the machine); serial and two-thread
/// ladders are asserted bit-identical first, so the gated number always
/// covers a verified-deterministic configuration.
fn bench_carm(dir: &str, scale: usize, calibration: f64) {
    use gables_soc_sim::cache_sim::CacheConfig;
    use gables_soc_sim::{measure_bandwidth_ladder, HierarchyConfig, LevelConfig};

    let level = |name: &str, cap: u64, assoc: u32, lat: f64| LevelConfig {
        name: name.to_string(),
        geometry: CacheConfig {
            capacity_bytes: cap,
            line_bytes: 64,
            associativity: assoc,
        },
        latency_ns: lat,
        policy: gables_soc_sim::ReplacementPolicy::Lru,
        victim_lines: 0,
    };
    let config = HierarchyConfig {
        levels: vec![
            level("l1", 8 << 10, 4, 1.0),
            level("l2", 64 << 10, 8, 4.0),
            level("slc", 256 << 10, 16, 12.0),
        ],
        dram_latency_ns: 80.0,
    };
    let accesses = (1_000 * scale as u64).max(4_000);
    let seed = 0xCAB1E;

    let serial = measure_bandwidth_ladder(&config, accesses, seed, Parallelism::Serial)
        .expect("serial ladder");
    let threads2 = measure_bandwidth_ladder(&config, accesses, seed, Parallelism::Threads(2))
        .expect("threads_2 ladder");
    assert_eq!(
        serial, threads2,
        "ladder must be bit-identical across policies"
    );

    let serial_ns = time_min_ns(7, 3, || {
        std::hint::black_box(
            measure_bandwidth_ladder(&config, accesses, seed, Parallelism::Serial).expect("ladder"),
        );
    });
    let threads2_ns = time_min_ns(7, 3, || {
        std::hint::black_box(
            measure_bandwidth_ladder(&config, accesses, seed, Parallelism::Threads(2))
                .expect("ladder"),
        );
    });
    let path = write_artifact(
        dir,
        "carm",
        scale,
        calibration,
        vec![("carm_ladder_serial_ns".into(), Json::num(serial_ns))],
        vec![
            ("ladder_rungs".into(), Json::num(serial.len() as f64)),
            ("accesses_per_rung".into(), Json::num(accesses as f64)),
            ("ladder_threads2_ns".into(), Json::num(threads2_ns)),
            (
                "speedup_threads2".into(),
                Json::num(serial_ns / threads2_ns),
            ),
            ("determinism_checked".into(), Json::Bool(true)),
        ],
    );
    println!(
        "carm      {:>12.0} ns serial / {:.0} ns threads_2  wrote {path}",
        serial_ns, threads2_ns
    );
}

/// One full close-delimited HTTP exchange against the loopback server.
fn http_post(addr: SocketAddr, target: &str, body: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let raw = format!(
        "POST {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
            Err(_) if !bytes.is_empty() => break,
            Err(e) => panic!("read reply: {e}"),
        }
    }
    let reply = String::from_utf8_lossy(&bytes);
    let status = reply
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    status
}

/// Drives `threads × per_thread` `/eval` requests and returns the
/// wall-clock nanoseconds per request.
fn serve_batch_ns(addr: SocketAddr, threads: usize, per_thread: usize) -> f64 {
    let start = Instant::now();
    let clients: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    // Cosmetic comment varies the body so cache hits prove
                    // canonicalization rather than byte equality.
                    let spec = format!("# probe {t}/{i}\n{FIGURE_6B_SPEC}");
                    let status = http_post(addr, "/v1/eval?format=text", &spec);
                    assert_eq!(status, 200, "eval request failed");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    start.elapsed().as_nanos() as f64 / (threads * per_thread) as f64
}

/// Reads one `Content-Length`-framed response off a keep-alive stream
/// and asserts it is a 200.
fn read_framed_ok(stream: &mut TcpStream) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "EOF before the response head completed");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).expect("UTF-8 head");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    while buf.len() < head_end + content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "EOF before the response body completed");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Drives `threads × per_thread` `/v1/eval` requests with one
/// keep-alive connection per thread (no per-request connect/close);
/// returns wall-clock nanoseconds per request.
fn serve_keepalive_batch_ns(addr: SocketAddr, threads: usize, per_thread: usize) -> f64 {
    let start = Instant::now();
    let clients: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                for i in 0..per_thread {
                    let spec = format!("# keepalive {t}/{i}\n{FIGURE_6B_SPEC}");
                    let raw = format!(
                        "POST /v1/eval?format=text HTTP/1.1\r\nHost: l\r\nContent-Length: {}\r\n\r\n{spec}",
                        spec.len()
                    );
                    stream.write_all(raw.as_bytes()).expect("send request");
                    read_framed_ok(&mut stream);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    start.elapsed().as_nanos() as f64 / (threads * per_thread) as f64
}

/// POSTs one `/v1/batch` envelope of `items` cosmetically-varied specs
/// and returns wall-clock nanoseconds per item.
fn serve_batch_endpoint_ns(addr: SocketAddr, items: usize) -> f64 {
    let specs: Vec<String> = (0..items)
        .map(|i| Json::str(format!("# batch {i}\n{FIGURE_6B_SPEC}")).to_string())
        .collect();
    let payload = format!("{{\"specs\":[{}]}}", specs.join(","));
    let start = Instant::now();
    let status = http_post(addr, "/v1/batch", &payload);
    assert_eq!(status, 200, "batch request failed");
    start.elapsed().as_nanos() as f64 / items as f64
}

/// `serve` bench: loopback request latency with and without a live
/// profiling session, so the committed artifact records the sampler's
/// measured overhead. Base and profiled batches alternate (base,
/// profiled, base, profiled, ...) and each side takes its median, so a
/// frequency or load shift mid-bench lands on both sides instead of
/// masquerading as profiler overhead. Two further rungs gate the event
/// loop's steady-state paths: `serve_keepalive_request_ns` (framed
/// requests reusing one connection per client) and
/// `serve_batch_item_ns` (per-item cost of one `/v1/batch` envelope).
fn bench_serve(dir: &str, scale: usize, calibration: f64) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let handle: ServerHandle = server.handle().expect("server handle");
    let addr = handle.addr();
    let router = build_router(server.metrics(), Arc::new(ShardedCache::new(8, 128)));
    let join = std::thread::spawn(move || server.run(router).expect("server run"));

    let threads = 4;
    let per_thread = (16 * scale).max(32);
    // Warm-up batch (connection setup, cache population, first-touch).
    serve_batch_ns(addr, threads, per_thread / 4);

    let rounds = 3;
    let mut base_samples = Vec::with_capacity(rounds);
    let mut profiled_samples = Vec::with_capacity(rounds);
    let mut samples_total = 0u64;
    for _ in 0..rounds {
        base_samples.push(serve_batch_ns(addr, threads, per_thread));
        let session = prof::start(SampleConfig::default()).expect("profiler session");
        profiled_samples.push(serve_batch_ns(addr, threads, per_thread));
        samples_total += session.stop().samples_total;
    }
    let median = |samples: &mut Vec<f64>| -> f64 {
        samples.sort_unstable_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let base_ns = median(&mut base_samples);
    let profiled_ns = median(&mut profiled_samples);
    let overhead_pct = (profiled_ns - base_ns) / base_ns * 100.0;

    // Keep-alive rung: same request mix, one persistent connection per
    // client thread. Warm up once, then take the median of three.
    serve_keepalive_batch_ns(addr, threads, per_thread / 4);
    let mut keepalive_samples: Vec<f64> = (0..rounds)
        .map(|_| serve_keepalive_batch_ns(addr, threads, per_thread))
        .collect();
    let keepalive_ns = median(&mut keepalive_samples);

    // Batch rung: one `/v1/batch` envelope per sample, per-item cost.
    let batch_items = (16 * scale).clamp(32, 256);
    serve_batch_endpoint_ns(addr, batch_items);
    let mut batch_samples: Vec<f64> = (0..rounds)
        .map(|_| serve_batch_endpoint_ns(addr, batch_items))
        .collect();
    let batch_ns = median(&mut batch_samples);

    handle.shutdown();
    join.join().expect("server thread");

    let path = write_artifact(
        dir,
        "serve",
        scale,
        calibration,
        vec![
            ("serve_request_ns".into(), Json::num(base_ns)),
            ("serve_keepalive_request_ns".into(), Json::num(keepalive_ns)),
            ("serve_batch_item_ns".into(), Json::num(batch_ns)),
        ],
        vec![
            ("batch_items".into(), Json::num(batch_items as f64)),
            ("client_threads".into(), Json::num(threads as f64)),
            (
                "requests_per_batch".into(),
                Json::num((threads * per_thread) as f64),
            ),
            ("batches_per_side".into(), Json::num(rounds as f64)),
            ("profiled_request_ns".into(), Json::num(profiled_ns)),
            ("profiler_overhead_pct".into(), Json::num(overhead_pct)),
            (
                "profile_samples_total".into(),
                Json::num(samples_total as f64),
            ),
        ],
    );
    println!(
        "serve     {:>12.0} ns/request / {:.0} ns keep-alive / {:.0} ns batch item (profiler overhead {overhead_pct:+.1}%)  wrote {path}",
        base_ns, keepalive_ns, batch_ns
    );
}

fn main() {
    let scale: usize = std::env::var("GABLES_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(8);
    let dir = std::env::var("GABLES_BENCH_TRAJECTORY_DIR")
        .unwrap_or_else(|_| "target/trajectory".to_string());

    bench_eval(&dir, scale, calibration_ns());
    bench_sweep(&dir, scale, calibration_ns());
    bench_parallel(&dir, scale, calibration_ns());
    bench_serve(&dir, scale, calibration_ns());
    bench_carm(&dir, scale, calibration_ns());
    println!("trajectory complete (scale {scale}) -> {dir}");
}
