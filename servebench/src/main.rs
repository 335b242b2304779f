//! Serving benchmark for `gables serve`.
//!
//! ```text
//! bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.sh` builds the `gables` binary and this program from source, then
//! runs `servebench --gables <binary> --out-dir <dir> ...`.
//!
//! The benchmark starts the real `gables serve` binary with `--workers`
//! equal to the CPU count and drives it from this one process: one load
//! thread, at most two keep-alive connections, requests pipelined over
//! nonblocking sockets, every request generated from the seed. An
//! end-to-end run (`--trace 0`) warms up, then runs rounds of three
//! phases:
//!
//! * an open loop at the workload's fixed **nominal** rate, with seeded
//!   exponential inter-arrivals, each request timed from its *scheduled*
//!   send to its last response byte;
//! * the same at the workload's fixed **peak** rate;
//! * a closed loop, one request outstanding per connection.
//!
//! Every response body is compared with a reference computed in-process
//! through `gables_cli::serve::build_router(..).dispatch`; a mismatch
//! makes the run fail. A traced run (`--trace 1`) measures each layer
//! from outside: span-timed calls into the layers' public functions,
//! deltas of the server's `/v1/metrics` counters, and `/proc`.
//!
//! Shared hosts steal CPU time from this machine in bursts. Each phase's
//! figure is therefore taken per round and the median reported over the
//! `USED_ROUNDS` rounds that were on time (the generator kept to its
//! schedule) and, among those, had the least host steal time
//! (`/proc/stat`). A run extends, up to `MAX_ROUNDS`, until every phase
//! has that many rounds that were on time and quiet (little time
//! stolen). If a phase still has fewer quiet ones, the report marks its
//! figure NOISY; steal is the host's doing, not the program's, so it
//! does not fail the run. If a phase has fewer on-time rounds, the run
//! is invalid and exits non-zero. The report prints the all-rounds
//! figures beside them.
//!
//! The workloads are `eval_stream` (one server) and `fleet_eval`
//! (`--replicas 2`). Batch, sweep, CARM and simulation requests, which
//! the eval stream lacks, are sent by a probe phase of every traced run.
//!
//! A run whose requests fail, whose bodies differ from their references,
//! or whose metrics are not all finite is incorrect and exits non-zero.
//! The last line of standard output is the result as one JSON object.

mod gen;
mod layers;
mod load;
mod machine;
mod rng;
mod server;
mod trace;
mod verify;

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gen::{Kind, Traffic, Workload, TAIL_Q};
use load::{Client, Completion, PhaseStats};
use machine::Machine;
use rng::Rng;
use server::{Counters, Server};
use verify::Verifier;

/// Servers started to measure set-up time; the last one is kept running.
const SETUP_REPEATS: usize = 15;
/// The bound of the tail metrics in `BENCHMARK.json`. An open-loop round
/// whose generator lag at the tail percentile exceeds this share of the
/// round's tail latency does not count.
const TAIL_BOUND: f64 = 0.25;
/// Rounds of nominal, peak and closed phases in an end-to-end run.
const ROUNDS: usize = 40;
/// On-time rounds of each phase, those with the least steal, whose
/// median is reported.
const USED_ROUNDS: usize = ROUNDS / 2;
/// Most rounds a run extends to while waiting for `USED_ROUNDS` quiet
/// rounds of every phase: a run of `--seconds 25` outlasts a busy spell
/// of the host of about 20 s and still ends in about a minute.
const MAX_ROUNDS: usize = 2 * ROUNDS;
/// Shares of `--seconds` spent in each phase (over all rounds).
const WARM_SHARE: f64 = 0.08;
const NOMINAL_SHARE: f64 = 0.5;
const PEAK_SHARE: f64 = 0.25;
const CLOSED_SHARE: f64 = 0.17;
/// Largest share of this machine's CPU time the host may steal during a
/// round for the round to count as quiet.
const QUIET_STEAL: f64 = 0.02;
/// `/proc/stat` counts in clock ticks of 1/100 s.
const CLOCK_TICKS_PER_S: f64 = 100.0;
/// Rounds with fewer samples than this are pooled before taking a
/// quantile; larger rounds each give one and the median is reported.
const MIN_ROUND_SAMPLES: usize = 100;

/// One phase of one round: its completions, the host steal time (clock
/// ticks over all CPUs, from `/proc/stat`) while it ran, and whether the
/// generator kept to its schedule.
struct Round {
    phase: u8,
    completions: std::ops::Range<usize>,
    steal: u64,
    in_time: bool,
}

impl Round {
    /// Whether the host stole at most `QUIET_STEAL` of this machine's CPU
    /// time while a round of `round_s` seconds (all three phases) ran,
    /// pro rata for this phase.
    fn quiet(&self, round_s: f64) -> bool {
        let share = match self.phase {
            phase::NOMINAL => NOMINAL_SHARE,
            phase::PEAK => PEAK_SHARE,
            _ => CLOSED_SHARE,
        } / (NOMINAL_SHARE + PEAK_SHARE + CLOSED_SHARE);
        let ticks = round_s * share * CLOCK_TICKS_PER_S * cpus() as f64;
        self.steal as f64 <= QUIET_STEAL * ticks
    }
}

/// CPUs whose steal time the aggregate `cpu` line of `/proc/stat` sums:
/// its `cpuN` lines.
fn cpus() -> usize {
    std::fs::read_to_string("/proc/stat")
        .map(|t| {
            t.lines()
                .filter(|l| {
                    l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit)
                })
                .count()
        })
        .unwrap_or(0)
        .max(1)
}

/// The time of one round (all three phases) of a run of `seconds`.
fn round_seconds(seconds: f64) -> f64 {
    seconds * (1.0 - WARM_SHARE) / ROUNDS as f64
}

/// Whether an open-loop round's sends were on time: the generator's lag
/// at the tail percentile stays within `TAIL_BOUND` times the round's
/// tail latency (latency is timed from the schedule, so lag is in it).
fn generator_kept_up(completions: &[Completion]) -> bool {
    let mut lag: Vec<f64> = completions.iter().map(|c| c.lag_us).collect();
    let mut lat: Vec<f64> = completions
        .iter()
        .map(|c| {
            if (200..300).contains(&c.status) {
                c.latency_us
            } else {
                f64::INFINITY
            }
        })
        .collect();
    lag.sort_by(f64::total_cmp);
    lat.sort_by(f64::total_cmp);
    lag.is_empty() || quantile(&lag, TAIL_Q) <= TAIL_BOUND * quantile(&lat, TAIL_Q)
}

/// Phase ids carried by every completion.
mod phase {
    pub const WARM: u8 = 0;
    pub const NOMINAL: u8 = 1;
    pub const PEAK: u8 = 2;
    pub const CLOSED: u8 = 3;
    pub const TRACED: u8 = 4;
    pub const PROBE: u8 = 5;
    pub const NAMES: [&str; 6] = ["warm", "nominal", "peak", "closed", "traced", "probe"];
}

struct Args {
    gables: PathBuf,
    out_dir: Option<PathBuf>,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let name = need("--workload")?;
    let workload = gen::workload(name).ok_or_else(|| {
        let names: Vec<&str> = gen::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        gables: PathBuf::from(need("--gables")?),
        out_dir: value("--out-dir").map(PathBuf::from),
        workload,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The findings of one run, before printing.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    correct: bool,
    report: Vec<String>,
}

fn run(args: &Args) -> Result<bool, String> {
    load::tighten_timer_slack();
    let machine = Machine::probe();
    let wl = args.workload;
    let workers = machine.nproc.max(1);
    let (server, setups) = start_measured(args, workers, wl.replicas)?;
    let setup_s = median(&setups);
    let mut head = vec![
        format!(
            "servebench workload={} seed={} seconds={} trace={} replicas={} workers={}",
            wl.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            wl.replicas,
            workers
        ),
        format!(
            "machine: nproc={} available_parallelism={}{} cpu=\"{}\" kernel={} calibration_ns={:.4}",
            machine.nproc,
            machine.available_parallelism,
            if machine.cpu_counts_disagree() {
                " (DISAGREE: the standard library sees a different CPU count than nproc)"
            } else {
                ""
            },
            machine.cpu_model,
            machine.kernel,
            machine.calibration_ns
        ),
        format!(
            "setup: median {:.4} s over {} starts {:?}",
            setup_s,
            setups.len(),
            setups.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>()
        ),
    ];
    let mut outcome = if args.trace {
        traced_run(args, server, workers)?
    } else {
        plain_run(args, server, setup_s)?
    };
    for (name, value, _) in &outcome.metrics {
        if !value.is_finite() {
            outcome.correct = false;
            outcome
                .report
                .push(format!("INVALID: {name} is not finite"));
        }
    }
    if outcome.failed > 0 {
        outcome.correct = false;
        outcome.report.push(format!(
            "INVALID: {} of {} requests failed",
            outcome.failed, outcome.attempted
        ));
    }
    head.append(&mut outcome.report);
    for line in &head {
        println!("{line}");
    }
    if let Some(dir) = &args.out_dir {
        let _ = std::fs::create_dir_all(dir);
        let stem = format!(
            "{}-seed{}-trace{}",
            wl.name,
            args.seed,
            u8::from(args.trace)
        );
        let _ = std::fs::write(dir.join(format!("{stem}.txt")), head.join("\n") + "\n");
    }
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        // JSON has no infinity or NaN; such a run is already incorrect.
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(line, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    line.push_str("}}");
    println!("{line}");
    Ok(outcome.correct)
}

/// Starts the server `SETUP_REPEATS` times and keeps the last one
/// running; returns it with every start's set-up time.
fn start_measured(
    args: &Args,
    workers: usize,
    replicas: usize,
) -> Result<(Server, Vec<f64>), String> {
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPEATS {
        let mut s = Server::start(&args.gables, workers, replicas)?;
        setups.push(s.setup_s);
        s.stop();
    }
    let s = Server::start(&args.gables, workers, replicas)?;
    setups.push(s.setup_s);
    Ok((s, setups))
}

fn fetch_counters(client: &mut Client) -> Result<Counters, String> {
    let (status, body) = client
        .exchange(&server::get_wire("/v1/metrics"))
        .map_err(|e| format!("GET /v1/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /v1/metrics answered {status}"));
    }
    Counters::parse(&body).ok_or_else(|| "cannot parse /v1/metrics".into())
}

/// The end-to-end run (`--trace 0`). After a warm-up at the nominal
/// rate, `ROUNDS` rounds each run the three phases in turn — nominal,
/// peak, closed — so a burst of outside noise lands in a few rounds of
/// every phase rather than in all of one; each figure is the median over
/// rounds.
fn plain_run(args: &Args, mut server: Server, setup_s: f64) -> Result<Outcome, String> {
    let wl = args.workload;
    let s = args.seconds;
    let mut traffic = Traffic::new(args.seed);
    let mut arrivals = Rng::derive(args.seed, 100);
    let mut client = Client::connect(server.addr, 2).map_err(|e| format!("connect: {e}"))?;
    let mut stats: Vec<(u8, PhaseStats)> = vec![
        (phase::WARM, PhaseStats::default()),
        (phase::NOMINAL, PhaseStats::default()),
        (phase::PEAK, PhaseStats::default()),
        (phase::CLOSED, PhaseStats::default()),
    ];
    stats[0].1 = client.open_loop(
        &mut traffic,
        phase::WARM,
        wl.nominal_rps,
        WARM_SHARE * s,
        &mut arrivals,
    );
    let warm_end = client.sent.len();
    let m0 = fetch_counters(&mut client)?;
    let cpu0 = server.cpu_s();
    let rounds = ROUNDS as f64;
    let mut rounds_run: Vec<Round> = Vec::new();
    // ROUNDS rounds; then, while some phase has fewer than USED_ROUNDS
    // quiet, on-time rounds, more rounds, up to MAX_ROUNDS.
    let phases = [phase::NOMINAL, phase::PEAK, phase::CLOSED];
    let quiet_rounds = |done: &[Round], ph: u8| {
        done.iter()
            .filter(|r| r.phase == ph && r.in_time && r.quiet(round_seconds(s)))
            .count()
    };
    while rounds_run.len() < 3 * ROUNDS
        || (rounds_run.len() < 3 * MAX_ROUNDS
            && phases
                .iter()
                .any(|&ph| quiet_rounds(&rounds_run, ph) < USED_ROUNDS))
    {
        for (i, ph) in phases.into_iter().enumerate() {
            let steal0 = steal_ticks();
            let first = client.completions.len();
            let st = match ph {
                phase::NOMINAL => client.open_loop(
                    &mut traffic,
                    ph,
                    wl.nominal_rps,
                    NOMINAL_SHARE * s / rounds,
                    &mut arrivals,
                ),
                phase::PEAK => client.open_loop(
                    &mut traffic,
                    ph,
                    wl.peak_rps,
                    PEAK_SHARE * s / rounds,
                    &mut arrivals,
                ),
                _ => client.closed_loop(&mut traffic, ph, CLOSED_SHARE * s / rounds),
            };
            stats[i + 1].1.add(&st);
            let completions = first..client.completions.len();
            let in_time =
                ph == phase::CLOSED || generator_kept_up(&client.completions[completions.clone()]);
            rounds_run.push(Round {
                phase: ph,
                completions,
                steal: steal_ticks().saturating_sub(steal0),
                in_time,
            });
        }
    }
    let cpu1 = server.cpu_s();
    let rss = server.peak_rss_mib();
    let m1 = fetch_counters(&mut client)?;
    server.stop();

    let mut verifier = Verifier::new();
    let check = check_outputs(
        &mut verifier,
        &traffic,
        &client.completions,
        &HashSet::new(),
    );
    let mut report = phase_report(&stats, &client.completions, &check);

    // Each figure comes from `USED_ROUNDS` of its phase's on-time rounds,
    // those in which the host stole the least CPU time from this machine
    // (ties keep run order), so a neighbour's burst does not decide it.
    let on_time = |ph: u8| {
        rounds_run
            .iter()
            .filter(move |r| r.phase == ph && r.in_time)
    };
    let quiet = |ph: u8| -> Vec<&Round> {
        let mut rs: Vec<&Round> = on_time(ph).collect();
        rs.sort_by_key(|r| r.steal);
        rs.truncate(USED_ROUNDS);
        rs
    };
    let per_round = |ph: u8| -> Vec<Vec<(f64, f64)>> {
        quiet(ph)
            .iter()
            .map(|r| latencies(&client.completions[r.completions.clone()], ph))
            .collect()
    };
    let nominal = per_round(phase::NOMINAL);
    let peak = per_round(phase::PEAK);
    let (p50, _) = round_quantile(&nominal, 0.5);
    let (tail, tail_n) = round_quantile(&nominal, TAIL_Q);
    let (tail_peak, tail_peak_n) = round_quantile(&peak, TAIL_Q);
    // Correct responses finished inside each closed round's window.
    let closed_s = CLOSED_SHARE * s / rounds;
    let done: Vec<f64> = quiet(phase::CLOSED)
        .iter()
        .map(|r| {
            r.completions
                .clone()
                .filter(|&i| {
                    let c = &client.completions[i];
                    check.good[i] && c.sched_us + c.latency_us <= closed_s * 1e6
                })
                .count() as f64
        })
        .collect();
    let throughput = if done.iter().any(|&n| n < MIN_ROUND_SAMPLES as f64) {
        done.iter().sum::<f64>() / (closed_s * done.len() as f64)
    } else {
        median(&done) / closed_s
    };
    let measured = client.completions.len() - rounds_run.first().map_or(0, |r| r.completions.start);
    let cpu_ms = (cpu1 - cpu0) * 1e3 / measured.max(1) as f64;
    let attempted = client.completions.len() as u64;
    let failed = check.failed_total();
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let tq = (TAIL_Q * 100.0).round();

    // Generator honesty: per phase, the lag, and the rounds that do not
    // count because the generator fell behind.
    for ph in [phase::NOMINAL, phase::PEAK] {
        let of_phase = rounds_run.iter().filter(|r| r.phase == ph);
        let late = of_phase.clone().filter(|r| !r.in_time).count();
        report.push(format!(
            "generator {}: gen_lag_p99_ms={:.4}, {late} of {} rounds discarded (lag at p{tq} above {TAIL_BOUND} x p{tq} latency)",
            phase::NAMES[ph as usize],
            lag_quantile_ms(&client.completions, ph, 0.99),
            of_phase.count()
        ));
    }
    // A figure needs `USED_ROUNDS` on-time rounds; with fewer quiet ones
    // it also uses rounds the host stole from, which the report flags.
    let mut valid = true;
    for ph in phases {
        let name = phase::NAMES[ph as usize];
        let in_time = on_time(ph).count();
        let usable = quiet_rounds(&rounds_run, ph);
        if in_time < USED_ROUNDS {
            valid = false;
            report.push(format!(
                "INVALID: only {in_time} {name} rounds were on time; {USED_ROUNDS} needed"
            ));
        } else if usable < USED_ROUNDS {
            report.push(format!(
                "NOISY: only {usable} {name} rounds were on time and quiet (at most {QUIET_STEAL} of the CPU time stolen); \
                 its figure also uses {} rounds with more steal",
                USED_ROUNDS - usable
            ));
        }
    }

    let shape = traffic_shape(&traffic, &client.sent[..warm_end], &client.sent[warm_end..]);
    let hit = m1.since(&m0);
    let server_hit = ratio(hit.cache_hits, hit.cache_hits + hit.cache_misses);
    let predicted = verify::predicted_hit_ratio(
        &traffic,
        &client.sent[..warm_end],
        &client.sent[warm_end..],
        wl.replicas,
    );
    let hit_consistent =
        (server_hit - predicted).abs() <= 0.05 && server_hit <= shape.repeat_share + 0.02;
    report.extend(shape.lines.iter().cloned());
    report.push(format!(
        "cache: hit_ratio={server_hit:.4} (server) predicted={predicted:.4} (in-process replay) \
         repeat_share={:.4} -> {}",
        shape.repeat_share,
        if hit_consistent {
            "consistent"
        } else {
            "INCONSISTENT"
        }
    ));
    report.push(format!(
        "server counters after warm-up: handled={} rejected={} service_mean_us={:.2}",
        hit.handled,
        hit.rejected,
        ratio(hit.latency_sum_us, hit.handled)
    ));
    let count = |v: &[Vec<(f64, f64)>]| v.iter().map(Vec::len).sum::<usize>();
    report.push(format!(
        "samples over {USED_ROUNDS} used rounds: nominal={} (p{tq} has {tail_n} beyond) peak={} (p{tq} has {tail_peak_n} beyond) \
         closed={}; pooled p99 nominal={:.4} ms peak={:.4} ms",
        count(&nominal),
        count(&peak),
        stats[3].1.sent,
        pooled(&nominal, 0.99) / 1e3,
        pooled(&peak, 0.99) / 1e3,
    ));
    for ph in [phase::NOMINAL, phase::PEAK, phase::CLOSED] {
        let all: Vec<u64> = rounds_run
            .iter()
            .filter(|r| r.phase == ph)
            .map(|r| r.steal)
            .collect();
        let used: Vec<u64> = quiet(ph).iter().map(|r| r.steal).collect();
        report.push(format!(
            "host steal ticks per {} round: {} rounds, {} on time and quiet; all {all:?}, used (quietest) {used:?}",
            phase::NAMES[ph as usize],
            all.len(),
            quiet_rounds(&rounds_run, ph)
        ));
    }
    let all_rounds = |ph: u8| -> Vec<Vec<(f64, f64)>> {
        rounds_run
            .iter()
            .filter(|r| r.phase == ph)
            .map(|r| latencies(&client.completions[r.completions.clone()], ph))
            .collect()
    };
    report.push(format!(
        "over all rounds instead: p50 {:.4} ms, p{tq} {:.4} ms, peak p{tq} {:.4} ms",
        round_quantile(&all_rounds(phase::NOMINAL), 0.5).0 / 1e3,
        round_quantile(&all_rounds(phase::NOMINAL), TAIL_Q).0 / 1e3,
        round_quantile(&all_rounds(phase::PEAK), TAIL_Q).0 / 1e3,
    ));
    report.push(format!(
        "error_rate={error_rate:.6} ratio ({failed} of {attempted} attempted)"
    ));
    if tail_n < 10 || tail_peak_n < 10 {
        report.push("WARNING: fewer than 10 samples beyond a tail percentile".into());
    }
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        ("p50_ms", p50 / 1e3, "ms"),
        ("tail_ms", tail / 1e3, "ms"),
        ("tail_peak_ms", tail_peak / 1e3, "ms"),
        ("throughput_rps", throughput, "req/s"),
        ("cpu_ms_per_req", cpu_ms, "ms"),
        ("rss_mb", rss, "MiB"),
    ];
    for (name, value, unit) in &metrics {
        report.push(format!("metric {name} = {value:.6} {unit}"));
    }
    let correct =
        check.mismatches == 0 && verifier.inconsistent.is_empty() && valid && hit_consistent;
    report.extend(
        verifier
            .inconsistent
            .iter()
            .map(|m| format!("INCONSISTENT reference: {m}")),
    );
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        correct,
        report,
    })
}

/// The traced run (`--trace 1`): per-layer metrics.
fn traced_run(args: &Args, mut server: Server, workers: usize) -> Result<Outcome, String> {
    let wl = args.workload;
    let s = args.seconds;
    let epoch = Instant::now();
    let mut traffic = Traffic::new(args.seed);
    let mut arrivals = Rng::derive(args.seed, 100);
    let mut client = Client::connect(server.addr, 2).map_err(|e| format!("connect: {e}"))?;
    let shards = shard_addrs(&server);
    let mut stats: Vec<(u8, PhaseStats)> = Vec::new();
    stats.push((
        phase::WARM,
        client.open_loop(
            &mut traffic,
            phase::WARM,
            wl.nominal_rps,
            0.1 * s,
            &mut arrivals,
        ),
    ));
    let m0 = fetch_counters(&mut client)?;
    let shard0 = shard_handled(&shards);
    stats.push((
        phase::NOMINAL,
        client.open_loop(
            &mut traffic,
            phase::NOMINAL,
            wl.nominal_rps,
            0.2 * s,
            &mut arrivals,
        ),
    ));
    let m1 = fetch_counters(&mut client)?;
    let shard1 = shard_handled(&shards);
    client.trace(epoch);
    stats.push((
        phase::TRACED,
        client.open_loop(
            &mut traffic,
            phase::TRACED,
            wl.nominal_rps,
            0.2 * s,
            &mut arrivals,
        ),
    ));
    let m2 = fetch_counters(&mut client)?;
    // Probe: kinds the workload's traffic never sends, so every layer
    // metric is measured on a live server — this one, or for a fleet the
    // single-server counterpart, whose counters show every phase.
    let present: HashSet<Kind> = client
        .sent
        .iter()
        .map(|&i| traffic.requests[i as usize].kind)
        .collect();
    let mut probe = None;
    if wl.replicas == 1 {
        probe = Some(run_probe(&mut client, &mut traffic, &present)?);
    }
    server.stop();

    // The counterpart: the same stream and schedule against the other
    // server shape, for the replica hop.
    let other_replicas = if wl.replicas > 1 { 1 } else { 2 };
    let mut other = Server::start(&args.gables, workers, other_replicas)?;
    let other_shards = shard_addrs(&other);
    let mut other_traffic = Traffic::new(args.seed);
    let mut other_arrivals = Rng::derive(args.seed, 100);
    let mut other_client = Client::connect(other.addr, 2).map_err(|e| format!("connect: {e}"))?;
    other_client.open_loop(
        &mut other_traffic,
        phase::WARM,
        wl.nominal_rps,
        0.1 * s,
        &mut other_arrivals,
    );
    let o0 = fetch_counters(&mut other_client)?;
    let oshard0 = shard_handled(&other_shards);
    let other_stats = other_client.open_loop(
        &mut other_traffic,
        phase::NOMINAL,
        wl.nominal_rps,
        0.2 * s,
        &mut other_arrivals,
    );
    let o1 = fetch_counters(&mut other_client)?;
    let oshard1 = shard_handled(&other_shards);
    if probe.is_none() {
        probe = Some(run_probe(&mut other_client, &mut other_traffic, &present)?);
    }
    other.stop();
    let (probe_stats, probe) = probe.expect("one of the two servers is a single server");
    let (probe_client, probe_traffic) = if wl.replicas == 1 {
        (&client, &traffic)
    } else {
        (&other_client, &other_traffic)
    };

    // Output check over both servers' responses; keep reference bodies
    // of the traced window for the in-process replay.
    let sample: Vec<(u32, f64)> = client
        .completions
        .iter()
        .filter(|c| c.phase == phase::TRACED && c.status == 200)
        .map(|c| (c.req, c.latency_us))
        .collect();
    let keep: HashSet<u32> = sample.iter().map(|s| s.0).collect();
    let mut verifier = Verifier::new();
    let check = check_outputs(&mut verifier, &traffic, &client.completions, &keep);
    let other_check = check_outputs(
        &mut verifier,
        &other_traffic,
        &other_client.completions,
        &HashSet::new(),
    );
    let mut report = phase_report(&stats, &client.completions, &check);
    let probe_check = if wl.replicas == 1 {
        &check
    } else {
        &other_check
    };
    report.extend(phase_report(
        &[(phase::PROBE, probe_stats)],
        &probe_client.completions,
        probe_check,
    ));
    if wl.replicas > 1 {
        report.push("(the probe phase ran against the single-server counterpart)".into());
    }
    report.push(format!(
        "counterpart --replicas {other_replicas}: sent={} ok={} failed={}",
        other_stats.sent,
        other_stats.ok_2xx,
        other_check.failed_total()
    ));

    // Live layer figures from the server's counters.
    let window = m2.since(&m1);
    let traced = latencies(&client.completions, phase::TRACED);
    let untraced = latencies(&client.completions, phase::NOMINAL);
    let client_mean = mean(&traced);
    let service = ratio(window.latency_sum_us, window.handled);
    let outside = client_mean - service;
    let count_kind =
        |completions: &[Completion], traffic: &Traffic, ph: u8, pred: &dyn Fn(Kind) -> bool| {
            completions
                .iter()
                .filter(|c| c.phase == ph && pred(traffic.requests[c.req as usize].kind))
                .count() as f64
        };
    // Per-kind figures come from the traced window when the workload
    // sends that kind, else from the probe.
    let mut from_probe: Vec<&'static str> = Vec::new();
    let mut per_kind =
        |name: &'static str, phases: &[&str], pred: &dyn Fn(Kind) -> bool, per_miss: bool| {
            let n = count_kind(&client.completions, &traffic, phase::TRACED, pred);
            if n > 0.0 {
                let d = if per_miss { window.cache_misses } else { n };
                ratio(window.phases(phases), d)
            } else {
                from_probe.push(name);
                let d = if per_miss {
                    probe.cache_misses
                } else {
                    count_kind(&probe_client.completions, probe_traffic, phase::PROBE, pred)
                };
                ratio(probe.phases(phases), d)
            }
        };
    let model_eval = per_kind("model.eval_us", &["eval"], &|k| k.is_eval(), true);
    let batch_dispatch = per_kind(
        "batch.dispatch_us",
        &["dispatch /v1/batch", "batch"],
        &|k| k == Kind::Batch,
        false,
    );
    let par_worker = per_kind(
        "par.worker_us",
        &["worker"],
        &|k| matches!(k, Kind::Sweep | Kind::Carm | Kind::Simulate),
        false,
    );
    let carm_trace = per_kind(
        "carm.trace_us",
        &["profile_trace", "carm"],
        &|k| k == Kind::Carm,
        false,
    );
    let sim_run = per_kind(
        "sim.run_us",
        &["sim.run", "engine.run", "simulate"],
        &|k| k == Kind::Simulate,
        false,
    );

    // The replica hop: outside-the-service time on the fleet minus the
    // same on one server, over the same requests at the same rate.
    let main_outside_nominal =
        mean(&untraced) - ratio(m1.since(&m0).latency_sum_us, m1.since(&m0).handled);
    let other_lat = latencies(&other_client.completions, phase::NOMINAL);
    let other_outside =
        mean(&other_lat) - ratio(o1.since(&o0).latency_sum_us, o1.since(&o0).handled);
    let (fleet_outside, single_outside) = if wl.replicas > 1 {
        (main_outside_nominal, other_outside)
    } else {
        (other_outside, main_outside_nominal)
    };
    let balance = if wl.replicas > 1 {
        imbalance(&shard0, &shard1)
    } else {
        imbalance(&oshard0, &oshard1)
    };

    // Layer sum along the blocking path (per request, µs).
    let mut path: Vec<(String, f64)> = vec![(
        "server.outside (read, queue, write, socket)".into(),
        outside,
    )];
    for (phase_name, us) in &window.phase_self_us {
        if *us > 0.0 {
            path.push((format!("phase {phase_name}"), us / window.handled.max(1.0)));
        }
    }
    let path_sum: f64 = path.iter().map(|p| p.1).sum();
    let residual_pct = (client_mean - path_sum) / client_mean * 100.0;
    let untraced_mean = mean(&untraced);
    let overhead_pct = (client_mean / untraced_mean - 1.0) * 100.0;

    let mut spans = client.spans.take().unwrap_or_default();
    let layers = layers::measure(&mut traffic, &sample, &verifier.bodies, &mut spans, epoch);

    report.push(format!(
        "layer sum (traced nominal window, {} requests, per request):",
        traced.len()
    ));
    path.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, us) in &path {
        report.push(format!(
            "  {us:>12.3} us  {:>6.2}%  {name}",
            us / client_mean * 100.0
        ));
    }
    report.push(format!("  {path_sum:>12.3} us  sum of layers"));
    report.push(format!("  {client_mean:>12.3} us  client mean latency"));
    report.push(format!(
        "  residual_pct={residual_pct:.3}% (parallel worker spans overlap, so it can be negative)"
    ));
    report.push(format!(
        "tracing overhead: client mean {client_mean:.3} us traced vs {untraced_mean:.3} us untraced \
         ({overhead_pct:+.3}%); in-process replay {:+.3}%",
        layers.replay_overhead_pct
    ));
    let composed = layers.values.get("http.parse_ns").unwrap_or(&0.0)
        + layers.values.get("http.serialize_ns").unwrap_or(&0.0)
        + layers.values.get("obs.record_ns").unwrap_or(&0.0)
        + layers.values.get("cache.op_ns").unwrap_or(&0.0);
    report.push(format!(
        "in-process request path (parse + cache op + serialize + record) = {:.3} us of {service:.3} us service",
        composed / 1e3
    ));
    for note in &layers.notes {
        report.push(format!("note: {note}"));
    }
    report.push("benchmark spans (count, mean duration, mean self time):".into());
    for (name, (count, total_ns, self_ns)) in spans.summary() {
        let n = count as f64;
        report.push(format!(
            "  {name:<22} {count:>7}  {:>12.3} us  {:>12.3} us",
            total_ns / n / 1e3,
            self_ns / n / 1e3
        ));
    }

    let metrics: Vec<Metric> = vec![
        ("http.parse_ns", layers.values["http.parse_ns"], "ns"),
        (
            "http.serialize_ns",
            layers.values["http.serialize_ns"],
            "ns",
        ),
        ("server.service_us", service, "us"),
        ("server.outside_us", outside, "us"),
        ("server.rejected", window.rejected + probe.rejected, "count"),
        (
            "server.dispatch_self_us",
            ratio(
                window.phases(&["server.request", "dispatch *"]),
                window.handled,
            ),
            "us",
        ),
        ("obs.record_ns", layers.values["obs.record_ns"], "ns"),
        (
            "spec.parse_us",
            ratio(window.phases(&["parse"]), window.handled),
            "us",
        ),
        (
            "spec.parse_ns_per_kb",
            layers.values["spec.parse_ns_per_kb"],
            "ns/KiB",
        ),
        (
            "json.parse_ns_per_kb_small",
            layers.values["json.parse_ns_per_kb_small"],
            "ns/KiB",
        ),
        (
            "json.parse_ns_per_kb_large",
            layers.values["json.parse_ns_per_kb_large"],
            "ns/KiB",
        ),
        ("batch.dispatch_us", batch_dispatch, "us"),
        (
            "cache.hit_ratio",
            ratio(window.cache_hits, window.cache_hits + window.cache_misses),
            "ratio",
        ),
        ("cache.op_ns", layers.values["cache.op_ns"], "ns"),
        ("model.eval_us", model_eval, "us"),
        (
            "model.evaluate_ns",
            layers.values["model.evaluate_ns"],
            "ns",
        ),
        (
            "cli.eval_command_ns",
            layers.values["cli.eval_command_ns"],
            "ns",
        ),
        ("sweep.point_ns", layers.values["sweep.point_ns"], "ns"),
        ("par.worker_us", par_worker, "us"),
        (
            "par.speedup_sweep",
            layers.values["par.speedup_sweep"],
            "ratio",
        ),
        (
            "par.speedup_carm",
            layers.values["par.speedup_carm"],
            "ratio",
        ),
        (
            "carm.access_ns",
            layers
                .values
                .get("carm.access_ns")
                .copied()
                .unwrap_or(f64::NAN),
            "ns",
        ),
        ("carm.trace_us", carm_trace, "us"),
        ("sim.run_us", sim_run, "us"),
        ("hop.outside_us", fleet_outside - single_outside, "us"),
        ("hop.shard_balance", balance, "ratio"),
        ("residual_pct", residual_pct, "%"),
        ("trace.overhead_pct", overhead_pct, "%"),
        (
            "gen.lag_p99_ms",
            lag_quantile_ms(&client.completions, phase::TRACED, 0.99),
            "ms",
        ),
    ];
    from_probe.extend(layers.probe.iter().copied());
    report.push(format!(
        "measured on probe inputs (the workload's traffic never reaches them): {}",
        if from_probe.is_empty() {
            "none".to_string()
        } else {
            from_probe.join(", ")
        }
    ));
    for (name, value, unit) in &metrics {
        report.push(format!("layer {name} = {value:.6} {unit}"));
    }
    if let Some(dir) = &args.out_dir {
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!("{}-seed{}-spans.json", wl.name, args.seed));
        if std::fs::write(&path, spans.chrome_json()).is_ok() {
            report.push(format!(
                "spans: {} written to {}",
                spans.spans.len(),
                path.display()
            ));
        }
    }
    let attempted = (client.completions.len() + other_client.completions.len()) as u64;
    let failed = check.failed_total() + other_check.failed_total();
    let correct =
        check.mismatches == 0 && other_check.mismatches == 0 && verifier.inconsistent.is_empty();
    report.extend(
        verifier
            .inconsistent
            .iter()
            .map(|m| format!("INCONSISTENT reference: {m}")),
    );
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        correct,
        report,
    })
}

/// Sends one request of every kind-specific layer the workload's traffic
/// lacks (closed loop) and returns the phase and the server's counter
/// deltas over it.
fn run_probe(
    client: &mut Client,
    traffic: &mut Traffic,
    present: &HashSet<Kind>,
) -> Result<(PhaseStats, Counters), String> {
    let mut deck = Vec::new();
    for (kind, n) in [
        (Kind::Eval, 64),
        (Kind::Batch, 4),
        (Kind::Sweep, 32),
        (Kind::Carm, 6),
        (Kind::Simulate, 16),
    ] {
        let covered = if kind == Kind::Eval {
            present.iter().any(|k| k.is_eval())
        } else {
            present.contains(&kind)
        };
        if !covered {
            deck.extend((0..n).map(|_| traffic.probe(kind)));
        }
    }
    let before = fetch_counters(client)?;
    let stats = client.run_list(traffic, phase::PROBE, &deck);
    let after = fetch_counters(client)?;
    Ok((stats, after.since(&before)))
}

/// The outcome of comparing live responses with their references.
#[derive(Debug, Default)]
struct Check {
    /// Per completion: a 2xx whose body matches its reference.
    good: Vec<bool>,
    mismatches: u64,
    non_2xx: u64,
    timeouts: u64,
    refused: u64,
}

impl Check {
    fn failed_total(&self) -> u64 {
        self.mismatches + self.non_2xx + self.timeouts + self.refused
    }
}

fn check_outputs(
    verifier: &mut Verifier,
    traffic: &Traffic,
    completions: &[Completion],
    keep: &HashSet<u32>,
) -> Check {
    let mut check = Check::default();
    for c in completions {
        let mut good = false;
        match c.status {
            load::REFUSED => check.refused += 1,
            load::TIMED_OUT => check.timeouts += 1,
            200..=299 => {
                let (status, body) = verifier.reference(traffic, c.req, keep.contains(&c.req));
                good = status == c.status && body == c.body;
                check.mismatches += u64::from(!good);
            }
            _ => check.non_2xx += 1,
        }
        check.good.push(good);
    }
    check
}

/// Sent / succeeded / failed per phase.
fn phase_report(
    stats: &[(u8, PhaseStats)],
    completions: &[Completion],
    check: &Check,
) -> Vec<String> {
    stats
        .iter()
        .map(|(ph, st)| {
            let done: Vec<usize> = (0..completions.len()).filter(|&i| completions[i].phase == *ph).collect();
            let ok = done.iter().filter(|&&i| check.good[i]).count();
            let wrong_body = done
                .iter()
                .filter(|&&i| (200..300).contains(&completions[i].status) && !check.good[i])
                .count();
            format!(
                "phase {:<8} {:>6.2} s  sent={} succeeded={} failed={} (non_2xx={} timeouts={} refused={} wrong_body={})",
                phase::NAMES[*ph as usize],
                st.duration_s,
                st.sent,
                ok,
                done.len() - ok,
                st.non_2xx,
                st.timeouts,
                st.refused,
                wrong_body
            )
        })
        .collect()
}

/// (scheduled µs into the phase, latency µs) of a phase's requests;
/// failures count as infinitely late.
fn latencies(completions: &[Completion], ph: u8) -> Vec<(f64, f64)> {
    completions
        .iter()
        .filter(|c| c.phase == ph)
        .map(|c| {
            let ok = (200..300).contains(&c.status);
            (
                if c.sched_us.is_finite() {
                    c.sched_us
                } else {
                    0.0
                },
                if ok { c.latency_us } else { f64::INFINITY },
            )
        })
        .collect()
}

/// Nearest-rank quantile of a sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median over rounds of each round's `q` quantile (or, when rounds
/// are too small to hold one, the quantile of all rounds pooled), and the
/// number of samples beyond `q` over all rounds.
fn round_quantile(rounds: &[Vec<(f64, f64)>], q: f64) -> (f64, usize) {
    let n: usize = rounds.iter().map(Vec::len).sum();
    let beyond = n - ((q * n as f64).ceil() as usize).min(n);
    if rounds.iter().any(|r| r.len() < MIN_ROUND_SAMPLES) {
        return (pooled(rounds, q), beyond);
    }
    let per_round: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| {
            let mut v: Vec<f64> = r.iter().map(|s| s.1).collect();
            v.sort_by(f64::total_cmp);
            quantile(&v, q)
        })
        .collect();
    (median(&per_round), beyond)
}

/// The `q` quantile of all rounds' samples together.
fn pooled(rounds: &[Vec<(f64, f64)>], q: f64) -> f64 {
    let mut v: Vec<f64> = rounds.iter().flatten().map(|s| s.1).collect();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// Host steal time so far, in clock ticks summed over CPUs.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| t.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn mean(samples: &[(f64, f64)]) -> f64 {
    let finite: Vec<f64> = samples
        .iter()
        .map(|s| s.1)
        .filter(|v| v.is_finite())
        .collect();
    finite.iter().sum::<f64>() / finite.len().max(1) as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The `q` quantile of how late the generator sent a phase's requests, ms.
fn lag_quantile_ms(completions: &[Completion], ph: u8, q: f64) -> f64 {
    let mut lags: Vec<f64> = completions
        .iter()
        .filter(|c| c.phase == ph)
        .map(|c| c.lag_us)
        .collect();
    lags.sort_by(f64::total_cmp);
    quantile(&lags, q) / 1e3
}

/// Shard addresses of a `--replicas` router (empty for one server).
fn shard_addrs(server: &Server) -> Vec<std::net::SocketAddr> {
    use gables_model::json::Json;
    let Ok((200, body)) = server::get(server.addr, "/v1/healthz?format=json") else {
        return Vec::new();
    };
    let Ok(doc) = Json::parse(&String::from_utf8_lossy(&body)) else {
        return Vec::new();
    };
    doc.get("data")
        .and_then(|d| d.get("shards"))
        .and_then(Json::as_array)
        .map(|shards| {
            shards
                .iter()
                .filter_map(|s| s.get("addr")?.as_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

fn shard_handled(shards: &[std::net::SocketAddr]) -> Vec<f64> {
    shards
        .iter()
        .map(|&a| {
            server::get(a, "/v1/metrics")
                .ok()
                .and_then(|(_, body)| Counters::parse(&body))
                .map_or(0.0, |c| c.handled)
        })
        .collect()
}

/// Max over mean of the per-shard request counts in a window (1 for a
/// single server or a perfect split).
fn imbalance(before: &[f64], after: &[f64]) -> f64 {
    let d: Vec<f64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    if d.is_empty() {
        return 1.0;
    }
    let m = d.iter().sum::<f64>() / d.len() as f64;
    ratio(d.iter().copied().fold(0.0, f64::max), m)
}

struct Shape {
    repeat_share: f64,
    lines: Vec<String>,
}

/// The recorded traffic shape of the measured nominal window: repeat
/// share, distinct requests against the cache, sizes and counts.
fn traffic_shape(traffic: &Traffic, warm: &[u32], window: &[u32]) -> Shape {
    let mut seen: HashSet<u32> = warm.iter().copied().collect();
    let mut repeats = 0usize;
    for &i in window {
        if !seen.insert(i) {
            repeats += 1;
        }
    }
    let repeat_share = ratio(repeats as f64, window.len() as f64);
    let distinct: HashSet<u32> = window.iter().copied().collect();
    let q = |mut v: Vec<f64>| -> String {
        if v.is_empty() {
            return "none".into();
        }
        v.sort_by(f64::total_cmp);
        format!(
            "p10={} p50={} p90={} max={}",
            quantile(&v, 0.1),
            quantile(&v, 0.5),
            quantile(&v, 0.9),
            v[v.len() - 1]
        )
    };
    let reqs = || window.iter().map(|&i| &traffic.requests[i as usize]);
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for r in reqs() {
        *kinds.entry(r.kind.label()).or_default() += 1;
    }
    let lines = vec![
        format!(
            "traffic: {} requests in the nominal window, repeat_share={repeat_share:.4}, \
             {} distinct requests = {:.2}x the {}-entry response cache, kinds {kinds:?}",
            window.len(),
            distinct.len(),
            distinct.len() as f64 / gen::CACHE_CAPACITY as f64,
            gen::CACHE_CAPACITY
        ),
        format!(
            "traffic: body bytes {}",
            q(reqs().map(|r| r.body.len() as f64).collect())
        ),
        format!(
            "traffic: batch items {}",
            q(reqs()
                .filter(|r| r.kind == Kind::Batch)
                .map(|r| r.items.len() as f64)
                .collect())
        ),
        format!(
            "traffic: sweep steps {}",
            q(reqs()
                .filter(|r| r.kind == Kind::Sweep)
                .map(|r| r.steps as f64)
                .collect())
        ),
    ];
    Shape {
        repeat_share,
        lines,
    }
}
