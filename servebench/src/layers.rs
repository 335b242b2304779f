//! In-process layer timing: the run's recorded requests replayed through
//! each layer's public functions, one span per call.
//!
//! The replay follows the server's path for one request — HTTP framing,
//! JSON and spec parsing, the response cache, `evaluate` and rendering,
//! serialization, and the metrics recorder — so a request's spans share
//! one id. Compute layers (sweeps, the parallel map, the cache simulator)
//! are timed in their own loops. Where the workload's traffic never
//! reaches a layer, it is timed on probe inputs from the same generator,
//! and the result says so.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use gables_cli::spec::Spec;
use gables_model::json::Json;
use gables_model::{evaluate, Parallelism};
use gables_serve::http::parse_request_bytes;
use gables_serve::{Response, ServerMetrics, ShardedCache};

use crate::gen::{Kind, Request, Traffic};
use crate::trace::Spans;
use crate::verify::cache_keys;

/// Bodies up to this size count as small JSON.
const SMALL_JSON: usize = 4096;
/// Wall-clock budget of the first replay pass; later passes replay the
/// same requests.
const REPLAY_BUDGET: Duration = Duration::from_millis(500);
/// Accesses per ladder rung when timing the cache simulator.
const LADDER_ACCESSES: u64 = 50_000;

/// Per-layer results: value, and whether it came from the workload's own
/// traffic or from probe inputs.
#[derive(Debug, Default)]
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
    pub probe: Vec<&'static str>,
    pub notes: Vec<String>,
    /// Replay time with spans over replay time without, minus one, in %.
    pub replay_overhead_pct: f64,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, from_probe: bool) {
        self.values.insert(name, value);
        if from_probe {
            self.probe.push(name);
        }
    }
}

/// Counts accumulated by one replay pass (the traced pass's are used).
#[derive(Debug, Default)]
struct Work {
    requests: u64,
    spec_bytes: f64,
    json_small_bytes: f64,
    json_large_bytes: f64,
    cache_ops: u64,
    evaluations: u64,
    serializations: u64,
}

/// Spans when tracing, nothing otherwise.
struct Tracer<'a> {
    spans: Option<&'a mut Spans>,
    epoch: Instant,
    request: u64,
    parent: Option<u32>,
}

impl Tracer<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.spans.as_deref_mut() {
            Some(spans) => spans.time(name, self.parent, self.request, self.epoch, f),
            None => f(),
        }
    }
}

/// Everything one replayed request needs, prepared outside the timing.
struct Prepared<'a> {
    req: &'a Request,
    latency: Duration,
    keys: Vec<String>,
    /// The spec texts the eval path renders: the body, or the batch items.
    eval_texts: Vec<&'a str>,
    response: Option<Response>,
}

/// Replays `sample` (request index, client latency µs) through the
/// request-path layers, then times the compute layers.
pub fn measure(
    traffic: &mut Traffic,
    sample: &[(u32, f64)],
    bodies: &HashMap<u32, (Vec<u8>, String)>,
    spans: &mut Spans,
    epoch: Instant,
) -> Layers {
    let mut layers = Layers::default();
    let has_eval = sample.iter().any(
        |&(i, _)| matches!(traffic.requests[i as usize].kind, k if k.is_eval() || k == Kind::Batch),
    );
    let prepared: Vec<Prepared> = sample
        .iter()
        .map(|&(i, latency_us)| {
            let req = &traffic.requests[i as usize];
            let eval_texts: Vec<&str> = match req.kind {
                Kind::Batch => req.items.iter().map(String::as_str).collect(),
                k if k.is_eval() || !has_eval => vec![req.body.as_str()],
                _ => Vec::new(),
            };
            Prepared {
                req,
                latency: Duration::from_secs_f64(latency_us.max(0.0) / 1e6),
                keys: cache_keys(req),
                eval_texts,
                response: bodies.get(&i).map(|(body, content_type)| {
                    let mut r = Response::text(200, String::from_utf8_lossy(body).into_owned());
                    r.content_type.clone_from(content_type);
                    r.with_header("X-Cache", "miss")
                        .with_header("X-Request-Id", format!("{i:016x}"))
                }),
            }
        })
        .collect();

    // Untraced, traced, untraced: the overhead compares the traced pass
    // with the mean of the passes around it.
    let mut untraced = Vec::new();
    let (count, t0, _) = replay_requests(&prepared, None, epoch, Some(REPLAY_BUDGET));
    untraced.push(t0);
    let first_span = spans.spans.len();
    let (_, traced, work) = replay_requests(&prepared[..count], Some(spans), epoch, None);
    let (_, t2, _) = replay_requests(&prepared[..count], None, epoch, None);
    untraced.push(t2);
    let base = untraced.iter().sum::<f64>() / untraced.len() as f64;
    layers.replay_overhead_pct = (traced / base - 1.0) * 100.0;

    let mut total: BTreeMap<&str, f64> = BTreeMap::new();
    for s in &spans.spans[first_span..] {
        *total.entry(s.name).or_default() += (s.end_ns - s.start_ns) as f64;
    }
    let per = |name: &str, n: f64| total.get(name).copied().unwrap_or(0.0) / n.max(1.0);
    let n = work.requests as f64;
    layers.set("http.parse_ns", per("http.parse", n), false);
    layers.set(
        "http.serialize_ns",
        per("http.serialize", work.serializations as f64),
        false,
    );
    layers.set("obs.record_ns", per("obs.record", n), false);
    layers.set(
        "spec.parse_ns_per_kb",
        per("spec.parse", work.spec_bytes / 1024.0),
        false,
    );
    layers.set("cache.op_ns", per("cache.op", work.cache_ops as f64), false);
    layers.set(
        "model.evaluate_ns",
        per("model.evaluate", work.evaluations as f64),
        !has_eval,
    );
    layers.set(
        "cli.eval_command_ns",
        per("cli.eval_command", work.evaluations as f64),
        !has_eval,
    );
    layers.notes.push(format!(
        "replayed {count} requests ({} evaluations, {:.1} KiB of specs)",
        work.evaluations,
        work.spec_bytes / 1024.0
    ));

    if work.json_small_bytes > 0.0 {
        layers.set(
            "json.parse_ns_per_kb_small",
            per("json.parse_small", work.json_small_bytes / 1024.0),
            false,
        );
    } else {
        // JSON carriers of the run's own spec texts (batch items, not
        // whole envelopes).
        let bodies: Vec<String> = prepared
            .iter()
            .map(|p| p.req.items.first().unwrap_or(&p.req.body))
            .filter(|text| text.len() < SMALL_JSON - 16)
            .take(256)
            .map(|text| {
                let mut b = String::from("{\"spec\":");
                crate::gen::push_json_string(&mut b, text);
                b.push('}');
                b
            })
            .collect();
        let v = json_probe(&bodies, "json.parse_small", spans, epoch);
        layers.set("json.parse_ns_per_kb_small", v, true);
    }
    if work.json_large_bytes > 0.0 {
        layers.set(
            "json.parse_ns_per_kb_large",
            per("json.parse_large", work.json_large_bytes / 1024.0),
            false,
        );
    } else {
        let bodies: Vec<String> = (0..4).map(|_| traffic.batch(64).body).collect();
        let v = json_probe(&bodies, "json.parse_large", spans, epoch);
        layers.set("json.parse_ns_per_kb_large", v, true);
    }

    compute_layers(traffic, sample, spans, epoch, &mut layers);
    layers
}

/// One pass over the prepared requests. Returns how many were replayed
/// (the budget may stop it early), the elapsed ns, and the work done.
fn replay_requests(
    prepared: &[Prepared],
    mut spans: Option<&mut Spans>,
    epoch: Instant,
    budget: Option<Duration>,
) -> (usize, f64, Work) {
    let cache = ShardedCache::new(8, 128);
    let metrics = ServerMetrics::new();
    let mut out = Vec::with_capacity(1 << 16);
    let mut work = Work::default();
    let start = Instant::now();
    let mut count = 0;
    for (id, p) in prepared.iter().enumerate() {
        if budget.is_some_and(|b| start.elapsed() > b) {
            break;
        }
        count += 1;
        let root = spans
            .as_deref_mut()
            .map(|s| s.open("replay.request", None, id as u64, epoch));
        let mut tr = Tracer {
            spans: spans.as_deref_mut(),
            epoch,
            request: id as u64,
            parent: root,
        };
        work.requests += 1;
        let parsed = tr.time("http.parse", || parse_request_bytes(black_box(&p.req.wire)));
        black_box(parsed.ok());
        let body = &p.req.body;
        if body.starts_with('{') {
            let name = if body.len() <= SMALL_JSON {
                work.json_small_bytes += body.len() as f64;
                "json.parse_small"
            } else {
                work.json_large_bytes += body.len() as f64;
                "json.parse_large"
            };
            black_box(tr.time(name, || Json::parse(black_box(body)).is_ok()));
        }
        let texts: Vec<&str> = if p.req.kind == Kind::Batch {
            p.req.items.iter().map(String::as_str).collect()
        } else {
            vec![body.as_str()]
        };
        let specs: Vec<Option<Spec>> = tr.time("spec.parse", || {
            texts
                .iter()
                .map(|t| Spec::parse(black_box(t)).ok())
                .collect()
        });
        work.spec_bytes += texts.iter().map(|t| t.len() as f64).sum::<f64>();
        let mut misses = Vec::new();
        for (k, key) in p.keys.iter().enumerate() {
            work.cache_ops += 1;
            let hit = tr.time("cache.op", || {
                let hit = cache.get(key).is_some();
                if !hit {
                    cache.insert(key.clone(), String::new());
                }
                hit
            });
            if !hit {
                misses.push(k);
            }
        }
        for &k in &misses {
            let Some(text) = p.eval_texts.get(k) else {
                continue;
            };
            let Some(Some(spec)) = specs.get(k) else {
                continue;
            };
            let (Ok(soc), Ok(workload)) = (spec.soc(), spec.workload()) else {
                continue;
            };
            work.evaluations += 1;
            black_box(tr.time("model.evaluate", || {
                evaluate(black_box(&soc), black_box(&workload)).is_ok()
            }));
            black_box(tr.time("cli.eval_command", || {
                gables_cli::eval_command(black_box(text)).is_ok()
            }));
        }
        if let Some(resp) = &p.response {
            work.serializations += 1;
            out.clear();
            tr.time("http.serialize", || resp.serialize_into(true, &mut out));
            black_box(&out);
        }
        tr.time("obs.record", || {
            metrics.record_handled(p.req.path, 200, p.latency)
        });
        if let (Some(s), Some(root)) = (spans.as_deref_mut(), root) {
            s.close(root, epoch);
        }
    }
    (count, start.elapsed().as_nanos() as f64, work)
}

/// `Json::parse` over probe bodies, ns per KiB.
fn json_probe(bodies: &[String], name: &'static str, spans: &mut Spans, epoch: Instant) -> f64 {
    let mut ns = 0.0;
    let mut bytes = 0.0;
    for (i, b) in bodies.iter().enumerate() {
        let start = Instant::now();
        black_box(Json::parse(black_box(b)).is_ok());
        let end = Instant::now();
        spans.record(name, start, end, None, i as u64, epoch);
        ns += (end - start).as_nanos() as f64;
        bytes += b.len() as f64;
    }
    ns / (bytes / 1024.0).max(1e-9)
}

/// Median of `reps` timings of `f`, ns, each recorded as a span.
fn timed(
    reps: usize,
    name: &'static str,
    spans: &mut Spans,
    epoch: Instant,
    mut f: impl FnMut(),
) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|r| {
            let start = Instant::now();
            f();
            let end = Instant::now();
            spans.record(name, start, end, None, r as u64, epoch);
            (end - start).as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn query_value<'a>(req: &'a Request, key: &str) -> Option<&'a str> {
    req.query.as_deref()?.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn sweep_with(req: &Request, parallelism: Parallelism, steps: usize) -> bool {
    let param = query_value(req, "param").unwrap_or("intensity");
    let num = |k: &str, d: f64| {
        query_value(req, k)
            .and_then(|v| v.parse().ok())
            .unwrap_or(d)
    };
    gables_cli::sweep_command_with(
        &req.body,
        param,
        num("from", 0.25),
        num("to", 64.0),
        steps,
        parallelism,
    )
    .is_ok()
}

/// Sweeps, the parallel map, and the cache simulator.
fn compute_layers(
    traffic: &mut Traffic,
    sample: &[(u32, f64)],
    spans: &mut Spans,
    epoch: Instant,
    layers: &mut Layers,
) {
    let of_kind = |traffic: &Traffic, kind: Kind| -> Vec<u32> {
        sample
            .iter()
            .map(|s| s.0)
            .filter(|&i| traffic.requests[i as usize].kind == kind)
            .collect()
    };
    // sweep.point_ns: the run's own sweeps, serial, per grid point.
    let mut sweeps = of_kind(traffic, Kind::Sweep);
    let sweep_probe = sweeps.is_empty();
    if sweep_probe {
        sweeps = (0..8).map(|_| traffic.probe(Kind::Sweep)).collect();
    }
    let (mut ns, mut points) = (0.0, 0.0);
    let budget = Instant::now() + Duration::from_millis(300);
    for &i in &sweeps {
        let req = &traffic.requests[i as usize];
        let start = Instant::now();
        black_box(sweep_with(req, Parallelism::Serial, req.steps));
        let end = Instant::now();
        spans.record("sweep.serial", start, end, None, u64::from(i), epoch);
        ns += (end - start).as_nanos() as f64;
        points += (req.steps + 1) as f64;
        if end > budget {
            break;
        }
    }
    layers.set("sweep.point_ns", ns / points.max(1.0), sweep_probe);

    // par.speedup_sweep: serial over Auto on a small and a large grid.
    let sweep = traffic.requests[sweeps[0] as usize].clone();
    let mut speedups = Vec::new();
    for steps in [16, 4096] {
        let serial = timed(5, "par.sweep_serial", spans, epoch, || {
            black_box(sweep_with(&sweep, Parallelism::Serial, steps));
        });
        let auto = timed(5, "par.sweep_auto", spans, epoch, || {
            black_box(sweep_with(&sweep, Parallelism::Auto, steps));
        });
        speedups.push(serial / auto);
        layers.notes.push(format!(
            "par.speedup_sweep at {steps} steps: {:.3}",
            serial / auto
        ));
    }
    layers.set(
        "par.speedup_sweep",
        (speedups[0] * speedups[1]).sqrt(),
        sweep_probe,
    );

    // par.speedup_carm and carm.access_ns on the run's first CARM spec.
    let mut carms = of_kind(traffic, Kind::Carm);
    let carm_probe = carms.is_empty();
    if carm_probe {
        carms.push(traffic.probe(Kind::Carm));
    }
    let body = traffic.requests[carms[0] as usize].body.clone();
    let serial = timed(3, "par.carm_serial", spans, epoch, || {
        black_box(gables_cli::carm::carm_report(&body, Parallelism::Serial).is_ok());
    });
    let auto = timed(3, "par.carm_auto", spans, epoch, || {
        black_box(gables_cli::carm::carm_report(&body, Parallelism::Auto).is_ok());
    });
    layers.set("par.speedup_carm", serial / auto, carm_probe);
    match Spec::parse(&body)
        .ok()
        .and_then(|s| s.cache_hierarchy().ok().flatten())
    {
        Some(hierarchy) => {
            let rungs = (hierarchy.levels.len() + 1) as f64;
            let ns = timed(3, "carm.ladder", spans, epoch, || {
                black_box(
                    gables_soc_sim::measure_bandwidth_ladder(
                        &hierarchy,
                        LADDER_ACCESSES,
                        7,
                        Parallelism::Serial,
                    )
                    .is_ok(),
                );
            });
            layers.set(
                "carm.access_ns",
                ns / (rungs * LADDER_ACCESSES as f64),
                carm_probe,
            );
        }
        None => layers
            .notes
            .push("carm.access_ns: CARM spec has no cache hierarchy".into()),
    }
}
