//! Seeded traffic generators: the workloads, the eval-stream request mix,
//! the probe requests, and the HTTP bytes each request puts on the wire. The server sees only
//! these bytes; everything here is a function of the workload and seed.

use std::fmt::Write as _;

use crate::rng::{Rng, Strata};

/// What a request asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `POST /v1/eval`, INI body, JSON envelope out.
    Eval,
    /// `POST /v1/eval?format=text`, INI body, CLI text out.
    EvalText,
    /// `POST /v1/eval`, `{"spec": ...}` JSON carrier.
    EvalJson,
    /// `POST /v1/whatif`, `{"spec": ..., "edits": ...}`.
    Whatif,
    /// `POST /v1/batch`, `{"specs": [...]}`.
    Batch,
    /// `POST /v1/sweep` with a `steps` grid.
    Sweep,
    /// `POST /v1/carm`, spec with `[cache.<level>]` sections.
    Carm,
    /// `POST /v1/simulate`.
    Simulate,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Eval => "eval",
            Kind::EvalText => "eval_text",
            Kind::EvalJson => "eval_json",
            Kind::Whatif => "whatif",
            Kind::Batch => "batch",
            Kind::Sweep => "sweep",
            Kind::Carm => "carm",
            Kind::Simulate => "simulate",
        }
    }

    /// Whether the server answers it from the `/v1/eval` handler chain
    /// (spec parse, cache, `evaluate`, rendering).
    pub fn is_eval(self) -> bool {
        matches!(self, Kind::Eval | Kind::EvalText | Kind::EvalJson)
    }
}

/// One distinct request: its route, body, and the exact bytes sent.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub path: &'static str,
    pub query: Option<String>,
    pub body: String,
    /// The full HTTP/1.1 request (head and body).
    pub wire: Vec<u8>,
    /// The spec strings of a `/v1/batch` envelope.
    pub items: Vec<String>,
    /// Grid steps of a `/v1/sweep`.
    pub steps: usize,
}

impl Request {
    fn new(kind: Kind, path: &'static str, query: Option<String>, body: String) -> Self {
        let target = match &query {
            Some(q) => format!("{path}?{q}"),
            None => path.to_string(),
        };
        let content_type = if body.starts_with('{') {
            "application/json"
        } else {
            "text/plain"
        };
        let mut wire = format!(
            "POST {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body.as_bytes());
        Self {
            kind,
            path,
            query,
            body,
            wire,
            items: Vec::new(),
            steps: 0,
        }
    }

    /// The server's response-cache key for this request (route, query,
    /// output format, canonical spec), as `gables serve` builds it.
    pub fn cache_key(&self, canonical: &str) -> String {
        let query = self.query.as_deref().unwrap_or("");
        let format = if query.split('&').any(|p| p == "format=text") {
            "text"
        } else {
            "json"
        };
        format!("{}|{query}|{format}|{canonical}", self.path)
    }
}

/// A benchmark workload: the eval stream against one server shape, at
/// fixed open-loop rates.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// `gables serve --replicas` (1 serves in-process).
    pub replicas: usize,
    /// Open-loop rate of the nominal phase, requests per second.
    pub nominal_rps: f64,
    /// Open-loop rate of the peak phase, requests per second.
    pub peak_rps: f64,
}

/// The tail percentile reported as `tail_ms` / `tail_peak_ms`: p90,
/// because on a shared host p99 moves by more than 100% between runs with
/// the host's stalls of 10–50 ms.
pub const TAIL_Q: f64 = 0.9;

/// The workloads. Rates are fixed so that a faster program shows as lower
/// latency at the same load. Measured closed-loop capacity on a 2-CPU
/// host: about 9000 req/s for one server on the eval stream, about 2900
/// req/s for `--replicas 2`. The shared nominal rate sits below half the
/// fleet's capacity; peak rates stay at a third to a half of capacity,
/// where the tail is still steady from run to run on a shared host.
/// Batch and compute requests are sent by the traced run's probe phase.
pub const WORKLOADS: [Workload; 2] = [
    // Eval traffic: framing, parsing, the cache, `evaluate`, rendering.
    Workload {
        name: "eval_stream",
        replicas: 1,
        nominal_rps: 1200.0,
        peak_rps: 3000.0,
    },
    // The eval stream through the replica hop.
    Workload {
        name: "fleet_eval",
        replicas: 2,
        nominal_rps: 1200.0,
        peak_rps: 1500.0,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Entries of the `gables serve` response cache (`ShardedCache::new(8, 128)`).
pub const CACHE_CAPACITY: usize = 1024;
/// Distinct popular requests in the eval stream: four times the cache.
pub const POOL: usize = 4 * CACHE_CAPACITY;
/// Share of eval-stream requests that carry a never-seen spec.
const FRESH_SHARE: f64 = 0.35;
/// Zipf exponent over the popular pool.
const ZIPF_S: f64 = 0.9;
/// Eval-stream kinds and their shares: 80% INI (half `?format=text`),
/// 10% JSON carrier, 10% what-if.
const EVAL_KINDS: [(Kind, f64); 4] = [
    (Kind::Eval, 0.4),
    (Kind::EvalText, 0.4),
    (Kind::EvalJson, 0.1),
    (Kind::Whatif, 0.1),
];
const IP_NAMES: [&str; 8] = ["CPU", "GPU", "DSP", "ISP", "NPU", "VPU", "DPU", "APU"];
const WORDS: [&str; 16] = [
    "camera", "preview", "frame", "budget", "offload", "decoder", "tile", "buffer", "burst",
    "thermal", "stream", "kernel", "reuse", "display", "sensor", "pipeline",
];

/// The eval request stream of one seed. Distinct requests are
/// created on first use and referred to by index afterwards, so a repeat
/// sends byte-identical bytes.
pub struct Traffic {
    seed: u64,
    pub requests: Vec<Request>,
    /// Eval stream: per kind, popular-pool rank → request index.
    pools: Vec<Vec<Option<u32>>>,
    zipf_cdf: Vec<Vec<f64>>,
    kinds: Strata,
    fresh: Strata,
    sizes: Strata,
    /// Probe compute request shapes (IP count, cache geometry), so each
    /// run holds the same mix of cheap and expensive requests.
    shapes: Strata,
    rng: Rng,
    next_tag: u64,
}

impl Traffic {
    pub fn new(seed: u64) -> Self {
        let pools: Vec<Vec<Option<u32>>> = EVAL_KINDS
            .iter()
            .map(|(_, share)| vec![None; (POOL as f64 * share).round() as usize])
            .collect();
        let zipf_cdf = pools.iter().map(|p| zipf_cdf(p.len(), ZIPF_S)).collect();
        Self {
            seed,
            requests: Vec::new(),
            pools,
            zipf_cdf,
            kinds: Strata::new(Rng::derive(seed, 1), 20),
            fresh: Strata::new(Rng::derive(seed, 2), 20),
            sizes: Strata::new(Rng::derive(seed, 3), 32),
            shapes: Strata::new(Rng::derive(seed, 5), 27),
            rng: Rng::derive(seed, 4),
            next_tag: 1_000_000,
        }
    }

    fn push(&mut self, req: Request) -> u32 {
        self.requests.push(req);
        (self.requests.len() - 1) as u32
    }

    fn tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag
    }

    /// The next request of the stream, as an index into `requests`.
    pub fn next(&mut self) -> u32 {
        let weights: Vec<f64> = EVAL_KINDS.iter().map(|k| k.1).collect();
        let k = self.kinds.pick(&weights);
        let kind = EVAL_KINDS[k].0;
        if self.fresh.next() < FRESH_SHARE {
            let tag = self.tag();
            let mut rng = Rng::derive(self.seed, tag);
            let pad = self.sizes.log_uniform(300, 2000);
            let req = eval_request(kind, &mut rng, tag, pad);
            return self.push(req);
        }
        let u = self.rng.unit();
        let cdf = &self.zipf_cdf[k];
        let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
        if let Some(idx) = self.pools[k][rank] {
            return idx;
        }
        // A popular entry's content depends only on (seed, kind, rank),
        // never on when it is first drawn.
        let tag = (k * 10_000 + rank) as u64;
        let mut rng = Rng::derive(self.seed, (1 << 40) | tag);
        let pad = (300.0 * (2000.0f64 / 300.0).powf(rng.unit())) as usize;
        let req = eval_request(kind, &mut rng, tag, pad);
        let idx = self.push(req);
        self.pools[k][rank] = Some(idx);
        idx
    }

    /// A `/v1/batch` envelope of `n` unique specs.
    pub fn batch(&mut self, n: usize) -> Request {
        let items: Vec<String> = (0..n)
            .map(|_| {
                let tag = self.tag();
                let mut rng = Rng::derive(self.seed, tag);
                let ips = 2 + rng.below(3);
                spec_text(&mut rng, ips, tag, 0, 0.05)
            })
            .collect();
        let mut body = String::from("{\"specs\":[");
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            push_json_string(&mut body, item);
        }
        body.push_str("]}");
        let mut req = Request::new(Kind::Batch, "/v1/batch", None, body);
        req.items = items;
        req
    }

    /// One unique `/v1/carm` or `/v1/simulate` request.
    fn compute(&mut self, kind: Kind) -> Request {
        let tag = self.tag();
        let mut rng = Rng::derive(self.seed, tag);
        let text = rng.unit() < 0.5;
        // One stratified draw picks the shape: 27 = 3 IP counts x 3 cache
        // level counts x 3 first-level sizes.
        let shape = (self.shapes.next() * 27.0) as usize;
        let query = text.then(|| "format=text".into());
        match kind {
            Kind::Carm => {
                let mut body = spec_text(&mut rng, 2 + shape % 3, tag, 0, 0.05);
                push_cache_levels(
                    &mut body,
                    &mut rng,
                    2 + (shape / 3) % 3,
                    8 << (shape / 9 % 3),
                );
                Request::new(kind, "/v1/carm", query, body)
            }
            Kind::Simulate => {
                let body = spec_text(&mut rng, 2 + shape % 3, tag, 0, 0.1);
                Request::new(kind, "/v1/simulate", query, body)
            }
            other => unreachable!("{other:?} is not a compute kind"),
        }
    }

    /// A unique request of any kind, for layers the workload's own
    /// traffic does not reach.
    pub fn probe(&mut self, kind: Kind) -> u32 {
        let req = match kind {
            Kind::Batch => self.batch(32),
            Kind::Sweep => {
                let tag = self.tag();
                let mut rng = Rng::derive(self.seed, tag);
                let body = spec_text(&mut rng, 4, tag, 0, 0.05);
                let mut req = Request::new(kind, "/v1/sweep", Some("steps=256".into()), body);
                req.steps = 256;
                req
            }
            Kind::Carm | Kind::Simulate => self.compute(kind),
            eval => {
                let tag = self.tag();
                let mut rng = Rng::derive(self.seed, tag);
                let pad = self.sizes.log_uniform(300, 2000);
                eval_request(eval, &mut rng, tag, pad)
            }
        };
        self.push(req)
    }
}

fn eval_request(kind: Kind, rng: &mut Rng, tag: u64, pad: usize) -> Request {
    let ips = 2 + rng.below(7);
    let spec = spec_text(rng, ips, tag, pad, 0.05);
    match kind {
        Kind::Eval => Request::new(kind, "/v1/eval", None, spec),
        Kind::EvalText => Request::new(kind, "/v1/eval", Some("format=text".into()), spec),
        Kind::EvalJson => {
            let mut body = String::from("{\"spec\":");
            push_json_string(&mut body, &spec);
            body.push('}');
            Request::new(kind, "/v1/eval", None, body)
        }
        Kind::Whatif => {
            let ip = 1 + rng.below(ips - 1);
            let edits = format!(
                "set_bpeak {:.2}; scale_bw {ip} {:.2}; set_intensity {ip} {:.3}",
                rng.range(5.0, 60.0),
                rng.range(0.5, 3.0),
                rng.range(0.1, 64.0)
            );
            let mut body = String::from("{\"spec\":");
            push_json_string(&mut body, &spec);
            body.push_str(",\"edits\":");
            push_json_string(&mut body, &edits);
            body.push('}');
            Request::new(kind, "/v1/whatif", None, body)
        }
        other => unreachable!("{other:?} is not an eval-stream kind"),
    }
}

/// A Gables spec with `ips` IPs, made unique by `tag`, padded with
/// comment lines to about `pad` bytes. Intensities stay at or above
/// `min_intensity` (the simulator needs 0.0625).
fn spec_text(rng: &mut Rng, ips: usize, tag: u64, pad: usize, min_intensity: f64) -> String {
    let mut body = String::with_capacity(pad.max(256) + 64);
    let _ = writeln!(body, "[soc]");
    let _ = writeln!(body, "ppeak_gops = {}.{tag:07}", 5 + rng.below(95));
    let _ = writeln!(body, "bpeak_gbps = {:.2}", rng.range(4.0, 60.0));
    for (i, name) in IP_NAMES.iter().take(ips).enumerate() {
        let _ = writeln!(body, "\n[ip.{name}]");
        if i > 0 {
            let _ = writeln!(body, "acceleration = {:.2}", rng.range(0.5, 40.0));
        }
        let _ = writeln!(body, "bandwidth_gbps = {:.2}", rng.range(2.0, 40.0));
    }
    // Fractions in thousandths so they sum to exactly 1.
    let mut cuts: Vec<usize> = (0..ips - 1).map(|_| 1 + rng.below(998)).collect();
    cuts.sort_unstable();
    let mut parts = Vec::with_capacity(ips);
    let mut prev = 0;
    for c in cuts.iter().chain(std::iter::once(&1000)) {
        parts.push(c - prev);
        prev = *c;
    }
    // Equal cuts would give a zero share; move one thousandth over.
    for i in 0..parts.len() {
        if parts[i] == 0 {
            let donor = (0..parts.len())
                .max_by_key(|&j| parts[j])
                .expect("non-empty");
            parts[donor] -= 1;
            parts[i] += 1;
        }
    }
    let fractions: Vec<String> = parts
        .iter()
        .map(|p| format!("{:.3}", *p as f64 / 1000.0))
        .collect();
    let intensities: Vec<String> = (0..ips)
        .map(|_| format!("{:.3}", min_intensity.max((rng.range(-3.0, 6.0)).exp2())))
        .collect();
    let _ = writeln!(body, "\n[workload]");
    let _ = writeln!(body, "fractions = {}", fractions.join(", "));
    let _ = writeln!(body, "intensities = {}", intensities.join(", "));
    if body.len() < pad {
        let mut header = String::with_capacity(pad - body.len() + 80);
        while header.len() + body.len() < pad {
            header.push('#');
            for _ in 0..8 {
                header.push(' ');
                header.push_str(WORDS[rng.below(WORDS.len())]);
            }
            header.push('\n');
        }
        body.insert_str(0, &header);
    }
    body
}

/// Appends `levels` (2–4) `[cache.<level>]` sections, each four times
/// the one before, and the DRAM latency.
fn push_cache_levels(body: &mut String, rng: &mut Rng, levels: usize, first_kib: usize) {
    let names = ["l1", "l2", "l3", "slc"];
    let mut capacity_kib = first_kib;
    let mut latency = 1.0;
    for name in names.iter().take(levels) {
        let _ = writeln!(body, "\n[cache.{name}]");
        let _ = writeln!(body, "capacity_kib = {capacity_kib}");
        let _ = writeln!(body, "associativity = {}", 4 << rng.below(3));
        let _ = writeln!(body, "latency_ns = {latency:.1}");
        if rng.unit() < 0.3 {
            let _ = writeln!(body, "policy = mru");
        }
        capacity_kib *= 4;
        latency *= rng.range(2.5, 4.0);
    }
    let _ = writeln!(
        body,
        "\n[cache]\ndram_latency_ns = {:.1}",
        latency * 2.0 + 20.0
    );
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Appends `text` as a JSON string literal.
pub fn push_json_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
