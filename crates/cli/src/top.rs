//! The `gables top` subcommand: a live ASCII dashboard over a running
//! `gables serve` instance (single process or `--replicas N` fleet).
//!
//! Each tick polls `GET /v1/slo`, `GET /v1/metrics`, and
//! `GET /v1/healthz?format=json`, then renders one frame: per-route
//! windowed quantiles with a p99 trend sparkline (history accumulates
//! across polls), the error-budget burn gauge of every configured
//! `--slo`, worker-pool saturation, and the cache hit ratio. Frames are
//! plain text ([`gables_plot::spark`]) with an ANSI clear between
//! ticks, so `--frames N` can capture a deterministic final frame for
//! tests and docs instead of looping forever.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gables_model::json::Json;
use gables_plot::{gauge, sparkline};
use gables_serve::Request;

use crate::serve::HopClient;
use crate::spec::SpecError;

/// How many polls of p99 history each route's sparkline keeps.
const HISTORY_LEN: usize = 64;

/// Sparkline width in the rendered frame.
const SPARK_WIDTH: usize = 24;

/// Burn-rate gauge width in the rendered frame.
const GAUGE_WIDTH: usize = 10;

/// Parsed `gables top` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct TopOptions {
    /// Server address to poll, default `127.0.0.1:7878`.
    pub addr: String,
    /// Seconds between polls, default 1.
    pub interval: f64,
    /// Render this many frames then return the last one; `None` loops
    /// until the server goes away or the process is killed.
    pub frames: Option<usize>,
}

/// Parses `[addr] [--interval secs] [--frames n]`.
///
/// # Errors
///
/// Returns [`SpecError`] for unknown flags or malformed values.
pub fn parse_top_args(args: &[String]) -> Result<TopOptions, SpecError> {
    let mut opts = TopOptions {
        addr: "127.0.0.1:7878".to_string(),
        interval: 1.0,
        frames: None,
    };
    let mut it = args.iter();
    let mut addr_seen = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval" => {
                let raw = it
                    .next()
                    .ok_or_else(|| SpecError::general("--interval needs seconds"))?;
                let v: f64 = raw.parse().map_err(|_| {
                    SpecError::general(format!("--interval: {raw:?} is not a number"))
                })?;
                if !v.is_finite() || v <= 0.0 {
                    return Err(SpecError::general("--interval must be a positive number"));
                }
                opts.interval = v;
            }
            "--frames" => {
                let raw = it
                    .next()
                    .ok_or_else(|| SpecError::general("--frames needs a count"))?;
                let v: usize = raw.parse().map_err(|_| {
                    SpecError::general(format!("--frames: {raw:?} is not a positive integer"))
                })?;
                if v == 0 {
                    return Err(SpecError::general("--frames must be at least 1"));
                }
                opts.frames = Some(v);
            }
            other if other.starts_with('-') => {
                return Err(SpecError::general(format!(
                    "unknown top flag {other:?} (only --interval <secs>, --frames <n>)"
                )))
            }
            other => {
                if addr_seen {
                    return Err(SpecError::general(format!(
                        "unexpected extra argument {other:?}"
                    )));
                }
                opts.addr = other.to_string();
                addr_seen = true;
            }
        }
    }
    Ok(opts)
}

/// `gables top [addr] [--interval secs] [--frames n]`: poll and render
/// until killed (or for `--frames` ticks, returning the final frame).
///
/// # Errors
///
/// Returns [`SpecError`] for bad arguments or when the server becomes
/// unreachable or answers with a non-200.
pub fn top_command(args: &[String]) -> Result<String, SpecError> {
    let opts = parse_top_args(args)?;
    let mut history: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut rendered = 0usize;
    // One keep-alive connection carries every poll.
    let server = HopClient::new(vec![opts.addr.clone()]);
    loop {
        let slo = fetch(&server, "/v1/slo", None)?;
        let metrics = fetch(&server, "/v1/metrics", None)?;
        let health = fetch(&server, "/v1/healthz", Some("format=json"))?;
        update_history(&mut history, &slo);
        let frame = render_frame(&opts.addr, &slo, &metrics, &health, &history);
        rendered += 1;
        if let Some(n) = opts.frames {
            if rendered >= n {
                return Ok(frame);
            }
        }
        // The interactive path: clear, home, draw. The loop only ends
        // via --frames or a poll error, so nothing reaches the normal
        // command-output channel here.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::Write::flush(&mut std::io::stdout());
        std::thread::sleep(std::time::Duration::from_secs_f64(opts.interval));
    }
}

/// One enveloped `GET` against the server; returns the `data` payload.
fn fetch(server: &HopClient, path: &str, query: Option<&str>) -> Result<Json, SpecError> {
    let addr = server.addr(0);
    let req = Request {
        method: "GET".into(),
        path: path.into(),
        query: query.map(String::from),
        headers: Vec::new(),
        body: Vec::new(),
    };
    let resp = server
        .forward(0, &req, path)
        .map_err(|e| SpecError::general(format!("{addr}{path}: {e}")))?;
    if resp.status != 200 {
        return Err(SpecError::general(format!(
            "{addr}{path}: HTTP {}",
            resp.status
        )));
    }
    let body =
        String::from_utf8(resp.body).map_err(|e| SpecError::general(format!("{path}: {e}")))?;
    let doc = Json::parse(&body).map_err(|e| SpecError::general(format!("{path}: {e}")))?;
    doc.get("data")
        .cloned()
        .ok_or_else(|| SpecError::general(format!("{path}: envelope has no data")))
}

/// Appends each route's current 1-minute p99 to its trend history
/// (bounded at [`HISTORY_LEN`] samples).
fn update_history(history: &mut BTreeMap<String, Vec<f64>>, slo: &Json) {
    let Some(quantiles) = slo.get("quantiles").and_then(Json::as_object) else {
        return;
    };
    for (route, doc) in quantiles {
        let p99 = window_stat(doc, 0, "p99_us").unwrap_or(0.0);
        let series = history.entry(route.clone()).or_default();
        series.push(p99);
        if series.len() > HISTORY_LEN {
            series.remove(0);
        }
    }
}

/// Reads `windows[idx].<key>` (or `windows[idx].latency.<key>` for
/// quantile fields) from one route's quantile document.
fn window_stat(route_doc: &Json, idx: usize, key: &str) -> Option<f64> {
    let window = route_doc.get("windows")?.as_array()?.get(idx)?;
    match window.get(key) {
        Some(v) => v.as_f64(),
        None => window.get("latency")?.get(key)?.as_f64(),
    }
}

/// Formats microseconds tersely: `87us`, `1.43ms`, `2.1s`.
fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{us:.0}us")
    }
}

/// Renders one dashboard frame from the three polled documents plus
/// the accumulated p99 history. Pure text — testable without sockets.
fn render_frame(
    addr: &str,
    slo: &Json,
    metrics: &Json,
    health: &Json,
    history: &BTreeMap<String, Vec<f64>>,
) -> String {
    let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let shards = num(slo, "shards").max(1.0) as usize;
    let mut out = String::with_capacity(2048);
    let _ = writeln!(
        out,
        "gables top — http://{addr} — {shards} shard{} — uptime {:.1}s",
        if shards == 1 { "" } else { "s" },
        num(health, "uptime_seconds"),
    );
    let saturation = num(health, "worker_saturation");
    let _ = writeln!(
        out,
        "requests  {:>8} handled   {:>6} in flight   workers {:>3}  {} {:>5.1}%",
        num(metrics, "handled"),
        num(metrics, "in_flight"),
        num(health, "workers"),
        gauge(saturation, GAUGE_WIDTH),
        saturation * 100.0,
    );
    let hit_rate = num(metrics, "cache_hit_rate");
    let _ = writeln!(
        out,
        "cache     {:>8} hits      {:>6} misses      hit rate     {} {:>5.1}%",
        num(metrics, "cache_hits"),
        num(metrics, "cache_misses"),
        gauge(hit_rate, GAUGE_WIDTH),
        hit_rate * 100.0,
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>9} {:>9} {:>6}  p99 trend",
        "route", "1m p50", "1m p99", "cum p99", "err%"
    );
    if let Some(quantiles) = slo.get("quantiles").and_then(Json::as_object) {
        for (route, doc) in quantiles {
            let cum_p99 = doc
                .get("cumulative")
                .and_then(|c| c.get("p99_us"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let err = window_stat(doc, 0, "error_rate").unwrap_or(0.0) * 100.0;
            let trend = history.get(route).map(Vec::as_slice).unwrap_or(&[]);
            let _ = writeln!(
                out,
                "{:<22} {:>9} {:>9} {:>9} {:>5.1}%  {}",
                route,
                fmt_us(window_stat(doc, 0, "p50_us").unwrap_or(0.0)),
                fmt_us(window_stat(doc, 0, "p99_us").unwrap_or(0.0)),
                fmt_us(cum_p99),
                err,
                sparkline(trend, SPARK_WIDTH),
            );
        }
    }
    if let Some(slos) = slo.get("slos").and_then(Json::as_array) {
        if !slos.is_empty() {
            out.push('\n');
            let _ = writeln!(
                out,
                "{:<22} {:<12} burn 1m{:>9} 5m{:>9} 1h       status",
                "SLO route", "objective", "", ""
            );
            for entry in slos {
                let route = entry.get("route").and_then(Json::as_str).unwrap_or("?");
                let objective = entry.get("objective").and_then(Json::as_str).unwrap_or("?");
                let windows = entry.get("windows").and_then(Json::as_array).unwrap_or(&[]);
                let burn = |i: usize| {
                    windows
                        .get(i)
                        .and_then(|w| w.get("burn_rate"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                };
                let ok = windows
                    .iter()
                    .all(|w| w.get("ok").and_then(Json::as_bool).unwrap_or(true));
                let _ = writeln!(
                    out,
                    "{:<22} {:<12} {} {:>7.2} {:>8.2} {:>8.2}   {}",
                    route,
                    objective,
                    gauge(burn(0), GAUGE_WIDTH),
                    burn(0),
                    burn(1),
                    burn(2),
                    if ok { "ok" } else { "BURNING" },
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_top_args_defaults_and_overrides() {
        let opts = parse_top_args(&[]).unwrap();
        assert_eq!(opts.addr, "127.0.0.1:7878");
        assert_eq!(opts.interval, 1.0);
        assert_eq!(opts.frames, None);
        let opts = parse_top_args(&[
            "10.0.0.1:80".into(),
            "--interval".into(),
            "0.25".into(),
            "--frames".into(),
            "3".into(),
        ])
        .unwrap();
        assert_eq!(opts.addr, "10.0.0.1:80");
        assert_eq!(opts.interval, 0.25);
        assert_eq!(opts.frames, Some(3));
        assert!(parse_top_args(&["--interval".into()]).is_err());
        assert!(parse_top_args(&["--interval".into(), "0".into()]).is_err());
        assert!(parse_top_args(&["--frames".into(), "0".into()]).is_err());
        assert!(parse_top_args(&["--nope".into()]).is_err());
        assert!(parse_top_args(&["a:1".into(), "b:2".into()]).is_err());
    }

    /// Builds realistic poll documents from a live registry, so the
    /// frame renderer is tested against the server's actual shapes.
    fn sample_docs() -> (Json, Json, Json) {
        use gables_serve::slo::{render_slo_json, SloRegistry};
        use gables_serve::SloSpec;
        let registry = SloRegistry::new();
        for i in 0..40u64 {
            let status = if i % 20 == 0 { 500 } else { 200 };
            registry.record("/v1/eval", status, 200 + 10 * i);
        }
        let specs = vec![SloSpec::parse("route=/v1/eval p99<1us err<0.1%").unwrap()];
        let slo = Json::parse(&render_slo_json(&registry.snapshot(), &specs, 2)).unwrap();
        let metrics = Json::parse(
            "{\"handled\":40,\"in_flight\":1,\"cache_hits\":30,\"cache_misses\":10,\
             \"cache_hit_rate\":0.75}",
        )
        .unwrap();
        let health =
            Json::parse("{\"uptime_seconds\":12.5,\"workers\":4,\"worker_saturation\":0.25}")
                .unwrap();
        (slo, metrics, health)
    }

    #[test]
    fn frame_renders_routes_gauges_and_burning_slos() {
        let (slo, metrics, health) = sample_docs();
        let mut history = BTreeMap::new();
        for _ in 0..3 {
            update_history(&mut history, &slo);
        }
        assert_eq!(history.get("/v1/eval").map(Vec::len), Some(3));
        let frame = render_frame("127.0.0.1:7878", &slo, &metrics, &health, &history);
        assert!(
            frame.contains("gables top — http://127.0.0.1:7878 — 2 shards"),
            "{frame}"
        );
        assert!(frame.contains("/v1/eval"), "{frame}");
        // Every request exceeds the 1us threshold, so the SLO burns.
        assert!(frame.contains("BURNING"), "{frame}");
        assert!(frame.contains("]!"), "{frame}");
        // Saturation and cache gauges render with their percentages.
        assert!(frame.contains(" 25.0%"), "{frame}");
        assert!(frame.contains(" 75.0%"), "{frame}");
        // The trend sparkline has glyphs for the three recorded polls.
        assert!(frame.contains('▁'), "{frame}");
    }

    #[test]
    fn history_is_bounded() {
        let (slo, _, _) = sample_docs();
        let mut history = BTreeMap::new();
        for _ in 0..(HISTORY_LEN + 10) {
            update_history(&mut history, &slo);
        }
        assert_eq!(history.get("/v1/eval").map(Vec::len), Some(HISTORY_LEN));
    }

    #[test]
    fn fmt_us_picks_the_tersest_unit() {
        assert_eq!(fmt_us(87.0), "87us");
        assert_eq!(fmt_us(1430.0), "1.43ms");
        assert_eq!(fmt_us(2_100_000.0), "2.10s");
    }
}
