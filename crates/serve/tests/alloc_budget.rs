//! Allocation-budget gate for the Prometheus scrape path.
//!
//! PR 9 established the workspace rule: steady-state hot paths do zero
//! heap allocations. A metrics scrape is a hot path too — exporters
//! poll every few seconds forever — so rendering a snapshot into a
//! reused buffer must not touch the heap once the buffer has grown to
//! size. The counting allocator is process-wide, so this test owns its
//! own integration binary and is its only `#[test]`, same as
//! `crates/core/tests/alloc_budget.rs`: with two tests, the harness
//! thread allocates when it reports the first one to finish, inside the
//! other's open scope.

use std::time::Duration;

use gables_model::prof::AllocScope;
use gables_serve::ServerMetrics;

/// A metrics instance with representative traffic: several routes,
/// every status class, phases, cache outcomes, and a latency spread.
fn populated_metrics() -> ServerMetrics {
    let m = ServerMetrics::new();
    for i in 0..100u64 {
        let route = match i % 4 {
            0 => "/v1/eval",
            1 => "/v1/sweep",
            2 => "/v1/metrics",
            _ => "(unmatched)",
        };
        let status = match i % 10 {
            9 => 500,
            7 | 8 => 404,
            _ => 200,
        };
        m.record_handled(route, status, Duration::from_micros(1 + i * 37));
    }
    m.record_phase_self("eval", 120.0);
    m.record_phase_self("parse", 30.0);
    m.record_cache_hit();
    m.record_cache_miss();
    m
}

/// The only test in this binary: runs every measurement in turn, so no
/// other test starts or finishes while a scope is open.
#[test]
fn scrape_paths_allocate_nothing() {
    prometheus_scrape_into_a_reused_buffer_allocates_nothing();
    bucket_labels_render_without_a_fresh_string();
}

fn prometheus_scrape_into_a_reused_buffer_allocates_nothing() {
    let metrics = populated_metrics();
    let snapshot = metrics.snapshot();
    let mut buf = String::new();
    // Warmup: grow the buffer to steady-state size and fault in any
    // lazy formatting machinery.
    for _ in 0..8 {
        buf.clear();
        snapshot.to_prometheus_into(&mut buf, 12.5, "0.1.0");
    }
    assert!(buf.contains("gables_requests_handled_total 100\n"));
    let capacity = buf.capacity();
    let scope = AllocScope::begin();
    for _ in 0..32 {
        buf.clear();
        snapshot.to_prometheus_into(&mut buf, 12.5, "0.1.0");
        std::hint::black_box(&buf);
    }
    let delta = scope.delta();
    assert_eq!(
        delta.allocs, 0,
        "a steady-state scrape must not touch the heap: {delta:?}"
    );
    assert_eq!(delta.bytes, 0, "{delta:?}");
    assert_eq!(buf.capacity(), capacity, "the buffer never regrows");
}

fn bucket_labels_render_without_a_fresh_string() {
    let mut buf = String::new();
    for i in 0..gables_serve::LATENCY_BUCKETS {
        buf.clear();
        gables_serve::MetricsSnapshot::push_bucket_label(&mut buf, i);
    }
    let scope = AllocScope::begin();
    for _ in 0..64 {
        for i in 0..gables_serve::LATENCY_BUCKETS {
            buf.clear();
            gables_serve::MetricsSnapshot::push_bucket_label(&mut buf, i);
            std::hint::black_box(&buf);
        }
    }
    let delta = scope.delta();
    assert_eq!(
        delta.allocs, 0,
        "bucket labels must render into the caller's buffer: {delta:?}"
    );
    // And the wrapper still agrees with the in-place form.
    buf.clear();
    gables_serve::MetricsSnapshot::push_bucket_label(&mut buf, 0);
    assert_eq!(buf, gables_serve::MetricsSnapshot::bucket_label(0));
}
