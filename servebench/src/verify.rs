//! The output check: every distinct request's reference body, computed
//! in-process through the same route table `gables serve` uses, against
//! which each live response body is compared.

use std::collections::HashMap;
use std::sync::Arc;

use gables_cli::serve::{build_router, HashRing};
use gables_cli::spec::Spec;
use gables_serve::{Request as HttpRequest, Response, Router, ServerMetrics, ShardedCache};

use crate::gen::{Kind, Request, Traffic};
use crate::load::fingerprint;

/// Batches whose spliced reference is also checked against a whole
/// in-process `/v1/batch` dispatch.
const WHOLE_BATCH_CHECKS: usize = 2;

pub struct Verifier {
    router: Router,
    /// Fingerprint of the request bytes → (status, body fingerprint), so
    /// a request generated again by another stream is checked once.
    refs: HashMap<u64, (u16, u64)>,
    /// Reference bodies kept for the in-process replay.
    pub bodies: HashMap<u32, (Vec<u8>, String)>,
    /// References that disagree with another in-process path
    /// (`eval_command`, or a whole batch dispatch).
    pub inconsistent: Vec<String>,
    whole_batches: usize,
}

impl Verifier {
    pub fn new() -> Self {
        Self {
            router: build_router(
                Arc::new(ServerMetrics::new()),
                Arc::new(ShardedCache::new(8, 128)),
            ),
            refs: HashMap::new(),
            bodies: HashMap::new(),
            inconsistent: Vec::new(),
            whole_batches: 0,
        }
    }

    fn dispatch(&self, path: &str, query: Option<&str>, body: &str) -> Response {
        self.router.dispatch(&HttpRequest {
            method: "POST".into(),
            path: path.into(),
            query: query.map(str::to_string),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        })
    }

    /// The reference (status, fingerprint) of request `idx`; computed on
    /// first use. With `keep`, the body and content type are retained.
    pub fn reference(&mut self, traffic: &Traffic, idx: u32, keep: bool) -> (u16, u64) {
        let req = &traffic.requests[idx as usize];
        let id = fingerprint(&req.wire);
        if let Some(r) = self.refs.get(&id) {
            if !keep || self.bodies.contains_key(&idx) {
                return *r;
            }
        }
        let resp = if req.kind == Kind::Batch {
            self.batch_reference(idx, req)
        } else {
            let resp = self.dispatch(req.path, req.query.as_deref(), &req.body);
            if req.kind == Kind::EvalText {
                let cli = gables_cli::eval_command(&req.body).unwrap_or_default();
                if resp.body != cli.as_bytes() {
                    self.inconsistent.push(format!(
                        "request {idx}: /v1/eval?format=text differs from eval_command"
                    ));
                }
            }
            resp
        };
        let r = (resp.status, fingerprint(&resp.body));
        self.refs.insert(id, r);
        if keep {
            self.bodies.insert(idx, (resp.body, resp.content_type));
        }
        r
    }

    /// A batch's reference: the single-`/v1/eval` envelope of each item,
    /// spliced in order — each item must be byte-identical to what a
    /// single request returns. The first batches are also dispatched
    /// whole to confirm the splice.
    fn batch_reference(&mut self, idx: u32, req: &Request) -> Response {
        let mut data = format!("{{\"count\":{},\"items\":[", req.items.len());
        for (i, item) in req.items.iter().enumerate() {
            if i > 0 {
                data.push(',');
            }
            let single = self.dispatch("/v1/eval", None, item);
            data.push_str(&String::from_utf8_lossy(&single.body));
        }
        data.push_str("]}");
        let spliced = Response::json(
            200,
            format!("{{\"ok\":true,\"data\":{data},\"error\":null}}"),
        );
        if self.whole_batches < WHOLE_BATCH_CHECKS {
            self.whole_batches += 1;
            let whole = self.dispatch(req.path, None, &req.body);
            if whole.status != 200 || whole.body != spliced.body {
                self.inconsistent.push(format!(
                    "request {idx}: whole /v1/batch dispatch differs from its single-eval items"
                ));
            }
        }
        spliced
    }
}

/// Every response-cache lookup a request makes on the server, as cache
/// keys: one per spec-carrying request, one per batch item.
pub fn cache_keys(req: &Request) -> Vec<String> {
    let canonical = |text: &str| {
        Spec::parse(text)
            .map(|s| s.canonical_key().to_string())
            .unwrap_or_default()
    };
    if req.kind == Kind::Batch {
        req.items
            .iter()
            .map(|item| format!("/v1/eval||json|{}", canonical(item)))
            .collect()
    } else {
        vec![req.cache_key(&canonical(&req.body))]
    }
}

/// Replays the run's lookups through response caches of the server's
/// geometry (one per shard, routed by the same consistent-hash ring) and
/// returns the hit ratio over `window`, after warming on `warm`.
pub fn predicted_hit_ratio(
    traffic: &Traffic,
    warm: &[u32],
    window: &[u32],
    replicas: usize,
) -> f64 {
    let caches: Vec<ShardedCache> = (0..replicas).map(|_| ShardedCache::new(8, 128)).collect();
    let ring = HashRing::new(replicas);
    let mut keys_of: HashMap<u32, Vec<(usize, String)>> = HashMap::new();
    let (mut hits, mut lookups) = (0u64, 0u64);
    for (i, &idx) in warm.iter().chain(window).enumerate() {
        let keys = keys_of.entry(idx).or_insert_with(|| {
            cache_keys(&traffic.requests[idx as usize])
                .into_iter()
                .map(|k| {
                    let canonical = k.splitn(4, '|').nth(3).unwrap_or("").to_string();
                    (ring.shard_for(&canonical), k)
                })
                .collect()
        });
        for (shard, key) in keys.iter() {
            let hit = caches[*shard].get(key).is_some();
            if !hit {
                caches[*shard].insert(key.clone(), String::new());
            }
            if i >= warm.len() {
                lookups += 1;
                hits += u64::from(hit);
            }
        }
    }
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}
