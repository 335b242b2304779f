//! Acceptance tests for the nonblocking event loop serving tier: HTTP
//! pipelining on one keep-alive connection, a 10,000-idle-connection
//! soak in a single child process, slow/partial writers that must not
//! stall ready connections, and `/v1/batch` answers bit-identical to
//! the concatenation of single `/v1/eval` responses across thread
//! policies (`GABLES_THREADS=1|2`) and replica counts (`--replicas
//! 1|2`).
//!
//! The soak and the batch matrix run the real `gables` binary
//! (`CARGO_BIN_EXE_gables`) in supervised `--announce` mode so the
//! client and server each get their own file-descriptor budget and the
//! replica router is exercised exactly as `gables serve --replicas N`
//! wires it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gables_cli::serve::build_router;
use gables_cli::spec::FIGURE_6B_SPEC;
use gables_model::json::Json;
use gables_serve::faults::{FaultCase, FaultKind};
use gables_serve::{Server, ServerConfig, ServerHandle, ShardedCache};

/// Starts an in-process server with the full Gables router.
fn start_server(config: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let handle = server.handle().expect("server handle");
    let router = build_router(server.metrics(), Arc::new(ShardedCache::new(8, 128)));
    let join = std::thread::spawn(move || server.run(router).expect("server run"));
    (handle, join)
}

/// One close-delimited HTTP exchange; returns (status line, body).
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: l\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
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
    let reply = String::from_utf8(bytes).expect("UTF-8 reply");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Reads exactly one `Content-Length`-framed response off a keep-alive
/// stream; returns (head, body). `buf` carries bytes past the frame
/// boundary between calls — the server is free to coalesce pipelined
/// responses into a single TCP segment.
fn read_framed(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (String, String) {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "EOF before response head completed");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end - 4].to_vec()).expect("UTF-8 head");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    while buf.len() < head_end + content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "EOF before response body completed");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[head_end..head_end + content_length].to_vec()).unwrap();
    buf.drain(..head_end + content_length);
    (head, body)
}

#[test]
fn pipelined_keep_alive_requests_answer_in_order_on_one_connection() {
    let (handle, join) = start_server(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Three requests written back to back before reading a byte: two
    // cacheable evals and a healthz, the last one closing.
    let eval = format!(
        "POST /v1/eval HTTP/1.1\r\nHost: l\r\nContent-Length: {}\r\n\r\n{FIGURE_6B_SPEC}",
        FIGURE_6B_SPEC.len()
    );
    let pipelined = format!("{eval}{eval}GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    stream.write_all(pipelined.as_bytes()).expect("send");

    let mut buf = Vec::new();
    let (head1, body1) = read_framed(&mut stream, &mut buf);
    assert!(head1.starts_with("HTTP/1.1 200 OK"), "{head1}");
    assert!(head1.contains("Connection: keep-alive"), "{head1}");
    let (head2, body2) = read_framed(&mut stream, &mut buf);
    assert!(head2.starts_with("HTTP/1.1 200 OK"), "{head2}");
    assert_eq!(body1, body2, "identical pipelined evals answer identically");
    let (head3, body3) = read_framed(&mut stream, &mut buf);
    assert!(head3.starts_with("HTTP/1.1 200 OK"), "{head3}");
    assert!(head3.contains("Connection: close"), "{head3}");
    assert_eq!(body3, "ok\n");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("EOF after close");
    assert!(
        buf.is_empty() && rest.is_empty(),
        "nothing after the closing response"
    );

    handle.shutdown();
    join.join().expect("graceful shutdown");
    let snapshot = handle.metrics().snapshot();
    assert_eq!(snapshot.handled, 3, "all three pipelined requests served");
    assert!(snapshot.cache_hits >= 1, "second eval hits the cache");
}

#[test]
fn slow_and_partial_writers_do_not_stall_ready_connections() {
    // Short read timeout so the deliberately stalling clients resolve
    // quickly; plenty of workers so only readiness is under test.
    let (handle, join) = start_server(ServerConfig {
        read_timeout: Duration::from_millis(900),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // A slow-loris drip and a mid-head stall from the fault harness run
    // in the background the whole time...
    let faults: Vec<_> = [
        FaultKind::SlowLoris,
        FaultKind::TruncatedHead,
        FaultKind::SlowLoris,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, kind)| {
        std::thread::spawn(move || {
            let case = FaultCase {
                kind,
                seed: 0xC0FFEE + i as u64,
            };
            case.inject(addr, Duration::from_secs(10)).expect("inject")
        })
    })
    .collect();

    // ...plus a partial writer that sends half a valid request, stalls,
    // then finishes: it must still be answered once complete.
    let partial = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let raw =
            "GET /v1/healthz HTTP/1.1\r\nHost: l\r\nConnection: close\r\nContent-Length: 0\r\n\r\n";
        let split = raw.len() / 2;
        stream.write_all(&raw.as_bytes()[..split]).expect("half");
        std::thread::sleep(Duration::from_millis(400));
        stream.write_all(&raw.as_bytes()[split..]).expect("rest");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("reply");
        reply
    });

    // Ready connections must answer promptly while the stalled ones sit
    // in the event loop.
    for _ in 0..5 {
        let start = Instant::now();
        let (status, body) = http(addr, "GET", "/v1/healthz", "");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "ok\n");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "ready connections must not queue behind stalled writers"
        );
    }

    let reply = partial.join().expect("partial writer");
    assert!(
        reply.starts_with("HTTP/1.1 200 OK"),
        "late-but-complete request is served: {reply}"
    );
    for fault in faults {
        let report = fault.join().expect("fault thread");
        assert!(
            report.acceptable(),
            "stalling client saw {:?}",
            report.outcome
        );
    }

    handle.shutdown();
    join.join().expect("graceful shutdown");
}

/// A supervised `gables serve` child process: spawned with
/// `--announce`, bound address read from its stdout, shut down by
/// dropping its stdin.
struct ChildServer {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl ChildServer {
    fn spawn(extra_args: &[&str], env: &[(&str, &str)]) -> Self {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_gables"));
        cmd.arg("serve")
            .arg("127.0.0.1:0")
            .arg("--announce")
            .args(extra_args)
            .env("GABLES_LOG", "error")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, value) in env {
            cmd.env(key, value);
        }
        let mut child = cmd.spawn().expect("spawn gables serve");
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("announcement line")
            .expect("read announcement");
        let addr = line
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected announcement {line:?}"))
            .parse()
            .expect("announced address");
        ChildServer { child, stdin, addr }
    }

    fn stop(mut self) {
        drop(self.stdin.take());
        for _ in 0..100 {
            if self.child.try_wait().expect("try_wait").is_some() {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn ten_thousand_idle_keep_alive_connections_are_held_by_one_process() {
    const CONNECTIONS: usize = 10_000;
    const THREADS: usize = 8;

    let server = ChildServer::spawn(&[], &[]);
    let addr = server.addr;

    // Open the idle herd from a handful of threads; each connection is
    // kept alive (never written to) for the rest of the test. Each
    // thread also reports when it opened its last connection.
    let openers: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut held = Vec::with_capacity(CONNECTIONS / THREADS);
                let mut last_opened = Instant::now();
                while held.len() < CONNECTIONS / THREADS {
                    match TcpStream::connect(addr) {
                        Ok(stream) => {
                            held.push(stream);
                            last_opened = Instant::now();
                        }
                        // Transient accept-queue overflow: back off and
                        // let the event loop drain the backlog.
                        Err(_) => std::thread::sleep(Duration::from_millis(20)),
                    }
                }
                (held, last_opened)
            })
        })
        .collect();
    let herds: Vec<(Vec<TcpStream>, Instant)> = openers
        .into_iter()
        .map(|t| t.join().expect("opener thread"))
        .collect();
    let open: usize = herds.iter().map(|(held, _)| held.len()).sum();
    assert_eq!(open, CONNECTIONS, "the full herd connected");

    // With 10k idle connections parked, a fresh request still answers
    // promptly: idle connections cost a slab slot, not a worker.
    let start = Instant::now();
    let (status, body) = http(addr, "GET", "/v1/healthz", "");
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert_eq!(body, "ok\n");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "probe must not queue behind the idle herd"
    );

    // The most recently opened parked connection wakes up and is served
    // too. It must still be inside the server's idle keep-alive window:
    // the herd's first connections may legitimately be reaped by now.
    let (mut held, opened) = herds
        .into_iter()
        .max_by_key(|(_, last_opened)| *last_opened)
        .unwrap();
    let idle = opened.elapsed();
    assert!(
        idle < ServerConfig::default().keep_alive_timeout,
        "the newest parked connection has idled {idle:?}, past the keep-alive timeout"
    );
    let mut parked = held.pop().unwrap();
    parked
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    parked
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: l\r\n\r\n")
        .expect("wake a parked connection");
    let (head, body) = read_framed(&mut parked, &mut Vec::new());
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(body, "ok\n");

    server.stop();
}

/// JSON-escapes a spec string for embedding in a batch request body.
fn json_str(text: &str) -> String {
    Json::str(text).to_string()
}

/// The three-item batch workload: two valid specs (one repeated, one
/// edited) and one malformed, so per-item error isolation is exercised.
fn batch_specs() -> Vec<String> {
    let edited = FIGURE_6B_SPEC.replace("bpeak_gbps = 10", "bpeak_gbps = 30");
    assert_ne!(edited, FIGURE_6B_SPEC, "the edit must take");
    vec![FIGURE_6B_SPEC.to_string(), "not a spec".to_string(), edited]
}

/// POSTs each spec to `/v1/eval` singly, then the whole list to
/// `/v1/batch`, and asserts the batch answer is bit-identical to the
/// envelope-spliced concatenation of the single responses. Returns the
/// batch body for cross-server comparison.
fn batch_matches_singles(addr: SocketAddr) -> String {
    let specs = batch_specs();
    let singles: Vec<String> = specs
        .iter()
        .map(|spec| {
            let (_, body) = http(addr, "POST", "/v1/eval", spec);
            body
        })
        .collect();
    let payload = format!(
        "{{\"specs\":[{}]}}",
        specs
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, batch_body) = http(addr, "POST", "/v1/batch", &payload);
    assert_eq!(status, "HTTP/1.1 200 OK", "{batch_body}");
    let expected = format!(
        "{{\"ok\":true,\"data\":{{\"count\":{},\"items\":[{}]}},\"error\":null}}",
        singles.len(),
        singles.join(",")
    );
    assert_eq!(
        batch_body, expected,
        "batch must be bit-identical to the concatenation of single responses"
    );
    batch_body
}

#[test]
fn batch_is_bit_identical_across_thread_policies_and_replica_counts() {
    // Four supervised servers: serial and two-thread single-process,
    // then one- and two-replica sharded routers.
    let serial = ChildServer::spawn(&[], &[("GABLES_THREADS", "1")]);
    let threaded = ChildServer::spawn(&[], &[("GABLES_THREADS", "2")]);
    let one_replica = ChildServer::spawn(&["--replicas", "1"], &[]);
    let two_replicas = ChildServer::spawn(&["--replicas", "2"], &[]);

    let body_serial = batch_matches_singles(serial.addr);
    let body_threaded = batch_matches_singles(threaded.addr);
    let body_one = batch_matches_singles(one_replica.addr);
    let body_two = batch_matches_singles(two_replicas.addr);

    assert_eq!(
        body_serial, body_threaded,
        "GABLES_THREADS=1 and =2 must serve identical bytes"
    );
    assert_eq!(
        body_one, body_two,
        "--replicas 1 and 2 must serve identical bytes"
    );
    assert_eq!(
        body_serial, body_one,
        "sharded and single-process answers must match"
    );

    // The malformed middle item failed alone without failing the batch.
    let envelope = Json::parse(&body_serial).expect("batch envelope");
    let items = envelope
        .get("data")
        .and_then(|d| d.get("items"))
        .and_then(Json::as_array)
        .expect("items array");
    assert_eq!(items.len(), 3);
    assert_eq!(items[0].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(items[1].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        items[1]
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("spec_parse")
    );
    assert_eq!(items[2].get("ok").and_then(Json::as_bool), Some(true));

    for server in [serial, threaded, one_replica, two_replicas] {
        server.stop();
    }
}
