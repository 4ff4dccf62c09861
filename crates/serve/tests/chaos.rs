//! Chaos suite for the hardened inference service.
//!
//! Each test points one class of hostile traffic at a live server — a
//! slow-loris drip, a torn mid-frame disconnect, an oversized request
//! line, raw garbage bytes, a connect flood past the queue bound — and
//! asserts three things every time:
//!
//! 1. the fault is answered per contract (typed `Error` reply, `Busy`
//!    shed, or silent close) instead of wedging or crashing a worker;
//! 2. a concurrent well-behaved client keeps getting `ScorePairs`
//!    results **bit-identical** to the in-process model, within a
//!    deadline;
//! 3. the final [`StatsSnapshot`] accounts for every shed, timeout and
//!    torn frame — nothing disappears from the counters.
//!
//! The matrix runs twice: once against the NDJSON wire (protocol v1)
//! and once against the length-prefixed binary wire (protocol v2),
//! whose framing faults have their own shapes — torn length prefixes,
//! headers declaring payloads past the cap, frames that lose sync.

use std::io::{BufRead, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use sm_attack::attack::{AttackConfig, TrainedAttack};
use sm_attack::Parallelism;
use sm_layout::{SplitLayer, Suite};
use sm_serve::artifact::{ModelArtifact, TrainMeta};
use sm_serve::client::{Client, ClientError, ClientTimeouts};
use sm_serve::protocol::{binary, ErrorCode, Request, Response, StatsSnapshot, Wire};
use sm_serve::registry::publish;
use sm_serve::server::{ModelSource, ServeOptions, ServerHandle};

/// Trained once per test binary: the encoded artifact every test's server
/// hosts, plus feature rows and their expected (in-process) scores.
struct Fixture {
    encoded: String,
    features: Vec<Vec<f64>>,
    local_probs: Vec<f64>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let views = Suite::ispd2011_like(0.01)
            .expect("valid scale")
            .split_all(SplitLayer::new(8).expect("valid layer"));
        let train: Vec<_> = views[1..].iter().collect();
        let model =
            TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("model trains");
        let vpins = views[0].vpins();
        let cap = vpins.len().min(12);
        let features: Vec<Vec<f64>> = (0..cap)
            .flat_map(|i| ((i + 1)..cap).map(move |j| (i, j)))
            .map(|(i, j)| model.config().features.compute(&vpins[i], &vpins[j]))
            .collect();
        assert!(!features.is_empty(), "fixture needs a real pair batch");
        let local_probs = features.iter().map(|x| model.model().proba(x)).collect();
        Fixture {
            encoded: ModelArtifact::from_trained(&model, TrainMeta::default()).encode(),
            features,
            local_probs,
        }
    })
}

/// A fresh copy of the fixture model for one server instance.
fn served_model() -> TrainedAttack {
    ModelArtifact::decode(&fixture().encoded)
        .expect("fixture artifact decodes")
        .into_trained()
}

/// Two pinned workers (this suite runs on 1-CPU CI hosts) and whatever
/// deadlines the individual test dials in.
fn chaos_options(request_timeout_ms: u64, idle_timeout_ms: u64) -> ServeOptions {
    ServeOptions {
        workers: Parallelism::Threads(2),
        request_timeout_ms,
        idle_timeout_ms,
        ..ServeOptions::default()
    }
}

/// Attempts [`GoodClient::call`] makes per request, the first included.
const MAX_ATTEMPTS: u32 = 25;

/// The well-behaved side's connection: a retryable failure
/// ([`ClientError::is_retryable`]: a transport failure or a `Busy` shed)
/// reconnects and sends the request again, up to [`MAX_ATTEMPTS`]
/// attempts, backing off with the server's hint as a floor. It counts
/// its retries, and the `Busy` ones apart, so a test can audit the
/// server's `shed` counter exactly.
struct GoodClient {
    addr: String,
    wire: Wire,
    /// Jitter state, advanced once per backoff.
    jitter: u64,
    conn: Option<Client>,
    retries: u64,
    busy_retries: u64,
}

impl GoodClient {
    fn new(addr: &str, wire: Wire, jitter_seed: u64) -> Self {
        Self {
            addr: addr.to_owned(),
            wire,
            jitter: jitter_seed,
            conn: None,
            retries: 0,
            busy_retries: 0,
        }
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let timeouts = ClientTimeouts {
            connect_ms: 2_000,
            io_ms: 5_000,
        };
        for attempt in 1.. {
            let mut conn = match self.conn.take() {
                Some(conn) => conn,
                None => match Client::connect_wire(self.addr.as_str(), timeouts, self.wire) {
                    Ok(conn) => conn,
                    Err(e) if attempt < MAX_ATTEMPTS => {
                        self.backoff(attempt, &e);
                        continue;
                    }
                    Err(e) => return Err(e),
                },
            };
            match conn.call_ok(request) {
                Ok(response) => {
                    self.conn = Some(conn);
                    return Ok(response);
                }
                Err(e) if e.is_retryable() && attempt < MAX_ATTEMPTS => {
                    self.backoff(attempt, &e);
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("the attempts are bounded")
    }

    /// Sleeps 20 ms doubled per attempt, capped at 200 ms, less up to
    /// half of it by a seeded xorshift jitter; never under a `Busy` hint.
    fn backoff(&mut self, attempt: u32, error: &ClientError) {
        self.retries += 1;
        let envelope = (20u64 << (attempt - 1).min(4)).min(200);
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let mut delay = envelope - self.jitter % (envelope / 2 + 1);
        if let ClientError::Busy { retry_after_ms } = *error {
            self.busy_retries += 1;
            delay = delay.max(retry_after_ms);
        }
        std::thread::sleep(Duration::from_millis(delay));
    }
}

/// The well-behaved side of every chaos test: a retrying client that
/// scores `requests` batches of `rows` pairs and asserts each result is
/// bit-identical to the in-process model. Panics if the whole run takes
/// longer than `deadline` — "available" means answering, not eventually
/// answering.
fn run_good_client(addr: &str, requests: usize, rows: usize, deadline: Duration) -> GoodClient {
    run_good_client_wire(addr, requests, rows, deadline, Wire::Ndjson)
}

/// [`run_good_client`] over an explicit wire format, so every fault in
/// the matrix can be witnessed by a well-behaved client speaking either
/// protocol version.
fn run_good_client_wire(
    addr: &str,
    requests: usize,
    rows: usize,
    deadline: Duration,
    wire: Wire,
) -> GoodClient {
    let fx = fixture();
    let rows = rows.min(fx.features.len());
    let features = fx.features[..rows].to_vec();
    let expected = &fx.local_probs[..rows];
    let mut client = GoodClient::new(addr, wire, 0xC4A05);
    let start = Instant::now();
    for round in 0..requests {
        match client
            .call(&Request::ScorePairs {
                features: features.clone(),
                model_id: None,
            })
            .expect("well-behaved client must keep succeeding under chaos")
        {
            Response::Scores { probs } => {
                assert_eq!(probs.len(), expected.len(), "round {round}");
                for (k, (l, r)) in expected.iter().zip(&probs).enumerate() {
                    assert_eq!(
                        l.to_bits(),
                        r.to_bits(),
                        "round {round}, pair {k}: chaos next door must not perturb scores"
                    );
                }
            }
            other => panic!("unexpected scores reply: {other:?}"),
        }
    }
    assert!(
        start.elapsed() < deadline,
        "good client blew its {deadline:?} deadline: {:?}",
        start.elapsed()
    );
    client
}

/// Shuts the server down through an already-working retrying client,
/// closes that client (so the worker serving it sees a clean EOF), and
/// returns the client's `(retries, busy_retries)` alongside the server's
/// final counters.
fn shutdown_and_join(mut client: GoodClient, handle: ServerHandle) -> (u64, u64, StatsSnapshot) {
    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    let counters = (client.retries, client.busy_retries);
    drop(client);
    let stats = handle.join().expect("clean server exit");
    (counters.0, counters.1, stats)
}

/// Misbehaving peer: a raw socket with helpers for each fault shape.
struct FaultStream {
    stream: TcpStream,
}

impl FaultStream {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("fault stream connects");
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        Self { stream }
    }

    /// Fire-and-forget write; the server hanging up on us mid-blast is an
    /// expected outcome, not a test failure.
    fn blast(&mut self, bytes: &[u8]) {
        let _ = self.stream.write_all(bytes);
        let _ = self.stream.flush();
    }

    /// Slow-loris: one byte, pause, repeat. Stops early if the server
    /// hangs up.
    fn drip(&mut self, bytes: &[u8], pause: Duration) {
        for &b in bytes {
            if self.stream.write_all(&[b]).is_err() {
                break;
            }
            let _ = self.stream.flush();
            std::thread::sleep(pause);
        }
    }

    /// Reads one binary-framed reply and decodes it. `None` means EOF,
    /// reset or read timeout — the server closed (or never answered)
    /// this connection.
    fn read_binary_response(&mut self) -> Option<Response> {
        let mut header = [0u8; binary::HEADER_LEN];
        self.stream.read_exact(&mut header).ok()?;
        let h = binary::decode_header(header, u64::MAX).expect("server sends valid headers");
        let mut payload = vec![0u8; h.len as usize];
        self.stream.read_exact(&mut payload).ok()?;
        Some(binary::decode_response(h.frame_type, &payload).expect("server frames decode"))
    }

    /// Reads one reply in `wire`'s framing. `None` means EOF, reset or
    /// read timeout.
    fn read_response(&mut self, wire: Wire) -> Option<Response> {
        match wire {
            Wire::Binary => self.read_binary_response(),
            Wire::Ndjson => {
                let line = self.read_line()?;
                Some(serde_json::from_str(&line).expect("server lines parse"))
            }
        }
    }

    /// Reads one reply line. `None` means EOF, reset or read timeout —
    /// i.e. the server closed (or never answered) this connection.
    fn read_line(&mut self) -> Option<String> {
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            match self.stream.read(&mut byte) {
                Ok(0) | Err(_) => {
                    return if line.is_empty() {
                        None
                    } else {
                        Some(String::from_utf8_lossy(&line).into_owned())
                    }
                }
                Ok(_) if byte[0] == b'\n' => {
                    return Some(String::from_utf8_lossy(&line).into_owned())
                }
                Ok(_) => line.push(byte[0]),
            }
        }
    }
}

/// The first bytes of a request in `wire`'s framing: a newline-framed
/// JSON line or a binary frame.
fn request_frame(wire: Wire, request: &Request) -> Vec<u8> {
    match wire {
        Wire::Binary => binary::encode_request(request),
        Wire::Ndjson => {
            let mut line = serde_json::to_string(request)
                .expect("encodes")
                .into_bytes();
            line.push(b'\n');
            line
        }
    }
}

/// The loris sends the first four bytes of a valid request (on the
/// binary wire, starting with the 0xB5 magic, so the wire is detected as
/// binary), then stalls forever. The mid-request deadline (300 ms from
/// the first byte) must cut it off with a typed Timeout reply in the
/// connection's own framing, while a good client on the same wire keeps
/// getting bit-exact scores.
fn slow_loris_is_cut_off(wire: Wire) {
    let handle = ServerHandle::bind(served_model(), "127.0.0.1:0", chaos_options(300, 2_000))
        .expect("binds");
    let addr = handle.addr();
    let frame = request_frame(wire, &Request::Health);
    let loris = std::thread::spawn(move || {
        let mut s = FaultStream::connect(addr);
        s.drip(&frame[..4], Duration::from_millis(50));
        s.read_response(wire)
    });

    let good = run_good_client_wire(&addr.to_string(), 10, 6, Duration::from_secs(20), wire);

    let reply = loris.join().expect("loris thread");
    match reply.expect("loris gets a reply before the close") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Timeout, "{message}");
        }
        other => panic!("unexpected loris reply: {other:?}"),
    }

    let (retries, _, stats) = shutdown_and_join(good, handle);
    assert_eq!(stats.timeouts, 1, "{stats:?}");
    assert_eq!(
        stats.errors, 1,
        "the timeout reply is the only error: {stats:?}"
    );
    assert_eq!(stats.io_errors, 0, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
    assert_eq!(retries, 0, "nothing should have needed a retry");
}

#[test]
fn slow_loris_is_cut_off_by_the_request_deadline() {
    slow_loris_is_cut_off(Wire::Ndjson);
}

/// A valid request minus its last three bytes, then a vanishing peer:
/// the newline or the declared length never arrives.
fn torn_frame_is_counted_not_fatal(wire: Wire) {
    let handle = ServerHandle::bind(served_model(), "127.0.0.1:0", chaos_options(2_000, 2_000))
        .expect("binds");
    let addr = handle.addr();

    let frame = request_frame(wire, &Request::Health);
    let mut torn = FaultStream::connect(addr);
    torn.blast(&frame[..frame.len() - 3]);
    drop(torn);

    let good = run_good_client_wire(&addr.to_string(), 10, 6, Duration::from_secs(20), wire);

    let (_, _, stats) = shutdown_and_join(good, handle);
    assert_eq!(
        stats.io_errors, 1,
        "torn frame must be accounted: {stats:?}"
    );
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
}

#[test]
fn torn_mid_frame_disconnects_are_counted_not_fatal() {
    torn_frame_is_counted_not_fatal(Wire::Ndjson);
}

#[test]
fn oversized_lines_get_a_typed_reply_not_an_unbounded_buffer() {
    let mut options = chaos_options(5_000, 5_000);
    options.max_request_bytes = 1_024;
    let handle = ServerHandle::bind(served_model(), "127.0.0.1:0", options).expect("binds");
    let addr = handle.addr();

    // Feed exactly the cap, give the server time to consume it, then push
    // past the cap. Two phases keep the server's receive queue empty at
    // close time, so the TooLarge reply is deterministically readable
    // (closing with unread bytes would RST the reply away).
    let mut big = FaultStream::connect(addr);
    big.blast(&[b'x'; 1_024]);
    std::thread::sleep(Duration::from_millis(150));
    big.blast(&[b'x'; 100]);
    let reply = big.read_line().expect("typed rejection before the close");
    assert!(reply.contains("\"Error\""), "{reply}");
    assert!(reply.contains("TooLarge"), "{reply}");
    assert!(
        big.read_line().is_none(),
        "an over-cap connection cannot be resynchronized and must be closed"
    );
    drop(big);

    // 1 row ≈ 200 bytes of JSON: the good client fits under the tiny cap.
    let good = run_good_client(&addr.to_string(), 10, 1, Duration::from_secs(20));

    let (_, _, stats) = shutdown_and_join(good, handle);
    assert_eq!(stats.errors, 1, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
}

#[test]
fn garbage_bytes_get_error_replies_and_the_connection_survives() {
    let handle = ServerHandle::bind(served_model(), "127.0.0.1:0", chaos_options(2_000, 2_000))
        .expect("binds");
    let addr = handle.addr();

    let mut garbage = FaultStream::connect(addr);
    // Invalid UTF-8, then syntactically-valid-but-meaningless JSON: both
    // must earn a typed BadRequest without killing the connection.
    garbage.blast(b"\x00\xfe\xffnoise\n");
    let reply = garbage.read_line().expect("reply to invalid utf-8");
    assert!(reply.contains("\"Error\""), "{reply}");
    assert!(reply.contains("BadRequest"), "{reply}");
    garbage.blast(b"{\"definitely\":\"not a request\"}\n");
    let reply = garbage.read_line().expect("reply to unknown request");
    assert!(reply.contains("\"Error\""), "{reply}");
    assert!(reply.contains("BadRequest"), "{reply}");
    // Same socket, now well-formed: still serviced.
    garbage.blast(b"\"Health\"\n");
    let reply = garbage.read_line().expect("health reply after garbage");
    assert!(reply.contains("\"Health\""), "{reply}");
    drop(garbage);

    let good = run_good_client(&addr.to_string(), 10, 6, Duration::from_secs(20));

    let (_, _, stats) = shutdown_and_join(good, handle);
    assert_eq!(stats.errors, 2, "{stats:?}");
    assert_eq!(stats.io_errors, 0, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
}

#[test]
fn hot_reload_under_load_drops_nothing_and_swaps_scores_atomically() {
    // Two genuinely different models sharing a feature width: model A is
    // the split-8 fixture, model B is trained against split layer 6, so
    // their probabilities differ on the same rows — which is what lets
    // every response be attributed to exactly one version bit-exactly.
    let fx = fixture();
    let model_a = served_model();
    let views_b = Suite::ispd2011_like(0.01)
        .expect("valid scale")
        .split_all(SplitLayer::new(6).expect("valid layer"));
    let train_b: Vec<_> = views_b[1..].iter().collect();
    let model_b =
        TrainedAttack::train(&AttackConfig::imp9(), &train_b, None).expect("model B trains");
    let rows = fx.features.len().min(6);
    let features = fx.features[..rows].to_vec();
    let probs_a: Vec<f64> = features.iter().map(|x| model_a.model().proba(x)).collect();
    let probs_b: Vec<f64> = features.iter().map(|x| model_b.model().proba(x)).collect();
    assert!(
        probs_a.iter().zip(&probs_b).any(|(a, b)| a != b),
        "fixture models must be distinguishable for version attribution"
    );

    // Registry: "stable" (default) serves model A forever; "swap" starts
    // as A and is republished as B mid-flood.
    let dir = std::env::temp_dir().join("smserve_chaos_reload");
    let _ = std::fs::remove_dir_all(&dir);
    let meta = |layer: &str| TrainMeta {
        split_layer: layer.into(),
        ..TrainMeta::default()
    };
    publish(
        &dir,
        "stable",
        &ModelArtifact::from_trained(&model_a, meta("V8")),
        true,
    )
    .expect("publishes stable");
    publish(
        &dir,
        "swap",
        &ModelArtifact::from_trained(&model_a, meta("V8")),
        false,
    )
    .expect("publishes swap@A");

    let handle = ServerHandle::bind_source(
        ModelSource::Registry {
            dir: dir.clone(),
            default_model: None,
        },
        None,
        "127.0.0.1:0",
        chaos_options(5_000, 5_000),
    )
    .expect("binds");
    let addr = handle.addr();

    // Well-behaved flood on the default model for the whole duration:
    // "stable" keeps serving model A bit-identically across the swap.
    let addr_str = addr.to_string();
    let good =
        std::thread::spawn(move || run_good_client(&addr_str, 30, 6, Duration::from_secs(30)));

    // One *pinned connection* routing to "swap" by id: the same TCP
    // stream must survive the reload and flip versions exactly once.
    let mut swap_client = GoodClient::new(&addr.to_string(), Wire::Ndjson, 0x50A9);
    let score_swap = |client: &mut GoodClient| -> Vec<f64> {
        match client
            .call(&Request::ScorePairs {
                features: features.clone(),
                model_id: Some("swap".into()),
            })
            .expect("swap-routed request succeeds")
        {
            Response::Scores { probs } => probs,
            other => panic!("unexpected scores reply: {other:?}"),
        }
    };
    let bits = |probs: &[f64]| -> Vec<u64> { probs.iter().map(|p| p.to_bits()).collect() };
    for round in 0..5 {
        assert_eq!(
            bits(&score_swap(&mut swap_client)),
            bits(&probs_a),
            "pre-swap round {round} must serve model A"
        );
    }

    // Republish "swap" as model B, then reload over the *same pinned
    // connection* — mid-flood, while the good client keeps hammering.
    publish(
        &dir,
        "swap",
        &ModelArtifact::from_trained(&model_b, meta("V6")),
        false,
    )
    .expect("republishes swap@B");
    match swap_client.call(&Request::Reload).expect("reload succeeds") {
        Response::Reloaded {
            default_model,
            models,
            reloads,
        } => {
            assert_eq!(default_model, "stable");
            assert_eq!(models, vec!["stable".to_owned(), "swap".to_owned()]);
            assert_eq!(reloads, 1);
        }
        other => panic!("unexpected reload reply: {other:?}"),
    }
    for round in 0..5 {
        assert_eq!(
            bits(&score_swap(&mut swap_client)),
            bits(&probs_b),
            "post-swap round {round} must serve model B bit-identically to \
             loading the new artifact in-process"
        );
    }
    assert_eq!(
        swap_client.retries, 0,
        "the pinned connection never needed a reconnect across the swap"
    );

    let good = good.join().expect("good client thread");
    let (good_retries, _, stats) = shutdown_and_join(good, handle);
    assert_eq!(good_retries, 0, "no connection was dropped: {stats:?}");
    assert_eq!(stats.io_errors, 0, "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(stats.reloads, 1, "exactly one catalog swap: {stats:?}");
    assert_eq!(stats.model_id, "stable", "default unchanged: {stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// 12 connections against 2 workers + a queue of 2: most must be shed
/// with Busy immediately instead of blocking the accept loop, and every
/// shed must be accounted. The good client starts first and may itself be
/// shed while the flood holds the queue; its retry policy absorbs that,
/// and its `busy_retries` audit exactly how often. A shed `Busy` is an
/// NDJSON line on either wire (shedding happens before the first byte,
/// so the server cannot know the wire yet) and a binary client must cope.
fn connect_flood_is_shed_and_fully_accounted(wire: Wire) {
    let mut options = chaos_options(2_000, 500);
    options.max_queue = 2;
    let handle = ServerHandle::bind(served_model(), "127.0.0.1:0", options).expect("binds");
    let addr = handle.addr();

    let addr_str = addr.to_string();
    let good = std::thread::spawn(move || {
        run_good_client_wire(&addr_str, 25, 6, Duration::from_secs(30), wire)
    });

    let mut flood: Vec<FaultStream> = (0..12).map(|_| FaultStream::connect(addr)).collect();
    let mut flood_busy = 0u64;
    for conn in &mut flood {
        // Shed connections have a Busy line buffered (readable even after
        // the server's close); held ones are silently idle-closed within
        // 500 ms, which reads as EOF here.
        match conn.read_line() {
            Some(line) if line.contains("\"Busy\"") => {
                assert!(line.contains("retry_after_ms"), "{line}");
                flood_busy += 1;
            }
            Some(line) => panic!("unexpected flood reply: {line}"),
            None => {}
        }
    }
    drop(flood);
    assert!(
        flood_busy >= 8,
        "12 connections into 2 workers + queue of 2 must shed most: {flood_busy}"
    );

    let good = good.join().expect("good client thread");
    // Let any still-queued (already closed) flood sockets drain before
    // the shutdown connection comes in, so it cannot be shed.
    std::thread::sleep(Duration::from_millis(600));
    let (_, client_busy, stats) = shutdown_and_join(good, handle);

    // Every Busy the server handed out was received by someone we control:
    // the flood counted theirs, the good client counted its own.
    assert_eq!(
        stats.shed,
        flood_busy + client_busy,
        "every shed connection must be accounted: {stats:?}, flood_busy={flood_busy}, client_busy={client_busy}"
    );
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");
}

#[test]
fn connect_flood_past_the_queue_bound_is_shed_and_fully_accounted() {
    connect_flood_is_shed_and_fully_accounted(Wire::Ndjson);
}

// ---------------------------------------------------------------------
// The same fault matrix against the binary wire (protocol v2). Framing
// faults look different here — a torn length prefix, a header declaring
// a payload past the cap, a frame that loses sync — and each one has
// its own contract entry in the counter table.
// ---------------------------------------------------------------------

#[test]
fn binary_slow_loris_is_cut_off_by_the_request_deadline() {
    slow_loris_is_cut_off(Wire::Binary);
}

#[test]
fn binary_torn_length_prefix_is_counted_not_fatal() {
    torn_frame_is_counted_not_fatal(Wire::Binary);
}

#[test]
fn binary_header_declaring_past_the_cap_is_rejected_before_buffering() {
    let mut options = chaos_options(5_000, 5_000);
    options.max_request_bytes = 1_024;
    let handle = ServerHandle::bind(served_model(), "127.0.0.1:0", options).expect("binds");
    let addr = handle.addr();

    // Eight header bytes declaring a megabyte: the binary wire rejects
    // from the length prefix alone — no payload byte is ever buffered,
    // unlike NDJSON which must swallow a full cap's worth first.
    let mut big = FaultStream::connect(addr);
    big.blast(&binary::encode_header(binary::FRAME_JSON_REQUEST, 1 << 20));
    match big
        .read_binary_response()
        .expect("typed rejection before the close")
    {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::TooLarge, "{message}");
            assert!(message.contains("1024"), "cap in message: {message}");
        }
        other => panic!("unexpected oversize reply: {other:?}"),
    }
    assert!(
        big.read_binary_response().is_none(),
        "an over-cap connection cannot be resynchronized and must be closed"
    );
    drop(big);

    // 1 row of binary ScorePairs fits far under the tiny cap.
    let good = run_good_client_wire(
        &addr.to_string(),
        10,
        1,
        Duration::from_secs(20),
        Wire::Binary,
    );

    let (_, _, stats) = shutdown_and_join(good, handle);
    assert_eq!(stats.errors, 1, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(stats.io_errors, 0, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
}

/// JSON nested far past the parser's depth limit, as an NDJSON line and
/// as a binary JSON frame. Without the limit, one 20 KB line of `[`
/// overflowed an event loop's stack and aborted the whole server. Now each
/// is a BadRequest like any other malformed request, its connection keeps
/// serving, and a client scoring at the same time is untouched.
#[test]
fn deeply_nested_json_is_a_bad_request_on_both_wires() {
    let handle = ServerHandle::bind(served_model(), "127.0.0.1:0", chaos_options(2_000, 2_000))
        .expect("binds");
    let addr = handle.addr();
    let good = std::thread::spawn(move || {
        run_good_client(&addr.to_string(), 40, 6, Duration::from_secs(30))
    });
    let deep = "[".repeat(20_000);

    let mut ndjson = FaultStream::connect(addr);
    ndjson.blast(format!("{deep}\n").as_bytes());
    let reply = ndjson.read_line().expect("reply to a deep line");
    assert!(reply.contains("BadRequest"), "{reply}");
    ndjson.blast(b"\"Health\"\n");
    let reply = ndjson
        .read_line()
        .expect("health reply after the deep line");
    assert!(reply.contains("\"Health\""), "{reply}");
    drop(ndjson);

    let mut bin = FaultStream::connect(addr);
    let mut frame = binary::encode_header(binary::FRAME_JSON_REQUEST, deep.len() as u32).to_vec();
    frame.extend_from_slice(deep.as_bytes());
    bin.blast(&frame);
    match bin.read_binary_response().expect("reply to a deep frame") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("unexpected deep-frame reply: {other:?}"),
    }
    bin.blast(&binary::encode_request(&Request::Health));
    match bin
        .read_binary_response()
        .expect("health reply after the deep frame")
    {
        Response::Health { .. } => {}
        other => panic!("unexpected health reply: {other:?}"),
    }
    drop(bin);

    let good = good.join().expect("good client kept bit-identical scores");
    let (_, _, stats) = shutdown_and_join(good, handle);
    assert_eq!(stats.errors, 2, "{stats:?}");
    assert_eq!(stats.io_errors, 0, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
}

#[test]
fn binary_garbage_frames_follow_the_framing_contract() {
    let handle = ServerHandle::bind(served_model(), "127.0.0.1:0", chaos_options(2_000, 2_000))
        .expect("binds");
    let addr = handle.addr();

    // A well-delimited frame with a garbage payload: framing survives,
    // so — like a garbage NDJSON line — the reply is BadRequest and the
    // connection keeps serving.
    let mut garbage = FaultStream::connect(addr);
    let junk = b"definitely not a request";
    let mut frame = binary::encode_header(binary::FRAME_JSON_REQUEST, junk.len() as u32).to_vec();
    frame.extend_from_slice(junk);
    garbage.blast(&frame);
    match garbage
        .read_binary_response()
        .expect("reply to garbage payload")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("unexpected garbage reply: {other:?}"),
    }
    // Same socket, now well-formed: still serviced.
    garbage.blast(&binary::encode_request(&Request::Health));
    match garbage
        .read_binary_response()
        .expect("health reply after garbage")
    {
        Response::Health { .. } => {}
        other => panic!("unexpected health reply: {other:?}"),
    }
    drop(garbage);

    // A corrupt *header* (bad protocol version) loses frame sync: the
    // stream cannot be re-framed, so the reply closes the connection.
    let mut desync = FaultStream::connect(addr);
    desync.blast(&[binary::MAGIC0, binary::MAGIC1, 9, 0x01, 0, 0, 0, 0]);
    match desync
        .read_binary_response()
        .expect("reply to bad version header")
    {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest, "{message}");
        }
        other => panic!("unexpected bad-header reply: {other:?}"),
    }
    assert!(
        desync.read_binary_response().is_none(),
        "a desynced binary stream must be closed after the reply"
    );
    drop(desync);

    let good = run_good_client_wire(
        &addr.to_string(),
        10,
        6,
        Duration::from_secs(20),
        Wire::Binary,
    );

    let (_, _, stats) = shutdown_and_join(good, handle);
    assert_eq!(stats.errors, 2, "{stats:?}");
    assert_eq!(stats.io_errors, 0, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
}

#[test]
fn pipelined_flood_on_one_connection_cannot_starve_the_reactor() {
    // One connection blasts 10k pipelined binary frames at a server with a
    // SINGLE event loop — fairness must come from the per-turn frame
    // budget, not from reactor parallelism. A well-behaved client sharing
    // that loop must keep getting bit-exact answers within its deadline,
    // and every frame must land in the counters exactly once.
    const FRAMES: usize = 10_000;
    let mut options = chaos_options(30_000, 30_000);
    options.event_loops = 1;
    let handle = ServerHandle::bind(served_model(), "127.0.0.1:0", options).expect("binds");
    let addr = handle.addr();

    let pipeliner = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("pipeliner connects");
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut write_half = stream.try_clone().expect("clone");
        // Writer and reader run concurrently: the server is entitled to
        // exert backpressure mid-blast, so a single-threaded
        // write-everything-then-read could deadlock on full buffers.
        let writer = std::thread::spawn(move || {
            let frame = binary::encode_request(&Request::Health);
            let mut blob = Vec::with_capacity(frame.len() * FRAMES);
            for _ in 0..FRAMES {
                blob.extend_from_slice(&frame);
            }
            write_half.write_all(&blob).expect("pipelined frames land");
            write_half.flush().expect("flush");
        });
        let mut reader = std::io::BufReader::new(stream);
        for k in 0..FRAMES {
            let mut header = [0u8; binary::HEADER_LEN];
            reader
                .read_exact(&mut header)
                .unwrap_or_else(|e| panic!("reply {k} header: {e}"));
            let h = binary::decode_header(header, u64::MAX).expect("server sends valid headers");
            let mut payload = vec![0u8; h.len as usize];
            reader
                .read_exact(&mut payload)
                .unwrap_or_else(|e| panic!("reply {k} payload: {e}"));
            match binary::decode_response(h.frame_type, &payload).expect("server frames decode") {
                Response::Health { .. } => {}
                other => panic!("reply {k}: unexpected {other:?}"),
            }
        }
        writer.join().expect("writer thread");
    });

    // Shares the single event loop with the flood for its whole run.
    let good = run_good_client_wire(
        &addr.to_string(),
        15,
        6,
        Duration::from_secs(20),
        Wire::Binary,
    );
    pipeliner.join().expect("pipeliner thread");

    let (retries, _, stats) = shutdown_and_join(good, handle);
    assert_eq!(retries, 0, "no retry needed: {stats:?}");
    assert_eq!(
        stats.requests,
        FRAMES as u64 + 15 + 1,
        "every pipelined frame, good-client request, and the shutdown \
         counted exactly once: {stats:?}"
    );
    assert_eq!(stats.errors, 0, "{stats:?}");
    assert_eq!(stats.io_errors, 0, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
}

/// One connection pipelines `BACKLOG_FRAMES` `ScorePairs` requests in
/// odd-sized writes to a server with a single event loop, and reads the
/// replies concurrently. The server takes at most one frame budget per
/// service turn while the rest of the backlog waits in its read buffer:
/// the path whose copy cost the read cursor bounds. Request `k` scores its own window of rows, so a
/// reordered, dropped or torn frame shows as a wrong reply.
fn backlog_of_in_flight_requests_drains_in_order(wire: Wire) {
    const BACKLOG_FRAMES: usize = 2_000;
    /// Prime, so write boundaries cut through headers, payloads and
    /// newlines at shifting offsets.
    const WRITE: usize = 4_093;
    let fx = fixture();
    let n = fx.features.len();
    let windows: Vec<(usize, usize)> = (0..BACKLOG_FRAMES)
        .map(|k| {
            let rows = 1 + k % n.min(16);
            (k % (n - rows + 1), rows)
        })
        .collect();
    let mut blob = Vec::new();
    for &(at, rows) in &windows {
        let request = Request::ScorePairs {
            features: fx.features[at..at + rows].to_vec(),
            model_id: None,
        };
        match wire {
            Wire::Binary => blob.extend(binary::encode_request(&request)),
            Wire::Ndjson => {
                blob.extend(serde_json::to_string(&request).expect("encodes").bytes());
                blob.push(b'\n');
            }
        }
    }

    let mut options = chaos_options(30_000, 30_000);
    options.event_loops = 1;
    let handle = ServerHandle::bind(served_model(), "127.0.0.1:0", options).expect("binds");
    let stream = TcpStream::connect(handle.addr()).expect("connects");
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut write_half = stream.try_clone().expect("clone");
    // Reads run concurrently with the writes: the server may push back
    // mid-backlog, and write-everything-then-read could deadlock.
    let writer = std::thread::spawn(move || {
        for chunk in blob.chunks(WRITE) {
            write_half.write_all(chunk).expect("backlog lands");
        }
    });
    let mut reader = std::io::BufReader::new(stream);
    for (k, &(at, rows)) in windows.iter().enumerate() {
        let reply = match wire {
            Wire::Binary => {
                let mut header = [0u8; binary::HEADER_LEN];
                reader
                    .read_exact(&mut header)
                    .unwrap_or_else(|e| panic!("reply {k} header: {e}"));
                let h = binary::decode_header(header, u64::MAX).expect("valid header");
                let mut payload = vec![0u8; h.len as usize];
                reader
                    .read_exact(&mut payload)
                    .unwrap_or_else(|e| panic!("reply {k} payload: {e}"));
                binary::decode_response(h.frame_type, &payload).expect("reply decodes")
            }
            Wire::Ndjson => {
                let mut line = String::new();
                reader
                    .read_line(&mut line)
                    .unwrap_or_else(|e| panic!("reply {k}: {e}"));
                serde_json::from_str(&line).unwrap_or_else(|e| panic!("reply {k}: {e}: {line}"))
            }
        };
        let Response::Scores { probs } = reply else {
            panic!("reply {k}: unexpected {reply:?}");
        };
        let expected = &fx.local_probs[at..at + rows];
        assert_eq!(probs.len(), rows, "reply {k} answers request {k}");
        for (j, (l, r)) in expected.iter().zip(&probs).enumerate() {
            assert_eq!(l.to_bits(), r.to_bits(), "reply {k}, row {j}");
        }
    }
    writer.join().expect("writer thread");
    drop(reader);

    let client = run_good_client_wire(
        &handle.addr().to_string(),
        0,
        1,
        Duration::from_secs(20),
        wire,
    );
    let (_, _, stats) = shutdown_and_join(client, handle);
    assert_eq!(
        stats.requests,
        BACKLOG_FRAMES as u64 + 1,
        "every backlog request and the shutdown counted once: {stats:?}"
    );
    assert_eq!(stats.errors, 0, "{stats:?}");
    assert_eq!(stats.io_errors, 0, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
}

#[test]
fn backlog_of_in_flight_score_pairs_drains_in_order_over_ndjson() {
    backlog_of_in_flight_requests_drains_in_order(Wire::Ndjson);
}

#[test]
fn backlog_of_in_flight_score_pairs_drains_in_order_over_binary() {
    backlog_of_in_flight_requests_drains_in_order(Wire::Binary);
}

#[test]
fn edge_triggered_reads_survive_dripped_and_coalesced_frames() {
    // The edge-triggered rearm hazards, provoked from userspace: a frame
    // dripped byte by byte (every readiness edge delivers a fragment), two
    // frames in one write (one edge, two frames — a level-triggered
    // one-frame-per-event habit would wedge the second forever), and a
    // frame split exactly at the header boundary (read returns WouldBlock
    // with a decoded header and no payload).
    let mut options = chaos_options(30_000, 30_000);
    options.event_loops = 1;
    let handle = ServerHandle::bind(served_model(), "127.0.0.1:0", options).expect("binds");
    let addr = handle.addr();

    let mut s = FaultStream::connect(addr);
    let frame = binary::encode_request(&Request::Health);
    s.drip(&frame, Duration::from_millis(5));
    match s.read_binary_response().expect("dripped frame answered") {
        Response::Health { .. } => {}
        other => panic!("unexpected dripped reply: {other:?}"),
    }

    let mut two = frame.clone();
    two.extend_from_slice(&binary::encode_request(&Request::ListModels));
    s.blast(&two);
    match s.read_binary_response().expect("first coalesced reply") {
        Response::Health { .. } => {}
        other => panic!("unexpected first reply: {other:?}"),
    }
    match s.read_binary_response().expect("second coalesced reply") {
        Response::Models { .. } => {}
        other => panic!("unexpected second reply: {other:?}"),
    }

    s.blast(&frame[..binary::HEADER_LEN]);
    std::thread::sleep(Duration::from_millis(100));
    s.blast(&frame[binary::HEADER_LEN..]);
    match s.read_binary_response().expect("split-at-header reply") {
        Response::Health { .. } => {}
        other => panic!("unexpected split reply: {other:?}"),
    }
    drop(s);

    let good = run_good_client_wire(
        &addr.to_string(),
        5,
        6,
        Duration::from_secs(20),
        Wire::Binary,
    );
    let (_, _, stats) = shutdown_and_join(good, handle);
    assert_eq!(
        stats.requests,
        4 + 5 + 1,
        "dripped + coalesced + split + good client + shutdown: {stats:?}"
    );
    assert_eq!(stats.errors, 0, "{stats:?}");
    assert_eq!(stats.io_errors, 0, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
}

#[test]
fn connect_flood_sheds_binary_clients_with_full_accounting() {
    connect_flood_is_shed_and_fully_accounted(Wire::Binary);
}
