//! End-to-end acceptance test for the inference service: train a model,
//! checkpoint it through the artifact store, host it with `serve` on an
//! ephemeral port, and prove that scores coming back over TCP are
//! bit-identical to calling the in-process [`TrainedAttack`].

use sm_attack::attack::{AttackConfig, ScoreOptions, TrainedAttack};
use sm_attack::Parallelism;
use sm_layout::generator::generate;
use sm_layout::io::{write_challenge, write_truth};
use sm_layout::route::route;
use sm_layout::{Benchmark, SplitLayer, SplitView, Suite};
use sm_serve::artifact::{ModelArtifact, TrainMeta};
use sm_serve::client::{Client, ClientTimeouts};
use sm_serve::protocol::{binary, ErrorCode, Request, Response, Wire};
use sm_serve::server::{ServeOptions, ServerHandle};
use sm_serve::ARTIFACT_VERSION;

fn trained_and_test_view() -> (TrainedAttack, SplitView) {
    let views = Suite::ispd2011_like(0.01)
        .expect("valid scale")
        .split_all(SplitLayer::new(8).expect("valid layer"));
    let train: Vec<_> = views[1..].iter().collect();
    let config = AttackConfig::imp9();
    let model = TrainedAttack::train(&config, &train, None).expect("trains");
    (model, views.into_iter().next().expect("five views"))
}

fn bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// A pool wide enough for every connection these tests hold open at once.
/// (`Auto` sizes by CPU count; on a 1-core host that is a single worker,
/// and a test keeping its own connection open while it opens more would
/// wait forever for a free worker.)
fn test_options() -> ServeOptions {
    ServeOptions {
        workers: Parallelism::Threads(4),
        ..ServeOptions::default()
    }
}

#[test]
fn full_train_store_serve_score_lifecycle() {
    let (fresh, view) = trained_and_test_view();

    // Checkpoint through the artifact store exactly as `splitmfg train` +
    // `splitmfg serve --model` would.
    let encoded = ModelArtifact::from_trained(&fresh, TrainMeta::default()).encode();
    let served_model = ModelArtifact::decode(&encoded)
        .expect("decodes")
        .into_trained();

    let handle = ServerHandle::bind(served_model, "127.0.0.1:0", test_options())
        .expect("binds an ephemeral port");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connects");

    // Health advertises the hosted model, including its registry
    // identity (a single-model server publishes itself as "default",
    // with the checksum its canonical artifact encoding would have).
    match client.call_ok(&Request::Health).expect("health") {
        Response::Health {
            model,
            features,
            trees,
            artifact_version,
            model_id,
            checksum,
            schema_version,
        } => {
            assert_eq!(model, fresh.config().name);
            assert_eq!(features, fresh.config().features.len());
            assert_eq!(trees, fresh.model().num_trees());
            assert_eq!(artifact_version, ARTIFACT_VERSION);
            assert_eq!(model_id, sm_serve::SINGLE_MODEL_ID);
            assert!(checksum.starts_with("fnv1a64:"), "{checksum}");
            assert_eq!(schema_version, ARTIFACT_VERSION);
        }
        other => panic!("unexpected health reply: {other:?}"),
    }

    // Remote pair scores must be bit-identical to the in-process model.
    let vpins = view.vpins();
    let cap = vpins.len().min(12);
    let pairs: Vec<(usize, usize)> = (0..cap)
        .flat_map(|i| ((i + 1)..cap).map(move |j| (i, j)))
        .collect();
    assert!(
        !pairs.is_empty(),
        "view with <2 v-pins cannot exercise scoring"
    );
    let features: Vec<Vec<f64>> = pairs
        .iter()
        .map(|&(i, j)| fresh.config().features.compute(&vpins[i], &vpins[j]))
        .collect();
    let local: Vec<f64> = features.iter().map(|x| fresh.model().proba(x)).collect();
    let remote = match client
        .call_ok(&Request::ScorePairs {
            features: features.clone(),
            model_id: None,
        })
        .expect("score_pairs")
    {
        Response::Scores { probs } => probs,
        other => panic!("unexpected scores reply: {other:?}"),
    };
    assert_eq!(local.len(), remote.len());
    for (k, (l, r)) in local.iter().zip(&remote).enumerate() {
        assert_eq!(
            l.to_bits(),
            r.to_bits(),
            "pair {k}: remote score must be bit-identical"
        );
    }

    // A whole-challenge attack round-trips the full ScoredView — LoC
    // histogram included — identical to scoring in-process.
    let local_scored = fresh.score(&view, &ScoreOptions::default());
    match client
        .call_ok(&Request::Attack {
            challenge: write_challenge(&view),
            truth: write_truth(&view),
            threshold: 0.5,
            detail: true,
            model_id: None,
        })
        .expect("attack")
    {
        Response::AttackResult { summary, scored } => {
            assert_eq!(summary.design, view.name);
            assert_eq!(summary.num_vpins, view.num_vpins());
            assert_eq!(summary.pairs_scored, local_scored.pairs_scored);
            assert_eq!(
                summary.accuracy.to_bits(),
                local_scored.accuracy_at(0.5).to_bits()
            );
            let scored = scored.expect("detail=true returns the scored view");
            assert_eq!(scored.hist, local_scored.hist, "LoC histogram over TCP");
            assert_eq!(scored, local_scored, "full scored view over TCP");
        }
        other => panic!("unexpected attack reply: {other:?}"),
    }

    // Malformed requests produce Error replies and leave the connection
    // usable — both garbage JSON and a bad feature-row width.
    match client.call(&Request::ScorePairs {
        features: vec![vec![1.0, 2.0]],
        model_id: None,
    }) {
        Ok(Response::Error { code, message }) => {
            assert_eq!(code, sm_serve::protocol::ErrorCode::BadRequest);
            assert!(message.contains("model expects"), "{message}");
        }
        other => panic!("short row should be a protocol-level error: {other:?}"),
    }
    match client.call_ok(&Request::ScorePairs {
        features: vec![vec![0.0; fresh.config().features.len()]],
        model_id: None,
    }) {
        Ok(Response::Scores { probs }) => assert_eq!(probs.len(), 1),
        other => panic!("connection should survive an error reply: {other:?}"),
    }

    // Counters reflect what we did.
    match client.call_ok(&Request::Stats).expect("stats") {
        Response::Stats { stats } => {
            assert_eq!(stats.model_id, sm_serve::SINGLE_MODEL_ID, "{stats:?}");
            assert!(stats.model_checksum.starts_with("fnv1a64:"), "{stats:?}");
            assert_eq!(stats.schema_version, ARTIFACT_VERSION, "{stats:?}");
            assert_eq!(stats.reloads, 0, "{stats:?}");
            assert!(stats.shadow.is_none(), "no shadow configured: {stats:?}");
            assert!(stats.requests >= 5, "{stats:?}");
            assert_eq!(stats.errors, 1, "{stats:?}");
            assert_eq!(stats.shed, 0, "nothing shed on the happy path: {stats:?}");
            assert_eq!(stats.timeouts, 0, "{stats:?}");
            assert!(
                stats.pairs_scored >= (pairs.len() + local_scored.pairs_scored as usize) as u64,
                "{stats:?}"
            );
            assert!(stats.max_us >= stats.p50_us, "{stats:?}");
        }
        other => panic!("unexpected stats reply: {other:?}"),
    }

    // Two more connections, one per wire, each pipeline three batches
    // while this one stays open, and get the same bit-identical scores.
    let k = features.len().min(8);
    let batch = Request::ScorePairs {
        features: features[..k].to_vec(),
        model_id: None,
    };
    for wire in [Wire::Ndjson, Wire::Binary] {
        let mut other =
            Client::connect_wire(addr, ClientTimeouts::default(), wire).expect("connects");
        for _ in 0..3 {
            other.send(&batch).expect("pipelined send");
        }
        for _ in 0..3 {
            match other.recv().expect("pipelined reply") {
                Response::Scores { probs } => assert_eq!(bits(&probs), bits(&local[..k])),
                reply => panic!("unexpected scores reply: {reply:?}"),
            }
        }
    }

    // Graceful shutdown: the request is acknowledged, the accept loop
    // stops, and join() hands back the final counters.
    match client.call_ok(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    let final_stats = handle.join().expect("clean server exit");
    assert!(final_stats.requests >= 12, "{final_stats:?}");
    assert_eq!(final_stats.errors, 1, "{final_stats:?}");
    assert_eq!(final_stats.shed, 0, "{final_stats:?}");
}

#[test]
fn ndjson_and_binary_wires_are_bit_identical_end_to_end() {
    let (model, view) = trained_and_test_view();
    let local_scored = model.score(&view, &ScoreOptions::default());
    let handle = ServerHandle::bind(
        ModelArtifact::from_trained(&model, TrainMeta::default()).into_trained(),
        "127.0.0.1:0",
        test_options(),
    )
    .expect("binds");
    let addr = handle.addr();

    // One connection per wire, held open side by side against the same
    // server: the wire is a per-connection property, detected from the
    // first byte, and must never leak into the answers.
    let timeouts = ClientTimeouts {
        connect_ms: 2_000,
        io_ms: 30_000,
    };
    let mut ndjson = Client::connect_wire(addr, timeouts, Wire::Ndjson).expect("ndjson connects");
    let mut binary = Client::connect_wire(addr, timeouts, Wire::Binary).expect("binary connects");
    assert_eq!(ndjson.wire(), Wire::Ndjson);
    assert_eq!(binary.wire(), Wire::Binary);

    // Identical ScorePairs through both wires: every probability must be
    // bit-identical to the in-process model — and therefore to each other.
    let vpins = view.vpins();
    let cap = vpins.len().min(12);
    let features: Vec<Vec<f64>> = (0..cap)
        .flat_map(|i| ((i + 1)..cap).map(move |j| (i, j)))
        .map(|(i, j)| model.config().features.compute(&vpins[i], &vpins[j]))
        .collect();
    let local: Vec<f64> = features.iter().map(|x| model.model().proba(x)).collect();
    let score_req = Request::ScorePairs {
        features: features.clone(),
        model_id: None,
    };
    let probs_of = |resp: Response| -> Vec<f64> {
        match resp {
            Response::Scores { probs } => probs,
            other => panic!("unexpected scores reply: {other:?}"),
        }
    };
    let via_ndjson = probs_of(ndjson.call_ok(&score_req).expect("ndjson score"));
    let via_binary = probs_of(binary.call_ok(&score_req).expect("binary score"));
    assert_eq!(via_ndjson.len(), local.len());
    assert_eq!(via_binary.len(), local.len());
    for (k, ((l, n), b)) in local.iter().zip(&via_ndjson).zip(&via_binary).enumerate() {
        assert_eq!(
            l.to_bits(),
            n.to_bits(),
            "pair {k}: ndjson wire must be bit-identical to in-process"
        );
        assert_eq!(
            n.to_bits(),
            b.to_bits(),
            "pair {k}: binary wire must be bit-identical to ndjson"
        );
    }

    // A whole-challenge Attack with detail: the full ScoredView — LoC
    // histogram included — must be the same value on both wires.
    let attack_req = Request::Attack {
        challenge: write_challenge(&view),
        truth: write_truth(&view),
        threshold: 0.5,
        detail: true,
        model_id: None,
    };
    let a = ndjson.call_ok(&attack_req).expect("ndjson attack");
    let b = binary.call_ok(&attack_req).expect("binary attack");
    assert_eq!(a, b, "attack result must not depend on the wire");
    match a {
        Response::AttackResult { summary, scored } => {
            assert_eq!(summary.pairs_scored, local_scored.pairs_scored);
            assert_eq!(
                summary.accuracy.to_bits(),
                local_scored.accuracy_at(0.5).to_bits()
            );
            let scored = scored.expect("detail=true returns the scored view");
            assert_eq!(scored.hist, local_scored.hist, "LoC histogram over TCP");
            assert_eq!(scored, local_scored, "full scored view over TCP");
        }
        other => panic!("unexpected attack reply: {other:?}"),
    }

    // Control-plane requests agree too: Health is the same answer, and
    // Stats over the binary wire accounts for both connections' traffic.
    let health_n = ndjson.call_ok(&Request::Health).expect("ndjson health");
    let health_b = binary.call_ok(&Request::Health).expect("binary health");
    assert_eq!(health_n, health_b, "health must not depend on the wire");
    match binary.call_ok(&Request::Stats).expect("binary stats") {
        Response::Stats { stats } => {
            assert!(stats.requests >= 6, "{stats:?}");
            assert_eq!(stats.errors, 0, "{stats:?}");
            assert_eq!(stats.io_errors, 0, "{stats:?}");
        }
        other => panic!("unexpected stats reply: {other:?}"),
    }

    drop(ndjson);
    match binary.call_ok(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    handle.join().expect("clean exit");
}

/// Writes one complete binary frame and reads back one response frame.
fn binary_exchange(stream: &mut std::net::TcpStream, frame: &[u8]) -> Response {
    use std::io::{Read, Write};
    stream.write_all(frame).expect("frame written");
    let mut header = [0u8; binary::HEADER_LEN];
    stream.read_exact(&mut header).expect("reply header");
    let header = binary::decode_header(header, u64::from(u32::MAX)).expect("valid reply header");
    let mut payload = vec![0u8; header.len as usize];
    stream.read_exact(&mut payload).expect("reply payload");
    binary::decode_response(header.frame_type, &payload).expect("reply decodes")
}

#[test]
fn dense_and_json_framed_binary_attacks_match_ndjson_bit_for_bit() {
    // On the binary wire the JSON frame (0x01) carries control requests
    // only. A JSON-framed ScorePairs or Attack, what a client written
    // before the dense frames sends, gets a BadRequest and the
    // connection stays open; the same connection then scores through
    // the dense frames, bit-identical to NDJSON and to the in-process
    // model, and still answers JSON-framed control requests.
    let (model, view) = trained_and_test_view();
    let local_scored = model.score(&view, &ScoreOptions::default());
    let features: Vec<Vec<f64>> = vec![vec![0.0; 9], vec![1.5; 9], vec![4000.0; 9]];
    let local: Vec<f64> = features.iter().map(|x| model.model().proba(x)).collect();
    let handle = ServerHandle::bind(model, "127.0.0.1:0", test_options()).expect("binds");
    let addr = handle.addr();
    let timeouts = ClientTimeouts {
        connect_ms: 2_000,
        io_ms: 30_000,
    };
    let mut ndjson = Client::connect_wire(addr, timeouts, Wire::Ndjson).expect("ndjson connects");
    let mut raw = std::net::TcpStream::connect(addr).expect("binary connects");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");

    let score_req = Request::ScorePairs {
        features,
        model_id: None,
    };
    let attack_req = Request::Attack {
        challenge: write_challenge(&view),
        truth: write_truth(&view),
        threshold: 0.5,
        detail: true,
        model_id: None,
    };
    for req in [&score_req, &attack_req] {
        let json = serde_json::to_string(req).expect("serializes");
        let mut frame =
            binary::encode_header(binary::FRAME_JSON_REQUEST, json.len() as u32).to_vec();
        frame.extend_from_slice(json.as_bytes());
        match binary_exchange(&mut raw, &frame) {
            Response::Error {
                code: ErrorCode::BadRequest,
                message,
            } => assert!(message.contains("dense"), "{message}"),
            other => panic!("JSON-framed scoring must be a BadRequest, got {other:?}"),
        }
    }

    let probs_of = |resp: Response| -> Vec<f64> {
        match resp {
            Response::Scores { probs } => probs,
            other => panic!("unexpected scores reply: {other:?}"),
        }
    };
    let via_ndjson = probs_of(ndjson.call_ok(&score_req).expect("ndjson score"));
    let via_dense = probs_of(binary_exchange(
        &mut raw,
        &binary::encode_request(&score_req),
    ));
    assert_eq!(via_ndjson.len(), 3);
    assert_eq!(via_dense.len(), 3);
    for (k, ((l, n), d)) in local.iter().zip(&via_ndjson).zip(&via_dense).enumerate() {
        assert_eq!(l.to_bits(), n.to_bits(), "row {k}: ndjson vs in-process");
        assert_eq!(n.to_bits(), d.to_bits(), "row {k}: dense vs ndjson");
    }

    let a = ndjson.call_ok(&attack_req).expect("ndjson attack");
    let b = binary_exchange(&mut raw, &binary::encode_request(&attack_req));
    assert_eq!(a, b, "dense binary attack must equal ndjson");
    match b {
        Response::AttackResult { summary, scored } => {
            assert_eq!(summary.pairs_scored, local_scored.pairs_scored);
            assert_eq!(
                summary.accuracy.to_bits(),
                local_scored.accuracy_at(0.5).to_bits()
            );
            let scored = scored.expect("detail=true returns the scored view");
            assert_eq!(scored.hist, local_scored.hist, "LoC histogram");
            assert_eq!(scored, local_scored, "full scored view over both wires");
        }
        other => panic!("unexpected attack reply: {other:?}"),
    }

    // JSON-framed control requests still decode and answer; the two
    // rejected frames are the only errors the server booked.
    assert_eq!(
        binary::encode_request(&Request::Health)[3],
        binary::FRAME_JSON_REQUEST
    );
    match binary_exchange(&mut raw, &binary::encode_request(&Request::Health)) {
        Response::Health { features, .. } => assert_eq!(features, 9),
        other => panic!("unexpected health reply: {other:?}"),
    }
    match binary_exchange(&mut raw, &binary::encode_request(&Request::Stats)) {
        Response::Stats { stats } => {
            assert_eq!(stats.requests, 7, "{stats:?}");
            assert_eq!(stats.errors, 2, "{stats:?}");
            assert_eq!(stats.io_errors, 0, "{stats:?}");
        }
        other => panic!("unexpected stats reply: {other:?}"),
    }
    drop(ndjson);
    match binary_exchange(&mut raw, &binary::encode_request(&Request::Shutdown)) {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    handle.join().expect("clean exit");
}

#[test]
fn garbage_lines_get_error_replies_without_killing_the_connection() {
    use std::io::{BufRead, BufReader, Write};

    let (model, _) = trained_and_test_view();
    let handle = ServerHandle::bind(model, "127.0.0.1:0", test_options()).expect("binds");

    // Raw socket: this is exactly the `nc` session documented in the
    // README, garbage line included.
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connects");
    stream
        .write_all(b"this is not json\n\"Health\"\n")
        .expect("writes");
    stream.flush().expect("flushes");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("error reply");
    assert!(line.contains("\"Error\""), "{line}");
    assert!(line.contains("bad request"), "{line}");
    line.clear();
    reader.read_line(&mut line).expect("health reply");
    assert!(line.contains("\"Health\""), "{line}");
    // Close both halves of the raw connection, or the worker serving it
    // would still be alive at join() below.
    drop(reader);
    drop(stream);

    let mut client = Client::connect(handle.addr()).expect("second client");
    match client.call_ok(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.errors, 1);
}

#[test]
fn auto_pool_survives_a_held_open_idle_connection() {
    // Regression for the 1-CPU starvation mode: with `Auto` resolving to a
    // single worker, connection #1 (open, silent) used to pin the whole
    // pool, and connection #2's Health below would block forever. The
    // Auto >= 2 guard keeps a worker free.
    let (model, _) = trained_and_test_view();
    let options = ServeOptions {
        workers: Parallelism::Auto,
        ..ServeOptions::default()
    };
    let handle = ServerHandle::bind(model, "127.0.0.1:0", options).expect("binds");

    let idle = std::net::TcpStream::connect(handle.addr()).expect("idle connection");
    let mut client = Client::connect(handle.addr()).expect("second connection");
    match client
        .call_ok(&Request::Health)
        .expect("health despite idle peer")
    {
        Response::Health { .. } => {}
        other => panic!("unexpected health reply: {other:?}"),
    }
    drop(idle);
    match client.call_ok(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    handle.join().expect("clean exit");
}

#[test]
fn shutdown_handle_drains_the_server_like_sigterm_would() {
    // `splitmfg serve` wires SIGTERM/SIGINT to ShutdownHandle::request
    // from a watcher thread; this exercises that exact path in-process.
    let (model, _view) = trained_and_test_view();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr");
    let shutdown = sm_serve::server::ShutdownHandle::new();
    let server = {
        let shutdown = shutdown.clone();
        let options = test_options();
        std::thread::spawn(move || {
            sm_serve::server::serve_source_with(
                sm_serve::server::ModelSource::Single(model),
                None,
                listener,
                &options,
                Some(&shutdown),
            )
        })
    };
    // The server answers real work before the drain...
    let mut client = Client::connect(addr).expect("connects");
    match client.call_ok(&Request::Health).expect("health") {
        Response::Health { model_id, .. } => assert_eq!(model_id, "default"),
        other => panic!("unexpected reply: {other:?}"),
    }
    drop(client);
    // ... then an out-of-band request (as the signal watcher sends it)
    // stops the accept loop and drains to a final snapshot.
    shutdown.request();
    let stats = server
        .join()
        .expect("server thread exits")
        .expect("serves cleanly");
    assert!(stats.requests >= 1, "drained stats must count the work");
    assert_eq!(stats.model_id, "default");
    std::thread::sleep(std::time::Duration::from_millis(10));
    assert!(
        std::net::TcpStream::connect(addr).is_err() || {
            // A connect may succeed against the OS backlog even after the
            // listener closes on some kernels; a read must then see EOF.
            use std::io::Read;
            let mut s = std::net::TcpStream::connect(addr).expect("raced");
            s.set_read_timeout(Some(std::time::Duration::from_millis(500)))
                .expect("timeout");
            matches!(s.read(&mut [0u8; 1]), Ok(0) | Err(_))
        },
        "the drained server must not accept new work"
    );
}

/// A design big enough that one `Attack` on it keeps a worker busy for
/// a while: sb1 cut at layer 4 (about 7,500 v-pins and 490,000 scored
/// pairs).
fn slow_attack_view() -> SplitView {
    let design = route(generate(&Suite::spec_sb1_scaled(1.0)).expect("valid spec"));
    Benchmark { design }.split(SplitLayer::new(4).expect("valid layer"))
}

#[test]
fn score_pairs_is_answered_while_an_attack_holds_the_only_worker() {
    use std::io::{BufRead, BufReader, Write};

    // One event loop and one attack worker. Connection A's `Attack` takes
    // the worker; connection B's `ScorePairs` is scored on the loop and
    // answered while A's attack still runs, bit-identical to the model.
    let (model, _) = trained_and_test_view();
    let view = slow_attack_view();
    let features: Vec<Vec<f64>> = vec![vec![0.0; 9], vec![1.5; 9], vec![4000.0; 9]];
    let local: Vec<f64> = features.iter().map(|x| model.model().proba(x)).collect();
    let options = ServeOptions {
        workers: Parallelism::Threads(1),
        event_loops: 1,
        ..ServeOptions::default()
    };
    let handle = ServerHandle::bind(model, "127.0.0.1:0", options).expect("binds");
    let addr = handle.addr();
    let mut b = Client::connect(addr).expect("B connects");

    let mut a = std::net::TcpStream::connect(addr).expect("A connects");
    let attack = Request::Attack {
        challenge: write_challenge(&view),
        truth: write_truth(&view),
        threshold: 0.5,
        detail: false,
        model_id: None,
    };
    let mut line = serde_json::to_string(&attack).expect("encodes");
    line.push('\n');
    a.write_all(line.as_bytes()).expect("A sends its attack");
    // B is scored on the loop whichever request the loop takes first.
    // The pause only matters to a server that would queue B for the
    // worker: it puts B behind A there, so such a server fails below.
    std::thread::sleep(std::time::Duration::from_millis(20));

    let probs = match b
        .call_ok(&Request::ScorePairs {
            features,
            model_id: None,
        })
        .expect("B is scored")
    {
        Response::Scores { probs } => probs,
        other => panic!("unexpected scores reply: {other:?}"),
    };
    assert_eq!(bits(&probs), bits(&local), "B's scores are the model's");
    a.set_nonblocking(true).expect("nonblocking");
    match a.peek(&mut [0u8; 1]) {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        other => panic!("A's attack answered before B's scores: {other:?}"),
    }

    a.set_nonblocking(false).expect("blocking");
    a.set_read_timeout(Some(std::time::Duration::from_secs(120)))
        .expect("read timeout");
    let mut reply = String::new();
    BufReader::new(&a)
        .read_line(&mut reply)
        .expect("A's attack reply");
    match serde_json::from_str(&reply).expect("reply decodes") {
        Response::AttackResult { summary, .. } => {
            assert_eq!(summary.design, view.name);
            assert_eq!(summary.num_vpins, view.num_vpins());
        }
        other => panic!("unexpected attack reply: {other:?}"),
    }
    drop(a);
    b.call_ok(&Request::Shutdown).expect("shutdown");
    let stats = handle.join().expect("clean exit");
    assert_eq!((stats.errors, stats.io_errors), (0, 0), "{stats:?}");
}

#[test]
fn pipelined_score_pairs_take_one_kernel_call_each() {
    const N: usize = 12;
    const R: usize = 5;
    let (model, _) = trained_and_test_view();
    let handle = ServerHandle::bind(model, "127.0.0.1:0", test_options()).expect("binds");
    let mut client = Client::connect_wire(handle.addr(), ClientTimeouts::default(), Wire::Binary)
        .expect("connects");
    let batch = Request::ScorePairs {
        features: (0..R).map(|k| vec![k as f64; 9]).collect(),
        model_id: None,
    };
    for _ in 0..N {
        client.send(&batch).expect("pipelined send");
    }
    for _ in 0..N {
        match client.recv().expect("pipelined reply") {
            Response::Scores { probs } => assert_eq!(probs.len(), R),
            other => panic!("unexpected scores reply: {other:?}"),
        }
    }
    match client.call_ok(&Request::Stats).expect("stats") {
        Response::Stats { stats } => {
            assert_eq!(stats.score_batches, N as u64, "{stats:?}");
            assert_eq!(stats.batched_rows, (N * R) as u64, "{stats:?}");
            assert_eq!(stats.pairs_scored, (N * R) as u64, "{stats:?}");
        }
        other => panic!("unexpected stats reply: {other:?}"),
    }
    client.call_ok(&Request::Shutdown).expect("shutdown");
    handle.join().expect("clean exit");
}
