//! End-to-end acceptance for the model registry subsystem: publish two
//! genuinely different models into one on-disk registry, serve the whole
//! catalog from a single process, and prove the operational story —
//! per-model routing is bit-exact per entry, unknown ids are typed
//! `not_found` rejections, the default route follows the index, shadow
//! scoring's divergence report is *exact* (zero for self-vs-self, nonzero
//! across split layers), and a catalog snapshot held by an in-flight
//! request is immune to a concurrent swap.

use std::path::PathBuf;
use std::sync::Arc;

use sm_attack::attack::{AttackConfig, TrainedAttack};
use sm_attack::Parallelism;
use sm_layout::{SplitLayer, Suite};
use sm_serve::artifact::{ModelArtifact, TrainMeta};
use sm_serve::client::{Client, ClientError, ClientTimeouts};
use sm_serve::protocol::{ErrorCode, Request, Response, Wire};
use sm_serve::registry::{publish, Catalog};
use sm_serve::server::{ModelSource, ServeOptions, ServerHandle, ShadowConfig};

/// Two Imp-9 attackers trained against different split layers (8 and 6):
/// same feature width, different trees, so one feature batch exposes
/// which model answered.
fn two_models() -> (TrainedAttack, TrainedAttack, Vec<Vec<f64>>) {
    let views8 = Suite::ispd2011_like(0.01)
        .expect("valid scale")
        .split_all(SplitLayer::new(8).expect("valid layer"));
    let train8: Vec<_> = views8[1..].iter().collect();
    let model8 = TrainedAttack::train(&AttackConfig::imp9(), &train8, None).expect("trains v8");
    let views6 = Suite::ispd2011_like(0.01)
        .expect("valid scale")
        .split_all(SplitLayer::new(6).expect("valid layer"));
    let train6: Vec<_> = views6[1..].iter().collect();
    let model6 = TrainedAttack::train(&AttackConfig::imp9(), &train6, None).expect("trains v6");
    let vpins = views8[0].vpins();
    let cap = vpins.len().min(10);
    let features: Vec<Vec<f64>> = (0..cap)
        .flat_map(|i| ((i + 1)..cap).map(move |j| (i, j)))
        .map(|(i, j)| model8.config().features.compute(&vpins[i], &vpins[j]))
        .collect();
    assert!(!features.is_empty());
    (model8, model6, features)
}

fn fresh_registry(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smserve_registry_e2e_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn meta(layer: &str) -> TrainMeta {
    TrainMeta {
        split_layer: layer.into(),
        benchmarks: vec!["sb1".into()],
        ..TrainMeta::default()
    }
}

fn options() -> ServeOptions {
    ServeOptions {
        workers: Parallelism::Threads(4),
        ..ServeOptions::default()
    }
}

fn score(
    client: &mut Client,
    features: &[Vec<f64>],
    model_id: Option<&str>,
) -> Result<Vec<f64>, ClientError> {
    match client.call_ok(&Request::ScorePairs {
        features: features.to_vec(),
        model_id: model_id.map(str::to_owned),
    })? {
        Response::Scores { probs } => Ok(probs),
        other => panic!("unexpected scores reply: {other:?}"),
    }
}

fn bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn routing_lists_and_defaults_are_per_model_bit_exact() {
    let (model8, model6, features) = two_models();
    let probs8: Vec<f64> = features.iter().map(|x| model8.model().proba(x)).collect();
    let probs6: Vec<f64> = features.iter().map(|x| model6.model().proba(x)).collect();

    let dir = fresh_registry("routing");
    let entry8 = publish(
        &dir,
        "incumbent",
        &ModelArtifact::from_trained(&model8, meta("V8")),
        true,
    )
    .expect("publishes incumbent");
    publish(
        &dir,
        "retrained",
        &ModelArtifact::from_trained(&model6, meta("V6")),
        false,
    )
    .expect("publishes retrained");

    let handle = ServerHandle::bind_source(
        ModelSource::Registry {
            dir: dir.clone(),
            default_model: None,
        },
        None,
        "127.0.0.1:0",
        options(),
    )
    .expect("binds");
    let mut client = Client::connect(handle.addr()).expect("connects");

    // ListModels reports both entries sorted, with the index's default
    // and per-entry identity (checksum straight from the publish receipt).
    match client.call_ok(&Request::ListModels).expect("list") {
        Response::Models {
            default_model,
            models,
        } => {
            assert_eq!(default_model, "incumbent");
            let ids: Vec<&str> = models.iter().map(|m| m.model_id.as_str()).collect();
            assert_eq!(ids, ["incumbent", "retrained"], "sorted by id");
            let inc = &models[0];
            assert_eq!(inc.checksum, entry8.checksum);
            assert_eq!(inc.split_layer, "V8");
            assert_eq!(inc.config, model8.config().name);
            assert_eq!(inc.features, model8.config().features.len());
            assert_eq!(models[1].split_layer, "V6");
        }
        other => panic!("unexpected list reply: {other:?}"),
    }

    // Health describes the default entry.
    match client.call_ok(&Request::Health).expect("health") {
        Response::Health {
            model_id, checksum, ..
        } => {
            assert_eq!(model_id, "incumbent");
            assert_eq!(checksum, entry8.checksum);
        }
        other => panic!("unexpected health reply: {other:?}"),
    }

    // Explicit routing is bit-exact per entry; the default route serves
    // the index's default. Same batch, three routes, two answers.
    let by_default = score(&mut client, &features, None).expect("default route");
    let by_incumbent = score(&mut client, &features, Some("incumbent")).expect("incumbent");
    let by_retrained = score(&mut client, &features, Some("retrained")).expect("retrained");
    assert_eq!(bits(&by_incumbent), bits(&probs8), "incumbent == model8");
    assert_eq!(bits(&by_retrained), bits(&probs6), "retrained == model6");
    assert_eq!(
        bits(&by_default),
        bits(&probs8),
        "default routes to incumbent"
    );
    assert_ne!(
        bits(&by_incumbent),
        bits(&by_retrained),
        "different split layers must disagree somewhere"
    );

    // Unknown id: typed not_found, connection stays usable.
    match score(&mut client, &features, Some("ghost")) {
        Err(ClientError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::NotFound);
            assert!(message.contains("ghost"), "{message}");
        }
        other => panic!("expected a typed not_found: {other:?}"),
    }
    let again = score(&mut client, &features, None).expect("connection survived not_found");
    assert_eq!(bits(&again), bits(&probs8));

    // Attack requests route too: an unknown id is rejected before any
    // parsing-heavy work happens.
    match client.call_ok(&Request::Attack {
        challenge: String::new(),
        truth: String::new(),
        threshold: 0.5,
        detail: false,
        model_id: Some("ghost".into()),
    }) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("expected a typed not_found: {other:?}"),
    }

    // A --default-model override changes the default route (new server,
    // same registry) without touching the index.
    match client.call_ok(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    handle.join().expect("clean exit");
    let handle = ServerHandle::bind_source(
        ModelSource::Registry {
            dir: dir.clone(),
            default_model: Some("retrained".into()),
        },
        None,
        "127.0.0.1:0",
        options(),
    )
    .expect("binds with override");
    let mut client = Client::connect(handle.addr()).expect("connects");
    let by_default = score(&mut client, &features, None).expect("overridden default");
    assert_eq!(
        bits(&by_default),
        bits(&probs6),
        "override routes to retrained"
    );
    match client.call_ok(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    handle.join().expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shadow_self_vs_self_diverges_by_exactly_zero() {
    let (model8, _, features) = two_models();
    let dir = fresh_registry("shadow_self");
    let artifact = ModelArtifact::from_trained(&model8, meta("V8"));
    publish(&dir, "primary", &artifact, true).expect("publishes primary");
    // The same artifact under a second id: byte-identical model.
    publish(&dir, "twin", &artifact, false).expect("publishes twin");

    let handle = ServerHandle::bind_source(
        ModelSource::Registry {
            dir: dir.clone(),
            default_model: None,
        },
        Some(ShadowConfig::new("twin", 1.0)),
        "127.0.0.1:0",
        options(),
    )
    .expect("binds");
    let mut client = Client::connect(handle.addr()).expect("connects");

    let rounds = 7u64;
    for _ in 0..rounds {
        score(&mut client, &features, None).expect("scores");
    }
    match client.call_ok(&Request::Stats).expect("stats") {
        Response::Stats { stats } => {
            let shadow = stats.shadow.expect("shadow configured");
            assert_eq!(shadow.shadow_model, "twin");
            assert_eq!(shadow.sampled_requests, rounds, "fraction 1.0 = all");
            assert_eq!(shadow.compared_pairs, rounds * features.len() as u64);
            assert_eq!(
                shadow.max_abs_dp.to_bits(),
                0f64.to_bits(),
                "identical models must diverge by exactly zero: {shadow:?}"
            );
            assert_eq!(shadow.mean_abs_dp.to_bits(), 0f64.to_bits());
            assert_eq!(shadow.disagreements, 0);
            assert_eq!(shadow.shadow_missing, 0);
        }
        other => panic!("unexpected stats reply: {other:?}"),
    }
    match client.call_ok(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    handle.join().expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shadow_across_split_layers_reports_exact_nonzero_divergence() {
    let (model8, model6, features) = two_models();
    let probs8: Vec<f64> = features.iter().map(|x| model8.model().proba(x)).collect();
    let probs6: Vec<f64> = features.iter().map(|x| model6.model().proba(x)).collect();
    // The report the server must reproduce exactly, computed locally.
    let dps: Vec<f64> = probs8
        .iter()
        .zip(&probs6)
        .map(|(p, q)| (p - q).abs())
        .collect();
    let expect_max = dps.iter().cloned().fold(0.0f64, f64::max);
    let expect_disagree = probs8
        .iter()
        .zip(&probs6)
        .filter(|(p, q)| (**p >= 0.5) != (**q >= 0.5))
        .count() as u64;
    assert!(expect_max > 0.0, "split layers 8 vs 6 must diverge");

    let dir = fresh_registry("shadow_cross");
    publish(
        &dir,
        "primary",
        &ModelArtifact::from_trained(&model8, meta("V8")),
        true,
    )
    .expect("publishes primary");
    publish(
        &dir,
        "challenger",
        &ModelArtifact::from_trained(&model6, meta("V6")),
        false,
    )
    .expect("publishes challenger");

    // fraction 0.5: exactly every other request is sampled.
    let handle = ServerHandle::bind_source(
        ModelSource::Registry {
            dir: dir.clone(),
            default_model: None,
        },
        Some(ShadowConfig::new("challenger", 0.5)),
        "127.0.0.1:0",
        options(),
    )
    .expect("binds");
    let mut client = Client::connect(handle.addr()).expect("connects");

    let rounds = 8u64;
    for _ in 0..rounds {
        let probs = score(&mut client, &features, None).expect("scores");
        assert_eq!(
            bits(&probs),
            bits(&probs8),
            "shadowing must never perturb the primary answer"
        );
    }
    // Explicitly-routed requests to the shadow itself are not eligible
    // (the report means default-vs-shadow) and must not skew counts.
    score(&mut client, &features, Some("challenger")).expect("direct shadow route");

    match client.call_ok(&Request::Stats).expect("stats") {
        Response::Stats { stats } => {
            let shadow = stats.shadow.expect("shadow configured");
            assert_eq!(
                shadow.sampled_requests,
                rounds / 2,
                "fraction 0.5 samples exactly half: {shadow:?}"
            );
            let sampled_pairs = (rounds / 2) * features.len() as u64;
            assert_eq!(shadow.compared_pairs, sampled_pairs);
            assert_eq!(
                shadow.max_abs_dp.to_bits(),
                expect_max.to_bits(),
                "max |Δp| must be exact, not approximate"
            );
            // Every sampled request compares the same batch, so the mean
            // equals the per-batch mean exactly (same summation order as
            // the local reference: row-major accumulation).
            let expect_mean = dps.iter().sum::<f64>() * (rounds / 2) as f64 / sampled_pairs as f64;
            assert!(
                (shadow.mean_abs_dp - expect_mean).abs() < 1e-12,
                "mean {} vs expected {expect_mean}",
                shadow.mean_abs_dp
            );
            assert_eq!(shadow.disagreements, expect_disagree * (rounds / 2));
            assert_eq!(shadow.shadow_missing, 0);
        }
        other => panic!("unexpected stats reply: {other:?}"),
    }
    match client.call_ok(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    handle.join().expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `expect_err` needs `Debug` on the Ok side, which `ServerHandle`
/// deliberately does not implement; unwrap the Err arm by hand.
fn bind_failure(result: std::io::Result<ServerHandle>, what: &str) -> std::io::Error {
    match result {
        Err(e) => e,
        Ok(_) => panic!("{what}: bind unexpectedly succeeded"),
    }
}

#[test]
fn misconfigured_servers_fail_at_bind_not_at_first_request() {
    let (model8, _, _) = two_models();
    let dir = fresh_registry("misconfig");
    publish(
        &dir,
        "only",
        &ModelArtifact::from_trained(&model8, meta("V8")),
        true,
    )
    .expect("publishes");

    // Unknown default override.
    let err = bind_failure(
        ServerHandle::bind_source(
            ModelSource::Registry {
                dir: dir.clone(),
                default_model: Some("ghost".into()),
            },
            None,
            "127.0.0.1:0",
            options(),
        ),
        "unknown default",
    );
    assert!(err.to_string().contains("ghost"), "{err}");

    // Unknown shadow model.
    let err = bind_failure(
        ServerHandle::bind_source(
            ModelSource::Registry {
                dir: dir.clone(),
                default_model: None,
            },
            Some(ShadowConfig::new("ghost", 0.5)),
            "127.0.0.1:0",
            options(),
        ),
        "unknown shadow",
    );
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");

    // Out-of-range shadow fraction.
    let err = bind_failure(
        ServerHandle::bind_source(
            ModelSource::Registry {
                dir: dir.clone(),
                default_model: None,
            },
            Some(ShadowConfig::new("only", 1.5)),
            "127.0.0.1:0",
            options(),
        ),
        "fraction > 1",
    );
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");

    // Missing registry directory entirely.
    let err = bind_failure(
        ServerHandle::bind_source(
            ModelSource::Registry {
                dir: fresh_registry("never_created"),
                default_model: None,
            },
            None,
            "127.0.0.1:0",
            options(),
        ),
        "missing registry",
    );
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");

    // Reload against a single-model server is a typed bad_request.
    let handle = ServerHandle::bind(model8, "127.0.0.1:0", options()).expect("single-model server");
    let mut client = Client::connect(handle.addr()).expect("connects");
    match client.call_ok(&Request::Reload) {
        Err(ClientError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("not registry-backed"), "{message}");
        }
        other => panic!("expected bad_request: {other:?}"),
    }
    match client.call_ok(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    handle.join().expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_reload_keeps_the_old_catalog_serving() {
    let (model8, _, features) = two_models();
    let probs8: Vec<f64> = features.iter().map(|x| model8.model().proba(x)).collect();
    let dir = fresh_registry("failed_reload");
    publish(
        &dir,
        "only",
        &ModelArtifact::from_trained(&model8, meta("V8")),
        true,
    )
    .expect("publishes");

    let handle = ServerHandle::bind_source(
        ModelSource::Registry {
            dir: dir.clone(),
            default_model: None,
        },
        None,
        "127.0.0.1:0",
        options(),
    )
    .expect("binds");
    let mut client = Client::connect(handle.addr()).expect("connects");

    // Corrupt the index on disk, then ask for a reload: the server must
    // refuse the swap, report the typed failure, and keep answering
    // bit-identically from the catalog it already has in memory.
    std::fs::write(dir.join("index"), "garbage, not an index\n").expect("corrupts index");
    match client.call_ok(&Request::Reload) {
        Err(ClientError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(
                message.contains("previous catalog still serving"),
                "{message}"
            );
        }
        other => panic!("expected a typed reload failure: {other:?}"),
    }
    let probs = score(&mut client, &features, None).expect("still serving");
    assert_eq!(bits(&probs), bits(&probs8), "old catalog untouched");
    match client.call_ok(&Request::Stats).expect("stats") {
        Response::Stats { stats } => {
            assert_eq!(stats.reloads, 0, "failed reload must not count: {stats:?}")
        }
        other => panic!("unexpected stats reply: {other:?}"),
    }
    match client.call_ok(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    handle.join().expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_flight_catalog_snapshots_are_immune_to_swaps() {
    // The server pins each request to the catalog Arc it resolved
    // against. This test exercises that mechanism directly: hold the
    // "in-flight" snapshot, swap the source directory underneath, reload
    // into a new catalog, and prove the held snapshot still scores the
    // *old* model bit-identically while new resolutions see the new one.
    let (model8, model6, features) = two_models();
    let probs8: Vec<f64> = features.iter().map(|x| model8.model().proba(x)).collect();
    let probs6: Vec<f64> = features.iter().map(|x| model6.model().proba(x)).collect();

    let dir = fresh_registry("inflight");
    publish(
        &dir,
        "m",
        &ModelArtifact::from_trained(&model8, meta("V8")),
        true,
    )
    .expect("publishes m@8");
    let in_flight: Arc<Catalog> = Arc::new(Catalog::load(&dir, None).expect("loads"));

    // The swap: republish under the same id, load a fresh catalog (what
    // the server's Reload handler does), leaving `in_flight` untouched.
    publish(
        &dir,
        "m",
        &ModelArtifact::from_trained(&model6, meta("V6")),
        true,
    )
    .expect("republishes m@6");
    let after_swap: Arc<Catalog> = Arc::new(Catalog::load(&dir, None).expect("reloads"));

    let score_with = |catalog: &Catalog| -> Vec<f64> {
        let entry = catalog.resolve(Some("m")).expect("resolves");
        features
            .iter()
            .map(|x| entry.model.model().proba(x))
            .collect()
    };
    assert_eq!(
        bits(&score_with(&in_flight)),
        bits(&probs8),
        "the held snapshot keeps serving its starting version"
    );
    assert_eq!(
        bits(&score_with(&after_swap)),
        bits(&probs6),
        "new resolutions serve the new version"
    );
    assert_ne!(
        in_flight.resolve(Some("m")).expect("old").checksum,
        after_swap.resolve(Some("m")).expect("new").checksum,
        "the two versions are distinct artifacts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binary_wire_routes_by_model_id_and_rejects_unknown_ids() {
    let (model8, model6, features) = two_models();
    let probs6: Vec<f64> = features.iter().map(|x| model6.model().proba(x)).collect();
    let dir = fresh_registry("binary_routing");
    publish(
        &dir,
        "incumbent",
        &ModelArtifact::from_trained(&model8, meta("V8")),
        true,
    )
    .expect("publishes");
    publish(
        &dir,
        "retrained",
        &ModelArtifact::from_trained(&model6, meta("V6")),
        false,
    )
    .expect("publishes");
    let handle = ServerHandle::bind_source(
        ModelSource::Registry {
            dir: dir.clone(),
            default_model: None,
        },
        None,
        "127.0.0.1:0",
        options(),
    )
    .expect("binds");

    // Two binary connections side by side: a routed batch is answered by
    // the `retrained` entry on each, and an unknown id is a typed
    // not_found that leaves the connection usable.
    for _ in 0..2 {
        let mut client =
            Client::connect_wire(handle.addr(), ClientTimeouts::default(), Wire::Binary)
                .expect("connects");
        let routed = score(&mut client, &features, Some("retrained")).expect("routed");
        assert_eq!(bits(&routed), bits(&probs6), "retrained == model6");
        match score(&mut client, &features, Some("ghost")) {
            Err(ClientError::Remote {
                code: ErrorCode::NotFound,
                ..
            }) => {}
            other => panic!("expected a typed not_found: {other:?}"),
        }
        let again = score(&mut client, &features, Some("retrained")).expect("survives");
        assert_eq!(bits(&again), bits(&probs6));
    }

    let mut client = Client::connect(handle.addr()).expect("connects");
    match client.call_ok(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    assert_eq!(handle.join().expect("clean exit").shed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
