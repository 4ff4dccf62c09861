//! Closed-loop load driver for a running `splitmfg serve`: the traffic
//! behind CI's serve throughput rows and its registry e2e step.
//!
//! Each of `--connections` threads drives one connection with the public
//! [`Client`], keeping `--pipeline` requests in flight (1 is lockstep)
//! until `--requests` replies have come back. A transport failure or a
//! `Busy` shed reconnects and sends again what was in flight, up to
//! [`RETRIES`] times in a row. The run prints one JSON row, the shape of
//! a `results/BENCH_serve.json` row, and writes it to `--json FILE`.
//!
//! ```bash
//! cargo run --release -p sm-bench --bin serve_load -- --addr 127.0.0.1:7878 \
//!     --wire binary --connections 4 --requests 200 --batch 64 --json row.json
//! ```
//!
//! Flags: `--addr HOST:PORT` (required), `--connections 4`, `--requests
//! 50` (per connection), `--batch 64` (rows per `ScorePairs`), `--wire
//! ndjson|binary`, `--pipeline 1`, `--model-id ID` (default: the server's
//! default model), `--attack-dir DIR --attack-target NAME` (whole-challenge
//! `Attack` requests built from `DIR/NAME.challenge` and `.truth` in place
//! of `ScorePairs`) and `--json FILE`. Exits 2 on a bad command line and 1
//! when the server cannot be probed.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use sm_serve::{
    percentile_rank, Client, ClientError, ClientTimeouts, ErrorCode, Request, Response,
    StatsSnapshot, Wire,
};

/// Reconnects one connection makes in a row, with no reply in between,
/// before it gives up and counts its unanswered requests as errors.
const RETRIES: u32 = 3;
/// Seed of the synthetic feature rows, mixed with the connection index.
const SEED: u64 = 0xbe7c;
/// Connect and per-call deadlines.
const TIMEOUTS: ClientTimeouts = ClientTimeouts {
    connect_ms: 2_000,
    io_ms: 30_000,
};
/// Summary threshold of every `Attack` request (sent with `detail: false`).
const ATTACK_THRESHOLD: f64 = 0.5;

/// Bounded-retry schedule: exponential backoff with deterministic,
/// seed-derived jitter. [`drive`] retries only transport failures and
/// `Busy` sheds ([`ClientError::is_retryable`]), with the server's
/// `retry_after_ms` as a floor on the delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RetryPolicy {
    /// Total attempts including the first (so `1` means no retries).
    max_attempts: u32,
    /// Backoff before the first retry, milliseconds; doubles per retry.
    base_backoff_ms: u64,
    /// Ceiling on any single backoff, milliseconds.
    max_backoff_ms: u64,
    /// Seed for the jitter hash — the schedule is a pure function of
    /// `(seed, retry index)`, so tests and reproductions see identical
    /// delays.
    jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_ms: 25,
            max_backoff_ms: 1_000,
            jitter_seed: 0x5eed,
        }
    }
}

/// SplitMix64 — a tiny, high-quality hash for deterministic jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// A default-shaped policy allowing `retries` retries after the
    /// first attempt.
    fn with_retries(retries: u32) -> Self {
        Self {
            max_attempts: retries.saturating_add(1),
            ..Self::default()
        }
    }

    /// The backoff before retry `retry` (1-based), in milliseconds:
    /// "equal jitter" around the exponential envelope — half the capped
    /// exponential plus a seeded-hash fraction of the other half.
    /// Deterministic: the same `(jitter_seed, retry)` always yields the
    /// same delay.
    fn backoff_ms(&self, retry: u32) -> u64 {
        let exp = retry.saturating_sub(1).min(20);
        let envelope = self
            .base_backoff_ms
            .saturating_mul(1 << exp)
            .min(self.max_backoff_ms);
        let half = envelope / 2;
        half + splitmix64(self.jitter_seed ^ u64::from(retry)) % (envelope - half + 1)
    }
}

/// The shape of one run, from the command line.
struct Load {
    addr: String,
    connections: usize,
    requests: usize,
    batch: usize,
    wire: Wire,
    pipeline: usize,
    model_id: Option<String>,
    /// `(challenge, truth)` file contents when every request is an `Attack`.
    attack: Option<(String, String)>,
}

/// One run, as a row of `results/BENCH_serve.json`.
#[derive(Serialize)]
struct Row {
    wire: &'static str,
    connections: usize,
    pipeline: usize,
    workload: &'static str,
    /// The `--model-id` target, or the default model `Health` names.
    served_model: String,
    /// Requests answered with the workload's reply.
    total_requests: u64,
    total_pairs: u64,
    /// Requests answered with anything else, or never answered.
    errors: u64,
    /// Reconnects across all connections.
    retries: u64,
    wall_s: f64,
    requests_per_s: f64,
    pairs_per_s: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
    /// The server's counters right after the run.
    server_stats: Option<StatsSnapshot>,
}

/// What one connection's thread produced.
#[derive(Default)]
struct Outcome {
    latencies_us: Vec<u64>,
    pairs: u64,
    errors: u64,
    retries: u64,
}

fn parse(args: &[String]) -> Result<(Load, Option<String>), String> {
    let mut load = Load {
        addr: String::new(),
        connections: 4,
        requests: 50,
        batch: 64,
        wire: Wire::Ndjson,
        pipeline: 1,
        model_id: None,
        attack: None,
    };
    let (mut json, mut attack_dir, mut attack_target) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let count = || match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("{flag} must be a count >= 1, got {value:?}")),
        };
        match flag.as_str() {
            "--addr" => load.addr.clone_from(value),
            "--connections" => load.connections = count()?,
            "--requests" => load.requests = count()?,
            "--batch" => load.batch = count()?,
            "--pipeline" => load.pipeline = count()?,
            "--wire" => load.wire = value.parse()?,
            "--model-id" => load.model_id = Some(value.clone()),
            "--attack-dir" => attack_dir = Some(value),
            "--attack-target" => attack_target = Some(value),
            "--json" => json = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if load.addr.is_empty() {
        return Err("--addr HOST:PORT is required".into());
    }
    load.attack = match (attack_dir, attack_target) {
        (None, None) => None,
        (Some(dir), Some(target)) => {
            let base = Path::new(dir).join(target);
            let read = |ext: &str| {
                let path = base.with_extension(ext);
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
            };
            Some((read("challenge")?, read("truth")?))
        }
        _ => return Err("--attack-dir and --attack-target go together".into()),
    };
    Ok((load, json))
}

fn stats(client: &mut Client) -> Option<StatsSnapshot> {
    match client.call_ok(&Request::Stats) {
        Ok(Response::Stats { stats }) => Some(stats),
        _ => None,
    }
}

/// Probes the server, drives every connection, and collects the row.
///
/// # Errors
///
/// The probe's error when the server cannot be reached or does not serve
/// the `--model-id` target; failures during the run are counted instead.
fn run(load: &Load) -> Result<Row, ClientError> {
    // The probe learns the feature width of the model the run targets
    // (models in one registry may differ) and fails fast.
    let mut probe = Client::connect_with(load.addr.as_str(), TIMEOUTS)?;
    let unexpected = |r: Response| ClientError::Protocol(format!("unexpected probe reply {r:?}"));
    let (served_model, features) = match &load.model_id {
        None => match probe.call_ok(&Request::Health)? {
            Response::Health {
                model_id, features, ..
            } => (model_id, features),
            other => return Err(unexpected(other)),
        },
        Some(id) => match probe.call_ok(&Request::ListModels)? {
            Response::Models { models, .. } => {
                let m = models.into_iter().find(|m| &m.model_id == id);
                let m = m.ok_or_else(|| ClientError::Remote {
                    code: ErrorCode::NotFound,
                    message: format!("model '{id}' is not in the serving catalog"),
                })?;
                (m.model_id, m.features)
            }
            other => return Err(unexpected(other)),
        },
    };
    drop(probe);
    let start = Instant::now();
    let outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..load.connections)
            .map(|conn| s.spawn(move || drive(load, features, conn)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("load thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = Client::connect_with(load.addr.as_str(), TIMEOUTS)
        .ok()
        .and_then(|mut c| stats(&mut c));
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let pct = |p: f64| {
        let rank = percentile_rank(latencies.len(), p);
        latencies.get(rank).copied().unwrap_or(0)
    };
    let total_requests = latencies.len() as u64;
    let total_pairs = outcomes.iter().map(|o| o.pairs).sum::<u64>();
    Ok(Row {
        wire: load.wire.as_str(),
        connections: load.connections,
        pipeline: load.pipeline,
        workload: if load.attack.is_some() {
            "attack"
        } else {
            "score_pairs"
        },
        served_model,
        total_requests,
        total_pairs,
        errors: outcomes.iter().map(|o| o.errors).sum(),
        retries: outcomes.iter().map(|o| o.retries).sum(),
        wall_s,
        requests_per_s: total_requests as f64 / wall_s.max(1e-9),
        pairs_per_s: total_pairs as f64 / wall_s.max(1e-9),
        p50_us: pct(50.0),
        p95_us: pct(95.0),
        p99_us: pct(99.0),
        max_us: latencies.last().copied().unwrap_or(0),
        server_stats: after,
    })
}

/// Drives one connection until `load.requests` replies have come back,
/// reconnecting after a transport failure or a `Busy` shed.
fn drive(load: &Load, features: usize, conn: usize) -> Outcome {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ ((conn as u64) << 17));
    let policy = RetryPolicy::with_retries(RETRIES);
    let mut out = Outcome::default();
    let mut left = load.requests;
    let mut failures = 0u32;
    loop {
        let before = left;
        let err = match Client::connect_wire(load.addr.as_str(), TIMEOUTS, load.wire) {
            Ok(mut client) => {
                match pump(&mut client, load, features, &mut rng, &mut left, &mut out) {
                    Ok(()) => return out,
                    Err(e) => e,
                }
            }
            Err(e) => e,
        };
        failures = if left < before { 1 } else { failures + 1 };
        if failures >= policy.max_attempts {
            out.errors += left as u64;
            return out;
        }
        out.retries += 1;
        let floor = match err {
            ClientError::Busy { retry_after_ms } => retry_after_ms,
            _ => 0,
        };
        std::thread::sleep(Duration::from_millis(
            policy.backoff_ms(failures).max(floor),
        ));
    }
}

/// Keeps up to `load.pipeline` requests in flight on `client` until `left`
/// replies have come back, counting each as it arrives. A transport
/// failure or a `Busy` shed returns the error, and the requests still in
/// flight stay counted in `left`.
fn pump(
    client: &mut Client,
    load: &Load,
    features: usize,
    rng: &mut ChaCha8Rng,
    left: &mut usize,
    out: &mut Outcome,
) -> Result<(), ClientError> {
    let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(load.pipeline);
    while *left > 0 {
        if in_flight.len() < load.pipeline.min(*left) {
            let request = request(load, features, rng);
            let sent = Instant::now();
            client.send(&request)?;
            in_flight.push_back(sent);
            continue;
        }
        let reply = client.recv()?;
        if let Response::Busy { retry_after_ms } = reply {
            return Err(ClientError::Busy { retry_after_ms });
        }
        let sent = in_flight.pop_front().expect("a reply answers a request");
        *left -= 1;
        match (&reply, &load.attack) {
            (Response::Scores { probs }, None) => out.pairs += probs.len() as u64,
            (Response::AttackResult { summary, .. }, Some(_)) => out.pairs += summary.pairs_scored,
            _ => {
                out.errors += 1;
                continue;
            }
        }
        out.latencies_us
            .push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    Ok(())
}

fn request(load: &Load, features: usize, rng: &mut ChaCha8Rng) -> Request {
    let model_id = load.model_id.clone();
    match &load.attack {
        None => Request::ScorePairs {
            features: (0..load.batch)
                .map(|_| (0..features).map(|_| rng.gen_range(0.0..5000.0)).collect())
                .collect(),
            model_id,
        },
        Some((challenge, truth)) => Request::Attack {
            challenge: challenge.clone(),
            truth: truth.clone(),
            threshold: ATTACK_THRESHOLD,
            detail: false,
            model_id,
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (load, json) = parse(&args).unwrap_or_else(|e| {
        eprintln!("[serve_load] {e}");
        std::process::exit(2);
    });
    let row = run(&load).unwrap_or_else(|e| {
        eprintln!("[serve_load] {}: {e}", load.addr);
        std::process::exit(1);
    });
    let text = serde_json::to_string_pretty(&row).expect("row serializes");
    println!("{text}");
    if let Some(path) = json {
        std::fs::write(&path, text + "\n").expect("write the row");
        eprintln!("[serve_load] wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use sm_attack::attack::{AttackConfig, TrainedAttack};
    use sm_attack::Parallelism;
    use sm_layout::{SplitLayer, Suite};
    use sm_serve::{ServeOptions, ServerHandle};

    fn load(addr: String, wire: Wire, pipeline: usize) -> Load {
        Load {
            addr,
            connections: 2,
            requests: 3,
            batch: 8,
            wire,
            pipeline,
            model_id: None,
            attack: None,
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 25,
            max_backoff_ms: 400,
            jitter_seed: 42,
        };
        let schedule: Vec<u64> = (1..=7).map(|r| policy.backoff_ms(r)).collect();
        // Deterministic: the same seed reproduces the same delays.
        let again: Vec<u64> = (1..=7).map(|r| policy.backoff_ms(r)).collect();
        assert_eq!(schedule, again);
        // Each delay lives in the "equal jitter" envelope
        // [env/2, env] for env = min(base * 2^(r-1), max).
        for (k, &delay) in schedule.iter().enumerate() {
            let envelope = (25u64 << k).min(400);
            assert!(
                delay >= envelope / 2 && delay <= envelope,
                "retry {}: {delay} outside [{}, {envelope}]",
                k + 1,
                envelope / 2
            );
        }
        // A different seed jitters differently somewhere in the schedule.
        let other = RetryPolicy {
            jitter_seed: 43,
            ..policy
        };
        let shifted: Vec<u64> = (1..=7).map(|r| other.backoff_ms(r)).collect();
        assert_ne!(schedule, shifted, "jitter must depend on the seed");
        // And the envelope saturates instead of overflowing.
        assert!(policy.backoff_ms(u32::MAX) <= 400);
    }

    #[test]
    fn retry_policy_constructors_bound_attempts() {
        assert_eq!(RetryPolicy::with_retries(0).max_attempts, 1);
        assert_eq!(RetryPolicy::with_retries(3).max_attempts, 4);
        assert_eq!(RetryPolicy::with_retries(u32::MAX).max_attempts, u32::MAX);
    }

    #[test]
    fn bad_command_lines_are_errors_naming_the_flag() {
        let args =
            |line: &str| -> Vec<String> { line.split_whitespace().map(String::from).collect() };
        for (line, why) in [
            ("--connections 2", "--addr"),
            ("--addr", "needs a value"),
            ("--addr h:1 --attack-dir d", "together"),
            ("--addr h:1 --attack-target sb1", "together"),
            ("--addr h:1 --connections 0", "--connections"),
            ("--addr h:1 --pipeline 0", "--pipeline"),
            ("--addr h:1 --pipeline wide", "--pipeline"),
            ("--addr h:1 --wire turbo", "turbo"),
            ("--addr h:1 --retries 3", "unknown flag --retries"),
        ] {
            match parse(&args(line)) {
                Err(e) => assert!(e.contains(why), "{line}: {e}"),
                Ok(_) => panic!("{line} parsed"),
            }
        }
        let (load, json) =
            parse(&args("--addr h:1 --wire binary --pipeline 4 --json r")).expect("parses");
        assert_eq!(
            (load.wire, load.pipeline, load.connections),
            (Wire::Binary, 4, 4)
        );
        assert_eq!(json.as_deref(), Some("r"));
    }

    #[test]
    fn a_dead_port_is_a_typed_error() {
        // Bind-then-drop leaves a port nobody listens on.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
            l.local_addr().expect("addr").port()
        };
        let dead = load(format!("127.0.0.1:{port}"), Wire::Ndjson, 1);
        match run(&dead) {
            Err(ClientError::Io(_)) => {}
            Err(e) => panic!("expected an i/o error, got {e}"),
            Ok(_) => panic!("no server is listening"),
        }
    }

    /// The keys of the committed serve rows, nested `server_stats` ones
    /// included: every quoted name that opens a line of the pretty JSON.
    fn committed_keys() -> Vec<&'static str> {
        let mut keys: Vec<&str> = include_str!("../../../../results/BENCH_serve.json")
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix('"')?.split('"').next())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    #[test]
    fn rows_hold_every_key_of_a_committed_row() {
        let views = Suite::ispd2011_like(0.01)
            .expect("valid scale")
            .split_all(SplitLayer::new(8).expect("valid layer"));
        let train: Vec<_> = views[1..].iter().collect();
        let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("trains");
        let options = ServeOptions {
            workers: Parallelism::Threads(4),
            ..ServeOptions::default()
        };
        let handle = ServerHandle::bind(model, "127.0.0.1:0", options).expect("binds");
        let keys = committed_keys();
        assert!(keys.contains(&"requests_per_s") && keys.contains(&"shed"));
        for (wire, pipeline) in [(Wire::Ndjson, 1), (Wire::Binary, 4)] {
            let row = run(&load(handle.addr().to_string(), wire, pipeline)).expect("runs");
            let text = serde_json::to_string_pretty(&row).expect("serializes");
            for key in &keys {
                assert!(text.contains(&format!("\"{key}\":")), "no {key} in {text}");
            }
            assert_eq!((row.total_requests, row.total_pairs), (6, 48), "{text}");
            assert_eq!((row.errors, row.retries), (0, 0), "{text}");
            assert_eq!(row.served_model, sm_serve::SINGLE_MODEL_ID);
            assert!(row.p50_us <= row.p99_us, "{text}");
            assert_eq!(row.server_stats.expect("stats").shed, 0);
        }
        let mut client = Client::connect(handle.addr()).expect("connects");
        client.call_ok(&Request::Shutdown).expect("shutdown");
        handle.join().expect("clean exit");
    }
}
