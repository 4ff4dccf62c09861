//! `serve_steady` and `serve_burst`: a fresh in-process server scoring
//! dense `ScorePairs` frames of real feature rows, over one binary
//! connection driven by a sender thread and a receiver thread.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sm_attack::attack::TrainedAttack;
use sm_attack::PairKernel;
use sm_layout::SplitView;
use sm_serve::protocol::binary;
use sm_serve::{
    Client, ClientTimeouts, Request, Response, ServeOptions, ServerHandle, StatsSnapshot, Wire,
};

use crate::inputs::{repeat_setup, split_views, train, SetupTimes};
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::Tracer;

/// Layer 8 at scale 1: the served model is the small layer-8 Imp-11
/// ensemble, so a request's cost is the server's own path (protocol,
/// reactor, batching) more than the 64-row walk.
const SCALE: f64 = 1.0;
const LAYER: u8 = 8;
/// Feature rows per request.
const ROWS: usize = 64;
/// Distinct requests, sent round-robin.
const POOL: usize = 256;
/// Every this many replies is compared bit-for-bit with `Bagging::proba`.
const CHECK_EVERY: usize = 97;
/// The rate ladder of `serve_steady` (requests per second) and the
/// per-layer metrics of each step. The top step stays below 16 k req/s,
/// where a stall of the shared two-CPU host can tip one connection into a
/// backlog it does not recover from within the step.
const LADDER: [(u64, &str, &str); 3] = [
    (4_000, "serve.p50_us.4k", "serve.p99_us.4k"),
    (8_000, "serve.p50_us.8k", "serve.p99_us.8k"),
    (12_000, "serve.p50_us.12k", "serve.p99_us.12k"),
];
/// Share of each step discarded while the server warms up.
const WARM_SHARE: f64 = 0.15;
/// A step meets the latency limit at this p99 with no failure and no
/// growing backlog.
const SLO_P99_US: f64 = 2_000.0;
/// A step's backlog grows when more than this share of its requests is
/// still unanswered when its schedule ends.
const BACKLOG_SHARE: f64 = 0.01;
/// `serve_burst`: requests per burst, and the idle gap after each.
const BURST: usize = 1_000;
const BURST_IDLE: Duration = Duration::from_millis(100);
/// A reply later than this fails the request.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// One request in this many records client spans in a traced run.
const SPAN_EVERY: usize = 16;

/// Which serve workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Open loop at each rate of the ladder.
    Steady,
    /// Back-to-back bursts, each drained before an idle gap.
    Burst,
}

/// The requests and their expected probabilities.
struct Load {
    requests: Vec<Request>,
    expected: Vec<Vec<f64>>,
}

/// Runs one serve workload for `seconds`.
///
/// # Errors
///
/// Returns a set-up, bind or connect error.
pub fn run(mode: Mode, seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (model, views, server) = repeat_setup(
        &mut out,
        || {
            let mut times = SetupTimes::default();
            let views = split_views(SCALE, LAYER, seed, tracer, &mut times)?;
            let model = train(&views, tracer, &mut times)?;
            let server = bind(&model)?;
            Ok(((model, views, server), times))
        },
        |(model, _, _)| model.clone(),
        |(_, _, server)| shutdown(server).map(drop),
    )?;
    out.set("samples.count", model.num_training_samples() as f64);
    out.set("compiled.nodes", model.model().total_nodes() as f64);
    let load = sample_load(&views[0], &model, seed);
    drop(views);

    let phase = tracer.phase_seconds(seconds);
    let untraced = measure(
        mode,
        server,
        &load,
        phase,
        &mut Tracer::new(false),
        &mut out,
    )?;
    out.set("ns_per_item", untraced.e2e_ns);
    if !tracer.enabled() {
        return Ok(out);
    }
    // A second fresh server, so that its own percentiles cover the traced
    // phase alone.
    let traced = measure(mode, bind(&model)?, &load, phase, tracer, &mut out)?;
    out.set(
        "trace.overhead_pct",
        (traced.e2e_ns / untraced.e2e_ns - 1.0) * 100.0,
    );
    probe_walk(&model, &load, tracer, &mut out);
    let server_ns = traced.server.p50_us as f64 * 1e3;
    out.set("server.ns_per_item", server_ns);
    out.set("server.p99_us", traced.server.p99_us as f64);
    let protocol = traced.encode_ns + traced.decode_ns;
    out.set("protocol.ns_per_item", protocol);
    let wait = traced.in_flight_ns - server_ns;
    out.set("server.wait_ns_per_item", wait);
    let parts = match mode {
        Mode::Steady => vec![protocol, server_ns, wait],
        // A burst drains as fast as the server takes requests off the
        // connection, so a request's wait is queueing behind the burst,
        // not a share of the drain time: what the codec and the server's
        // own time leave is the reactor's share.
        Mode::Burst => vec![protocol, server_ns],
    };
    out.set_unattributed(traced.e2e_ns, &parts);
    Ok(out)
}

fn bind(model: &TrainedAttack) -> Result<ServerHandle, String> {
    ServerHandle::bind(model.clone(), "127.0.0.1:0", ServeOptions::default())
        .map_err(|e| format!("bind: {e}"))
}

/// What one measurement phase found, in ns per request.
struct Phase {
    /// `ns_per_item`: p50 latency at the lowest step, or median burst
    /// time per request.
    e2e_ns: f64,
    /// Median client encode and decode time.
    encode_ns: f64,
    decode_ns: f64,
    /// Median time from the write returning to the reply being read.
    in_flight_ns: f64,
    /// The server's counters after the lowest step or the last burst.
    server: StatsSnapshot,
}

/// Runs one phase against `server` and stops it.
fn measure(
    mode: Mode,
    server: ServerHandle,
    load: &Load,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let mut control = Client::connect_wire(server.addr(), timeouts(), Wire::Binary)
        .map_err(|e| format!("connect: {e}"))?;
    let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let (main, e2e_ns, stats) = match mode {
        Mode::Steady => ladder(&stream, &mut control, load, seconds, out)?,
        Mode::Burst => bursts(&stream, &mut control, load, seconds, out)?,
    };
    drop((stream, control));
    let last = shutdown(server)?;
    out.check(last.errors == 0 && last.io_errors == 0, || {
        format!(
            "server counted {} errors, {} i/o errors",
            last.errors, last.io_errors
        )
    });
    if tracer.enabled() {
        record_spans(&main, tracer);
    }
    let med = |f: fn(&Rec) -> u64| {
        let values: Vec<f64> = main.iter().filter(|r| r.ok).map(|r| f(r) as f64).collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    Ok(Phase {
        e2e_ns,
        encode_ns: med(|r| r.enc_end - r.enc_start),
        decode_ns: med(|r| r.done - r.read),
        in_flight_ns: med(|r| r.read.saturating_sub(r.sent)),
        server: stats,
    })
}

/// One open-loop step per ladder rate, each `seconds / 3` long; returns
/// the lowest step's requests, its p50 latency in ns and the server's
/// counters after it. The lowest step repeats best from run to run. At
/// 8 k and 12 k req/s the p50 of a run sits near either 30 or 41 us,
/// depending on where the scheduler places the server's threads on the
/// two CPUs, so over ten seeds its spread ranged from 0.03 to 0.33; at
/// 4 k it ranged from 0.06 to 0.14.
fn ladder(
    stream: &TcpStream,
    control: &mut Client,
    load: &Load,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(Vec<Rec>, f64, StatsSnapshot), String> {
    let step_s = seconds / LADDER.len() as f64;
    let (mut sent, mut slo, mut lateness, mut lowest) = (0, 0.0, Vec::new(), None);
    for (rate, p50_name, p99_name) in LADDER {
        let count = (rate as f64 * step_s) as usize;
        let dues: Vec<u64> = (0..count as u64).map(|k| due_ns(k, rate)).collect();
        let before = stats(control)?;
        let origin = Instant::now() + Duration::from_millis(2);
        let recs = drive(stream, load, sent, &dues, origin, out);
        let after = stats(control)?;
        record_server(&before, &after, count, out);
        sent += count;
        let warm = (WARM_SHARE * step_s * 1e9) as u64;
        let window: Vec<&Rec> = recs.iter().filter(|r| r.due >= warm).collect();
        let lat = sorted(
            &window
                .iter()
                .filter(|r| r.ok)
                .map(|r| r.latency_us())
                .collect::<Vec<_>>(),
        );
        // With no answered request the run already fails.
        let (p50, p99) = if lat.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&lat, 50.0), percentile(&lat, 99.0))
        };
        let end = dues.last().copied().unwrap_or(0);
        let backlog = recs.iter().filter(|r| !r.ok || r.done > end).count();
        let steady = window.iter().all(|r| r.ok) && (backlog as f64) < BACKLOG_SHARE * count as f64;
        if p99 <= SLO_P99_US && steady {
            slo = rate as f64;
        }
        lateness.extend(
            window
                .iter()
                .map(|r| r.enc_start.saturating_sub(r.due) as f64 / 1e3),
        );
        out.set(p50_name, p50);
        out.set(p99_name, p99);
        let tail = tail_percentile(lat.len())
            .filter(|&p| p > 99.0)
            .map_or(String::new(), |p| {
                format!(", p{p} {:.1} us", percentile(&lat, p))
            });
        eprintln!(
            "[benchmark] {rate} req/s: p50 {p50:.1} us, p99 {p99:.1} us{tail} over {} requests, {backlog} unanswered when the schedule ended",
            lat.len()
        );
        if lowest.is_none() {
            lowest = Some((recs, p50 * 1e3, after));
        }
    }
    out.set("serve.slo_rps", slo);
    let lateness = sorted(&lateness);
    if !lateness.is_empty() {
        out.set("gen.late_p99_us", percentile(&lateness, 99.0));
        out.set("gen.late_max_us", lateness[lateness.len() - 1]);
    }
    Ok(lowest.expect("the ladder has steps"))
}

/// Bursts of [`BURST`] back-to-back requests, each drained and followed
/// by an idle gap, until `seconds` have passed; returns every request, the
/// median burst time per request in ns and the server's counters after
/// the last burst.
fn bursts(
    stream: &TcpStream,
    control: &mut Client,
    load: &Load,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(Vec<Rec>, f64, StatsSnapshot), String> {
    let before = stats(control)?;
    let (mut all, mut burst_ns) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while burst_ns.is_empty() || Instant::now() < deadline {
        let recs = drive(stream, load, all.len(), &[0; BURST], Instant::now(), out);
        let first = recs.first().map_or(0, |r| r.enc_start);
        let last = recs.last().map_or(0, |r| r.done);
        burst_ns.push(last.saturating_sub(first) as f64);
        all.extend(recs);
        std::thread::sleep(BURST_IDLE);
    }
    let after = stats(control)?;
    record_server(&before, &after, all.len(), out);
    let e2e = median(&burst_ns) / BURST as f64;
    let by_time = sorted(&burst_ns);
    eprintln!(
        "[benchmark] {} bursts of {BURST}: median {:.0} req/s, slowest tenth under {:.0}, fastest tenth over {:.0}",
        burst_ns.len(),
        1e9 / e2e,
        BURST as f64 * 1e9 / percentile(&by_time, 90.0),
        BURST as f64 * 1e9 / percentile(&by_time, 10.0),
    );
    Ok((all, e2e, after))
}

/// Checks the server's counters over one phase against what the client
/// sent and records them.
fn record_server(before: &StatsSnapshot, after: &StatsSnapshot, sent: usize, out: &mut Outcome) {
    // `Stats` reports the counters before counting itself, so the delta
    // between two snapshots includes the first `Stats` request.
    let requests = after.requests.saturating_sub(before.requests + 1);
    out.check(requests == sent as u64, || {
        format!("server counted {requests} requests, client sent {sent}")
    });
    let failures = [
        ("server.errors", after.errors.saturating_sub(before.errors)),
        (
            "server.io_errors",
            after.io_errors.saturating_sub(before.io_errors),
        ),
        ("server.shed", after.shed.saturating_sub(before.shed)),
        (
            "server.timeouts",
            after.timeouts.saturating_sub(before.timeouts),
        ),
    ];
    for (name, delta) in failures {
        out.set(name, delta as f64);
        out.check(delta == 0, || format!("{name} rose by {delta}"));
    }
    out.set("server.requests", requests as f64);
    let batches = after.score_batches.saturating_sub(before.score_batches);
    if batches > 0 {
        let rows = after.batched_rows.saturating_sub(before.batched_rows);
        out.set("server.batch_fill", rows as f64 / batches as f64);
    }
}

/// Client spans of every [`SPAN_EVERY`]th request: the wait for the
/// sender, encode, write, time in flight and decode, under one root.
fn record_spans(recs: &[Rec], tracer: &mut Tracer) {
    for r in recs.iter().step_by(SPAN_EVERY) {
        let at = |ns: u64| r.origin + Duration::from_nanos(ns);
        let trace = tracer.new_trace();
        let root = tracer.record("client.request", at(r.due), at(r.done), None, trace);
        let steps = [
            ("gen.late", r.due, r.enc_start),
            ("protocol", r.enc_start, r.enc_end),
            ("client.write", r.enc_end, r.sent),
            ("client.in_flight", r.sent, r.read),
            ("protocol", r.read, r.done),
        ];
        for (name, from, to) in steps {
            tracer.record(name, at(from), at(to.max(from)), root, trace);
        }
    }
}

/// Times `CompiledEnsemble::proba_batch` over each request's rows, the
/// walk inside the server's time per request.
fn probe_walk(model: &TrainedAttack, load: &Load, tracer: &mut Tracer, out: &mut Outcome) {
    let t = Instant::now();
    let span = tracer.begin("compiled");
    let ensemble = model.model().compile();
    tracer.end(span);
    out.set("compiled.compile_s", t.elapsed().as_secs_f64());
    let nf = model.config().features.len();
    let rows: Vec<Vec<f64>> = load
        .requests
        .iter()
        .map(|r| match r {
            Request::ScorePairs { features, .. } => features.concat(),
            _ => unreachable!("the load holds only ScorePairs requests"),
        })
        .collect();
    let mut probs = vec![0.0; ROWS];
    let mut walks = Vec::new();
    for _ in 0..4 {
        for (rows, expected) in rows.iter().zip(&load.expected) {
            let span = tracer.begin("compiled");
            let t = Instant::now();
            ensemble.proba_batch(rows, nf, &mut probs);
            walks.push(t.elapsed().as_nanos() as f64);
            tracer.end(span);
            out.check(probs == *expected, || {
                "the compiled walk disagrees with Bagging::proba".into()
            });
        }
    }
    out.set("compiled.ns_per_item", median(&walks));
}

/// Timestamps of one request, ns after `origin`.
#[derive(Debug, Clone, Copy)]
struct Rec {
    origin: Instant,
    due: u64,
    enc_start: u64,
    enc_end: u64,
    sent: u64,
    read: u64,
    done: u64,
    ok: bool,
}

impl Rec {
    /// Latency from when the request was due to its decoded reply.
    fn latency_us(&self) -> f64 {
        self.done.saturating_sub(self.due) as f64 / 1e3
    }
}

/// Offset of request `k` from the start of an open-loop schedule at
/// `rate` requests per second.
pub fn due_ns(k: u64, rate: u64) -> u64 {
    k * 1_000_000_000 / rate
}

/// Nanoseconds from `origin` to `t` (0 before it).
fn since(origin: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// Sends request `first + k` at `origin + dues[k]` on a sender thread and
/// reads the replies, in order, on a receiver thread. A request whose
/// reply is missing, malformed or (when checked) wrong fails.
fn drive(
    stream: &TcpStream,
    load: &Load,
    first: usize,
    dues: &[u64],
    origin: Instant,
    out: &mut Outcome,
) -> Vec<Rec> {
    // Sized up front, so the timed loops never reallocate.
    let mut sends = Vec::with_capacity(dues.len());
    let mut replies = Vec::with_capacity(dues.len());
    std::thread::scope(|s| {
        s.spawn(|| {
            send_all(stream, load, first, dues, origin, &mut sends);
            if sends.len() < dues.len() {
                // Unblock the receiver: no more replies are coming.
                let _ = stream.shutdown(Shutdown::Both);
            }
        });
        s.spawn(|| recv_all(stream, load, first, dues.len(), origin, &mut replies));
    });
    let mut recs = Vec::with_capacity(dues.len());
    for (k, &due) in dues.iter().enumerate() {
        let [enc_start, enc_end, sent] = sends.get(k).copied().unwrap_or([due; 3]);
        let (read, done, ok) = replies.get(k).copied().unwrap_or((sent, sent, false));
        recs.push(Rec {
            origin,
            due,
            enc_start,
            enc_end,
            sent,
            read,
            done,
            ok,
        });
    }
    let failed = recs.iter().filter(|r| !r.ok).count();
    out.tally(
        recs.len(),
        failed,
        "requests failed or were answered wrongly",
    );
    recs
}

fn send_all(
    mut stream: &TcpStream,
    load: &Load,
    first: usize,
    dues: &[u64],
    origin: Instant,
    sends: &mut Vec<[u64; 3]>,
) {
    tighten_timer_slack();
    for (k, &due) in dues.iter().enumerate() {
        let now = since(origin, Instant::now());
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let enc_start = Instant::now();
        let frame = binary::encode_request(&load.requests[(first + k) % POOL]);
        let enc_end = Instant::now();
        if let Err(e) = stream.write_all(&frame) {
            eprintln!("[benchmark] send failed: {e}");
            break;
        }
        let sent = Instant::now();
        sends.push([
            since(origin, enc_start),
            since(origin, enc_end),
            since(origin, sent),
        ]);
    }
}

fn recv_all(
    stream: &TcpStream,
    load: &Load,
    first: usize,
    count: usize,
    origin: Instant,
    replies: &mut Vec<(u64, u64, bool)>,
) {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut payload = Vec::new();
    for k in 0..count {
        let mut header = [0u8; binary::HEADER_LEN];
        let frame = reader
            .read_exact(&mut header)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                let h = binary::decode_header(header, u64::MAX).map_err(|e| e.to_string())?;
                payload.resize(h.len as usize, 0);
                reader.read_exact(&mut payload).map_err(|e| e.to_string())?;
                Ok(h.frame_type)
            });
        let frame_type = match frame {
            Ok(t) => t,
            Err(e) => {
                eprintln!("[benchmark] reply {} of {count} missing: {e}", k + 1);
                break;
            }
        };
        let read = Instant::now();
        let reply = binary::decode_response(frame_type, &payload);
        let done = Instant::now();
        let idx = (first + k) % POOL;
        let ok = match reply {
            Ok(Response::Scores { probs }) => {
                probs.len() == ROWS
                    && (!(first + k).is_multiple_of(CHECK_EVERY)
                        || probs
                            .iter()
                            .zip(&load.expected[idx])
                            .all(|(a, b)| a.to_bits() == b.to_bits()))
            }
            _ => false,
        };
        replies.push((since(origin, read), since(origin, done), ok));
    }
}

/// Asks the kernel to end this thread's sleeps within a nanosecond of
/// their deadline instead of after the default 50 µs slack, so the
/// open-loop sender keeps its schedule without spinning a core. If the
/// call fails the default slack stays, and shows as generator lateness.
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and only
    // changes the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

fn timeouts() -> ClientTimeouts {
    ClientTimeouts {
        connect_ms: 5_000,
        io_ms: IO_TIMEOUT.as_millis() as u64,
    }
}

fn stats(control: &mut Client) -> Result<StatsSnapshot, String> {
    match control.call(&Request::Stats) {
        Ok(Response::Stats { stats }) => Ok(stats),
        other => Err(format!("Stats request failed: {other:?}")),
    }
}

/// Stops `server` and returns its final counters.
fn shutdown(server: ServerHandle) -> Result<StatsSnapshot, String> {
    let mut control = Client::connect_wire(server.addr(), timeouts(), Wire::Binary)
        .map_err(|e| format!("connect: {e}"))?;
    match control.call(&Request::Shutdown) {
        Ok(Response::ShuttingDown) => {}
        other => return Err(format!("Shutdown request failed: {other:?}")),
    }
    drop(control);
    server.join().map_err(|e| format!("server: {e}"))
}

/// `POOL` requests of `ROWS` legal pairs of the held-out design, drawn
/// with `seed`, and the probabilities `Bagging::proba` gives their rows.
fn sample_load(view: &SplitView, model: &TrainedAttack, seed: u64) -> Load {
    let kernel = PairKernel::new(view.vpins(), &model.config().features);
    let nf = kernel.num_features();
    let n = view.num_vpins();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e27_e000);
    let mut flat = Vec::new();
    let (mut requests, mut expected) = (Vec::new(), Vec::new());
    while requests.len() < POOL {
        let target = rng.gen_range(0..n);
        let mut cands = Vec::with_capacity(ROWS);
        for _ in 0..ROWS * 64 {
            let j = rng.gen_range(0..n);
            if view.is_legal_pair(target, j) {
                cands.push(u32::try_from(j).expect("v-pin index fits u32"));
                if cands.len() == ROWS {
                    break;
                }
            }
        }
        if cands.len() < ROWS {
            continue;
        }
        kernel.fill_batch(
            u32::try_from(target).expect("v-pin index fits u32"),
            &cands,
            &mut flat,
        );
        let features: Vec<Vec<f64>> = flat.chunks_exact(nf).map(<[f64]>::to_vec).collect();
        expected.push(
            features
                .iter()
                .map(|row| model.model().proba(row))
                .collect(),
        );
        requests.push(Request::ScorePairs {
            features,
            model_id: None,
        });
    }
    Load { requests, expected }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_is_evenly_spaced() {
        assert_eq!(due_ns(0, 4_000), 0);
        assert_eq!(due_ns(1, 4_000), 250_000);
        assert_eq!(due_ns(4_000, 4_000), 1_000_000_000);
        // 16k req/s does not divide a second evenly: offsets round down
        // and never drift, since each is computed from k, not summed.
        assert_eq!(due_ns(1, 16_000), 62_500);
        assert_eq!(due_ns(3, 7), 428_571_428);
        assert_eq!(due_ns(7, 7), 1_000_000_000);
        let dues: Vec<u64> = (0..1_000).map(|k| due_ns(k, 10_000)).collect();
        assert!(dues.windows(2).all(|w| w[1] - w[0] == 100_000));
    }

    #[test]
    fn latency_and_lateness_count_from_the_due_time() {
        let r = Rec {
            origin: Instant::now(),
            due: 1_000_000,
            enc_start: 1_030_000,
            enc_end: 1_031_000,
            sent: 1_035_000,
            read: 1_100_000,
            done: 1_101_000,
            ok: true,
        };
        // A request sent 30 µs late carries those 30 µs in its latency.
        assert_eq!(r.latency_us(), 101.0);
        assert_eq!(r.enc_start.saturating_sub(r.due), 30_000);
        // A request sent early is not late, and its latency is not negative.
        let early = Rec {
            enc_start: 900_000,
            done: 950_000,
            ..r
        };
        assert_eq!(early.enc_start.saturating_sub(early.due), 0);
        assert_eq!(early.latency_us(), 0.0);
    }
}
