//! The TCP inference server: an epoll reactor that scores `ScorePairs`
//! inline and hands `Attack` runs to an executor.
//!
//! Architecture (three kinds of threads, all scoped):
//!
//! - **Acceptor** (the calling thread): a blocking `accept()` loop that
//!   admission-controls new connections against a fixed capacity
//!   (`pool_size + queue_depth`, the same head count the pre-reactor
//!   server could hold in its workers plus its queue). Over capacity, a
//!   connection is shed with a [`Response::Busy`] reply carrying a retry
//!   hint — a flood degrades into fast, explicit rejections instead of
//!   unbounded queueing. Admitted connections are handed round-robin to
//!   the event loops over a channel plus a reactor wake.
//! - **Event loops** (`event_loops` threads, auto-sized from the CPU
//!   count): each runs a nonblocking **edge-triggered** epoll loop (the
//!   vendored `mio` shim) over its share of connections. A connection is
//!   registered exactly once, at admission, for both interests — no
//!   `epoll_ctl` churn on the hot path — and the loop caches readiness
//!   itself (`read_ready`/`write_ready`, cleared only on `WouldBlock`).
//!   Connections with cached readiness or buffered work sit on a ready
//!   list; each gets **one bounded service turn per loop iteration**
//!   (read to `WouldBlock` or the buffer cap, process at most
//!   `FRAME_BUDGET` frames, flush to `WouldBlock`), so one connection
//!   pipelining thousands of frames cannot starve its siblings.
//!   Everything else about a connection — wire detection, framing,
//!   decode, deadlines, reply encoding and its counters — is the sans-io
//!   `Session` it owns: the loop feeds it bytes, EOF, write progress,
//!   clock ticks and job completions, and carries out what it decides.
//!   Each decoded request goes through `route`, which answers control
//!   requests (`Health`, `Stats`, `ListModels`, `Reload`, `Shutdown`)
//!   inline, resolves the catalog, and validates row widths. A
//!   [`ScorePairs`] is scored right there, one `proba_batch` call over
//!   its rows; an [`Attack`] becomes an executor job, one in flight per
//!   connection.
//! - **Attack executor** (`pool_size(workers)` threads): pulls `Attack`
//!   jobs from a shared queue, runs each sequentially, and posts the
//!   reply back to the owning event loop. An attack can take seconds, so
//!   it never runs on a loop.
//!
//! [`ScorePairs`]: Request::ScorePairs
//! [`Attack`]: Request::Attack
//!
//! Scoring is bit-identical to in-process use: the server calls the same
//! [`TrainedAttack`] entry points, the JSON transport round-trips `f64`
//! exactly, and the binary transport ships raw little-endian `f64` bits.
//!
//! The server serves a whole [`Catalog`] of models, not one: requests
//! route by an optional `model_id` (absent means the default), and a
//! registry-backed server ([`ModelSource::Registry`]) answers `Reload`
//! by rescanning the directory and atomically swapping the catalog
//! `Arc` — in-flight requests keep the catalog they resolved against, so
//! a reload never changes a response mid-request and never drops a
//! connection. An optional [`ShadowConfig`] re-scores a deterministic
//! fraction of default-routed `ScorePairs` batches against a second
//! catalog entry and folds an exact divergence report into `Stats`.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use sm_attack::attack::ScoreOptions;
use sm_attack::TrainedAttack;
use sm_layout::io::read_challenge;
use sm_ml::Parallelism;

use crate::artifact::ARTIFACT_VERSION;
use crate::protocol::{
    binary, AttackSummary, ErrorCode, ModelInfo, Request, Response, ShadowReport, StatsSnapshot,
};
use crate::registry::{Catalog, ModelEntry, RegistryError};
pub use crate::session::percentile_rank;
use crate::session::{bad_request, Counters, Decoded, Limits, Routed, Session};

/// Backoff hint carried by [`Response::Busy`] when a connection is shed.
pub const BUSY_RETRY_AFTER_MS: u64 = 50;

/// First sleep after a failed `accept()`; doubles per consecutive
/// failure up to [`ACCEPT_BACKOFF_MAX`] so a persistent listener-level
/// error (EMFILE, ENOBUFS, ...) cannot hot-spin the accept loop.
const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Ceiling for the accept-error backoff.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);

/// Socket read granularity of the event loops.
const READ_CHUNK: usize = 16 * 1024;

/// Reactor token reserved for each event loop's waker; connection
/// tokens are slab indices, which can never reach this value.
const WAKE_TOKEN: mio::Token = mio::Token(usize::MAX);

/// Upper bound on auto-sized event loops: the attack executor needs
/// CPUs too.
const MAX_AUTO_EVENT_LOOPS: usize = 4;

/// Fairness budget: the most frames one connection may consume in a
/// single service turn. A connection with more buffered frames goes to
/// the back of the ready list so its siblings get a turn between
/// budgets — one pipelining client cannot starve a loop.
const FRAME_BUDGET: usize = 32;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Size of the executor pool that runs `Attack` requests (via
    /// [`Parallelism::worker_count`]). `Auto` is guarded to a minimum of
    /// two workers so one long-running `Attack` cannot monopolize the
    /// whole executor on 1-CPU hosts. Connection I/O and `ScorePairs`
    /// scoring run on the event loops, not this pool — see
    /// `event_loops`.
    pub workers: Parallelism,
    /// Mid-request deadline in milliseconds: once the first byte of a
    /// request has arrived, the full request must arrive (and the
    /// response must make write progress) within this budget, or the
    /// connection is closed with an [`ErrorCode::Timeout`] reply. `0`
    /// disables the deadline.
    pub request_timeout_ms: u64,
    /// Idle deadline in milliseconds: how long a connection may sit
    /// between requests before the server quietly closes it, freeing
    /// its admission slot. `0` disables the deadline.
    pub idle_timeout_ms: u64,
    /// Hard cap on one request's bytes (an NDJSON line or a binary
    /// frame payload). A larger request is answered with an
    /// [`ErrorCode::TooLarge`] error and the connection is closed — the
    /// server never buffers more than this (plus one read chunk) per
    /// connection, and a binary header *declaring* more than this is
    /// rejected before any payload is read.
    pub max_request_bytes: usize,
    /// Extra admission slots beyond the executor pool size. `0` means
    /// automatic (twice the pool size). The server admits at most
    /// `pool_size + queue_depth` concurrent connections; beyond that,
    /// new connections are shed with [`Response::Busy`] — the same
    /// holding capacity the pre-reactor thread-per-connection server
    /// had, so shed accounting is unchanged. Raise this to serve more
    /// concurrent connections; the reactor itself has no per-connection
    /// thread cost.
    pub max_queue: usize,
    /// Number of reactor event-loop threads. `0` means automatic
    /// (`min(cpu count, 4)`, at least 1).
    pub event_loops: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: Parallelism::Auto,
            request_timeout_ms: 10_000,
            idle_timeout_ms: 60_000,
            max_request_bytes: 64 * 1024 * 1024,
            max_queue: 0,
            event_loops: 0,
        }
    }
}

/// Where the server's models come from.
#[derive(Debug, Clone)]
pub enum ModelSource {
    /// One already-loaded model, served as the catalog's only entry under
    /// [`crate::registry::SINGLE_MODEL_ID`]. `Reload` answers
    /// `bad_request` — there is no directory to rescan.
    Single(TrainedAttack),
    /// A registry directory ([`crate::registry`]); `Reload` rescans it
    /// and atomically swaps the catalog.
    Registry {
        /// The registry directory (contains the `index` file).
        dir: PathBuf,
        /// Overrides the index's default model id for this server (and
        /// for every subsequent reload). Must name a published model.
        default_model: Option<String>,
    },
}

/// A/B shadow scoring: re-score a sampled fraction of default-routed
/// `ScorePairs` requests against a second catalog entry and accumulate
/// an exact divergence report into `Stats`. The shadow never affects the
/// answer the client sees.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowConfig {
    /// Catalog id of the shadow model. Must resolve at startup; if a
    /// later reload removes it, sampled requests are counted as
    /// `shadow_missing` instead of failing.
    pub model_id: String,
    /// Fraction of eligible requests to shadow-score, in `[0, 1]`.
    /// Sampling is deterministic (request `k` is sampled iff
    /// `floor((k+1)·f) > floor(k·f)`), so `1.0` is every request, `0.5`
    /// is exactly every other one.
    pub fraction: f64,
}

impl ShadowConfig {
    /// Decision threshold of the disagreement count: a pair disagrees
    /// when exactly one of the two probabilities reaches it.
    pub const THRESHOLD: f64 = 0.5;

    /// Shadow `model_id` on `fraction` of requests.
    #[must_use]
    pub fn new(model_id: &str, fraction: f64) -> Self {
        Self {
            model_id: model_id.to_owned(),
            fraction,
        }
    }
}

/// Resolves the attack executor pool size, applying the `Auto` >= 2
/// guard: one long-running `Attack` must never monopolize the whole
/// executor, so `Auto` keeps at least two workers even on 1-CPU hosts.
/// Explicit worker counts are honored as given.
pub fn pool_size(workers: Parallelism) -> usize {
    let n = workers.worker_count(usize::MAX);
    match workers {
        Parallelism::Auto => n.max(2),
        _ => n,
    }
}

/// Resolves the extra admission slots for `options` (`max_queue` of 0
/// means twice the executor pool, never less than 1). The server admits
/// at most `pool_size + queue_depth` concurrent connections.
pub fn queue_depth(options: &ServeOptions) -> usize {
    if options.max_queue == 0 {
        2 * pool_size(options.workers)
    } else {
        options.max_queue
    }
    .max(1)
}

/// Resolves the reactor thread count for `options` (`event_loops` of 0
/// means `min(cpu count, 4)`, at least 1).
pub fn event_loop_count(options: &ServeOptions) -> usize {
    if options.event_loops > 0 {
        options.event_loops
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .clamp(1, MAX_AUTO_EVENT_LOOPS)
    }
}

/// `0` milliseconds means "no deadline".
fn timeout_of(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Sleep applied after the `n`-th consecutive `accept()` failure
/// (1-based): exponential from [`ACCEPT_BACKOFF_BASE`] capped at
/// [`ACCEPT_BACKOFF_MAX`].
fn accept_backoff(consecutive_failures: u32) -> Duration {
    let exp = consecutive_failures.saturating_sub(1).min(16);
    ACCEPT_BACKOFF_MAX.min(ACCEPT_BACKOFF_BASE.saturating_mul(1 << exp))
}

/// Exact running totals behind the shadow divergence report.
#[derive(Default)]
struct ShadowAccum {
    sampled_requests: u64,
    compared_pairs: u64,
    sum_abs_dp: f64,
    max_abs_dp: f64,
    disagreements: u64,
    shadow_missing: u64,
}

struct ServerState {
    /// The serving catalog behind one atomically-swapped `Arc`. Every
    /// request clones the `Arc` once and resolves against that snapshot,
    /// so a concurrent `Reload` can never change which model answers a
    /// request that has already started. Each entry carries its ensemble
    /// lowered at load time — compilation is a load-time step, not a
    /// format change.
    catalog: Mutex<Arc<Catalog>>,
    /// `Some` when registry-backed: where `Reload` rescans.
    registry_dir: Option<PathBuf>,
    /// CLI-level default override, re-applied on every reload.
    default_override: Option<String>,
    shadow: Option<ShadowConfig>,
    /// Sequence number of eligible requests, driving deterministic
    /// shadow sampling.
    shadow_seq: AtomicU64,
    shadow_accum: Mutex<ShadowAccum>,
    reloads: AtomicU64,
    /// The deadlines and cap every connection's session enforces.
    limits: Limits,
    /// Resolved reactor thread count (reported in `Stats`).
    event_loops: usize,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Connections currently admitted (accepted and not yet closed);
    /// the acceptor sheds once this reaches capacity.
    active_conns: AtomicUsize,
    /// What the connections' sessions count.
    counters: Counters,
    shed: AtomicU64,
    pairs_scored: AtomicU64,
    score_batches: AtomicU64,
    batched_rows: AtomicU64,
}

impl ServerState {
    /// The current catalog snapshot. One clone of the `Arc`; holders keep
    /// serving their snapshot across a concurrent swap.
    fn catalog(&self) -> Arc<Catalog> {
        self.catalog.lock().expect("catalog lock").clone()
    }

    fn snapshot(&self) -> StatsSnapshot {
        let counters = &self.counters;
        let [p50_us, p95_us, p99_us, max_us] = counters.latencies_us.quantiles();
        let catalog = self.catalog();
        let entry = catalog.default_entry();
        let shadow = self.shadow.as_ref().map(|cfg| {
            let a = self.shadow_accum.lock().expect("shadow lock");
            ShadowReport {
                shadow_model: cfg.model_id.clone(),
                threshold: ShadowConfig::THRESHOLD,
                sampled_requests: a.sampled_requests,
                compared_pairs: a.compared_pairs,
                max_abs_dp: a.max_abs_dp,
                mean_abs_dp: if a.compared_pairs == 0 {
                    0.0
                } else {
                    a.sum_abs_dp / a.compared_pairs as f64
                },
                disagreements: a.disagreements,
                shadow_missing: a.shadow_missing,
            }
        });
        StatsSnapshot {
            model_id: entry.model_id.clone(),
            model_checksum: entry.checksum.clone(),
            schema_version: entry.schema_version,
            reloads: self.reloads.load(Ordering::Relaxed),
            shadow,
            requests: counters.requests.load(Ordering::Relaxed),
            errors: counters.errors.load(Ordering::Relaxed),
            io_errors: counters.io_errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            timeouts: counters.timeouts.load(Ordering::Relaxed),
            pairs_scored: self.pairs_scored.load(Ordering::Relaxed),
            event_loops: self.event_loops as u64,
            score_batches: self.score_batches.load(Ordering::Relaxed),
            batched_rows: self.batched_rows.load(Ordering::Relaxed),
            p50_us,
            p95_us,
            p99_us,
            max_us,
        }
    }
}

/// Whether eligible request `seq` (0-based) falls in the sampled
/// fraction: sampled iff `floor((seq+1)·f)` exceeds `floor(seq·f)`. The
/// count of sampled requests among the first `n` is exactly
/// `floor(n·f)` — deterministic, evenly spread, no RNG state.
fn shadow_sampled(seq: u64, fraction: f64) -> bool {
    let f = fraction.clamp(0.0, 1.0);
    ((seq + 1) as f64 * f).floor() > (seq as f64 * f).floor()
}

/// Maps a registry failure at startup onto the `io::Error` contract of
/// [`serve_source_with`] (a corrupt registry is `InvalidData`, not a
/// panic).
fn registry_io_error(e: RegistryError) -> std::io::Error {
    match e {
        RegistryError::Io(io) => io,
        other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// Runs the server on `listener` until a `Shutdown` request arrives or
/// `shutdown` is requested (SIGTERM on the CLI), then stops accepting,
/// drains in-flight requests through the reactors and returns the final
/// counters.
///
/// # Errors
///
/// Returns an [`std::io::Error`] for listener-level failures, for a
/// registry that fails to load (`InvalidData` carrying the typed
/// [`RegistryError`] message), or for a [`ShadowConfig`] whose fraction
/// is outside `[0, 1]` or whose model id is not in the starting catalog
/// (`InvalidInput` — a misconfigured shadow fails fast at startup, it
/// does not silently measure nothing). Transient `accept()` errors are
/// retried with exponential backoff and per-connection i/o errors just
/// end that connection.
pub fn serve_source_with(
    source: ModelSource,
    shadow: Option<ShadowConfig>,
    listener: TcpListener,
    options: &ServeOptions,
    shutdown: Option<&ShutdownHandle>,
) -> std::io::Result<StatsSnapshot> {
    serve_prepared(Prepared::new(source, shadow)?, listener, options, shutdown)
}

/// External shutdown lever for a running server — the out-of-band
/// counterpart of the protocol's `Shutdown` request, used by the CLI's
/// SIGTERM handler.
///
/// [`ShutdownHandle::request`] is safe to call from any thread at any
/// time (before, during, or after the server runs; repeat calls are
/// idempotent). It flags the request and pokes the server's accept loop
/// awake with a throwaway local connection — the same wake-up the
/// in-protocol shutdown path uses — after which the server stops
/// accepting, drains every in-flight request through the reactors, and
/// returns its final [`StatsSnapshot`].
#[derive(Clone, Debug, Default)]
pub struct ShutdownHandle {
    inner: Arc<ShutdownInner>,
}

#[derive(Debug, Default)]
struct ShutdownInner {
    requested: AtomicBool,
    /// Bound address of the server this handle is attached to; recorded
    /// by `serve_prepared` so a request can wake the blocking acceptor.
    addr: Mutex<Option<SocketAddr>>,
}

impl ShutdownHandle {
    /// A fresh, unrequested handle.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Has a shutdown been requested?
    #[must_use]
    pub fn requested(&self) -> bool {
        self.inner.requested.load(Ordering::Acquire)
    }

    /// Requests a graceful shutdown (idempotent, thread-safe,
    /// signal-watcher friendly).
    pub fn request(&self) {
        self.inner.requested.store(true, Ordering::Release);
        let addr = *self.inner.addr.lock().expect("shutdown handle poisoned");
        if let Some(addr) = addr {
            // Wake the acceptor the way initiate_shutdown does; glibc
            // installs SIGTERM handlers with SA_RESTART, so a blocked
            // accept() would otherwise never observe the flag.
            let _ = TcpStream::connect(addr);
        }
    }

    fn attach(&self, addr: SocketAddr) {
        *self.inner.addr.lock().expect("shutdown handle poisoned") = Some(addr);
        if self.requested() {
            // Request raced attach: the acceptor may already be blocked.
            let _ = TcpStream::connect(addr);
        }
    }
}

/// A validated catalog + shadow config, ready to serve. Split out of
/// [`serve_source_with`] so [`ServerHandle::bind_source`] can do the
/// (possibly failing) registry load on the caller's thread —
/// configuration errors surface at bind time — while the serving threads
/// run in the background.
struct Prepared {
    catalog: Catalog,
    registry_dir: Option<PathBuf>,
    default_override: Option<String>,
    shadow: Option<ShadowConfig>,
}

impl Prepared {
    fn new(source: ModelSource, shadow: Option<ShadowConfig>) -> std::io::Result<Self> {
        let (catalog, registry_dir, default_override) = match source {
            ModelSource::Single(model) => (Catalog::single(model), None, None),
            ModelSource::Registry { dir, default_model } => {
                let catalog =
                    Catalog::load(&dir, default_model.as_deref()).map_err(registry_io_error)?;
                (catalog, Some(dir), default_model)
            }
        };
        if let Some(cfg) = &shadow {
            let invalid =
                |message: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, message);
            if !cfg.fraction.is_finite() || !(0.0..=1.0).contains(&cfg.fraction) {
                return Err(invalid(format!(
                    "shadow fraction {} is not in [0, 1]",
                    cfg.fraction
                )));
            }
            if catalog.get(&cfg.model_id).is_none() {
                return Err(invalid(format!(
                    "shadow model '{}' is not in the catalog",
                    cfg.model_id
                )));
            }
        }
        Ok(Self {
            catalog,
            registry_dir,
            default_override,
            shadow,
        })
    }
}

/// An `Attack` run dispatched from an event loop to the executor.
struct Job {
    /// Which event loop owns the connection.
    loop_id: usize,
    /// Slab index of the connection on that loop.
    token: usize,
    /// Connection generation guard: the completion is dropped if the
    /// slab slot was reused by the time it arrives.
    conn_seq: u64,
    /// When the request's last byte arrived (latency clock).
    start: Instant,
    attack: Attack,
}

/// A routed `Attack` request, resolved against the catalog.
struct Attack {
    entry: Arc<ModelEntry>,
    challenge: String,
    truth: String,
    threshold: f64,
    detail: bool,
}

/// An attack's reply travelling back from the executor to the owning
/// event loop.
struct Completion {
    token: usize,
    conn_seq: u64,
    start: Instant,
    response: Response,
}

fn serve_prepared(
    prepared: Prepared,
    listener: TcpListener,
    options: &ServeOptions,
    shutdown_handle: Option<&ShutdownHandle>,
) -> std::io::Result<StatsSnapshot> {
    let addr = listener.local_addr()?;
    if let Some(handle) = shutdown_handle {
        handle.attach(addr);
    }
    let n_loops = event_loop_count(options);
    let n_workers = pool_size(options.workers);
    let capacity = n_workers + queue_depth(options);
    let state = ServerState {
        catalog: Mutex::new(Arc::new(prepared.catalog)),
        registry_dir: prepared.registry_dir,
        default_override: prepared.default_override,
        shadow: prepared.shadow,
        shadow_seq: AtomicU64::new(0),
        shadow_accum: Mutex::new(ShadowAccum::default()),
        reloads: AtomicU64::new(0),
        limits: Limits {
            request_timeout: timeout_of(options.request_timeout_ms),
            idle_timeout: timeout_of(options.idle_timeout_ms),
            max_request_bytes: options.max_request_bytes,
        },
        event_loops: n_loops,
        addr,
        shutdown: AtomicBool::new(false),
        active_conns: AtomicUsize::new(0),
        counters: Counters::default(),
        shed: AtomicU64::new(0),
        pairs_scored: AtomicU64::new(0),
        score_batches: AtomicU64::new(0),
        batched_rows: AtomicU64::new(0),
    };

    // Per-loop reactor plumbing, built up front so waker/sender clones
    // can fan out to the acceptor and the executor threads.
    let mut polls = Vec::with_capacity(n_loops);
    let mut wakers = Vec::with_capacity(n_loops);
    let mut intake_txs = Vec::with_capacity(n_loops);
    let mut intake_rxs = Vec::with_capacity(n_loops);
    let mut completion_txs = Vec::with_capacity(n_loops);
    let mut completion_rxs = Vec::with_capacity(n_loops);
    for _ in 0..n_loops {
        let poll = mio::Poll::new()?;
        let waker = mio::Waker::new(poll.registry(), WAKE_TOKEN)?;
        let (itx, irx) = mpsc::channel::<TcpStream>();
        let (ctx, crx) = mpsc::channel::<Completion>();
        polls.push(poll);
        wakers.push(waker);
        intake_txs.push(itx);
        intake_rxs.push(irx);
        completion_txs.push(ctx);
        completion_rxs.push(crx);
    }
    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
    let jobs_rx = Mutex::new(jobs_rx);

    let state_ref = &state;
    let jobs_rx_ref = &jobs_rx;
    std::thread::scope(|s| {
        for _ in 0..n_workers {
            let txs: Vec<_> = completion_txs.clone();
            let wks: Vec<_> = wakers.clone();
            s.spawn(move || executor_run(state_ref, jobs_rx_ref, &txs, &wks));
        }
        drop(completion_txs);
        for (loop_id, ((poll, intake), completions)) in polls
            .into_iter()
            .zip(intake_rxs)
            .zip(completion_rxs)
            .enumerate()
        {
            let waker = wakers[loop_id].clone();
            let jobs = jobs_tx.clone();
            s.spawn(move || {
                EventLoop::new(state_ref, loop_id, poll, waker, intake, completions, jobs).run();
            });
        }
        drop(jobs_tx);

        let mut accept_failures = 0u32;
        let mut next_loop = 0usize;
        loop {
            // An external shutdown (SIGTERM via a ShutdownHandle) behaves
            // exactly like a protocol Shutdown: flag the reactors and stop
            // accepting; the drain below finishes in-flight requests.
            if shutdown_handle.is_some_and(ShutdownHandle::requested) {
                state_ref.shutdown.store(true, Ordering::Release);
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    accept_failures = 0;
                    if state_ref.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    if shutdown_handle.is_some_and(ShutdownHandle::requested) {
                        state_ref.shutdown.store(true, Ordering::Release);
                        break;
                    }
                    if state_ref.active_conns.load(Ordering::Acquire) >= capacity {
                        shed_connection(stream, state_ref);
                        continue;
                    }
                    state_ref.active_conns.fetch_add(1, Ordering::AcqRel);
                    let id = next_loop % wakers.len();
                    next_loop = next_loop.wrapping_add(1);
                    if intake_txs[id].send(stream).is_ok() {
                        let _ = wakers[id].wake();
                    } else {
                        // The loop died (only possible during teardown).
                        state_ref.active_conns.fetch_sub(1, Ordering::AcqRel);
                        break;
                    }
                }
                Err(_) => {
                    if state_ref.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    accept_failures = accept_failures.saturating_add(1);
                    std::thread::sleep(accept_backoff(accept_failures));
                }
            }
        }
        // No more admissions: close the intake channels, then wake every
        // loop so each can observe shutdown and drain its connections.
        drop(intake_txs);
        for w in &wakers {
            let _ = w.wake();
        }
    });
    Ok(state.snapshot())
}

/// Load shedding: the server is at capacity, so answer `stream` with a
/// `Busy` hint (best-effort, under a short write deadline so a
/// non-reading client cannot stall the accept loop) and drop it.
fn shed_connection(stream: TcpStream, state: &ServerState) {
    state.shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(BUSY_RETRY_AFTER_MS)));
    // The shed reply predates wire detection (no bytes have been read),
    // so it is sent as NDJSON — binary clients resynchronize on the
    // connection close that follows, and the retrying client treats a
    // framing error on a fresh connection as retryable i/o anyway.
    let mut line = serde_json::to_string(&Response::Busy {
        retry_after_ms: BUSY_RETRY_AFTER_MS,
    })
    .expect("responses always serialize");
    line.push('\n');
    let _ = (&stream).write_all(line.as_bytes());
}

/// A server running on a background thread — the test/CLI-friendly way to
/// host a model.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<StatsSnapshot>>,
}

impl ServerHandle {
    /// Binds `addr_spec` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// serves `model` on a background thread.
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::Error`] if the address cannot be bound.
    pub fn bind(
        model: TrainedAttack,
        addr_spec: &str,
        options: ServeOptions,
    ) -> std::io::Result<Self> {
        Self::bind_source(ModelSource::Single(model), None, addr_spec, options)
    }

    /// Binds `addr_spec` and serves `source` (with optional shadow
    /// scoring) on a background thread. Registry and shadow validation
    /// happens here, before the thread spawns, so a misconfigured server
    /// fails at bind time.
    ///
    /// # Errors
    ///
    /// Returns the [`std::io::Error`]s of [`serve_source_with`]: bind
    /// failures, an unloadable registry, or an invalid shadow config.
    pub fn bind_source(
        source: ModelSource,
        shadow: Option<ShadowConfig>,
        addr_spec: &str,
        options: ServeOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr_spec)?;
        let addr = listener.local_addr()?;
        let prepared = Prepared::new(source, shadow)?;
        let thread = std::thread::spawn(move || serve_prepared(prepared, listener, &options, None));
        Ok(Self { addr, thread })
    }

    /// The address the server actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to shut down and returns its final counters.
    ///
    /// # Errors
    ///
    /// Propagates the server's listener-level [`std::io::Error`], if any.
    ///
    /// # Panics
    ///
    /// Panics if the server thread itself panicked.
    pub fn join(self) -> std::io::Result<StatsSnapshot> {
        self.thread.join().expect("server thread panicked")
    }
}

/// One live connection owned by an event loop: the socket, its reactor
/// bookkeeping, and the sans-io [`Session`] that holds its protocol
/// state.
struct Conn {
    stream: TcpStream,
    /// Generation stamp matching in-flight [`Job::conn_seq`]s.
    seq: u64,
    session: Session,
    /// Registered with the reactor (edge-triggered, both interests,
    /// exactly once at admission — never reregistered).
    registered: bool,
    /// Cached readiness under edge triggering: the kernel reports each
    /// readiness transition once, so the loop remembers it until a read
    /// or write actually returns `WouldBlock`. Both start true — a fresh
    /// socket is writable and may already hold bytes.
    read_ready: bool,
    write_ready: bool,
    /// On the loop's ready list (deduplicates scheduling).
    queued: bool,
}

impl Conn {
    /// Drains the socket into the session until `WouldBlock` (which
    /// clears the cached readiness — the edge-triggered contract), EOF,
    /// or the session's backpressure cap. `read_ready` stays true when
    /// the cap stops the read: the bytes are still there, and the next
    /// turn resumes after the buffer drains.
    fn read(&mut self, counters: &Counters) {
        let mut buf = [0u8; READ_CHUNK];
        while !self.session.read_buffer_full() {
            match (&self.stream).read(&mut buf) {
                Ok(0) => return self.session.received_eof(),
                Ok(n) => self.session.received(&buf[..n], Instant::now()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.read_ready = false;
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return self.session.read_failed(counters),
            }
        }
    }

    /// Writes as much of the session's pending reply as the socket takes.
    fn flush(&mut self, counters: &Counters) {
        while self.session.wants_write() {
            match (&self.stream).write(self.session.unsent()) {
                Ok(0) => return self.session.write_failed(counters),
                Ok(n) => self.session.sent(n, Instant::now()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.write_ready = false;
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return self.session.write_failed(counters),
            }
        }
    }

    /// Whether a service turn could make progress without a new
    /// readiness event.
    fn runnable(&self) -> bool {
        (self.read_ready && self.session.wants_read())
            || (self.write_ready && self.session.wants_write())
    }
}

/// One reactor thread: an epoll loop over a slab of connections.
struct EventLoop<'a> {
    state: &'a ServerState,
    loop_id: usize,
    poll: mio::Poll,
    waker: mio::Waker,
    intake: mpsc::Receiver<TcpStream>,
    completions: mpsc::Receiver<Completion>,
    jobs: mpsc::Sender<Job>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_seq: u64,
    /// Ready list: connections with cached readiness or buffered work.
    /// Each gets one bounded service turn per loop iteration and
    /// re-queues at the back if still runnable — round-robin fairness
    /// under edge triggering.
    pending: VecDeque<usize>,
}

impl<'a> EventLoop<'a> {
    fn new(
        state: &'a ServerState,
        loop_id: usize,
        poll: mio::Poll,
        waker: mio::Waker,
        intake: mpsc::Receiver<TcpStream>,
        completions: mpsc::Receiver<Completion>,
        jobs: mpsc::Sender<Job>,
    ) -> Self {
        Self {
            state,
            loop_id,
            poll,
            waker,
            intake,
            completions,
            jobs,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            pending: VecDeque::new(),
        }
    }

    fn run(mut self) {
        let mut events = mio::Events::with_capacity(256);
        loop {
            // Channels are drained every iteration: the waker guarantees
            // a wakeup *after* each send, so nothing is ever stranded.
            let intake_closed = self.drain_intake();
            while let Ok(c) = self.completions.try_recv() {
                self.apply_completion(c);
            }
            // One bounded service turn per currently-ready connection;
            // a turn that leaves work behind re-queues at the back, so
            // this round visits each ready connection exactly once.
            for _ in 0..self.pending.len() {
                let Some(idx) = self.pending.pop_front() else {
                    break;
                };
                self.service(idx);
            }
            // The exit check sits *after* the service turns: the final
            // wake and the last connection's EOF can arrive in one poll
            // return, and checking before servicing would see live > 0,
            // close the connection, then block forever with no further
            // wake coming. Anything that flips the condition after this
            // point also fires the waker, so the blocking poll below
            // still returns.
            if intake_closed && self.live == 0 && self.state.shutdown.load(Ordering::Acquire) {
                return;
            }
            let timeout = if self.pending.is_empty() {
                let next = self.conns.iter().flatten();
                next.filter_map(|c| c.session.deadline()).min().map(|d| {
                    // +1ms so a just-expired deadline doesn't busy-poll
                    // on millisecond truncation.
                    d.saturating_duration_since(Instant::now()) + Duration::from_millis(1)
                })
            } else {
                // Buffered work remains: collect any new readiness
                // without blocking and keep servicing.
                Some(Duration::ZERO)
            };
            if self.poll.poll(&mut events, timeout).is_err() {
                // epoll itself failing is unrecoverable for this loop;
                // shed everything rather than spin.
                for idx in 0..self.conns.len() {
                    self.close(idx);
                }
                return;
            }
            for event in events.iter() {
                if event.token() == WAKE_TOKEN {
                    self.waker.drain();
                } else if let Some(conn) =
                    self.conns.get_mut(event.token().0).and_then(Option::as_mut)
                {
                    // Record the edge; the service turn does the I/O,
                    // under the fairness budget.
                    conn.read_ready |= event.is_readable();
                    conn.write_ready |= event.is_writable();
                    if !conn.queued {
                        conn.queued = true;
                        self.pending.push_back(event.token().0);
                    }
                }
            }
            self.sweep_deadlines();
        }
    }

    /// Pulls newly accepted connections into the slab. Returns true when
    /// the acceptor has hung up (no more connections will ever arrive).
    fn drain_intake(&mut self) -> bool {
        loop {
            match self.intake.try_recv() {
                Ok(stream) => self.admit(stream),
                Err(mpsc::TryRecvError::Empty) => return false,
                Err(mpsc::TryRecvError::Disconnected) => return true,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let state = self.state;
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            state.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            state.active_conns.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        // One registration for the connection's whole life: both
        // interests, edge-triggered. Readiness transitions arrive as
        // events; the cached `read_ready`/`write_ready` flags carry them
        // between service turns, so there is no rearm traffic at all.
        let interest = (mio::Interest::READABLE | mio::Interest::WRITABLE).edge();
        let registered = self
            .poll
            .registry()
            .register(&stream, mio::Token(idx), interest)
            .is_ok();
        self.conns[idx] = Some(Conn {
            stream,
            seq: self.next_seq,
            session: Session::new(state.limits, Instant::now()),
            registered,
            read_ready: true,
            write_ready: true,
            queued: false,
        });
        self.next_seq += 1;
        self.live += 1;
        if !registered {
            state.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            self.close(idx);
            return;
        }
        // The socket may already hold a request (and its initial
        // readiness edges may predate registration); service it now.
        self.service(idx);
    }

    fn apply_completion(&mut self, c: Completion) {
        let counters = &self.state.counters;
        let Some(conn) = self.conns.get_mut(c.token).and_then(Option::as_mut) else {
            return;
        };
        if conn.seq != c.conn_seq {
            return; // the slot was reused; the requester is long gone
        }
        conn.session
            .complete(&c.response, c.start, counters, Instant::now);
        // Pipelined bytes may already hold the next request.
        self.process(c.token);
    }

    /// One bounded service turn: flush what the socket will take, read
    /// until `WouldBlock` or the backpressure cap, then process.
    fn service(&mut self, idx: usize) {
        let counters = &self.state.counters;
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return; // stale entry for a closed connection
        };
        conn.queued = false;
        if conn.write_ready && conn.session.wants_write() {
            conn.flush(counters);
        }
        if conn.read_ready && conn.session.wants_read() {
            conn.read(counters);
        }
        self.process(idx);
    }

    /// Lets the session consume up to [`FRAME_BUDGET`] buffered frames,
    /// dispatches the job they produced, then settles the connection.
    fn process(&mut self, idx: usize) {
        let state = self.state;
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let turn = conn
            .session
            .process(FRAME_BUDGET, &state.counters, Instant::now, |decoded| {
                route(state, decoded)
            });
        if turn.shutdown {
            initiate_shutdown(state);
        }
        if let Some((attack, start)) = turn.job {
            let job = Job {
                loop_id: self.loop_id,
                token: idx,
                conn_seq: conn.seq,
                start,
                attack,
            };
            if self.jobs.send(job).is_err() {
                // Executor gone: only reachable during teardown.
                self.close(idx);
                return;
            }
        }
        self.settle(idx, turn.more);
    }

    /// Post-activity settlement: flush, apply the session's close
    /// decisions, and re-queue the connection if it can still make
    /// progress *without* waiting for a new readiness event. Under edge
    /// triggering this re-queue is load-bearing: a turn that stops for
    /// any reason other than `WouldBlock` (fairness budget,
    /// backpressure, an in-flight job that just completed) would
    /// otherwise strand cached readiness.
    fn settle(&mut self, idx: usize, more_frames: bool) {
        let counters = &self.state.counters;
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if conn.write_ready && conn.session.wants_write() {
            conn.flush(counters);
        }
        conn.session.settle(counters);
        if conn.session.is_closed() {
            self.close(idx);
        } else if (more_frames || conn.runnable()) && !conn.queued {
            conn.queued = true;
            self.pending.push_back(idx);
        }
    }

    /// Hands every connection whose deadline has passed a clock tick.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            if conn.session.deadline().is_some_and(|d| now >= d) {
                conn.session.tick(now, &self.state.counters);
                self.settle(idx, false);
            }
        }
    }

    fn close(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        if conn.registered {
            let _ = self.poll.registry().deregister(&conn.stream);
        }
        drop(conn);
        self.free.push(idx);
        self.live -= 1;
        self.state.active_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The router: answers control requests, resolves the catalog, scores
/// `ScorePairs` inline and turns an `Attack` into an executor job. Row
/// widths are validated here, once, for both wires.
fn route(state: &ServerState, decoded: Decoded<'_>) -> Routed<Attack> {
    let request = match decoded {
        Decoded::ScorePairs(view) => return route_rows(state, view.model_id, Rows::Dense(view)),
        Decoded::Request(request) => request,
    };
    let reply = match request {
        Request::ScorePairs { features, model_id } => {
            return route_rows(state, model_id.as_deref(), Rows::Nested(&features))
        }
        Request::Attack {
            challenge,
            truth,
            threshold,
            detail,
            model_id,
        } => match state.catalog().resolve(model_id.as_deref()) {
            Err(e) => not_found(&e),
            Ok(entry) => {
                return Routed::Job(Attack {
                    entry: entry.clone(),
                    challenge,
                    truth,
                    threshold,
                    detail,
                })
            }
        },
        Request::Shutdown => return Routed::Shutdown,
        Request::Health => {
            let catalog = state.catalog();
            let entry = catalog.default_entry();
            Response::Health {
                model: entry.model.config().name.clone(),
                features: entry.model.config().features.len(),
                trees: entry.model.model().num_trees(),
                artifact_version: ARTIFACT_VERSION,
                model_id: entry.model_id.clone(),
                checksum: entry.checksum.clone(),
                schema_version: entry.schema_version,
            }
        }
        // The snapshot is taken before the session counts this request,
        // so `Stats` reports the world *before* itself (exact-accounting
        // tests rely on this).
        Request::Stats => Response::Stats {
            stats: state.snapshot(),
        },
        Request::ListModels => {
            let catalog = state.catalog();
            Response::Models {
                default_model: catalog.default_id().to_owned(),
                models: catalog
                    .entries()
                    .iter()
                    .map(|e| ModelInfo {
                        model_id: e.model_id.clone(),
                        config: e.model.config().name.clone(),
                        features: e.model.config().features.len(),
                        trees: e.model.model().num_trees(),
                        checksum: e.checksum.clone(),
                        schema_version: e.schema_version,
                        split_layer: e.meta.split_layer.clone(),
                    })
                    .collect(),
            }
        }
        Request::Reload => reload(state),
    };
    Routed::Reply(Box::new(reply))
}

/// The feature rows of one `ScorePairs` request, as each wire decodes
/// them.
enum Rows<'a> {
    /// A dense binary frame's rows, still bytes in the read buffer.
    Dense(binary::ScorePairsView<'a>),
    /// An NDJSON request's nested rows.
    Nested(&'a [Vec<f64>]),
}

/// Resolves the model, validates every row's width against it, and
/// scores the rows in one `proba_batch` call on the calling event loop.
/// The call is row-independent, so the probabilities are bit-identical
/// to `Bagging::proba` on each row.
fn route_rows(state: &ServerState, model_id: Option<&str>, rows: Rows<'_>) -> Routed<Attack> {
    let catalog = state.catalog();
    let entry = match catalog.resolve(model_id) {
        Ok(entry) => entry,
        Err(e) => return Routed::Reply(Box::new(not_found(&e))),
    };
    let width = entry.model.config().features.len();
    let (nrows, misfit) = match &rows {
        Rows::Dense(view) => (
            view.rows,
            (view.rows > 0 && view.cols != width).then_some((0, view.cols)),
        ),
        Rows::Nested(rows) => (
            rows.len(),
            rows.iter()
                .enumerate()
                .find(|(_, r)| r.len() != width)
                .map(|(i, r)| (i, r.len())),
        ),
    };
    if let Some((row, len)) = misfit {
        return Routed::Reply(Box::new(bad_request(format!(
            "feature row {row} has {len} values, model expects {width}"
        ))));
    }
    let mut flat = Vec::with_capacity(nrows * width);
    match rows {
        Rows::Dense(view) => view.extend_rows_into(&mut flat),
        Rows::Nested(rows) => rows.iter().for_each(|r| flat.extend_from_slice(r)),
    }
    let mut probs = vec![0.0; nrows];
    entry.compiled.proba_batch(&flat, width, &mut probs);
    state.score_batches.fetch_add(1, Ordering::Relaxed);
    state
        .batched_rows
        .fetch_add(nrows as u64, Ordering::Relaxed);
    state
        .pairs_scored
        .fetch_add(nrows as u64, Ordering::Relaxed);
    shadow_compare(state, &catalog, entry, &flat, width, &probs);
    Routed::Reply(Box::new(Response::Scores { probs }))
}

/// One executor thread: runs queued `Attack` jobs one at a time and
/// posts each reply back to the owning event loop.
fn executor_run(
    state: &ServerState,
    jobs: &Mutex<mpsc::Receiver<Job>>,
    completion_txs: &[mpsc::Sender<Completion>],
    wakers: &[mio::Waker],
) {
    loop {
        // The guard is a temporary of the `let`, so the queue unlocks
        // before the attack runs.
        let Ok(job) = jobs.lock().expect("job queue lock").recv() else {
            return; // all event loops exited
        };
        let response = run_attack(state, &job.attack);
        let completion = Completion {
            token: job.token,
            conn_seq: job.conn_seq,
            start: job.start,
            response,
        };
        if completion_txs[job.loop_id].send(completion).is_ok() {
            let _ = wakers[job.loop_id].wake();
        }
    }
}

/// Flags shutdown and wakes the (possibly blocked) accept loop with a
/// throwaway local connection.
fn initiate_shutdown(state: &ServerState) {
    state.shutdown.store(true, Ordering::Release);
    let _ = TcpStream::connect(state.addr);
}

/// The `not_found` reply for a `model_id` that is not in the catalog.
fn not_found(e: &RegistryError) -> Response {
    Response::Error {
        code: ErrorCode::NotFound,
        message: e.to_string(),
    }
}

/// Handles `Reload`: rescan the registry directory, and only on a fully
/// successful load swap the catalog `Arc`. Any failure leaves the old
/// catalog serving untouched and reports the typed registry error.
fn reload(state: &ServerState) -> Response {
    let Some(dir) = &state.registry_dir else {
        return Response::Error {
            code: ErrorCode::BadRequest,
            message: "server is not registry-backed (started with --model); nothing to reload"
                .into(),
        };
    };
    match Catalog::load(dir, state.default_override.as_deref()) {
        Err(e) => Response::Error {
            code: ErrorCode::BadRequest,
            message: format!("reload failed, previous catalog still serving: {e}"),
        },
        Ok(catalog) => {
            let models = catalog
                .entries()
                .iter()
                .map(|e| e.model_id.clone())
                .collect();
            let default_model = catalog.default_id().to_owned();
            // The swap itself: one pointer store under the lock. Requests
            // that already cloned the old Arc finish on it; the last one
            // out drops the old catalog.
            *state.catalog.lock().expect("catalog lock") = Arc::new(catalog);
            let reloads = state.reloads.fetch_add(1, Ordering::Relaxed) + 1;
            Response::Reloaded {
                default_model,
                models,
                reloads,
            }
        }
    }
}

/// A/B shadow scoring: when configured, re-scores a deterministic
/// fraction of default-routed `ScorePairs` batches against the shadow
/// entry of the *same catalog snapshot* and folds exact divergence
/// totals into the accumulator. Never alters the primary response.
/// `rows` is the flattened row-major feature matrix (`width` columns).
fn shadow_compare(
    state: &ServerState,
    catalog: &Catalog,
    entry: &ModelEntry,
    rows: &[f64],
    width: usize,
    probs: &[f64],
) {
    let Some(cfg) = &state.shadow else { return };
    // Only batches answered by the default model are eligible: the
    // report means "default vs shadow", not a mixture of primaries. A
    // reload may change which id is the default; eligibility tracks it.
    if entry.model_id != catalog.default_id() || entry.model_id == cfg.model_id {
        return;
    }
    let seq = state.shadow_seq.fetch_add(1, Ordering::Relaxed);
    if !shadow_sampled(seq, cfg.fraction) {
        return;
    }
    let shadow_entry = catalog
        .get(&cfg.model_id)
        .filter(|s| s.model.config().features.len() == width);
    let mut accum = state.shadow_accum.lock().expect("shadow lock");
    accum.sampled_requests += 1;
    let Some(shadow_entry) = shadow_entry else {
        // The shadow id vanished (or became feature-incompatible) after
        // a reload; the primary answer is unaffected, just count it.
        accum.shadow_missing += 1;
        return;
    };
    let mut shadow_probs = vec![0.0; probs.len()];
    shadow_entry
        .compiled
        .proba_batch(rows, width, &mut shadow_probs);
    for (&p, &q) in probs.iter().zip(&shadow_probs) {
        let dp = (p - q).abs();
        accum.sum_abs_dp += dp;
        if dp > accum.max_abs_dp {
            accum.max_abs_dp = dp;
        }
        if (p >= ShadowConfig::THRESHOLD) != (q >= ShadowConfig::THRESHOLD) {
            accum.disagreements += 1;
        }
    }
    accum.compared_pairs += probs.len() as u64;
}

fn run_attack(state: &ServerState, attack: &Attack) -> Response {
    let view = match read_challenge(&attack.challenge, &attack.truth) {
        Ok(v) => v,
        Err(e) => {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("bad challenge: {e}"),
            }
        }
    };
    let scored = attack.entry.model.score(
        &view,
        &ScoreOptions {
            parallelism: Parallelism::Sequential,
            ..ScoreOptions::default()
        },
    );
    state
        .pairs_scored
        .fetch_add(scored.pairs_scored, Ordering::Relaxed);
    let summary = AttackSummary {
        design: view.name.clone(),
        num_vpins: view.num_vpins(),
        pairs_scored: scored.pairs_scored,
        threshold: attack.threshold,
        accuracy: scored.accuracy_at(attack.threshold),
        mean_loc: scored.mean_loc_at(attack.threshold),
        max_accuracy: scored.max_accuracy(),
    };
    Response::AttackResult {
        summary,
        scored: attack.detail.then_some(scored),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::session::LatencyHistogram;

    /// The full-sort oracle the histogram's percentiles are read against.
    fn percentile(sorted: &[u64], pct: f64) -> u64 {
        sorted[percentile_rank(sorted.len(), pct)]
    }

    /// The lower bound of the histogram bucket that holds `v`.
    fn floor_of(v: u64) -> u64 {
        let h = LatencyHistogram::default();
        h.record(v);
        h.quantiles()[0]
    }

    #[test]
    fn percentile_ranks_are_nearest_rank_on_the_scaled_index() {
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&lat, 0.0), 1);
        assert_eq!(percentile(&lat, 50.0), 51); // round(0.5 * 99) = 50
        assert_eq!(percentile(&lat, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile_rank(0, 99.0), 0);
    }

    #[test]
    fn default_options_pool_with_sequential_batches() {
        let opts = ServeOptions::default();
        assert!(opts.workers.worker_count(usize::MAX) >= 1);
        assert!(opts.request_timeout_ms > 0);
        assert!(opts.idle_timeout_ms >= opts.request_timeout_ms);
        assert!(opts.max_request_bytes >= 1 << 20);
        assert_eq!(opts.max_queue, 0, "0 = auto queue depth");
        assert_eq!(opts.event_loops, 0, "0 = auto event loops");
    }

    #[test]
    fn ring_quantiles_match_the_full_sort_oracle() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantiles(), [0; 4], "empty histogram is all zero");
        // A deterministic scramble with duplicates, below and far above
        // the exact range.
        let mut samples: Vec<u64> = (0u64..700).map(|i| (i * 7919) % 100_003).collect();
        samples.extend([0, 5, 127, 128, 129, 100, 100]);
        for &v in &samples {
            h.record(v);
        }
        let check = |samples: &mut Vec<u64>| {
            samples.sort_unstable();
            let expect = [50.0, 95.0, 99.0].map(|p| floor_of(percentile(samples, p)));
            let got = h.quantiles();
            assert_eq!(got[..3], expect, "percentiles");
            assert_eq!(got[3], *samples.last().unwrap(), "max is exact");
            assert_eq!(h.count(), samples.len() as u64);
        };
        check(&mut samples);
        // The extreme value lands in the top bucket and is the max.
        h.record(u64::MAX);
        samples.push(u64::MAX);
        check(&mut samples);
        // Single sample: every percentile is that sample's bucket.
        let one = LatencyHistogram::default();
        one.record(17);
        assert_eq!(one.quantiles(), [17, 17, 17, 17], "exact below 128");
        let big = LatencyHistogram::default();
        big.record(1_000_003);
        assert_eq!(big.quantiles(), [999_424, 999_424, 999_424, 1_000_003]);
    }

    #[test]
    fn auto_pool_never_collapses_to_one_worker() {
        // Regression: on a 1-CPU host, Auto used to resolve to a single
        // worker, so one long-running request starved every other
        // client forever. Explicit `Threads(1)` still means one worker —
        // only the implicit default is guarded.
        assert!(pool_size(Parallelism::Auto) >= 2);
        assert_eq!(pool_size(Parallelism::Threads(1)), 1);
        assert_eq!(pool_size(Parallelism::Threads(3)), 3);
    }

    #[test]
    fn queue_depth_defaults_to_twice_the_pool_and_honors_overrides() {
        let mut opts = ServeOptions {
            workers: Parallelism::Threads(3),
            ..ServeOptions::default()
        };
        assert_eq!(queue_depth(&opts), 6);
        opts.max_queue = 2;
        assert_eq!(queue_depth(&opts), 2);
        opts.workers = Parallelism::Threads(1);
        opts.max_queue = 0;
        assert_eq!(queue_depth(&opts), 2);
    }

    #[test]
    fn event_loop_count_resolves_auto_and_explicit() {
        let mut opts = ServeOptions::default();
        let auto = event_loop_count(&opts);
        assert!((1..=MAX_AUTO_EVENT_LOOPS).contains(&auto), "auto in range");
        opts.event_loops = 7;
        assert_eq!(event_loop_count(&opts), 7, "explicit counts are honored");
    }

    #[test]
    fn accept_backoff_grows_exponentially_to_a_cap() {
        assert_eq!(accept_backoff(1), Duration::from_millis(1));
        assert_eq!(accept_backoff(2), Duration::from_millis(2));
        assert_eq!(accept_backoff(5), Duration::from_millis(16));
        assert_eq!(accept_backoff(10), ACCEPT_BACKOFF_MAX);
        assert_eq!(accept_backoff(u32::MAX), ACCEPT_BACKOFF_MAX, "no overflow");
    }

    #[test]
    fn shadow_sampling_is_exact_and_evenly_spread() {
        // Among the first n eligible requests, exactly floor(n·f) are
        // sampled — the divergence report's sample counts are exact, not
        // probabilistic.
        for (fraction, n) in [(0.0, 1000u64), (0.1, 1000), (0.5, 1000), (1.0, 1000)] {
            let sampled = (0..n).filter(|&k| shadow_sampled(k, fraction)).count() as u64;
            let expected = (n as f64 * fraction).floor() as u64;
            assert_eq!(sampled, expected, "fraction {fraction}");
        }
        assert!(
            (0..100).all(|k| shadow_sampled(k, 1.0)),
            "f=1 is every request"
        );
        assert!(!(0..100).any(|k| shadow_sampled(k, 0.0)), "f=0 is never");
        // f=0.5 alternates: odd sequence numbers are the sampled ones.
        assert!(!shadow_sampled(0, 0.5));
        assert!(shadow_sampled(1, 0.5));
        assert!(!shadow_sampled(2, 0.5));
        assert!(shadow_sampled(3, 0.5));
        // Out-of-range fractions clamp instead of misbehaving.
        assert!(shadow_sampled(0, 7.0));
        assert!(!shadow_sampled(0, -1.0));
    }

    #[test]
    fn timeout_of_treats_zero_as_disabled() {
        assert_eq!(timeout_of(0), None);
        assert_eq!(timeout_of(250), Some(Duration::from_millis(250)));
    }
}
