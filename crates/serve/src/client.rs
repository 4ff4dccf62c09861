//! Blocking protocol client, retry policy, and the `bench-serve` load
//! driver.
//!
//! Every entry point speaks either wire format ([`Wire::Ndjson`] or the
//! length-prefixed [`Wire::Binary`] protocol v2): the server detects the
//! format per connection from the first byte, so a client just picks one
//! at connect time and sticks with it.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::protocol::{binary, ErrorCode, Request, Response, StatsSnapshot, Wire};

/// Client-side failure talking to a `splitmfg serve` instance.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, premature close).
    Io(std::io::Error),
    /// The server's reply line was not a valid protocol response.
    Protocol(String),
    /// The server shed the connection with [`Response::Busy`].
    Busy {
        /// The server's backoff hint in milliseconds.
        retry_after_ms: u64,
    },
    /// The server answered with [`Response::Error`] — a semantic
    /// rejection of this request, never retried.
    Remote {
        /// Machine-readable failure class from the server.
        code: ErrorCode,
        /// The server's human-readable description.
        message: String,
    },
}

impl ClientError {
    /// Whether a retry of the same request can plausibly succeed:
    /// transport failures and shed connections are retryable, semantic
    /// rejections ([`ClientError::Remote`]) and protocol violations are
    /// not.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::Busy { .. })
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server busy (retry after {retry_after_ms} ms)")
            }
            ClientError::Remote { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Socket deadlines for [`Client::connect_with`]; `0` disables the
/// respective deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientTimeouts {
    /// TCP connect deadline, milliseconds.
    pub connect_ms: u64,
    /// Per-call read/write deadline, milliseconds.
    pub io_ms: u64,
}

impl Default for ClientTimeouts {
    fn default() -> Self {
        Self {
            connect_ms: 2_000,
            io_ms: 30_000,
        }
    }
}

impl ClientTimeouts {
    /// No deadlines at all (block forever), the pre-hardening behavior.
    #[must_use]
    pub fn unbounded() -> Self {
        Self {
            connect_ms: 0,
            io_ms: 0,
        }
    }
}

/// A persistent connection to a serve instance: one framed request out,
/// one framed response back, any number of times, over either wire
/// format.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    wire: Wire,
}

impl Client {
    /// Connects to `addr` speaking NDJSON with no socket deadlines (a
    /// dead server can block forever; prefer [`Client::connect_with`]).
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] if the connection cannot be opened.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        Self::connect_wire(addr, ClientTimeouts::unbounded(), Wire::Ndjson)
    }

    /// Connects to `addr` speaking NDJSON under `timeouts`: the connect
    /// itself must complete within `connect_ms`, and every subsequent
    /// read/write within `io_ms`.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] if resolution or connection fails.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        timeouts: ClientTimeouts,
    ) -> Result<Self, ClientError> {
        Self::connect_wire(addr, timeouts, Wire::Ndjson)
    }

    /// Connects to `addr` under `timeouts`, speaking `wire`. The server
    /// auto-detects the format from the first byte of the connection, so
    /// no negotiation round-trip happens — a binary client simply starts
    /// sending binary frames.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] if resolution or connection fails.
    pub fn connect_wire<A: ToSocketAddrs>(
        addr: A,
        timeouts: ClientTimeouts,
        wire: Wire,
    ) -> Result<Self, ClientError> {
        let stream = if timeouts.connect_ms == 0 {
            TcpStream::connect(addr)?
        } else {
            let sock_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
                ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::AddrNotAvailable,
                    "address resolved to nothing",
                ))
            })?;
            TcpStream::connect_timeout(&sock_addr, Duration::from_millis(timeouts.connect_ms))?
        };
        Self::from_stream(stream, timeouts, wire)
    }

    fn from_stream(
        stream: TcpStream,
        timeouts: ClientTimeouts,
        wire: Wire,
    ) -> Result<Self, ClientError> {
        let _ = stream.set_nodelay(true);
        if timeouts.io_ms > 0 {
            let io = Some(Duration::from_millis(timeouts.io_ms));
            stream.set_read_timeout(io)?;
            stream.set_write_timeout(io)?;
        }
        let write_half = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            wire,
        })
    }

    /// The wire format this connection speaks.
    #[must_use]
    pub fn wire(&self) -> Wire {
        self.wire
    }

    /// Sends one request and reads the matching response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on socket failure or server close,
    /// [`ClientError::Protocol`] if the reply is not a well-formed
    /// response (line or frame). A [`Response::Error`] or
    /// [`Response::Busy`] reply is returned as a normal `Ok` response so
    /// callers can distinguish per-request failures from dead
    /// connections; use [`Client::call_ok`] to promote them to
    /// [`ClientError::Remote`] / [`ClientError::Busy`].
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.recv()
    }

    /// Writes one framed request and flushes it, without waiting for the
    /// reply. Callers may pipeline: issue several `send`s back to back,
    /// then [`Client::recv`] the same number of responses — the server
    /// answers strictly in request order on one connection.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on socket failure, [`ClientError::Protocol`]
    /// if the request cannot be encoded.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        match self.wire {
            Wire::Ndjson => {
                let line = serde_json::to_string(request)
                    .map_err(|e| ClientError::Protocol(format!("unencodable request: {e}")))?;
                self.writer.write_all(line.as_bytes())?;
                self.writer.write_all(b"\n")?;
            }
            Wire::Binary => self.writer.write_all(&binary::encode_request(request))?,
        }
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next framed response — the reply to the oldest
    /// [`Client::send`] that has not been answered yet.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on socket failure or server close,
    /// [`ClientError::Protocol`] on a malformed reply.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        read_reply(&mut self.reader, self.wire)
    }

    /// [`Client::call`], but a [`Response::Error`] reply becomes
    /// [`ClientError::Remote`] and a [`Response::Busy`] reply becomes
    /// [`ClientError::Busy`].
    ///
    /// # Errors
    ///
    /// As [`Client::call`], plus [`ClientError::Remote`] and
    /// [`ClientError::Busy`].
    pub fn call_ok(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.call(request)? {
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            Response::Busy { retry_after_ms } => Err(ClientError::Busy { retry_after_ms }),
            other => Ok(other),
        }
    }
}

/// Reads one reply as a client speaking `wire` receives it: an NDJSON
/// line, or a binary frame. Memory grows only with the bytes that arrive,
/// never with a length the peer declares.
fn read_reply(reader: &mut impl BufRead, wire: Wire) -> Result<Response, ClientError> {
    let mut line = Vec::new();
    if wire == Wire::Binary {
        let mut header = [0u8; binary::HEADER_LEN];
        reader.read_exact(&mut header)?;
        // A shed server answers with an NDJSON Busy line before any wire
        // detection could happen (it never read our first byte). Spot
        // the JSON opener and fall back to line framing for this reply.
        if header[0] == b'{' {
            line.extend_from_slice(&header);
        } else {
            let h = binary::decode_header(header, u64::MAX)
                .map_err(|e| ClientError::Protocol(format!("bad response frame: {e}")))?;
            let mut payload = Vec::new();
            let n = reader.take(u64::from(h.len)).read_to_end(&mut payload)?;
            if n < h.len as usize {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-frame",
                )));
            }
            return binary::decode_response(h.frame_type, &payload)
                .map_err(|e| ClientError::Protocol(format!("bad response frame: {e}")));
        }
    }
    if reader.read_until(b'\n', &mut line)? == 0 && line.is_empty() {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )));
    }
    let text = std::str::from_utf8(&line)
        .map_err(|_| ClientError::Protocol("non-UTF-8 reply line".into()))?;
    serde_json::from_str(text.trim_end())
        .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))
}

/// Bounded-retry schedule: exponential backoff with deterministic,
/// seed-derived jitter. Retries apply **only** to transport failures and
/// `Busy` sheds ([`ClientError::is_retryable`]); a semantic
/// [`ClientError::Remote`] is final on the first attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (so `1` means no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, milliseconds; doubles per retry.
    pub base_backoff_ms: u64,
    /// Ceiling on any single backoff, milliseconds.
    pub max_backoff_ms: u64,
    /// Seed for the jitter hash — the schedule is a pure function of
    /// `(seed, retry index)`, so tests and reproductions see identical
    /// delays.
    pub jitter_seed: u64,
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
    /// A policy that never retries.
    #[must_use]
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// A default-shaped policy allowing `retries` retries after the
    /// first attempt.
    #[must_use]
    pub fn with_retries(retries: u32) -> Self {
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
    #[must_use]
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let exp = retry.saturating_sub(1).min(20);
        let envelope = self
            .base_backoff_ms
            .saturating_mul(1 << exp)
            .min(self.max_backoff_ms);
        let half = envelope / 2;
        half + splitmix64(self.jitter_seed ^ u64::from(retry)) % (envelope - half + 1)
    }
}

/// A [`Client`] wrapper that transparently reconnects and retries under a
/// [`RetryPolicy`]: `Io` failures and `Busy` sheds are retried (with the
/// server's `retry_after_ms` hint respected as a floor), semantic
/// [`ClientError::Remote`] replies are returned immediately.
pub struct RetryingClient {
    addr: String,
    timeouts: ClientTimeouts,
    policy: RetryPolicy,
    wire: Wire,
    conn: Option<Client>,
    retries: u64,
    busy_retries: u64,
}

impl RetryingClient {
    /// Creates a lazy NDJSON client for `addr`; the first [`Self::call`]
    /// connects.
    #[must_use]
    pub fn new(addr: &str, timeouts: ClientTimeouts, policy: RetryPolicy) -> Self {
        Self::new_wire(addr, timeouts, policy, Wire::Ndjson)
    }

    /// [`Self::new`] with an explicit wire format; every connection
    /// (including reconnects) speaks it.
    #[must_use]
    pub fn new_wire(addr: &str, timeouts: ClientTimeouts, policy: RetryPolicy, wire: Wire) -> Self {
        Self {
            addr: addr.to_owned(),
            timeouts,
            policy,
            wire,
            conn: None,
            retries: 0,
            busy_retries: 0,
        }
    }

    /// Retries performed so far across all calls (a call that succeeds
    /// on its first attempt contributes 0).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The subset of [`Self::retries`] caused by [`Response::Busy`]
    /// sheds (as opposed to transport failures) — lets callers audit a
    /// server's `shed` counter exactly.
    #[must_use]
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Sends `request`, reconnecting and retrying per the policy.
    ///
    /// # Errors
    ///
    /// The final attempt's error once the policy is exhausted, or
    /// immediately for non-retryable failures ([`ClientError::Remote`],
    /// [`ClientError::Protocol`]).
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.attempt(request) {
                Ok(response) => return Ok(response),
                Err(e) if e.is_retryable() => {
                    // The connection is dead (Io) or about to be closed
                    // by the server (Busy): reconnect on the next try.
                    self.conn = None;
                    if attempt >= max_attempts {
                        return Err(e);
                    }
                    self.retries += 1;
                    let mut delay = self.policy.backoff_ms(attempt);
                    if let ClientError::Busy { retry_after_ms } = e {
                        self.busy_retries += 1;
                        delay = delay.max(retry_after_ms);
                    }
                    std::thread::sleep(Duration::from_millis(delay));
                }
                Err(e) => {
                    if matches!(e, ClientError::Protocol(_)) {
                        // The stream is desynchronized; don't reuse it.
                        self.conn = None;
                    }
                    return Err(e);
                }
            }
        }
    }

    fn attempt(&mut self, request: &Request) -> Result<Response, ClientError> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect_wire(
                self.addr.as_str(),
                self.timeouts,
                self.wire,
            )?);
        }
        self.conn
            .as_mut()
            .expect("connection just established")
            .call_ok(request)
    }
}

/// Exact percentile over an already-sorted latency sample (nearest-rank on
/// the `(n - 1)`-scaled index; 0 for an empty sample).
pub fn percentile_us(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[percentile_rank(sorted.len(), pct)]
}

/// The sorted-order rank [`percentile_us`] reads for `pct` over `len`
/// samples. Shared with the server's latency ring so its select-nth
/// quantiles land on the very same element a full sort would pick.
pub(crate) fn percentile_rank(len: usize, pct: f64) -> usize {
    debug_assert!(len > 0);
    let idx = ((pct / 100.0) * (len - 1) as f64).round() as usize;
    idx.min(len - 1)
}

/// Whole-challenge `Attack` workload for [`bench`], replacing the default
/// synthetic `ScorePairs` stream. The challenge/truth strings are file
/// *contents* (the same text `splitmfg gen` writes), sent verbatim with
/// every request.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackWorkload {
    /// `.challenge` file contents (the attacker-visible FEOL view).
    pub challenge: String,
    /// `.truth` file contents (for the server-side accuracy summary).
    pub truth: String,
    /// Summary threshold sent with every request.
    pub threshold: f64,
    /// Request the complete scored view (`detail: true`) — much larger
    /// responses, exercising the dense `ScoredView` encoding.
    pub detail: bool,
}

impl Default for AttackWorkload {
    fn default() -> Self {
        Self {
            challenge: String::new(),
            truth: String::new(),
            threshold: 0.5,
            detail: false,
        }
    }
}

/// Load-test shape for [`bench`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests issued per connection.
    pub requests_per_connection: usize,
    /// Feature vectors per request (the per-request batch size for the
    /// `ScorePairs` workload; ignored for an attack workload).
    pub batch_size: usize,
    /// Seed for the synthetic feature vectors.
    pub seed: u64,
    /// Registry model id every request routes to; `None` targets the
    /// server's default model.
    pub model_id: Option<String>,
    /// Socket deadlines for every bench connection.
    pub timeouts: ClientTimeouts,
    /// Retry policy for every bench request (the per-connection jitter
    /// seed is further mixed with the connection index). Only the
    /// lockstep path (`pipeline == 1`) retries individual requests;
    /// pipelined connections reconnect and press on instead.
    pub retry: RetryPolicy,
    /// Wire format every bench connection speaks.
    pub wire: Wire,
    /// Requests kept in flight per connection. `1` (the default) is the
    /// classic lockstep loop; higher values send ahead through
    /// [`Client::send`] and drain replies in order, measuring the
    /// server's pipelining behavior.
    pub pipeline: usize,
    /// When set, every request is a whole-challenge `Attack` instead of
    /// a synthetic `ScorePairs` batch.
    pub attack: Option<AttackWorkload>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            connections: 4,
            requests_per_connection: 50,
            batch_size: 64,
            seed: 0xbe7c,
            model_id: None,
            timeouts: ClientTimeouts::default(),
            retry: RetryPolicy::default(),
            wire: Wire::Ndjson,
            pipeline: 1,
            attack: None,
        }
    }
}

/// Throughput / latency report of one [`bench`] run, JSON-serializable for
/// perf trajectory files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Wire format the run spoke (`ndjson` or `binary`).
    pub wire: String,
    /// Connections driven concurrently.
    pub connections: usize,
    /// Requests kept in flight per connection (1 = lockstep).
    pub pipeline: usize,
    /// Workload the run issued: `score_pairs` or `attack`.
    pub workload: String,
    /// The catalog id that served the run: the `--model-id` target when
    /// one was set, otherwise the server default reported by the `Health`
    /// probe.
    pub served_model: String,
    /// Total requests completed across all connections.
    pub total_requests: u64,
    /// Total candidate pairs scored (requests × batch size).
    pub total_pairs: u64,
    /// Requests that failed even after retries.
    pub errors: u64,
    /// Reconnect-and-retry attempts consumed across all connections
    /// (`Busy` sheds and transport failures that were recovered).
    pub retries: u64,
    /// Wall-clock duration of the whole run, seconds.
    pub wall_s: f64,
    /// Completed requests per second.
    pub requests_per_s: f64,
    /// Scored pairs per second.
    pub pairs_per_s: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Worst request latency, microseconds.
    pub max_us: u64,
    /// Mean rows per coalescing scoring invocation *during this run*,
    /// from the server's `batched_rows`/`score_batches` deltas between
    /// the pre- and post-run `Stats` probes. `0` when the probes failed
    /// or no coalescible scoring happened.
    pub mean_batch_fill: f64,
    /// The server's own counters sampled right after the run (shed /
    /// timed-out / failed connections are visible here), when the final
    /// `Stats` probe succeeded.
    pub server_stats: Option<StatsSnapshot>,
}

impl std::fmt::Display for BenchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pipe = if self.pipeline > 1 {
            format!(", pipeline {}", self.pipeline)
        } else {
            String::new()
        };
        writeln!(
            f,
            "{} connections ({}, {}{}), {} requests ({} pairs), {} errors, {} retries in {:.3} s \
             [model {}]",
            self.connections,
            self.wire,
            self.workload,
            pipe,
            self.total_requests,
            self.total_pairs,
            self.errors,
            self.retries,
            self.wall_s,
            self.served_model
        )?;
        writeln!(
            f,
            "throughput : {:.0} req/s, {:.0} pairs/s",
            self.requests_per_s, self.pairs_per_s
        )?;
        write!(
            f,
            "latency    : p50 {} us, p95 {} us, p99 {} us, max {} us",
            self.p50_us, self.p95_us, self.p99_us, self.max_us
        )?;
        if let Some(stats) = &self.server_stats {
            write!(
                f,
                "\nserver     : {} requests, {} errors, {} io_errors, {} shed, {} timeouts",
                stats.requests, stats.errors, stats.io_errors, stats.shed, stats.timeouts
            )?;
        }
        if self.mean_batch_fill > 0.0 {
            write!(
                f,
                "\nbatching   : {:.1} rows/kernel call",
                self.mean_batch_fill
            )?;
        }
        Ok(())
    }
}

/// Drives `connections` concurrent clients against a running server,
/// each issuing `requests_per_connection` requests of the configured
/// workload (synthetic `ScorePairs` batches by default, whole-challenge
/// `Attack`s via [`BenchConfig::attack`]), lockstep or pipelined, and
/// reports throughput, latency percentiles, retries, and the server's
/// post-run counters.
///
/// # Errors
///
/// Returns [`ClientError`] if the initial `Health` probe fails (no server
/// or wrong protocol); per-request failures during the run are counted in
/// the report instead.
pub fn bench(addr: &str, config: &BenchConfig) -> Result<BenchReport, ClientError> {
    // One up-front probe learns the model's feature count and fails fast.
    // With an explicit target, ListModels resolves that entry's feature
    // count (models in one registry may disagree on width); otherwise
    // Health describes the default model.
    let mut probe = Client::connect_with(addr, config.timeouts)?;
    let (served_model, features) = match &config.model_id {
        None => match probe.call_ok(&Request::Health)? {
            Response::Health {
                model_id, features, ..
            } => (model_id, features),
            other => {
                return Err(ClientError::Protocol(format!(
                    "health probe answered with unexpected response {other:?}"
                )))
            }
        },
        Some(target) => match probe.call_ok(&Request::ListModels)? {
            Response::Models { models, .. } => {
                let entry = models
                    .iter()
                    .find(|m| &m.model_id == target)
                    .ok_or_else(|| ClientError::Remote {
                        code: ErrorCode::NotFound,
                        message: format!("model '{target}' is not in the serving catalog"),
                    })?;
                (entry.model_id.clone(), entry.features)
            }
            other => {
                return Err(ClientError::Protocol(format!(
                    "model listing answered with unexpected response {other:?}"
                )))
            }
        },
    };
    // A pre-run Stats sample turns the post-run counters into *this
    // run's* deltas (batch fill would otherwise smear across runs
    // against a long-lived server). Best-effort like the post-run probe.
    let pre_stats = match probe.call_ok(&Request::Stats) {
        Ok(Response::Stats { stats }) => Some(stats),
        _ => None,
    };
    drop(probe);
    let start = Instant::now();
    let per_conn: Vec<ConnOutcome> = sm_ml::par_map(
        sm_ml::Parallelism::Threads(config.connections.max(1)),
        config.connections,
        |conn| {
            let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ ((conn as u64) << 17));
            if config.pipeline <= 1 {
                bench_conn_lockstep(addr, config, conn, features, &mut rng)
            } else {
                bench_conn_pipelined(addr, config, features, &mut rng)
            }
        },
    );
    let wall_s = start.elapsed().as_secs_f64();
    let mut latencies: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    let mut retries = 0u64;
    let mut total_pairs = 0u64;
    for out in per_conn {
        latencies.extend(out.latencies);
        errors += out.errors;
        retries += out.retries;
        total_pairs += out.pairs;
    }
    latencies.sort_unstable();
    let total_requests = latencies.len() as u64;
    let server_stats = match Client::connect_with(addr, config.timeouts)
        .and_then(|mut c| c.call_ok(&Request::Stats))
    {
        Ok(Response::Stats { stats }) => Some(stats),
        _ => None,
    };
    let mean_batch_fill = match (&pre_stats, &server_stats) {
        (Some(pre), Some(post)) => {
            let calls = post.score_batches.saturating_sub(pre.score_batches);
            let rows = post.batched_rows.saturating_sub(pre.batched_rows);
            if calls == 0 {
                0.0
            } else {
                rows as f64 / calls as f64
            }
        }
        _ => 0.0,
    };
    let workload = if config.attack.is_some() {
        "attack".to_owned()
    } else {
        "score_pairs".to_owned()
    };
    Ok(BenchReport {
        wire: config.wire.as_str().to_owned(),
        connections: config.connections,
        pipeline: config.pipeline.max(1),
        workload,
        served_model,
        total_requests,
        total_pairs,
        errors,
        retries,
        wall_s,
        requests_per_s: total_requests as f64 / wall_s.max(1e-9),
        pairs_per_s: total_pairs as f64 / wall_s.max(1e-9),
        p50_us: percentile_us(&latencies, 50.0),
        p95_us: percentile_us(&latencies, 95.0),
        p99_us: percentile_us(&latencies, 99.0),
        max_us: latencies.last().copied().unwrap_or(0),
        mean_batch_fill,
        server_stats,
    })
}

/// What one bench connection produced: per-request latencies for the
/// successful requests, plus error/retry/pair totals.
struct ConnOutcome {
    latencies: Vec<u64>,
    errors: u64,
    retries: u64,
    pairs: u64,
}

/// Builds the next request of the configured workload.
fn build_request(config: &BenchConfig, features: usize, rng: &mut ChaCha8Rng) -> Request {
    match &config.attack {
        None => Request::ScorePairs {
            features: (0..config.batch_size)
                .map(|_| (0..features).map(|_| rng.gen_range(0.0..5000.0)).collect())
                .collect(),
            model_id: config.model_id.clone(),
        },
        Some(w) => Request::Attack {
            challenge: w.challenge.clone(),
            truth: w.truth.clone(),
            threshold: w.threshold,
            detail: w.detail,
            model_id: config.model_id.clone(),
        },
    }
}

/// Pairs credited by a successful reply of the configured workload, or
/// `None` when the reply does not answer that workload (an error, a
/// `Busy`, or a mismatched variant).
fn reply_pairs(config: &BenchConfig, response: &Response) -> Option<u64> {
    match (response, &config.attack) {
        (Response::Scores { probs }, None) => Some(probs.len() as u64),
        (Response::AttackResult { summary, .. }, Some(_)) => Some(summary.pairs_scored),
        _ => None,
    }
}

fn elapsed_us(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The classic lockstep loop: one request in flight, full retry policy.
fn bench_conn_lockstep(
    addr: &str,
    config: &BenchConfig,
    conn: usize,
    features: usize,
    rng: &mut ChaCha8Rng,
) -> ConnOutcome {
    let mut out = ConnOutcome {
        latencies: Vec::with_capacity(config.requests_per_connection),
        errors: 0,
        retries: 0,
        pairs: 0,
    };
    let policy = RetryPolicy {
        jitter_seed: config.retry.jitter_seed ^ ((conn as u64) << 23),
        ..config.retry
    };
    let mut client = RetryingClient::new_wire(addr, config.timeouts, policy, config.wire);
    for _ in 0..config.requests_per_connection {
        let request = build_request(config, features, rng);
        let t = Instant::now();
        match client.call(&request) {
            Ok(reply) => match reply_pairs(config, &reply) {
                Some(pairs) => {
                    out.pairs += pairs;
                    out.latencies.push(elapsed_us(t));
                }
                None => out.errors += 1,
            },
            Err(_) => out.errors += 1,
        }
    }
    out.retries = client.retries();
    out
}

/// The pipelined loop: up to `config.pipeline` requests in flight on one
/// connection, replies drained strictly in order. A transport failure
/// voids every in-flight request (their replies will never arrive),
/// reconnects, and presses on — individual requests are not retried, so
/// the measured stream stays back-to-back.
fn bench_conn_pipelined(
    addr: &str,
    config: &BenchConfig,
    features: usize,
    rng: &mut ChaCha8Rng,
) -> ConnOutcome {
    let mut out = ConnOutcome {
        latencies: Vec::with_capacity(config.requests_per_connection),
        errors: 0,
        retries: 0,
        pairs: 0,
    };
    let total = config.requests_per_connection;
    let window = config.pipeline.max(1);
    let mut issued = 0usize;
    loop {
        let mut client = match Client::connect_wire(addr, config.timeouts, config.wire) {
            Ok(c) => c,
            Err(_) => {
                // A refused connect burns one request slot so a dead
                // server terminates the loop instead of spinning.
                out.errors += 1;
                issued += 1;
                if issued >= total {
                    return out;
                }
                continue;
            }
        };
        let mut inflight: std::collections::VecDeque<Instant> = std::collections::VecDeque::new();
        let mut broken = false;
        while issued < total || !inflight.is_empty() {
            // Fill the window before draining the oldest reply.
            if issued < total && inflight.len() < window {
                let request = build_request(config, features, rng);
                issued += 1;
                if client.send(&request).is_err() {
                    // The failed send plus everything in flight dies.
                    out.errors += 1 + inflight.len() as u64;
                    inflight.clear();
                    broken = true;
                    break;
                }
                inflight.push_back(Instant::now());
                continue;
            }
            let t = inflight.pop_front().expect("drain implies in-flight");
            match client.recv() {
                Ok(reply) => match reply_pairs(config, &reply) {
                    Some(pairs) => {
                        out.pairs += pairs;
                        out.latencies.push(elapsed_us(t));
                    }
                    None => out.errors += 1,
                },
                Err(_) => {
                    // Everything still in flight dies with the stream.
                    out.errors += 1 + inflight.len() as u64;
                    inflight.clear();
                    broken = true;
                    break;
                }
            }
        }
        if !broken || issued >= total {
            return out;
        }
        out.retries += 1; // one reconnect consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    use rand::RngCore;
    use sm_attack::attack::{Cand, VpinScore};
    use sm_attack::ScoredView;

    #[test]
    fn percentiles_pick_expected_ranks() {
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&lat, 0.0), 1);
        assert_eq!(percentile_us(&lat, 50.0), 51); // round(0.5 * 99) = 50
        assert_eq!(percentile_us(&lat, 100.0), 100);
        assert_eq!(percentile_us(&[], 50.0), 0);
        assert_eq!(percentile_us(&[7], 99.0), 7);
    }

    #[test]
    fn bench_report_renders_every_number() {
        let report = BenchReport {
            wire: "binary".into(),
            connections: 2,
            pipeline: 8,
            workload: "attack".into(),
            served_model: "incumbent".into(),
            total_requests: 10,
            total_pairs: 640,
            errors: 1,
            retries: 3,
            wall_s: 0.5,
            requests_per_s: 20.0,
            pairs_per_s: 1280.0,
            p50_us: 10,
            p95_us: 20,
            p99_us: 30,
            max_us: 40,
            mean_batch_fill: 96.5,
            server_stats: Some(StatsSnapshot {
                requests: 11,
                errors: 1,
                io_errors: 2,
                shed: 3,
                timeouts: 4,
                ..StatsSnapshot::default()
            }),
        };
        let text = report.to_string();
        for needle in [
            "2 connections (binary, attack, pipeline 8)",
            "1 errors",
            "3 retries",
            "p95 20 us",
            "1280 pairs/s",
            "3 shed",
            "4 timeouts",
            "[model incumbent]",
            "96.5 rows/kernel call",
        ] {
            assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
        }
        let back: BenchReport =
            serde_json::from_str(&serde_json::to_string(&report).expect("ser")).expect("de");
        assert_eq!(report, back);
    }

    #[test]
    fn send_recv_pipelines_replies_in_request_order() {
        // An NDJSON peer that answers each line with an identifying
        // Scores reply: three pipelined sends must drain as replies
        // 0, 1, 2 — the ordering contract the pipelined bench rests on.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            for k in 0..u32::MAX {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                let reply = Response::Scores {
                    probs: vec![f64::from(k)],
                };
                let mut out = serde_json::to_string(&reply).expect("ser");
                out.push('\n');
                if (&stream).write_all(out.as_bytes()).is_err() {
                    return;
                }
            }
        });
        let timeouts = ClientTimeouts {
            connect_ms: 2_000,
            io_ms: 2_000,
        };
        let mut client = Client::connect_with(addr.to_string(), timeouts).expect("connects");
        for _ in 0..3 {
            client.send(&Request::Health).expect("pipelined send");
        }
        for k in 0..3u32 {
            match client.recv().expect("reply arrives") {
                Response::Scores { probs } => assert_eq!(probs, vec![f64::from(k)]),
                other => panic!("unexpected reply: {other:?}"),
            }
        }
    }

    #[test]
    fn a_declared_length_past_what_arrives_is_io_not_an_allocation() {
        // A peer that answers with one header declaring a u32::MAX-byte
        // payload and then closes: the client must not reserve the
        // declared 4 GiB up front, only hold what arrives and report
        // the short frame as a typed i/o error.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            let mut header = [0u8; binary::HEADER_LEN];
            (&stream).read_exact(&mut header).expect("request header");
            let h = binary::decode_header(header, 1 << 20).expect("valid request header");
            let mut payload = vec![0u8; h.len as usize];
            (&stream).read_exact(&mut payload).expect("request payload");
            let mut reply = binary::encode_header(binary::FRAME_JSON_RESPONSE, u32::MAX).to_vec();
            reply.extend_from_slice(b"{\"Health\"");
            (&stream).write_all(&reply).expect("reply");
        });
        let timeouts = ClientTimeouts {
            connect_ms: 2_000,
            io_ms: 2_000,
        };
        let mut client = Client::connect_wire(addr, timeouts, Wire::Binary).expect("connects");
        let err = client.call(&Request::Health).expect_err("short frame");
        assert!(matches!(err, ClientError::Io(_)), "{err:?}");
        peer.join().expect("peer thread");
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
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert_eq!(RetryPolicy::with_retries(0).max_attempts, 1);
        assert_eq!(RetryPolicy::with_retries(3).max_attempts, 4);
        assert_eq!(RetryPolicy::with_retries(u32::MAX).max_attempts, u32::MAX);
    }

    #[test]
    fn error_classification_matches_the_retry_rule() {
        let io = ClientError::Io(std::io::Error::other("x"));
        let busy = ClientError::Busy { retry_after_ms: 5 };
        let remote = ClientError::Remote {
            code: ErrorCode::BadRequest,
            message: "nope".into(),
        };
        let protocol = ClientError::Protocol("garbled".into());
        assert!(io.is_retryable());
        assert!(busy.is_retryable());
        assert!(!remote.is_retryable(), "semantic errors are final");
        assert!(!protocol.is_retryable());
        assert!(busy.to_string().contains("retry after 5 ms"));
        assert!(remote.to_string().contains("[bad_request]"));
    }

    /// A canned `Health` reply with placeholder identity fields.
    fn health_reply(model: &str, features: usize, trees: usize) -> Response {
        Response::Health {
            model: model.into(),
            features,
            trees,
            artifact_version: 1,
            model_id: "default".into(),
            checksum: "fnv1a64:0000000000000000".into(),
            schema_version: 1,
        }
    }

    /// A scripted single-shot TCP peer: for each accepted connection it
    /// sends the next canned reply line after reading one line, then
    /// closes. Lets retry behavior be tested without a real model.
    fn scripted_server(replies: Vec<Option<Response>>) -> std::net::SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            for reply in replies {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = String::new();
                let _ = reader.read_line(&mut line);
                if let Some(response) = reply {
                    let mut out = serde_json::to_string(&response).expect("ser");
                    out.push('\n');
                    let _ = (&stream).write_all(out.as_bytes());
                }
                // `None` (and fall-through) close the connection.
            }
        });
        addr
    }

    #[test]
    fn busy_then_success_costs_exactly_one_retry() {
        let addr = scripted_server(vec![
            Some(Response::Busy { retry_after_ms: 1 }),
            Some(health_reply("Imp-9", 9, 10)),
        ]);
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 1,
            max_backoff_ms: 2,
            jitter_seed: 7,
        };
        let mut client = RetryingClient::new(
            &addr.to_string(),
            ClientTimeouts {
                connect_ms: 2_000,
                io_ms: 2_000,
            },
            policy,
        );
        match client.call(&Request::Health).expect("retry succeeds") {
            Response::Health { model, .. } => assert_eq!(model, "Imp-9"),
            other => panic!("unexpected reply: {other:?}"),
        }
        assert_eq!(client.retries(), 1, "exactly one retry consumed");
    }

    #[test]
    fn remote_errors_are_never_retried() {
        let addr = scripted_server(vec![
            Some(Response::Error {
                code: ErrorCode::BadRequest,
                message: "bad batch".into(),
            }),
            // A second accept would absorb an (incorrect) retry; the
            // assertion on retries() proves it was never consumed.
            Some(health_reply("never", 0, 0)),
        ]);
        let mut client = RetryingClient::new(
            &addr.to_string(),
            ClientTimeouts {
                connect_ms: 2_000,
                io_ms: 2_000,
            },
            RetryPolicy {
                max_attempts: 5,
                base_backoff_ms: 1,
                max_backoff_ms: 2,
                jitter_seed: 7,
            },
        );
        let err = client.call(&Request::Health).expect_err("remote is final");
        assert!(
            matches!(
                err,
                ClientError::Remote {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(client.retries(), 0);
    }

    #[test]
    fn not_found_is_a_final_typed_remote_error() {
        // `not_found` is a routing mistake, not congestion: it must
        // surface as ClientError::Remote on the first attempt and never
        // be retried the way Busy is — the id stays absent until a
        // reload publishes it, so retrying is pure waste.
        let err = ClientError::Remote {
            code: ErrorCode::NotFound,
            message: "model 'ghost' not found".into(),
        };
        assert!(!err.is_retryable());
        assert!(!ErrorCode::NotFound.retryable());
        assert!(err.to_string().contains("[not_found]"));

        let addr = scripted_server(vec![
            Some(Response::Error {
                code: ErrorCode::NotFound,
                message: "model 'ghost' not found in the serving catalog".into(),
            }),
            // Bait for an incorrect retry, like the remote-error test.
            Some(health_reply("never", 0, 0)),
        ]);
        let mut client = RetryingClient::new(
            &addr.to_string(),
            ClientTimeouts {
                connect_ms: 2_000,
                io_ms: 2_000,
            },
            RetryPolicy {
                max_attempts: 5,
                base_backoff_ms: 1,
                max_backoff_ms: 2,
                jitter_seed: 11,
            },
        );
        let request = Request::ScorePairs {
            features: vec![vec![1.0]],
            model_id: Some("ghost".into()),
        };
        let err = client.call(&request).expect_err("not_found is final");
        assert!(
            matches!(
                err,
                ClientError::Remote {
                    code: ErrorCode::NotFound,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(client.retries(), 0, "never retried");
        assert_eq!(client.busy_retries(), 0);
    }

    #[test]
    fn attempts_are_bounded_when_every_try_fails() {
        // Three Busy replies, then the server thread stops accepting: a
        // 3-attempt policy must consume exactly 2 retries and surface
        // the last Busy.
        let addr = scripted_server(vec![
            Some(Response::Busy { retry_after_ms: 1 }),
            Some(Response::Busy { retry_after_ms: 1 }),
            Some(Response::Busy { retry_after_ms: 1 }),
        ]);
        let mut client = RetryingClient::new(
            &addr.to_string(),
            ClientTimeouts {
                connect_ms: 2_000,
                io_ms: 2_000,
            },
            RetryPolicy {
                max_attempts: 3,
                base_backoff_ms: 1,
                max_backoff_ms: 2,
                jitter_seed: 9,
            },
        );
        let err = client.call(&Request::Health).expect_err("exhausts");
        assert!(matches!(err, ClientError::Busy { .. }), "{err}");
        assert_eq!(client.retries(), 2, "max_attempts bounds total work");
    }

    thread_local! {
        /// The largest single allocation this thread has requested since
        /// the last reset.
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    /// Forwards to `System`, noting each request's size in [`LARGEST`].
    struct LargestAllocation;

    fn note(size: usize) {
        // A const-initialized `Cell` needs no allocation to reach, and
        // `try_with` is a no-op while the thread is being torn down.
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    }

    // SAFETY: every method forwards its arguments to `System` unchanged
    // and returns what `System` returned.
    unsafe impl GlobalAlloc for LargestAllocation {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOCATOR: LargestAllocation = LargestAllocation;

    /// Parses `bytes` as one reply on `wire`: the result must be `Ok` or
    /// a typed `Io`/`Protocol` error, and no single allocation may exceed
    /// a bound linear in the bytes given (a declared length is not one).
    fn parse_checked(bytes: &[u8], wire: Wire, what: &str) {
        LARGEST.with(|l| l.set(0));
        let result = read_reply(&mut &bytes[..], wire);
        let largest = LARGEST.with(Cell::get);
        assert!(
            matches!(
                result,
                Ok(_) | Err(ClientError::Io(_) | ClientError::Protocol(_))
            ),
            "{wire:?} {what}: {result:?}"
        );
        assert!(
            largest <= 4096 + 16 * bytes.len(),
            "{wire:?} {what}: a {largest}-byte allocation for {} bytes",
            bytes.len()
        );
    }

    /// One valid reply of each shape, as each wire carries it.
    fn valid_replies(wire: Wire) -> Vec<Vec<u8>> {
        let scored = ScoredView {
            slots: vec![
                VpinScore {
                    vpin: 0,
                    true_prob: Some(0.75),
                    top: vec![Cand {
                        p: 0.75,
                        index: 1,
                        dist: 12,
                    }],
                },
                VpinScore {
                    vpin: 1,
                    true_prob: None,
                    top: Vec::new(),
                },
            ],
            hist: vec![1, 0, 2],
            num_view_vpins: 2,
            pairs_scored: 3,
        };
        let replies = [
            health_reply("Imp-9", 9, 4),
            Response::Scores {
                probs: vec![0.25, 1.0],
            },
            Response::AttackResult {
                summary: crate::protocol::AttackSummary {
                    design: "sb1".into(),
                    num_vpins: 2,
                    pairs_scored: 3,
                    threshold: 0.5,
                    accuracy: 0.5,
                    mean_loc: 1.5,
                    max_accuracy: 0.5,
                },
                scored: Some(scored),
            },
            Response::Busy { retry_after_ms: 50 },
            Response::Error {
                code: ErrorCode::BadRequest,
                message: "no".into(),
            },
        ];
        let line = |r: &Response| format!("{}\n", serde_json::to_string(r).expect("ser"));
        let mut out: Vec<Vec<u8>> = replies
            .iter()
            .map(|r| match wire {
                Wire::Ndjson => line(r).into_bytes(),
                Wire::Binary => binary::encode_response(r),
            })
            .collect();
        if wire == Wire::Binary {
            // A shed server's NDJSON Busy line reaches binary clients too.
            out.push(line(&Response::Busy { retry_after_ms: 50 }).into_bytes());
        }
        out
    }

    /// The reply parser is a decoder of untrusted bytes: valid replies
    /// parse, and arbitrary bytes, every truncation of a valid reply and
    /// every single-byte change of one give `Ok` or a typed
    /// `Io`/`Protocol` error, never a panic, and never an allocation sized
    /// by a declared length.
    #[test]
    fn reply_parser_is_typed_and_bounded_on_any_bytes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7e9);
        for wire in [Wire::Ndjson, Wire::Binary] {
            for _ in 0..2_000 {
                let mut bytes = vec![0u8; rng.gen_range(0..48usize)];
                rng.fill_bytes(&mut bytes);
                if bytes.len() >= binary::HEADER_LEN && rng.gen_bool(0.5) {
                    // A well-formed header declaring any length.
                    let len = rng.next_u32();
                    let frame_type = [
                        binary::FRAME_JSON_RESPONSE,
                        binary::FRAME_SCORES,
                        binary::FRAME_ATTACK_RESULT,
                    ][rng.gen_range(0..3usize)];
                    bytes[..binary::HEADER_LEN]
                        .copy_from_slice(&binary::encode_header(frame_type, len));
                }
                parse_checked(&bytes, wire, "arbitrary bytes");
            }
            let declared = binary::encode_header(binary::FRAME_SCORES, u32::MAX);
            parse_checked(&declared, wire, "4 GiB declared");
            for reply in valid_replies(wire) {
                let parsed = read_reply(&mut &reply[..], wire);
                assert!(parsed.is_ok(), "{wire:?}: {parsed:?}");
                for cut in 0..reply.len() {
                    parse_checked(&reply[..cut], wire, &format!("cut at {cut}"));
                }
                for at in 0..reply.len() {
                    let mut changed = reply.clone();
                    for b in 0..=u8::MAX {
                        if b != reply[at] {
                            changed[at] = b;
                            parse_checked(&changed, wire, &format!("byte {at} = {b}"));
                        }
                    }
                }
            }
        }
    }
}
