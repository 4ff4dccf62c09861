//! One server connection's protocol logic, without I/O: the sans-io
//! state machine (<https://sans-io.readthedocs.io/>) behind every
//! connection the reactor in [`crate::server`] owns.
//!
//! A [`Session`] holds no socket, no channel and no thread, and never
//! reads the clock: time is always an argument. Its inputs are the bytes
//! a read returned, the peer's EOF, the bytes a write took, a clock tick
//! and a job completion. Its outputs are reply bytes in its write buffer,
//! at most one decoded request per frame (handed to a router), at most
//! one job in flight, a close decision, and increments on the shared
//! [`Counters`].
//!
//! Each connection is a small state machine — read buffer → framed
//! request → router → write buffer — with the wire format detected from
//! the first byte (`0xB5` means binary v2, anything else NDJSON) and
//! sticky for the connection's life. Framing is zero-copy
//! ([`ReadBuf`]): frames are borrowed slices of the read buffer, and a
//! dense `SCORE_PAIRS` frame reaches the router as a borrowed row view.
//! The router answers most requests inline (the server's router scores
//! `ScorePairs` there too); a request it turns into a job (the server's
//! `Attack`) pauses request intake until its completion returns, so
//! pipelined bytes wait in the read buffer and replies keep request
//! order.
//!
//! Deadlines: an *idle* deadline between requests, a stricter
//! *mid-request* deadline from the first byte of a request (slow-loris
//! defence), and a write-stall deadline while a reply drains, restarted
//! by write progress. Request payloads are capped at
//! [`Limits::max_request_bytes`]; a binary header declaring more is
//! rejected before any payload is buffered.
//!
//! Every incident lands in exactly one row of the counter contract:
//!
//! | Incident | Reply | Counters |
//! |---|---|---|
//! | request answered (inline or by a job) | the answer | `requests` |
//! | request refused (malformed, unknown model, bad row width) | `BadRequest`/`NotFound` | `requests` + `errors` |
//! | binary header with bad magic, version or type | `BadRequest`, then close | `requests` + `errors` |
//! | request past the byte cap | `TooLarge`, then close | `errors` |
//! | NDJSON reply past [`MAX_REPLY_LINE_BYTES`] | `TooLarge` in its place | `requests` + `errors` |
//! | request stalled past the mid-request deadline | `Timeout`, then close | `timeouts` + `errors` |
//! | EOF inside a frame (torn frame), socket failure, stalled reply write | close | `io_errors` |
//! | idle deadline, EOF between requests | close | — |
//!
//! Every counted request also records one latency sample in the
//! [`LatencyHistogram`], from the moment its frame was split off the
//! buffer to the moment its reply was queued.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::framing::{Frame, ReadBuf, Split};
use crate::protocol::{binary, ErrorCode, Request, Response, Wire, MAX_REPLY_LINE_BYTES};

/// The per-connection deadlines and cap a session enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Limits {
    /// Mid-request and write-stall deadline; `None` disables both.
    pub(crate) request_timeout: Option<Duration>,
    /// Idle deadline between requests; `None` disables it.
    pub(crate) idle_timeout: Option<Duration>,
    /// The most payload bytes one request may carry.
    pub(crate) max_request_bytes: usize,
}

/// The counters sessions write, shared by every connection of a server.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) requests: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) io_errors: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) latencies_us: LatencyHistogram,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The rank a full sort would read for percentile `pct` of `len` samples:
/// nearest rank on the `(len - 1)`-scaled index. The latency percentiles
/// of [`crate::protocol::StatsSnapshot`] are read at that rank, and load
/// drivers index their sorted samples with it to report the same
/// statistic. 0 when `len` is 0.
#[must_use]
pub fn percentile_rank(len: usize, pct: f64) -> usize {
    let last = len.saturating_sub(1);
    let idx = ((pct / 100.0) * last as f64).round() as usize;
    idx.min(last)
}

/// Bits of sub-bucket index per power-of-two range of the histogram.
const SUB_BUCKET_BITS: u32 = 6;

/// Buckets of a [`LatencyHistogram`]: 128 exact ones, then 64 for each of
/// the 57 ranges `[2^k, 2^(k+1))`, `k = 7..=63` (3,776 in all).
const LATENCY_BUCKETS: usize = bucket_of(u64::MAX) + 1;

/// The bucket holding `v`: `v` itself below 128, else 64 buckets per
/// power of two, each `2^(k-6)` wide for values in `[2^k, 2^(k+1))`.
const fn bucket_of(v: u64) -> usize {
    let shift = (u64::BITS - v.leading_zeros()).saturating_sub(SUB_BUCKET_BITS + 1);
    ((shift as usize) << SUB_BUCKET_BITS) + (v >> shift) as usize
}

/// The smallest value [`bucket_of`] maps to `bucket`.
fn bucket_floor(bucket: usize) -> u64 {
    let shift = (bucket >> SUB_BUCKET_BITS).saturating_sub(1);
    ((bucket - (shift << SUB_BUCKET_BITS)) as u64) << shift
}

/// Every request latency since the server started, in fixed log-linear
/// buckets as in HdrHistogram (<http://hdrhistogram.org/>). Values below
/// 128 µs are exact; above, a bucket's lower bound is less than 1/64
/// below any value in it. Recording is two relaxed atomic updates, with
/// no lock; the memory (about 30 KiB) is fixed at construction.
pub(crate) struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: (0..LATENCY_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            max: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    pub(crate) fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(us, Ordering::Relaxed);
    }

    /// The number of samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// `[p50, p95, p99, max]`. Each percentile is the lower bound of the
    /// bucket holding the sample a full sort would read at
    /// [`percentile_rank`]; the max is exact. All zero when empty.
    pub(crate) fn quantiles(&self) -> [u64; 4] {
        let n = self.count();
        let mut out = [0; 4];
        let ranks = [50.0, 95.0, 99.0].map(|pct| percentile_rank(n as usize, pct) as u64);
        // Buckets only grow, so this walk reaches at least `n` samples
        // even while other threads record.
        let (mut seen, mut next) = (0u64, 0);
        for (bucket, count) in self.buckets.iter().enumerate() {
            seen += count.load(Ordering::Relaxed);
            while next < ranks.len() && ranks[next] < seen {
                out[next] = bucket_floor(bucket);
                next += 1;
            }
            if next == ranks.len() {
                break;
            }
        }
        out[3] = self.max.load(Ordering::Relaxed);
        out
    }
}

/// What the router is handed for one frame.
#[derive(Debug)]
pub(crate) enum Decoded<'a> {
    /// A request decoded from an NDJSON line or a binary `0x01`/`0x03`
    /// frame.
    Request(Request),
    /// A dense `SCORE_PAIRS` frame: its rows are still bytes in the read
    /// buffer.
    ScorePairs(binary::ScorePairsView<'a>),
}

/// The router's answer to one decoded request.
#[derive(Debug)]
pub(crate) enum Routed<J> {
    /// Answer inline.
    Reply(Box<Response>),
    /// Run `J` off the connection; its reply arrives through
    /// [`Session::complete`].
    Job(J),
    /// Acknowledge with `ShuttingDown`, then close.
    Shutdown,
}

/// What one [`Session::process`] walk produced beyond its replies.
#[derive(Debug)]
pub(crate) struct Turn<J> {
    /// Complete frames may remain buffered: the frame budget ran out.
    pub(crate) more: bool,
    /// A job to dispatch, with the instant its request started (the
    /// latency clock's start).
    pub(crate) job: Option<(J, Instant)>,
    /// A `Shutdown` request was acknowledged.
    pub(crate) shutdown: bool,
}

/// Where a connection's state machine stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between requests since the instant; the idle deadline applies.
    Idle(Instant),
    /// A request's first byte arrived at the instant but the frame is
    /// incomplete; the mid-request deadline applies.
    Receiving(Instant),
    /// A job is in flight; reads pause for backpressure and no deadline
    /// but the write stall applies (a job's run time is unbounded).
    Processing,
    /// A final reply is queued (`Shutdown`, `TooLarge`, `Timeout`, lost
    /// framing); close once it drains.
    Closing,
    /// Done; the reactor drops the connection.
    Closed,
}

/// One connection's protocol state.
#[derive(Debug)]
pub(crate) struct Session {
    limits: Limits,
    /// Detected wire format; `None` until the first byte arrives.
    wire: Option<Wire>,
    rbuf: ReadBuf,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written.
    wpos: usize,
    phase: Phase,
    /// Deadline for the current reply drain; `None` when `wbuf` is empty
    /// or the request deadline is disabled.
    write_deadline: Option<Instant>,
    /// The peer sent EOF: serve out buffered complete requests, then
    /// close.
    eof: bool,
    /// The last walk stopped on the frame budget.
    more: bool,
    /// Whether a failed write counts as an `io_error`: true while a
    /// counted request's reply is pending. The best-effort `TooLarge`
    /// and `Timeout` replies are already counted.
    io_on_write_fail: bool,
}

impl Session {
    /// A fresh connection, idle since `now`.
    pub(crate) fn new(limits: Limits, now: Instant) -> Self {
        Self {
            limits,
            wire: None,
            rbuf: ReadBuf::default(),
            wbuf: Vec::new(),
            wpos: 0,
            phase: Phase::Idle(now),
            write_deadline: None,
            eof: false,
            more: false,
            io_on_write_fail: false,
        }
    }

    /// Whether the session takes more bytes: not after EOF, not while a
    /// job is in flight, not once closing.
    pub(crate) fn wants_read(&self) -> bool {
        !self.eof && matches!(self.phase, Phase::Idle(_) | Phase::Receiving(_))
    }

    /// Backpressure: one request's cap (plus a frame header) of unread
    /// bytes is buffered, so reading stops until processing drains them.
    pub(crate) fn read_buffer_full(&self) -> bool {
        self.rbuf.len() > self.limits.max_request_bytes + binary::HEADER_LEN
    }

    /// Whether reply bytes wait to be written.
    pub(crate) fn wants_write(&self) -> bool {
        self.phase != Phase::Closed && self.wpos < self.wbuf.len()
    }

    /// The reply bytes not yet written.
    pub(crate) fn unsent(&self) -> &[u8] {
        &self.wbuf[self.wpos..]
    }

    /// Whether the reactor should drop the connection.
    pub(crate) fn is_closed(&self) -> bool {
        self.phase == Phase::Closed
    }

    /// The earliest instant at which [`Session::tick`] has work to do.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        let phase = match self.phase {
            Phase::Idle(since) => self.limits.idle_timeout.map(|t| since + t),
            Phase::Receiving(started) => self.limits.request_timeout.map(|t| started + t),
            Phase::Processing | Phase::Closing | Phase::Closed => None,
        };
        phase.into_iter().chain(self.write_deadline).min()
    }

    /// Bytes a read returned at `now`. A request has started: the
    /// mid-request clock runs.
    pub(crate) fn received(&mut self, bytes: &[u8], now: Instant) {
        self.rbuf.push(bytes);
        if let Phase::Idle(_) = self.phase {
            self.phase = Phase::Receiving(now);
        }
    }

    /// The peer's EOF.
    pub(crate) fn received_eof(&mut self) {
        self.eof = true;
    }

    /// A read failed: the connection is broken.
    pub(crate) fn read_failed(&mut self, counters: &Counters) {
        Counters::bump(&counters.io_errors);
        self.phase = Phase::Closed;
    }

    /// A write took `n` bytes of [`Session::unsent`] at `now`. Progress
    /// restarts the write-stall clock.
    pub(crate) fn sent(&mut self, n: usize, now: Instant) {
        self.wpos += n;
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            self.write_deadline = None;
            self.io_on_write_fail = false;
        } else {
            self.write_deadline = self.limits.request_timeout.map(|t| now + t);
        }
    }

    /// A write failed or the peer stopped taking bytes: the connection
    /// is broken.
    pub(crate) fn write_failed(&mut self, counters: &Counters) {
        if self.io_on_write_fail {
            Counters::bump(&counters.io_errors);
        }
        self.phase = Phase::Closed;
    }

    /// Consumes complete frames until the buffer runs dry, a job goes in
    /// flight, `budget` frames are spent or the connection turns
    /// unrecoverable. Each frame is decoded and handed to `route`;
    /// `clock` stamps latency and deadlines.
    ///
    /// Zero-copy: the read buffer is taken out of the session and walked,
    /// and every frame is handed on as a borrowed slice. The cursor
    /// persists across walks, so a walk that takes one frame (the
    /// in-flight path) moves no bytes; the buffer compacts only when its
    /// consumed head outgrows the unread tail.
    pub(crate) fn process<J>(
        &mut self,
        budget: usize,
        counters: &Counters,
        clock: impl Fn() -> Instant,
        mut route: impl FnMut(Decoded<'_>) -> Routed<J>,
    ) -> Turn<J> {
        let mut turn = Turn {
            more: false,
            job: None,
            shutdown: false,
        };
        if !matches!(self.phase, Phase::Idle(_) | Phase::Receiving(_)) {
            return turn;
        }
        let Some(&first) = self.rbuf.unread().first() else {
            if let Phase::Receiving(_) = self.phase {
                self.phase = Phase::Idle(clock());
            }
            self.more = false;
            return turn;
        };
        let wire = *self.wire.get_or_insert(if first == binary::MAGIC0 {
            Wire::Binary
        } else {
            Wire::Ndjson
        });
        let mut rbuf = std::mem::take(&mut self.rbuf);
        let mut budget = budget;
        while matches!(self.phase, Phase::Idle(_) | Phase::Receiving(_)) && !rbuf.is_empty() {
            if budget == 0 {
                turn.more = true;
                break;
            }
            let (routed, start) = match rbuf.next_frame(wire, self.limits.max_request_bytes) {
                Split::NeedMore => break,
                Split::TooLarge => {
                    let message = format!(
                        "request exceeds the {} byte cap",
                        self.limits.max_request_bytes
                    );
                    self.reject(ErrorCode::TooLarge, message, clock(), counters);
                    break;
                }
                Split::BadHeader(e) => {
                    // Bad magic, version or type: the stream cannot be
                    // re-framed, so reply and close, like a garbage line
                    // that also lost sync.
                    self.answer(&bad_request(e.to_string()), clock(), true, counters, &clock);
                    break;
                }
                Split::Frame(frame) => {
                    budget -= 1;
                    let start = clock();
                    let routed = match decode(frame) {
                        Ok(Some(decoded)) => route(decoded),
                        Ok(None) => continue, // blank keep-alive lines are free
                        Err(message) => Routed::Reply(Box::new(bad_request(message))),
                    };
                    (routed, start)
                }
            };
            match routed {
                Routed::Reply(resp) => self.answer(&resp, start, false, counters, &clock),
                Routed::Job(job) => {
                    self.phase = Phase::Processing;
                    turn.job = Some((job, start));
                }
                Routed::Shutdown => {
                    self.answer(&Response::ShuttingDown, start, true, counters, &clock);
                    turn.shutdown = true;
                }
            }
        }
        rbuf.settle();
        self.rbuf = rbuf;
        match self.phase {
            Phase::Idle(_) if !self.rbuf.is_empty() => self.phase = Phase::Receiving(clock()),
            Phase::Receiving(_) if self.rbuf.is_empty() => self.phase = Phase::Idle(clock()),
            _ => {}
        }
        self.more = turn.more;
        turn
    }

    /// The in-flight job's reply. `start` is the instant its request
    /// started.
    pub(crate) fn complete(
        &mut self,
        resp: &Response,
        start: Instant,
        counters: &Counters,
        clock: impl Fn() -> Instant,
    ) {
        self.phase = Phase::Idle(clock());
        self.answer(resp, start, false, counters, &clock);
    }

    /// A clock tick at `now`: fires an expired write-stall, idle or
    /// mid-request deadline.
    pub(crate) fn tick(&mut self, now: Instant, counters: &Counters) {
        if self.phase == Phase::Closed {
            return;
        }
        if self.write_deadline.is_some_and(|d| now >= d) {
            // The peer stopped draining its reply.
            self.write_failed(counters);
            return;
        }
        match self.phase {
            Phase::Idle(since) if self.limits.idle_timeout.is_some_and(|t| now >= since + t) => {
                // Idle expiry is a normal lifecycle event.
                self.phase = Phase::Closed;
            }
            Phase::Receiving(started) => {
                let Some(t) = self.limits.request_timeout else {
                    return;
                };
                if now >= started + t {
                    Counters::bump(&counters.timeouts);
                    let message = format!(
                        "request stalled past the {} ms mid-request deadline",
                        t.as_millis()
                    );
                    self.reject(ErrorCode::Timeout, message, now, counters);
                }
            }
            _ => {}
        }
    }

    /// Applies the close decisions that wait for the write buffer to
    /// drain: a final reply has gone out, or the peer has hung up with no
    /// request pending. Leftover bytes at EOF are a torn frame.
    pub(crate) fn settle(&mut self, counters: &Counters) {
        if self.wants_write() {
            return;
        }
        match self.phase {
            Phase::Closing => self.phase = Phase::Closed,
            Phase::Idle(_) | Phase::Receiving(_) if self.eof && !self.more => {
                if !self.rbuf.is_empty() {
                    Counters::bump(&counters.io_errors);
                }
                self.phase = Phase::Closed;
            }
            _ => {}
        }
    }

    /// Answers a counted request: the reply is queued, its error (if it
    /// is one) counted, and its latency from `start` recorded.
    fn answer(
        &mut self,
        resp: &Response,
        start: Instant,
        then_close: bool,
        counters: &Counters,
        clock: &impl Fn() -> Instant,
    ) {
        Counters::bump(&counters.requests);
        let now = clock();
        if !self.queue(resp, now) || matches!(resp, Response::Error { .. }) {
            Counters::bump(&counters.errors);
        }
        self.io_on_write_fail = true;
        if then_close {
            self.phase = Phase::Closing;
        }
        let us = clock().saturating_duration_since(start).as_micros();
        counters
            .latencies_us
            .record(u64::try_from(us).unwrap_or(u64::MAX));
    }

    /// A best-effort error reply to a request that never finished
    /// arriving (so it is not counted as a request), then close: the rest
    /// of the stream cannot be resynchronized.
    fn reject(&mut self, code: ErrorCode, message: String, now: Instant, counters: &Counters) {
        Counters::bump(&counters.errors);
        self.queue(&Response::Error { code, message }, now);
        self.phase = Phase::Closing;
    }

    /// Encodes `resp` for the connection's wire into the write buffer.
    /// Returns `false` when an NDJSON line past [`MAX_REPLY_LINE_BYTES`]
    /// was replaced by a `TooLarge` error.
    fn queue(&mut self, resp: &Response, now: Instant) -> bool {
        let fits = match self.wire.unwrap_or(Wire::Ndjson) {
            Wire::Ndjson => {
                let mut line = serde_json::to_string(resp).expect("responses always serialize");
                let fits = line.len() < MAX_REPLY_LINE_BYTES;
                if !fits {
                    let message = format!(
                        "the reply is {} bytes, past the {MAX_REPLY_LINE_BYTES} byte NDJSON \
                         line cap; the binary wire carries it",
                        line.len() + 1
                    );
                    let error = Response::Error {
                        code: ErrorCode::TooLarge,
                        message,
                    };
                    line = serde_json::to_string(&error).expect("responses always serialize");
                }
                self.wbuf.extend_from_slice(line.as_bytes());
                self.wbuf.push(b'\n');
                fits
            }
            Wire::Binary => {
                self.wbuf.extend_from_slice(&binary::encode_response(resp));
                true
            }
        };
        if self.write_deadline.is_none() {
            self.write_deadline = self.limits.request_timeout.map(|t| now + t);
        }
        fits
    }
}

/// Decodes one frame. `Ok(None)` is a blank NDJSON keep-alive line;
/// `Err` is the `BadRequest` message for a frame that does not decode.
fn decode(frame: Frame<'_>) -> Result<Option<Decoded<'_>>, String> {
    let decoded = match frame {
        Frame::Line(line) => {
            let text = std::str::from_utf8(line)
                .map_err(|_| String::from("request line is not valid UTF-8"))?;
            if text.trim().is_empty() {
                return Ok(None);
            }
            serde_json::from_str(text)
                .map(Decoded::Request)
                .map_err(|e| e.to_string())
        }
        // The hot frame skips `decode_request`'s nested-Vec
        // materialization: the router copies rows straight from the
        // borrowed payload into the flat kernel batch.
        Frame::Binary {
            frame_type: binary::FRAME_SCORE_PAIRS,
            payload,
        } => binary::decode_score_pairs(payload)
            .map(Decoded::ScorePairs)
            .map_err(|e| e.to_string()),
        // A well-delimited frame keeps framing intact: like a garbage
        // NDJSON line, a bad payload is answered and the connection
        // keeps serving.
        Frame::Binary {
            frame_type,
            payload,
        } => binary::decode_request(frame_type, payload)
            .map(Decoded::Request)
            .map_err(|e| e.to_string()),
    };
    decoded.map(Some).map_err(|e| format!("bad request: {e}"))
}

/// A `BadRequest` error reply.
pub(crate) fn bad_request(message: String) -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        message,
    }
}

#[cfg(test)]
mod tests;
