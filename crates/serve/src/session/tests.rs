//! Deterministic `Session` tests: every fault shape the chaos suite
//! drives against a live server, here with a fake clock, no socket and no
//! sleep, plus the counter contract as a property over arbitrary event
//! sequences on both wires.

use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use super::*;
use crate::protocol::StatsSnapshot;

const CAP: usize = 256;
const REQUEST: Duration = Duration::from_millis(300);
const IDLE: Duration = Duration::from_secs(60);

fn limits() -> Limits {
    Limits {
        request_timeout: Some(REQUEST),
        idle_timeout: Some(IDLE),
        max_request_bytes: CAP,
    }
}

/// The test router: `Health` is answered, `ListModels` refused,
/// `Stats` reports the request count it sees, `Shutdown` shuts down, and
/// `ScorePairs` on either wire becomes a job of its row count.
fn route(counters: &Counters, decoded: Decoded<'_>) -> Routed<usize> {
    let reply = match decoded {
        Decoded::ScorePairs(view) => return Routed::Job(view.rows),
        Decoded::Request(Request::ScorePairs { features, .. }) => {
            return Routed::Job(features.len())
        }
        Decoded::Request(Request::Shutdown) => return Routed::Shutdown,
        Decoded::Request(Request::Health) => Response::Models {
            default_model: "m".into(),
            models: Vec::new(),
        },
        Decoded::Request(Request::Stats) => Response::Stats {
            stats: StatsSnapshot {
                requests: counters.requests.load(Ordering::Relaxed),
                ..StatsSnapshot::default()
            },
        },
        Decoded::Request(other) => Response::Error {
            code: ErrorCode::NotFound,
            message: format!("{other:?}"),
        },
    };
    Routed::Reply(Box::new(reply))
}

/// One session driven the way the reactor drives it, on a fake clock.
struct Harness {
    session: Session,
    counters: Counters,
    now: Cell<Instant>,
    wire: Wire,
    /// The job in flight: its row count and start instant.
    job: Option<(usize, Instant)>,
    shutdown: bool,
    budget: usize,
    /// The peer reads replies as soon as they are queued.
    reads_replies: bool,
    /// Reply bytes the peer has read and the test has not decoded yet.
    inbox: Vec<u8>,
}

impl Harness {
    fn new(wire: Wire) -> Self {
        let now = Instant::now();
        Self {
            session: Session::new(limits(), now),
            counters: Counters::default(),
            now: Cell::new(now),
            wire,
            job: None,
            shutdown: false,
            budget: 32,
            reads_replies: true,
            inbox: Vec::new(),
        }
    }

    /// Feeds `bytes` as one read, then processes until no complete frame
    /// is left or a job is in flight.
    fn feed(&mut self, bytes: &[u8]) {
        assert!(
            self.session.wants_read(),
            "the reactor reads only when asked"
        );
        self.session.received(bytes, self.now.get());
        self.pump();
    }

    /// Service turns, settled between turns as the reactor does, until
    /// the budget is not what stopped a turn.
    fn pump(&mut self) {
        loop {
            let counters = &self.counters;
            let turn = self.session.process(
                self.budget,
                counters,
                || self.now.get(),
                |decoded| route(counters, decoded),
            );
            self.shutdown |= turn.shutdown;
            if let Some(job) = turn.job {
                assert!(self.job.is_none(), "one job in flight per connection");
                self.job = Some(job);
            }
            self.settle();
            if !turn.more || self.session.is_closed() {
                break;
            }
        }
    }

    /// The reactor's settlement: flush (if the peer reads), then let the
    /// session apply its close decisions.
    fn settle(&mut self) {
        if self.reads_replies && self.session.wants_write() {
            self.inbox.extend_from_slice(self.session.unsent());
            self.session
                .sent(self.session.unsent().len(), self.now.get());
        }
        self.session.settle(&self.counters);
    }

    /// Completes the job in flight with one probability per row.
    fn complete(&mut self) {
        let (rows, start) = self.job.take().expect("a job in flight");
        let resp = Response::Scores {
            probs: vec![0.25; rows],
        };
        self.session
            .complete(&resp, start, &self.counters, || self.now.get());
        self.pump();
    }

    fn eof(&mut self) {
        self.session.received_eof();
        self.pump();
    }

    /// A clock tick `by` later, then the reactor's settlement.
    fn tick(&mut self, by: Duration) {
        self.now.set(self.now.get() + by);
        self.session.tick(self.now.get(), &self.counters);
        self.settle();
    }

    /// The replies the peer has read since the last call.
    fn drain(&mut self) -> Vec<Response> {
        self.settle();
        decode_replies(self.wire, &std::mem::take(&mut self.inbox))
    }

    /// `[requests, errors, io_errors, timeouts]`.
    fn counts(&self) -> [u64; 4] {
        let c = &self.counters;
        [&c.requests, &c.errors, &c.io_errors, &c.timeouts].map(|a| a.load(Ordering::Relaxed))
    }

    fn latency_samples(&self) -> u64 {
        self.counters.latencies_us.count()
    }
}

fn decode_replies(wire: Wire, mut bytes: &[u8]) -> Vec<Response> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        match wire {
            Wire::Ndjson => {
                let end = bytes.iter().position(|&b| b == b'\n').expect("whole line");
                let text = std::str::from_utf8(&bytes[..end]).expect("utf-8 reply");
                out.push(serde_json::from_str(text).expect("reply parses"));
                bytes = &bytes[end + 1..];
            }
            Wire::Binary => {
                let header = *bytes.first_chunk().expect("whole header");
                let h = binary::decode_header(header, u64::MAX).expect("valid header");
                let end = binary::HEADER_LEN + h.len as usize;
                let payload = &bytes[binary::HEADER_LEN..end];
                out.push(binary::decode_response(h.frame_type, payload).expect("reply decodes"));
                bytes = &bytes[end..];
            }
        }
    }
    out
}

fn code_of(resp: &Response) -> Option<ErrorCode> {
    match resp {
        Response::Error { code, .. } => Some(*code),
        _ => None,
    }
}

fn request_bytes(wire: Wire, request: &Request) -> Vec<u8> {
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

fn score_pairs(rows: usize) -> Request {
    Request::ScorePairs {
        features: vec![vec![0.5, -1.0, 2.0]; rows],
        model_id: None,
    }
}

/// A control request frame carrying `json` as its payload: an NDJSON line
/// or a binary `0x01` frame.
fn json_frame(wire: Wire, json: &[u8]) -> Vec<u8> {
    match wire {
        Wire::Binary => {
            let mut frame =
                binary::encode_header(binary::FRAME_JSON_REQUEST, json.len() as u32).to_vec();
            frame.extend_from_slice(json);
            frame
        }
        Wire::Ndjson => [json, b"\n"].concat(),
    }
}

const WIRES: [Wire; 2] = [Wire::Ndjson, Wire::Binary];

#[test]
fn slow_loris_times_out_on_both_wires() {
    for wire in WIRES {
        let mut h = Harness::new(wire);
        let frame = request_bytes(wire, &Request::Health);
        for &b in &frame[..4] {
            h.feed(&[b]);
            h.tick(Duration::from_millis(50));
        }
        assert!(h.drain().is_empty(), "{wire:?}: nothing answered yet");
        // The mid-request clock started at the first byte, 200 ms ago.
        h.tick(Duration::from_millis(99));
        assert!(!h.session.is_closed());
        h.tick(Duration::from_millis(1));
        let replies = h.drain();
        assert_eq!(replies.len(), 1, "{wire:?}");
        assert_eq!(code_of(&replies[0]), Some(ErrorCode::Timeout), "{wire:?}");
        assert!(h.session.is_closed(), "{wire:?}: closed after the reply");
        assert_eq!(h.counts(), [0, 1, 0, 1], "{wire:?}");
    }
}

#[test]
fn torn_frame_at_eof_is_an_io_error_on_both_wires() {
    for wire in WIRES {
        let mut h = Harness::new(wire);
        let frame = request_bytes(wire, &Request::Health);
        h.feed(&frame[..frame.len() - 3]);
        h.eof();
        assert!(h.drain().is_empty(), "{wire:?}");
        assert!(h.session.is_closed(), "{wire:?}");
        assert_eq!(h.counts(), [0, 0, 1, 0], "{wire:?}");
    }
}

#[test]
fn eof_between_requests_is_a_clean_goodbye() {
    for wire in WIRES {
        let mut h = Harness::new(wire);
        h.feed(&request_bytes(wire, &Request::Health));
        h.eof();
        assert_eq!(h.drain().len(), 1, "{wire:?}");
        assert!(h.session.is_closed(), "{wire:?}");
        assert_eq!(h.counts(), [1, 0, 0, 0], "{wire:?}");
    }
}

#[test]
fn oversized_requests_are_rejected_then_closed_on_both_wires() {
    // NDJSON swallows a cap's worth before it can tell; binary knows from
    // the eight header bytes alone.
    let cases = [
        (Wire::Ndjson, vec![b'x'; CAP + 1]),
        (
            Wire::Binary,
            binary::encode_header(binary::FRAME_JSON_REQUEST, CAP as u32 + 1).to_vec(),
        ),
    ];
    for (wire, bytes) in cases {
        let mut h = Harness::new(wire);
        h.feed(&bytes[..bytes.len() - 1]);
        assert!(h.drain().is_empty(), "{wire:?}: not yet past the cap");
        h.feed(&bytes[bytes.len() - 1..]);
        let replies = h.drain();
        assert_eq!(replies.len(), 1, "{wire:?}");
        match &replies[0] {
            Response::Error { code, message } => {
                assert_eq!(*code, ErrorCode::TooLarge);
                assert!(message.contains(&CAP.to_string()), "{message}");
            }
            other => panic!("{wire:?}: {other:?}"),
        }
        assert!(h.session.is_closed(), "{wire:?}: cannot resynchronize");
        assert_eq!(h.counts(), [0, 1, 0, 0], "{wire:?}");
        assert_eq!(h.latency_samples(), 0, "not a request");
    }
}

#[test]
fn garbage_gets_bad_request_and_the_session_survives_on_both_wires() {
    for wire in WIRES {
        let mut h = Harness::new(wire);
        let junk: Vec<Vec<u8>> = match wire {
            Wire::Ndjson => vec![
                b"\x00\xfe\xffnoise\n".to_vec(),
                b"{\"definitely\":\"not a request\"}\n".to_vec(),
            ],
            Wire::Binary => vec![
                json_frame(wire, b"definitely not a request"),
                // A scoring request JSON-framed: control frames only.
                json_frame(
                    wire,
                    serde_json::to_string(&score_pairs(1))
                        .expect("json")
                        .as_bytes(),
                ),
            ],
        };
        for bytes in &junk {
            h.feed(bytes);
            let replies = h.drain();
            assert_eq!(replies.len(), 1, "{wire:?}");
            assert_eq!(
                code_of(&replies[0]),
                Some(ErrorCode::BadRequest),
                "{wire:?}"
            );
        }
        h.feed(&request_bytes(wire, &Request::Health));
        assert!(
            matches!(h.drain()[..], [Response::Models { .. }]),
            "{wire:?}"
        );
        assert!(!h.session.is_closed(), "{wire:?}");
        assert_eq!(h.counts(), [3, 2, 0, 0], "{wire:?}");
        assert_eq!(h.latency_samples(), 3, "one sample per counted request");
    }
}

#[test]
fn bad_binary_header_loses_sync_and_closes() {
    let mut h = Harness::new(Wire::Binary);
    h.feed(&[binary::MAGIC0, binary::MAGIC1, 9, 0x01, 0, 0, 0, 0]);
    let replies = h.drain();
    assert_eq!(replies.len(), 1);
    assert_eq!(code_of(&replies[0]), Some(ErrorCode::BadRequest));
    assert!(h.session.is_closed());
    assert_eq!(h.counts(), [1, 1, 0, 0]);
}

#[test]
fn deeply_nested_json_is_a_bad_request_on_both_wires() {
    for wire in WIRES {
        let mut h = Harness::new(wire);
        h.budget = 1;
        let deep = "[".repeat(CAP - 1);
        let mut bytes = json_frame(wire, deep.as_bytes());
        bytes.extend(request_bytes(wire, &Request::Health));
        h.feed(&bytes);
        let replies = h.drain();
        assert_eq!(replies.len(), 2, "{wire:?}");
        assert_eq!(
            code_of(&replies[0]),
            Some(ErrorCode::BadRequest),
            "{wire:?}"
        );
        assert!(matches!(replies[1], Response::Models { .. }), "{wire:?}");
        assert_eq!(h.counts(), [2, 1, 0, 0], "{wire:?}");
    }
}

#[test]
fn one_job_in_flight_keeps_replies_in_request_order() {
    // A pipelined backlog of scoring requests, cut at odd offsets: one
    // job at a time, no reads while it runs, replies in request order.
    for wire in WIRES {
        let mut h = Harness::new(wire);
        let sizes: Vec<usize> = (0..20).map(|k| 1 + k % 8).collect();
        let blob: Vec<u8> = sizes
            .iter()
            .flat_map(|&rows| request_bytes(wire, &score_pairs(rows)))
            .collect();
        let mut replies = Vec::new();
        let mut at = 0;
        while at < blob.len() || h.job.is_some() {
            if h.job.is_some() {
                assert!(!h.session.wants_read(), "{wire:?}: reads pause");
                h.tick(Duration::from_secs(5)); // scoring time is unbounded
                h.complete();
            } else {
                let end = (at + 37).min(blob.len());
                h.feed(&blob[at..end]);
                at = end;
            }
            replies.extend(h.drain());
        }
        let rows: Vec<usize> = replies
            .iter()
            .map(|r| match r {
                Response::Scores { probs } => probs.len(),
                other => panic!("{wire:?}: {other:?}"),
            })
            .collect();
        assert_eq!(rows, sizes, "{wire:?}");
        assert_eq!(h.counts(), [20, 0, 0, 0], "{wire:?}");
    }
}

#[test]
fn frame_budget_leaves_more_work_and_eof_serves_it_all() {
    const FRAMES_PER_TURN: usize = 4;
    for wire in WIRES {
        let mut h = Harness::new(wire);
        let frames = 3 * FRAMES_PER_TURN + 1;
        let blob: Vec<u8> = (0..frames)
            .flat_map(|_| request_bytes(wire, &Request::Health))
            .collect();
        h.session.received(&blob, h.now.get());
        h.session.received_eof();
        let counters = &h.counters;
        let turn = h.session.process(
            FRAMES_PER_TURN,
            counters,
            || h.now.get(),
            |d| route(counters, d),
        );
        assert!(turn.more, "{wire:?}: the budget ran out");
        // The reactor settles between turns: complete frames still
        // buffered at EOF are served, not counted as a torn frame.
        h.drain();
        assert!(!h.session.is_closed(), "{wire:?}");
        h.budget = FRAMES_PER_TURN;
        h.eof();
        h.drain();
        assert!(h.session.is_closed(), "{wire:?}");
        assert_eq!(h.counts(), [frames as u64, 0, 0, 0], "{wire:?}");
    }
}

#[test]
fn idle_connections_close_silently() {
    for wire in WIRES {
        let mut h = Harness::new(wire);
        h.feed(&request_bytes(wire, &Request::Health));
        h.drain();
        h.tick(IDLE - Duration::from_millis(1));
        assert!(!h.session.is_closed(), "{wire:?}");
        h.tick(Duration::from_millis(1));
        assert!(h.session.is_closed(), "{wire:?}");
        assert!(h.drain().is_empty(), "{wire:?}: no reply to an idle close");
        assert_eq!(h.counts(), [1, 0, 0, 0], "{wire:?}");
    }
}

#[test]
fn stalled_reply_write_is_an_io_error() {
    for wire in WIRES {
        let mut h = Harness::new(wire);
        h.reads_replies = false;
        h.feed(&request_bytes(wire, &Request::Health));
        // Write progress restarts the stall clock.
        h.tick(Duration::from_millis(200));
        h.session.sent(1, h.now.get());
        h.tick(Duration::from_millis(200));
        assert!(!h.session.is_closed(), "{wire:?}");
        h.tick(Duration::from_millis(100));
        assert!(h.session.is_closed(), "{wire:?}");
        assert_eq!(h.counts(), [1, 0, 1, 0], "{wire:?}");
    }
}

#[test]
fn stalled_best_effort_reply_is_not_counted_twice() {
    let mut h = Harness::new(Wire::Ndjson);
    h.reads_replies = false;
    h.feed(&[b'x'; CAP + 1]);
    h.tick(REQUEST);
    assert!(h.session.is_closed());
    assert_eq!(h.counts(), [0, 1, 0, 0], "TooLarge is the one incident");
}

#[test]
fn dripped_split_and_coalesced_frames_are_all_answered() {
    let wire = Wire::Binary;
    let mut h = Harness::new(wire);
    let frame = request_bytes(wire, &Request::Health);
    for &b in &frame {
        h.feed(&[b]);
    }
    assert_eq!(h.drain().len(), 1, "dripped frame");
    let mut two = frame.clone();
    two.extend(request_bytes(wire, &Request::ListModels));
    h.feed(&two);
    let replies = h.drain();
    assert!(matches!(replies[0], Response::Models { .. }));
    assert_eq!(code_of(&replies[1]), Some(ErrorCode::NotFound));
    h.feed(&frame[..binary::HEADER_LEN]);
    assert!(h.drain().is_empty(), "a header alone is not a frame");
    h.feed(&frame[binary::HEADER_LEN..]);
    assert_eq!(h.drain().len(), 1, "split at the header");
    assert_eq!(h.counts(), [4, 1, 0, 0]);
}

#[test]
fn an_ndjson_reply_past_the_line_cap_is_too_large_and_the_session_survives() {
    for wire in WIRES {
        let mut h = Harness::new(wire);
        h.feed(&request_bytes(wire, &score_pairs(1)));
        let (_, start) = h.job.take().expect("a job in flight");
        let huge = Response::Models {
            default_model: "m".repeat(MAX_REPLY_LINE_BYTES),
            models: Vec::new(),
        };
        h.session
            .complete(&huge, start, &h.counters, || h.now.get());
        h.pump();
        h.feed(&request_bytes(wire, &Request::Health));
        match (wire, &h.drain()[..]) {
            (
                Wire::Ndjson,
                [Response::Error {
                    code: ErrorCode::TooLarge,
                    message,
                }, Response::Models { .. }],
            ) => assert!(message.contains("binary wire"), "{message}"),
            (Wire::Binary, [Response::Models { default_model, .. }, Response::Models { .. }]) => {
                assert_eq!(default_model.len(), MAX_REPLY_LINE_BYTES);
            }
            (_, other) => panic!(
                "{wire:?}: {:?}",
                other.iter().map(code_of).collect::<Vec<_>>()
            ),
        }
        let errors = u64::from(wire == Wire::Ndjson);
        assert_eq!(h.counts(), [2, errors, 0, 0], "{wire:?}");
        assert!(!h.session.is_closed(), "{wire:?}");
    }
}

#[test]
fn stats_reports_the_world_before_itself() {
    for wire in WIRES {
        let mut h = Harness::new(wire);
        let mut bytes = request_bytes(wire, &Request::Health);
        bytes.extend(request_bytes(wire, &Request::Stats));
        h.feed(&bytes);
        match &h.drain()[..] {
            [_, Response::Stats { stats }] => assert_eq!(stats.requests, 1, "{wire:?}"),
            other => panic!("{wire:?}: {other:?}"),
        }
        assert_eq!(h.counts(), [2, 0, 0, 0], "{wire:?}");
    }
}

#[test]
fn shutdown_is_answered_then_closes() {
    for wire in WIRES {
        let mut h = Harness::new(wire);
        let mut bytes = request_bytes(wire, &Request::Shutdown);
        bytes.extend(request_bytes(wire, &Request::Health));
        h.feed(&bytes);
        assert!(h.shutdown, "{wire:?}");
        assert!(!h.session.wants_read(), "{wire:?}");
        assert!(
            matches!(h.drain()[..], [Response::ShuttingDown]),
            "{wire:?}"
        );
        assert!(h.session.is_closed(), "{wire:?}");
        assert_eq!(h.counts(), [1, 0, 0, 0], "{wire:?}");
    }
}

#[test]
fn blank_lines_are_free() {
    let mut h = Harness::new(Wire::Ndjson);
    h.feed(b"\n  \n\"Health\"\n");
    assert_eq!(h.drain().len(), 1);
    assert_eq!(h.counts(), [1, 0, 0, 0]);
}

#[test]
fn wire_is_sniffed_from_the_first_byte_and_sticks() {
    let mut h = Harness::new(Wire::Binary);
    h.feed(&request_bytes(Wire::Binary, &Request::Health));
    assert_eq!(h.drain().len(), 1);
    // An NDJSON line on a binary connection is a bad header, not a line.
    h.feed(b"\"Health\"\n");
    assert_eq!(code_of(&h.drain()[0]), Some(ErrorCode::BadRequest));
    assert!(h.session.is_closed());
}

/// The kinds of frame the property draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Answered inline.
    Control,
    /// Becomes a job.
    Score,
    /// Well-delimited, does not decode: `BadRequest`, keeps serving.
    Garbage,
    /// JSON nested past the parser's depth limit: `BadRequest`.
    Deep,
    /// Past the byte cap: `TooLarge`, then close.
    Oversized,
    /// Binary: a header with a bad version, `BadRequest` then close.
    /// NDJSON: a blank line, which is free.
    Odd,
}

const KINDS: [Kind; 6] = [
    Kind::Control,
    Kind::Score,
    Kind::Garbage,
    Kind::Deep,
    Kind::Oversized,
    Kind::Odd,
];

fn frame_of(wire: Wire, kind: Kind) -> Vec<u8> {
    match (kind, wire) {
        (Kind::Control, _) => request_bytes(wire, &Request::Health),
        (Kind::Score, _) => request_bytes(wire, &score_pairs(2)),
        (Kind::Garbage, Wire::Ndjson) => b"\x00\xfe\xffnoise\n".to_vec(),
        (Kind::Garbage, Wire::Binary) => json_frame(wire, b"noise"),
        (Kind::Deep, _) => json_frame(wire, "[".repeat(200).as_bytes()),
        (Kind::Oversized, Wire::Ndjson) => vec![b'x'; CAP + 40],
        (Kind::Oversized, Wire::Binary) => {
            binary::encode_header(binary::FRAME_JSON_REQUEST, CAP as u32 + 1).to_vec()
        }
        (Kind::Odd, Wire::Ndjson) => b"\n".to_vec(),
        (Kind::Odd, Wire::Binary) => vec![binary::MAGIC0, binary::MAGIC1, 9, 0x01, 0, 0, 0, 0],
    }
}

/// One step of an event sequence.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A read of up to this many bytes of the stream (skipped while the
    /// session does not read).
    Read(usize),
    /// The clock passes the mid-request and write-stall deadlines.
    Tick,
    /// The job in flight completes (if there is one).
    Complete,
}

/// How an event sequence ends, once every job is done and every byte the
/// session will take is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// The peer hangs up.
    Eof,
    /// The clock passes the idle deadline.
    Idle,
    /// The peer never reads a reply; the clock passes the write stall.
    Stall,
    /// Nothing more happens.
    Quiet,
}

/// The contract as a frame-level model: the counters an event sequence
/// must leave, `[requests, errors, io_errors, timeouts]`, and the replies
/// a reading peer gets.
struct Model {
    /// Frame end offsets in the stream.
    ends: Vec<usize>,
    kinds: Vec<Kind>,
    wire: Wire,
    stream_len: usize,
    /// The peer never reads a reply.
    stall: bool,
    /// Bytes read so far.
    fed: usize,
    /// The next frame to handle.
    next: usize,
    job: bool,
    /// A final reply is queued.
    closing: bool,
    closed: bool,
    /// Replies queued.
    replies: u64,
    /// Some counted request's reply was queued.
    counted_reply: bool,
    counts: [u64; 4],
}

impl Model {
    fn start_of(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }

    /// Bytes of a closing frame that must arrive before it is seen.
    fn threshold(&self, kind: Kind) -> Option<usize> {
        match (kind, self.wire) {
            (Kind::Oversized, Wire::Ndjson) => Some(CAP + 1),
            (Kind::Oversized | Kind::Odd, Wire::Binary) => Some(binary::HEADER_LEN),
            _ => None,
        }
    }

    fn read(&mut self, n: usize) {
        if !self.closing && !self.closed && !self.job {
            self.fed = (self.fed + n).min(self.stream_len);
            self.process();
        }
    }

    fn process(&mut self) {
        while !self.closing && !self.job && self.next < self.kinds.len() {
            let kind = self.kinds[self.next];
            if let Some(t) = self.threshold(kind) {
                if self.fed - self.start_of(self.next) >= t {
                    // TooLarge is an error but not a request; a bad
                    // header is both.
                    self.counts[1] += 1;
                    self.replies += 1;
                    if kind == Kind::Odd {
                        self.counts[0] += 1;
                        self.counted_reply = true;
                    }
                    self.closing = true;
                }
                return;
            }
            if self.fed < self.ends[self.next] {
                return;
            }
            self.next += 1;
            match kind {
                Kind::Control => self.answer(false),
                Kind::Garbage | Kind::Deep => self.answer(true),
                Kind::Score => self.job = true,
                Kind::Odd => {} // a blank NDJSON line
                Kind::Oversized => unreachable!("has a threshold"),
            }
        }
    }

    fn answer(&mut self, error: bool) {
        self.counts[0] += 1;
        self.counts[1] += u64::from(error);
        self.replies += 1;
        self.counted_reply = true;
    }

    fn complete(&mut self) {
        // A closed connection's completion is dropped.
        if std::mem::take(&mut self.job) && !self.closed {
            self.answer(false);
            self.process();
        }
    }

    /// Whether read bytes hold the start of an unfinished frame.
    fn mid_frame(&self) -> bool {
        self.fed > self.start_of(self.next)
    }

    /// A tick past the mid-request and write-stall deadlines.
    fn tick(&mut self) {
        if self.closed {
            return;
        }
        if self.stall && self.replies > 0 {
            self.counts[2] += u64::from(self.counted_reply);
            self.closed = true;
        } else if !self.closing && !self.job && self.mid_frame() {
            self.counts[1] += 1;
            self.counts[3] += 1;
            self.replies += 1;
            self.closing = true;
        }
    }

    /// A reading peer drains the replies: a final one closes.
    fn drained(&mut self) {
        if !self.stall && self.closing {
            self.closed = true;
        }
    }
}

fn run_case(wire: Wire, kinds: &[Kind], cut: Option<usize>, steps: &[Step], end: End) {
    let mut stream = Vec::new();
    let mut ends = Vec::new();
    for &kind in kinds {
        stream.extend(frame_of(wire, kind));
        ends.push(stream.len());
    }
    if let Some(cut) = cut {
        stream.truncate(cut % (stream.len() + 1));
    }
    let stall = end == End::Stall;
    let mut model = Model {
        ends,
        kinds: kinds.to_vec(),
        wire,
        stream_len: stream.len(),
        stall,
        fed: 0,
        next: 0,
        job: false,
        closing: false,
        closed: false,
        replies: 0,
        counted_reply: false,
        counts: [0; 4],
    };
    let mut h = Harness::new(wire);
    h.budget = 1 + steps.len() % 3;
    h.reads_replies = !stall;
    let mut fed = 0;
    let mut replies = 0u64;
    let read = |h: &mut Harness, fed: &mut usize, n: usize| {
        let end = (*fed + n).min(stream.len());
        if h.session.wants_read() && end > *fed {
            h.feed(&stream[*fed..end]);
            *fed = end;
        }
    };
    let drain = |h: &mut Harness, model: &mut Model, replies: &mut u64| {
        *replies += h.drain().len() as u64;
        model.drained();
    };
    let complete = |h: &mut Harness, model: &mut Model| {
        if h.job.is_some() && !h.session.is_closed() {
            h.complete();
        }
        model.complete();
    };
    for &step in steps {
        match step {
            Step::Read(n) => {
                read(&mut h, &mut fed, n);
                model.read(n);
            }
            Step::Tick => {
                h.tick(REQUEST + Duration::from_millis(100));
                model.tick();
            }
            Step::Complete => complete(&mut h, &mut model),
        }
        drain(&mut h, &mut model, &mut replies);
    }
    // Finish every job and read whatever the session still takes.
    for _ in 0..=kinds.len() {
        complete(&mut h, &mut model);
        if end == End::Eof && h.session.wants_read() {
            // The last bytes and the hang-up arrive in one read: complete
            // frames still buffered behind the budget are served first.
            if fed < stream.len() {
                h.session.received(&stream[fed..], h.now.get());
                fed = stream.len();
            }
            h.eof();
        } else {
            read(&mut h, &mut fed, stream.len());
        }
        model.read(stream.len());
        drain(&mut h, &mut model, &mut replies);
    }
    let case = format!("{wire:?} {kinds:?} cut {cut:?} {steps:?} {end:?}");
    assert_eq!(fed, model.fed, "bytes read: {case}");
    assert!(!model.job, "every job finished: {case}");
    match end {
        End::Eof => {
            if !h.session.is_closed() {
                h.eof();
            }
            if !model.closed {
                model.counts[2] += u64::from(model.mid_frame());
                model.closed = true;
            }
        }
        End::Idle => {
            h.tick(IDLE + REQUEST);
            model.tick();
            model.closed = true;
        }
        End::Stall => {
            h.tick(REQUEST + Duration::from_millis(100));
            model.tick();
        }
        End::Quiet => {}
    }
    drain(&mut h, &mut model, &mut replies);
    let counts = h.counts();
    assert_eq!(counts, model.counts, "counters: {case}");
    assert_eq!(h.session.is_closed(), model.closed, "closed: {case}");
    assert_eq!(
        h.latency_samples(),
        counts[0],
        "one sample per request: {case}"
    );
    if !stall {
        assert_eq!(replies, model.replies, "replies: {case}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    fn counters_follow_the_contract_model_over_arbitrary_event_sequences(
        binary in prop::bool::ANY,
        kinds in prop::collection::vec(0usize..6, 0..8),
        cut in prop::option::of(any::<usize>()),
        steps in prop::collection::vec((0u8..8, 1usize..96), 0..40),
        end in 0u8..4,
    ) {
        let wire = if binary { Wire::Binary } else { Wire::Ndjson };
        let kinds: Vec<Kind> = kinds.into_iter().map(|k| KINDS[k]).collect();
        let steps: Vec<Step> = steps
            .into_iter()
            .map(|(s, n)| match s {
                0 => Step::Tick,
                1 | 2 => Step::Complete,
                _ => Step::Read(n),
            })
            .collect();
        let end = [End::Eof, End::Idle, End::Stall, End::Quiet][usize::from(end)];
        run_case(wire, &kinds, cut, &steps, end);
    }
}

/// The bucket invariants for one value: in range, a lower bound less
/// than 1/64 below it, and exact below 128.
fn check_bucket(v: u64) {
    let bucket = bucket_of(v);
    assert!(bucket < LATENCY_BUCKETS, "{v}: bucket {bucket}");
    let floor = bucket_floor(bucket);
    assert!(floor <= v, "{v} read as {floor}");
    assert!(v - floor < (v / 64).max(1), "{v} read as {floor}");
    if v < 128 {
        assert_eq!(floor, v);
    }
}

#[test]
fn concurrent_records_are_all_counted() {
    let h = LatencyHistogram::default();
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (h, start) = (&h, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..50_000u64 {
                    h.record(i % 300 + t);
                }
            });
        }
    });
    assert_eq!(h.count(), 100_000);
    assert_eq!(h.quantiles()[3], 300);
    assert_eq!(h.buckets.len(), 3_776, "fixed size");
}

proptest! {
    fn latency_buckets_bound_every_value(
        raw in any::<u64>(),
        shift in 0u32..64,
        edge in 0usize..6,
    ) {
        check_bucket(raw);
        check_bucket(raw >> shift);
        check_bucket([0, 127, 128, 1 << 63, u64::MAX - 1, u64::MAX][edge]);
        // Every bucket's lower bound lies in that bucket.
        let bucket = (raw % LATENCY_BUCKETS as u64) as usize;
        prop_assert_eq!(bucket_of(bucket_floor(bucket)), bucket);
    }
}
