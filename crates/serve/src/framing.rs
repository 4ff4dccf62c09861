//! The read side of one server connection, without I/O: bytes in,
//! frames out (the sans-io split, <https://sans-io.readthedocs.io/>).
//!
//! [`ReadBuf`] owns a connection's read buffer, the cursor that marks how
//! much of it has been handed out as frames, the compaction policy, and
//! frame splitting for both wires: the NDJSON newline scan and the binary
//! header and length checks. The reactor pushes what each socket read
//! returned and pulls frames until [`Split::NeedMore`] or a typed framing
//! outcome; it keeps the sockets, the request handlers and the deadlines.
//!
//! Frames are borrowed slices of the buffer. Consumed bytes stay where
//! they are until one of two things happens, and then only the unread
//! tail moves to the front:
//!
//! - a walk ends with the consumed head larger than the unread tail
//!   ([`ReadBuf::settle`]). Such a compaction moves fewer bytes than it
//!   reclaims, so draining a backlog of any depth copies each byte at
//!   most about once, however many service turns the drain takes;
//! - a push would otherwise grow the buffer's capacity. The buffer then
//!   grows only when the unread bytes plus the new read exceed it, which
//!   is the bound the old compact-every-turn policy had.
//!
//! A buffer whose bytes are all consumed is cleared and its cursor reset.

use crate::protocol::{binary, Wire};

/// A connection's read buffer with its read cursor.
#[derive(Debug, Default)]
pub(crate) struct ReadBuf {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already handed out as frames.
    rpos: usize,
    /// NDJSON only: how many unread bytes the newline scan has already
    /// covered without finding one. A long line that arrives over many
    /// reads is then scanned once, not once per read.
    scanned: usize,
}

/// One complete request frame, borrowed from the read buffer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame<'a> {
    /// An NDJSON request line, newline stripped.
    Line(&'a [u8]),
    /// A binary v2 frame whose header passed every check.
    Binary {
        /// One of the request `FRAME_*` types (or any known type: the
        /// handlers reject response types).
        frame_type: u8,
        payload: &'a [u8],
    },
}

/// What [`ReadBuf::next_frame`] found at the cursor.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Split<'a> {
    /// A complete frame; the cursor has moved past it.
    Frame(Frame<'a>),
    /// The frame at the cursor is incomplete (or nothing is buffered).
    NeedMore,
    /// The frame at the cursor exceeds the byte cap: an NDJSON line past
    /// the cap with or without its newline, or a binary header declaring
    /// a payload past it. The stream cannot be re-framed.
    TooLarge,
    /// A binary header with bad magic, version or frame type. The stream
    /// cannot be re-framed.
    BadHeader(binary::FrameError),
}

impl ReadBuf {
    /// The bytes not yet handed out as frames.
    pub(crate) fn unread(&self) -> &[u8] {
        &self.buf[self.rpos..]
    }

    /// Number of unread bytes.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.rpos
    }

    /// True when every buffered byte has been handed out.
    pub(crate) fn is_empty(&self) -> bool {
        self.rpos == self.buf.len()
    }

    /// Appends the bytes of one socket read. When they would not fit in
    /// the spare capacity, the unread tail moves to the front first, so
    /// the buffer grows only when the unread bytes plus `bytes` exceed
    /// its capacity.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        if self.rpos > 0 && self.buf.len() + bytes.len() > self.buf.capacity() {
            self.compact();
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Ends a walk over the buffer: clears it when everything is
    /// consumed, and compacts when the consumed head has outgrown the
    /// unread tail.
    pub(crate) fn settle(&mut self) {
        if self.is_empty() {
            self.buf.clear();
            self.rpos = 0;
        } else if self.rpos > self.len() {
            self.compact();
        }
    }

    /// Moves the unread tail to the front of the buffer.
    fn compact(&mut self) {
        self.buf.copy_within(self.rpos.., 0);
        self.buf.truncate(self.buf.len() - self.rpos);
        self.rpos = 0;
    }

    /// Splits the next frame off the unread bytes. `cap` is the request
    /// byte cap: the most payload bytes one frame may carry.
    pub(crate) fn next_frame(&mut self, wire: Wire, cap: usize) -> Split<'_> {
        match wire {
            Wire::Ndjson => self.next_line(cap),
            Wire::Binary => self.next_binary(cap),
        }
    }

    fn next_line(&mut self, cap: usize) -> Split<'_> {
        match scan_line(self.unread(), self.scanned, cap) {
            LineScan::TooLarge => Split::TooLarge,
            LineScan::Incomplete => {
                self.scanned = self.len();
                Split::NeedMore
            }
            LineScan::Complete(pos) => {
                let start = self.rpos;
                self.rpos += pos + 1;
                self.scanned = 0;
                Split::Frame(Frame::Line(&self.buf[start..start + pos]))
            }
        }
    }

    fn next_binary(&mut self, cap: usize) -> Split<'_> {
        let unread = &self.buf[self.rpos..];
        let Some(&header) = unread.first_chunk::<{ binary::HEADER_LEN }>() else {
            return Split::NeedMore;
        };
        match binary::decode_header(header, cap as u64) {
            Err(binary::FrameError::TooLarge { .. }) => Split::TooLarge,
            Err(e) => Split::BadHeader(e),
            Ok(h) => {
                let total = binary::HEADER_LEN + h.len as usize;
                if unread.len() < total {
                    return Split::NeedMore;
                }
                let start = self.rpos + binary::HEADER_LEN;
                self.rpos += total;
                Split::Frame(Frame::Binary {
                    frame_type: h.frame_type,
                    payload: &self.buf[start..self.rpos],
                })
            }
        }
    }
}

/// What the NDJSON scanner found at the front of the unread bytes.
#[derive(Debug, PartialEq, Eq)]
enum LineScan {
    /// A full line ends at this byte index (exclusive of the newline).
    Complete(usize),
    /// The line already exceeds the byte cap; unrecoverable.
    TooLarge,
    /// No newline yet; keep reading.
    Incomplete,
}

/// Scans for the end of the NDJSON request line at the front of
/// `unread`, resuming at `from` (the first `from` bytes are known to hold
/// no newline). A line longer than `cap` is rejected whether or not its
/// newline has arrived yet, as the pre-reactor bounded reader did.
fn scan_line(unread: &[u8], from: usize, cap: usize) -> LineScan {
    match unread[from..].iter().position(|&b| b == b'\n') {
        Some(pos) if from + pos > cap => LineScan::TooLarge,
        Some(pos) => LineScan::Complete(from + pos),
        None if unread.len() > cap => LineScan::TooLarge,
        None => LineScan::Incomplete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use proptest::prelude::*;

    /// An owned copy of a split outcome, so a test can keep it past the
    /// next call on the buffer.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Out {
        Line(Vec<u8>),
        Binary(u8, Vec<u8>),
        TooLarge,
        BadHeader(binary::FrameError),
    }

    /// Takes up to `budget` frames off `rb` into `out`. Returns true when
    /// the stream ended in a typed framing outcome.
    fn walk(rb: &mut ReadBuf, wire: Wire, cap: usize, budget: usize, out: &mut Vec<Out>) -> bool {
        for _ in 0..budget {
            match rb.next_frame(wire, cap) {
                Split::NeedMore => return false,
                Split::Frame(Frame::Line(line)) => out.push(Out::Line(line.to_vec())),
                Split::Frame(Frame::Binary {
                    frame_type,
                    payload,
                }) => out.push(Out::Binary(frame_type, payload.to_vec())),
                Split::TooLarge => {
                    out.push(Out::TooLarge);
                    return true;
                }
                Split::BadHeader(e) => {
                    out.push(Out::BadHeader(e));
                    return true;
                }
            }
        }
        false
    }

    /// Feeds `stream` in pieces cut at `cuts`, taking at most `budget`
    /// frames per walk and settling after each, and drains what is left
    /// at the end with the same budget. This is how the reactor drives
    /// the buffer, down to the one-frame walks of the in-flight path.
    fn feed(stream: &[u8], cuts: &[usize], wire: Wire, cap: usize, budget: usize) -> Vec<Out> {
        let mut rb = ReadBuf::default();
        let mut out = Vec::new();
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(stream.len());
        let mut from = 0;
        for cut in cuts {
            rb.push(&stream[from..cut]);
            from = cut;
            if walk(&mut rb, wire, cap, budget, &mut out) {
                return out;
            }
            rb.settle();
        }
        while !rb.is_empty() {
            let before = out.len();
            if walk(&mut rb, wire, cap, budget, &mut out) || out.len() == before {
                break;
            }
            rb.settle();
        }
        out
    }

    /// A frame stream on `wire`, one request per entry of `rows`: a
    /// `Health`, or a `ScorePairs` of up to four rows whose values and
    /// model id depend on `k`, so frames differ in size and content and
    /// a reordered or torn frame shows.
    fn stream_of(wire: Wire, rows: &[u8]) -> Vec<u8> {
        let mut stream = Vec::new();
        for (k, &n) in rows.iter().enumerate() {
            let features: Vec<Vec<f64>> = (0..usize::from(n % 5))
                .map(|r| vec![k as f64 + 0.25, r as f64 * 1e-3, -1.5])
                .collect();
            let request = if n % 7 == 0 {
                Request::Health
            } else {
                Request::ScorePairs {
                    features,
                    model_id: (n % 3 == 0).then(|| format!("m{k}")),
                }
            };
            match wire {
                Wire::Binary => stream.extend(binary::encode_request(&request)),
                Wire::Ndjson => {
                    stream.extend(serde_json::to_string(&request).expect("encodes").bytes());
                    stream.push(b'\n');
                }
            }
        }
        stream
    }

    fn wire_of(binary: bool) -> Wire {
        if binary {
            Wire::Binary
        } else {
            Wire::Ndjson
        }
    }

    #[test]
    fn line_scanner_matches_bounded_reader_semantics() {
        // Complete line within the cap.
        assert_eq!(
            scan_line(b"{\"Health\"}\nrest", 0, 64),
            LineScan::Complete(10)
        );
        // Empty line is complete at 0 (blank keep-alives stay free).
        assert_eq!(scan_line(b"\nx", 0, 64), LineScan::Complete(0));
        // No newline yet, under the cap: keep reading.
        assert_eq!(scan_line(b"partial", 0, 64), LineScan::Incomplete);
        // A line exactly at the cap is fine; one past is rejected, with
        // or without its terminator in the buffer yet.
        let at_cap = vec![b'y'; 64];
        let mut terminated = at_cap.clone();
        terminated.push(b'\n');
        assert_eq!(scan_line(&terminated, 0, 64), LineScan::Complete(64));
        assert_eq!(scan_line(&[b'y'; 65], 0, 64), LineScan::TooLarge);
        let mut over = vec![b'y'; 65];
        over.push(b'\n');
        assert_eq!(scan_line(&over, 0, 64), LineScan::TooLarge);
        // At the cap but unterminated: could still become TooLarge or
        // Complete — must keep reading.
        assert_eq!(scan_line(&at_cap, 0, 64), LineScan::Incomplete);
        // Resuming past bytes already scanned finds the same newline.
        assert_eq!(scan_line(&terminated, 40, 64), LineScan::Complete(64));
        assert_eq!(scan_line(&over, 65, 64), LineScan::TooLarge);

        // Split arrival: the same lines fed through the buffer one byte
        // at a time give the same outcome, at the byte that decides it.
        for (bytes, expected) in [
            (terminated.clone(), Out::Line(at_cap.clone())),
            (over.clone(), Out::TooLarge),
            (vec![b'y'; 65], Out::TooLarge),
        ] {
            let mut rb = ReadBuf::default();
            let mut out = Vec::new();
            let mut decided_at = None;
            for (i, b) in bytes.iter().enumerate() {
                rb.push(std::slice::from_ref(b));
                if walk(&mut rb, Wire::Ndjson, 64, 1, &mut out) || !out.is_empty() {
                    decided_at = Some(i);
                    break;
                }
                assert_eq!(rb.scanned, rb.len(), "the scan resumes where it stopped");
                rb.settle();
            }
            assert_eq!(out, vec![expected.clone()], "{expected:?}");
            // A line decides at its newline; an unterminated one at the
            // first byte past the cap.
            assert_eq!(decided_at, Some(bytes.len().min(65) - 1), "{expected:?}");
        }
        // The scan state resets per line: a second line arriving in
        // pieces after a first complete one is found whole.
        let mut rb = ReadBuf::default();
        let mut out = Vec::new();
        rb.push(b"ab\ncd");
        walk(&mut rb, Wire::Ndjson, 64, 4, &mut out);
        rb.settle();
        rb.push(b"e\n");
        walk(&mut rb, Wire::Ndjson, 64, 4, &mut out);
        assert_eq!(
            out,
            vec![Out::Line(b"ab".to_vec()), Out::Line(b"cde".to_vec())]
        );
    }

    #[test]
    fn a_drained_backlog_is_copied_less_than_once() {
        // The in-flight path: the whole backlog is buffered, then one
        // frame leaves per walk. Compacting at every walk would move the
        // whole tail each time, quadratic in the backlog; the half rule
        // moves fewer bytes than it reclaims.
        let rows: Vec<u8> = (0..2_000u32).map(|k| (k % 251) as u8).collect();
        let stream = stream_of(Wire::Binary, &rows);
        let mut rb = ReadBuf::default();
        rb.push(&stream);
        let (mut moved, mut frames) = (0usize, 0usize);
        while !rb.is_empty() {
            assert!(matches!(
                rb.next_frame(Wire::Binary, 1 << 20),
                Split::Frame(_)
            ));
            frames += 1;
            let (rpos, unread) = (rb.rpos, rb.len());
            rb.settle();
            if rpos > 0 && rb.rpos == 0 {
                moved += unread;
            }
        }
        assert_eq!(frames, rows.len());
        assert!(
            moved < stream.len(),
            "moved {moved} of {} bytes",
            stream.len()
        );
        assert_eq!(rb.buf.len(), 0, "a fully consumed buffer is cleared");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        fn any_split_gives_the_frames_of_the_unsplit_stream(
            binary in prop::bool::ANY,
            rows in prop::collection::vec(any::<u8>(), 0..40),
            cuts in prop::collection::vec(any::<usize>(), 0..24),
            budget in 1usize..4,
        ) {
            let wire = wire_of(binary);
            let stream = stream_of(wire, &rows);
            let whole = feed(&stream, &[], wire, 1 << 20, usize::MAX);
            prop_assert_eq!(whole.len(), rows.len());
            prop_assert_eq!(feed(&stream, &cuts, wire, 1 << 20, budget), whole);
        }

        fn compaction_moves_no_more_than_it_must(
            binary in prop::bool::ANY,
            rows in prop::collection::vec(any::<u8>(), 1..40),
            reads in prop::collection::vec(1usize..600, 1..64),
            budgets in prop::collection::vec(0usize..3, 1..64),
        ) {
            // Reads of random sizes interleave with walks of zero to two
            // frames. A walk's compaction moves fewer bytes than the head
            // it drops, so walks never move more bytes in total than were
            // consumed. A push compacts only when the read would not fit
            // in the spare capacity, where growing would copy the unread
            // bytes anyway (and the consumed head with them).
            let wire = wire_of(binary);
            let stream = stream_of(wire, &rows);
            let mut rb = ReadBuf::default();
            let mut out = Vec::new();
            let (mut from, mut consumed, mut moved_by_walks) = (0usize, 0usize, 0usize);
            for (k, &n) in reads.iter().cycle().take(stream.len() + 64).enumerate() {
                let piece = &stream[from..(from + n).min(stream.len())];
                from += piece.len();
                let (rpos, len, cap) = (rb.rpos, rb.buf.len(), rb.buf.capacity());
                rb.push(piece);
                if rpos > 0 && rb.rpos == 0 {
                    prop_assert!(len + piece.len() > cap, "a push compacts only to avoid growth");
                }
                let before = rb.rpos;
                walk(&mut rb, wire, 1 << 20, budgets[k % budgets.len()], &mut out);
                consumed += rb.rpos - before;
                let (rpos, unread) = (rb.rpos, rb.len());
                rb.settle();
                if rpos > 0 && rb.rpos == 0 {
                    prop_assert!(unread < rpos, "a walk compacts a head larger than the tail");
                    moved_by_walks += unread;
                }
                prop_assert!(moved_by_walks <= consumed, "{moved_by_walks} > {consumed}");
                if from == stream.len() && rb.is_empty() {
                    break;
                }
            }
        }

        fn capacity_grows_only_when_the_unread_bytes_and_the_read_exceed_it(
            binary in prop::bool::ANY,
            rows in prop::collection::vec(any::<u8>(), 1..40),
            reads in prop::collection::vec(1usize..2_000, 1..64),
            budget in 0usize..3,
        ) {
            let wire = wire_of(binary);
            let stream = stream_of(wire, &rows);
            let mut rb = ReadBuf::default();
            let mut out = Vec::new();
            let mut from = 0;
            for &n in reads.iter().cycle() {
                if from == stream.len() {
                    break;
                }
                let piece = &stream[from..(from + n).min(stream.len())];
                from += piece.len();
                let (unread, cap) = (rb.len(), rb.buf.capacity());
                rb.push(piece);
                if rb.buf.capacity() > cap {
                    prop_assert!(unread + piece.len() > cap, "grew with room to spare");
                }
                walk(&mut rb, wire, 1 << 20, budget, &mut out);
                rb.settle();
            }
        }

        fn arbitrary_or_truncated_bytes_give_typed_outcomes(
            binary in prop::bool::ANY,
            garbage in prop::collection::vec(any::<u8>(), 0..300),
            rows in prop::collection::vec(any::<u8>(), 0..8),
            truncate in any::<usize>(),
            mode in 0u8..3,
            cuts in prop::collection::vec(any::<usize>(), 0..12),
            cap in 0usize..400,
        ) {
            // Garbage alone, a valid stream cut short, or a valid stream
            // running into garbage: every walk ends in a frame,
            // `NeedMore` or a typed outcome, and never panics.
            let wire = wire_of(binary);
            let mut valid = stream_of(wire, &rows);
            let stream = match mode {
                0 => garbage,
                1 => {
                    valid.truncate(truncate % (valid.len() + 1));
                    valid
                }
                _ => {
                    valid.extend(garbage);
                    valid
                }
            };
            let out = feed(&stream, &cuts, wire, cap, 3);
            let typed = out
                .iter()
                .position(|o| matches!(o, Out::TooLarge | Out::BadHeader(_)));
            if let Some(at) = typed {
                prop_assert_eq!(at + 1, out.len(), "nothing follows a typed outcome");
            }
            if let Some(Out::BadHeader(e)) = out.last() {
                prop_assert!(!matches!(e, binary::FrameError::TooLarge { .. }));
            }
            prop_assert!(out.iter().all(|o| match o {
                Out::Line(line) => line.len() <= cap && !line.contains(&b'\n'),
                Out::Binary(_, payload) => payload.len() <= cap,
                _ => true,
            }));
        }
    }
}
