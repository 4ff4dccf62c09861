//! Blocking protocol client and the retry contract
//! ([`ClientError::is_retryable`]).
//!
//! Every entry point speaks either wire format ([`Wire::Ndjson`] or the
//! length-prefixed [`Wire::Binary`] protocol v2): the server detects the
//! format per connection from the first byte, so a client just picks one
//! at connect time and sticks with it. Load generation is not part of
//! the product: `sm-bench`'s `serve_load` binary drives a server through
//! this client.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{binary, ErrorCode, Request, Response, Wire, MAX_REPLY_LINE_BYTES};

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
    /// The protocol's retry contract, stated once: a retry of the same
    /// request can succeed only after a transport failure or a `Busy`
    /// shed. A typed server error ([`ClientError::Remote`]) and a
    /// protocol violation are final. A caller that retries backs off
    /// between attempts, with a `Busy` reply's `retry_after_ms` as the
    /// floor.
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
/// line of at most [`MAX_REPLY_LINE_BYTES`], or a binary frame. Memory
/// grows only with the bytes that arrive, never with a length the peer
/// declares, and never past the line cap.
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
    let room = (MAX_REPLY_LINE_BYTES + 1 - line.len()) as u64;
    if reader.by_ref().take(room).read_until(b'\n', &mut line)? == 0 && line.is_empty() {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )));
    }
    if line.len() > MAX_REPLY_LINE_BYTES {
        return Err(ClientError::Protocol(format!(
            "reply line longer than {MAX_REPLY_LINE_BYTES} bytes"
        )));
    }
    let text = std::str::from_utf8(&line)
        .map_err(|_| ClientError::Protocol("non-UTF-8 reply line".into()))?;
    serde_json::from_str(text.trim_end())
        .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sm_attack::attack::{Cand, VpinScore};
    use sm_attack::ScoredView;

    #[test]
    fn send_recv_pipelines_replies_in_request_order() {
        // An NDJSON peer that answers each line with an identifying
        // Scores reply: three pipelined sends must drain as replies
        // 0, 1, 2 — the ordering contract pipelined callers rest on.
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

    /// A scripted TCP peer: for each accepted connection it reads one
    /// line, sends the next canned reply line, and closes.
    fn scripted_server(replies: Vec<Response>) -> std::net::SocketAddr {
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
                let mut out = serde_json::to_string(&reply).expect("ser");
                out.push('\n');
                let _ = (&stream).write_all(out.as_bytes());
            }
        });
        addr
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
        assert!(err.to_string().contains("[not_found]"));

        let addr = scripted_server(vec![Response::Error {
            code: ErrorCode::NotFound,
            message: "model 'ghost' not found in the serving catalog".into(),
        }]);
        let mut client = Client::connect(addr).expect("connects");
        let request = Request::ScorePairs {
            features: vec![vec![1.0]],
            model_id: Some("ghost".into()),
        };
        let err = client.call_ok(&request).expect_err("not_found is an error");
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
            // A line that never ends is cut at the cap as a typed error,
            // buffered no further than the cap.
            LARGEST.with(|l| l.set(0));
            let endless = read_reply(&mut BufReader::new(std::io::repeat(b'{')), wire);
            assert!(
                matches!(endless, Err(ClientError::Protocol(_))),
                "{wire:?}: {endless:?}"
            );
            assert!(LARGEST.with(Cell::get) <= 2 * (MAX_REPLY_LINE_BYTES + 1));
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
