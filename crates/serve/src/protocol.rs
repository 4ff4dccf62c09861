//! The wire protocols spoken by `splitmfg serve`.
//!
//! **NDJSON (v1).** Each request is one JSON document on one line; the
//! server answers with exactly one JSON response line. Requests and
//! responses use serde's externally-tagged enum encoding: a unit variant
//! is its name in quotes (`"Health"`), a data variant wraps its payload
//! (`{"ScorePairs":{"features":[[...]]}}`). A connection may issue any
//! number of requests; `"Shutdown"` asks the whole server to stop
//! gracefully after draining queued connections.
//!
//! **Binary (v2).** Length-prefixed frames with raw little-endian `f64`
//! payloads for the hot path, so scores round-trip bit-identically
//! without text formatting. Every frame starts with an 8-byte header:
//!
//! | offset | size | field                                   |
//! |--------|------|-----------------------------------------|
//! | 0      | 1    | magic `0xB5`                            |
//! | 1      | 1    | magic `0x53`                            |
//! | 2      | 1    | protocol version (`2`)                  |
//! | 3      | 1    | frame type                              |
//! | 4      | 4    | payload length, u32 little-endian       |
//!
//! Types `0x02` (`ScorePairs` request), `0x03` (`Attack` request),
//! `0x82` (`Scores` response) and `0x83` (`AttackResult` response) carry
//! dense binary payloads — see [`binary`]. Frame types `0x01`/`0x81`
//! carry every other [`Request`]/[`Response`] as JSON (the control plane
//! reuses the v1 encoding verbatim); a `ScorePairs` or `Attack` request
//! in a `0x01` frame is malformed. Both sides of a connection speak the
//! same wire; the server auto-detects it from the first byte (`0xB5` is
//! a UTF-8 continuation byte, so it can never start an NDJSON request
//! line) and the choice is sticky per connection.

use serde::{Deserialize, Serialize};
use sm_attack::ScoredView;

/// A client request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness/identity probe; always answered.
    Health,
    /// Snapshot of the server's running counters.
    Stats,
    /// List every model in the serving catalog and the default id.
    ListModels,
    /// Rescan the registry directory and atomically swap the serving
    /// catalog. Only meaningful on a registry-backed server (`serve
    /// --registry`); a single-model server answers `bad_request`. On
    /// failure the old catalog keeps serving untouched.
    Reload,
    /// Score a batch of pre-computed feature vectors (one per candidate
    /// v-pin pair, in the model's feature order).
    ScorePairs {
        /// `features[k]` is pair `k`'s feature vector; every row must have
        /// exactly the model's feature count.
        features: Vec<Vec<f64>>,
        /// Which catalog entry scores the batch; absent routes to the
        /// server's default model. Unknown ids answer `not_found`.
        model_id: Option<String>,
    },
    /// Run the full attack on a challenge: parse, score every candidate
    /// pair, and report LoC/accuracy numbers.
    Attack {
        /// `.challenge` file contents (the attacker-visible FEOL view).
        challenge: String,
        /// `.truth` file contents (for scoring the attack's accuracy).
        truth: String,
        /// Probability threshold for the summary's accuracy/LoC numbers.
        threshold: f64,
        /// When true, the response carries the complete [`ScoredView`]
        /// (bit-exact, for verification); when false, only the summary.
        detail: bool,
        /// Which catalog entry runs the attack; absent routes to the
        /// server's default model. Unknown ids answer `not_found`.
        model_id: Option<String>,
    },
    /// Gracefully stop the server.
    Shutdown,
}

/// Accuracy/LoC summary of one remote attack run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackSummary {
    /// Design name from the challenge.
    pub design: String,
    /// Number of v-pins in the challenge.
    pub num_vpins: usize,
    /// Candidate pairs evaluated.
    pub pairs_scored: u64,
    /// Threshold the summary numbers were computed at.
    pub threshold: f64,
    /// Fraction of v-pins whose true match clears the threshold.
    pub accuracy: f64,
    /// Mean list-of-candidates size at the threshold.
    pub mean_loc: f64,
    /// Accuracy ceiling over all thresholds.
    pub max_accuracy: f64,
}

/// Machine-readable classification of a [`Response::Error`], so clients
/// can tell retryable congestion from fatal misuse without parsing the
/// message text. On the wire a code is serde's unit-variant encoding
/// (`"BadRequest"`, `"TooLarge"`, `"Timeout"`); [`ErrorCode::as_str`]
/// gives the conventional snake_case name for logs and docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request line did not parse, or its payload was semantically
    /// invalid (wrong feature-row width, malformed challenge). Retrying
    /// the same bytes will fail the same way.
    BadRequest,
    /// The request line exceeded the server's `max_request_bytes` cap.
    /// The server closes the connection after this reply (the rest of
    /// the oversized line is unread). Not retryable as-is. Also the
    /// answer, on an open connection, to an NDJSON request whose reply
    /// would exceed [`MAX_REPLY_LINE_BYTES`].
    TooLarge,
    /// The request stalled past the server's mid-request read deadline
    /// (slow-loris defence). The server closes the connection after
    /// this reply.
    Timeout,
    /// Reserved for [`Response::Busy`]'s code in logs; the server sheds
    /// load with the dedicated `Busy` variant, which carries a retry
    /// hint. Retryable after backing off.
    Busy,
    /// The request named a `model_id` that is not in the serving
    /// catalog. Not retryable: the same id keeps failing until a reload
    /// publishes it (use `ListModels` to see what is served).
    NotFound,
}

impl ErrorCode {
    /// The conventional snake_case name (`bad_request`, `too_large`,
    /// `timeout`, `busy`, `not_found`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Busy => "busy",
            ErrorCode::NotFound => "not_found",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Exact divergence report from A/B shadow scoring: a sampled fraction
/// of `ScorePairs` requests is re-scored against a second catalog entry
/// and compared probability-by-probability. All statistics are exact
/// over the compared pairs (no sketching), so two identical models must
/// report `max_abs_dp == 0.0` bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShadowReport {
    /// Catalog id of the shadow model.
    pub shadow_model: String,
    /// Decision threshold the disagreement count is computed at
    /// ([`crate::server::ShadowConfig::THRESHOLD`]).
    pub threshold: f64,
    /// `ScorePairs` requests selected for shadow scoring so far.
    pub sampled_requests: u64,
    /// Individual pair probabilities compared so far.
    pub compared_pairs: u64,
    /// Largest `|p_primary - p_shadow|` observed.
    pub max_abs_dp: f64,
    /// Mean `|p_primary - p_shadow|` over all compared pairs (0 until
    /// data exists).
    pub mean_abs_dp: f64,
    /// Pairs where primary and shadow fall on opposite sides of the
    /// decision threshold.
    pub disagreements: u64,
    /// Sampled requests skipped because the shadow id vanished from the
    /// catalog (a reload removed it). The primary answer is unaffected.
    pub shadow_missing: u64,
}

/// Running server counters, as returned by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Catalog id of the current default model.
    pub model_id: String,
    /// Artifact checksum of the current default model.
    pub model_checksum: String,
    /// Artifact format version of the current default model.
    pub schema_version: u32,
    /// Successful catalog reloads since startup.
    pub reloads: u64,
    /// Shadow-scoring divergence report, when a shadow model is
    /// configured.
    pub shadow: Option<ShadowReport>,
    /// Requests handled (including failed ones).
    pub requests: u64,
    /// Requests answered with [`Response::Error`].
    pub errors: u64,
    /// Connections that ended in a socket-level failure: a read error,
    /// a response write that could not complete, or a peer that
    /// vanished mid-request-line (torn frame).
    pub io_errors: u64,
    /// Connections shed with [`Response::Busy`] because the open
    /// connections had reached the admission capacity (attack pool size
    /// plus queue depth).
    pub shed: u64,
    /// Connections closed for exceeding the mid-request read deadline
    /// (a [`Response::Error`] with [`ErrorCode::Timeout`] is sent
    /// first, best-effort). Idle connections closed by the idle
    /// deadline are a normal lifecycle event and are not counted here.
    pub timeouts: u64,
    /// Total candidate pairs scored across `ScorePairs` and `Attack`.
    pub pairs_scored: u64,
    /// Reactor event-loop threads driving connections and scoring
    /// `ScorePairs` (the attack executor's size is a separate knob; see
    /// `pool_size`).
    pub event_loops: u64,
    /// `ScorePairs` requests scored: one `proba_batch` kernel call each.
    pub score_batches: u64,
    /// Feature rows those kernel calls scored (`batched_rows /
    /// score_batches` is the mean rows per `ScorePairs`).
    pub batched_rows: u64,
    /// Median latency in microseconds over every request since start (0
    /// until data exists). The percentiles are read from fixed log-linear
    /// buckets: exact below 128 µs, above that at most 1/64 below the
    /// nearest-rank sample.
    pub p50_us: u64,
    /// 95th-percentile request latency in microseconds.
    pub p95_us: u64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: u64,
    /// Worst observed request latency in microseconds (exact).
    pub max_us: u64,
}

/// One catalog entry as reported by [`Request::ListModels`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Routing key clients put in `model_id` fields.
    pub model_id: String,
    /// Configuration name of the model (e.g. `Imp-11`).
    pub config: String,
    /// Model input feature count.
    pub features: usize,
    /// Ensemble size.
    pub trees: usize,
    /// Artifact checksum the entry was loaded against.
    pub checksum: String,
    /// Artifact format version of the loaded file.
    pub schema_version: u32,
    /// Split layer recorded in the model's train metadata.
    pub split_layer: String,
}

/// A server response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Health`]. Identity fields describe the
    /// current *default* model (use [`Request::ListModels`] for the
    /// whole catalog).
    Health {
        /// Configuration name of the served model (e.g. `Imp-11`).
        model: String,
        /// Model input feature count — `ScorePairs` rows must match.
        features: usize,
        /// Ensemble size of the served model.
        trees: usize,
        /// Artifact format version the server was built against.
        artifact_version: u32,
        /// Catalog id of the default model.
        model_id: String,
        /// Artifact checksum of the default model.
        checksum: String,
        /// Artifact format version of the default model's loaded file.
        schema_version: u32,
    },
    /// Answer to [`Request::ListModels`].
    Models {
        /// The id requests without a `model_id` route to.
        default_model: String,
        /// Every servable model, sorted by id.
        models: Vec<ModelInfo>,
    },
    /// Answer to a successful [`Request::Reload`]: the catalog now
    /// serving.
    Reloaded {
        /// Default model id after the swap.
        default_model: String,
        /// Ids now servable, sorted.
        models: Vec<String>,
        /// Successful reloads since startup, including this one.
        reloads: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// The counters at the time the request was handled.
        stats: StatsSnapshot,
    },
    /// Answer to [`Request::ScorePairs`].
    Scores {
        /// `probs[k]` is the ensemble probability for input row `k`,
        /// bit-identical to an in-process `Bagging::proba` call.
        probs: Vec<f64>,
    },
    /// Answer to [`Request::Attack`].
    AttackResult {
        /// Accuracy/LoC summary at the requested threshold.
        summary: AttackSummary,
        /// Complete scoring result when `detail` was requested.
        scored: Option<ScoredView>,
    },
    /// Answer to [`Request::Shutdown`]; the server stops accepting new
    /// connections after sending this.
    ShuttingDown,
    /// The server is saturated (worker pool and connection queue full)
    /// and shed this connection instead of queueing it. The connection
    /// is closed after this reply; reconnect after roughly
    /// `retry_after_ms`.
    Busy {
        /// Server's backoff hint in milliseconds.
        retry_after_ms: u64,
    },
    /// The request could not be served. Whether the connection stays
    /// usable depends on the code: `bad_request` leaves it open,
    /// `too_large` and `timeout` close it (the request's remaining
    /// bytes cannot be safely resynchronized).
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable description of what was wrong.
        message: String,
    },
}

/// Longest NDJSON reply line, newline included. A server whose reply
/// would be longer answers `TooLarge` in its place, and the connection
/// stays usable; a client refuses a longer line without buffering past
/// the cap. The largest replies are `Attack`s with `detail: true`, which
/// grow with the square of a design's v-pins. For the largest layer-6
/// design they are 0.6 MB at `gen --scale 0.1`, 2.4 MB at the default
/// 0.2, 14.7 MB at 0.5 and 21 MB (past this cap) at 0.6. Binary frames
/// have no such cap, so larger scored views travel on the binary wire.
pub const MAX_REPLY_LINE_BYTES: usize = 16 << 20;

/// Which wire encoding a client speaks. The server needs no such knob:
/// it detects the wire per connection from the first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Wire {
    /// Newline-delimited JSON (protocol v1); the default, spoken by
    /// every client since PR 2.
    #[default]
    Ndjson,
    /// Length-prefixed binary frames (protocol v2).
    Binary,
}

impl Wire {
    /// The CLI/report name (`ndjson`, `binary`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Wire::Ndjson => "ndjson",
            Wire::Binary => "binary",
        }
    }
}

impl std::fmt::Display for Wire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Wire {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ndjson" => Ok(Wire::Ndjson),
            "binary" => Ok(Wire::Binary),
            other => Err(format!("unknown wire format {other:?} (ndjson|binary)")),
        }
    }
}

/// The length-prefixed binary protocol v2: frame header codec plus the
/// dense payloads for the two hot-path messages. Everything here is
/// pure encode/decode — no I/O — so the server's state machine and the
/// blocking client share one implementation.
pub mod binary {
    use super::{Request, Response};
    use sm_attack::attack::{Cand, VpinScore};
    use sm_attack::ScoredView;

    /// First magic byte. Chosen to be a UTF-8 continuation byte so a
    /// binary connection can never be mistaken for NDJSON: no valid
    /// JSON request line can start with `0xB5`.
    pub const MAGIC0: u8 = 0xB5;
    /// Second magic byte (`b'S'` for "splitmfg serve").
    pub const MAGIC1: u8 = 0x53;
    /// Protocol version carried in every frame header.
    pub const VERSION: u8 = 2;
    /// Bytes in a frame header.
    pub const HEADER_LEN: usize = 8;

    /// Frame type: JSON-encoded control [`Request`] payload (`Health`,
    /// `Stats`, `ListModels`, `Reload`, `Shutdown`). `ScorePairs` and
    /// `Attack` travel only in their dense frames.
    pub const FRAME_JSON_REQUEST: u8 = 0x01;
    /// Frame type: dense [`Request::ScorePairs`] payload.
    pub const FRAME_SCORE_PAIRS: u8 = 0x02;
    /// Frame type: dense [`Request::Attack`] payload.
    pub const FRAME_ATTACK: u8 = 0x03;
    /// Frame type: JSON-encoded [`Response`] payload.
    pub const FRAME_JSON_RESPONSE: u8 = 0x81;
    /// Frame type: dense [`Response::Scores`] payload.
    pub const FRAME_SCORES: u8 = 0x82;
    /// Frame type: dense [`Response::AttackResult`] payload.
    pub const FRAME_ATTACK_RESULT: u8 = 0x83;

    /// In a ScorePairs payload, this `model_id` length sentinel means
    /// "no model id" (route to the server's default model).
    pub const NO_MODEL_ID: u32 = u32::MAX;

    /// Why a frame failed to decode. [`FrameError::TooLarge`] maps to
    /// the `too_large` error code on the server; everything else is
    /// `bad_request`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum FrameError {
        /// The first two bytes were not `B5 53`.
        BadMagic([u8; 2]),
        /// The version byte was not [`VERSION`].
        BadVersion(u8),
        /// The frame type byte was not one this side understands.
        UnknownType(u8),
        /// The declared payload length exceeds the receiver's byte cap.
        /// Detected from the header alone, before reading the payload.
        TooLarge {
            /// Payload length the header declared.
            declared: u64,
            /// The receiver's cap.
            cap: u64,
        },
        /// The payload did not match its declared structure (truncated
        /// field, row-count/length mismatch, invalid UTF-8 model id,
        /// JSON payload that did not parse).
        Malformed(String),
    }

    impl std::fmt::Display for FrameError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                FrameError::BadMagic(bytes) => {
                    write!(f, "bad frame magic {bytes:02x?} (expected [b5, 53])")
                }
                FrameError::BadVersion(v) => {
                    write!(f, "unsupported protocol version {v} (expected {VERSION})")
                }
                FrameError::UnknownType(t) => write!(f, "unknown frame type 0x{t:02x}"),
                FrameError::TooLarge { declared, cap } => {
                    write!(f, "declared payload of {declared} bytes exceeds cap {cap}")
                }
                FrameError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            }
        }
    }

    /// A decoded frame header: what follows on the wire is `len` bytes
    /// of `frame_type` payload.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FrameHeader {
        /// One of the `FRAME_*` constants.
        pub frame_type: u8,
        /// Payload byte length.
        pub len: u32,
    }

    /// Encodes a frame header.
    #[must_use]
    pub fn encode_header(frame_type: u8, len: u32) -> [u8; HEADER_LEN] {
        let l = len.to_le_bytes();
        [MAGIC0, MAGIC1, VERSION, frame_type, l[0], l[1], l[2], l[3]]
    }

    /// Decodes and validates a frame header against the receiver's
    /// payload cap. Magic, version, and known-type checks happen here so
    /// a server can reject a stream as garbage from 8 bytes, and the
    /// cap check happens *before* any payload is read so an attacker
    /// declaring a huge length never makes the receiver buffer it.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadMagic`], [`FrameError::BadVersion`],
    /// [`FrameError::UnknownType`], or [`FrameError::TooLarge`].
    pub fn decode_header(bytes: [u8; HEADER_LEN], cap: u64) -> Result<FrameHeader, FrameError> {
        if [bytes[0], bytes[1]] != [MAGIC0, MAGIC1] {
            return Err(FrameError::BadMagic([bytes[0], bytes[1]]));
        }
        if bytes[2] != VERSION {
            return Err(FrameError::BadVersion(bytes[2]));
        }
        let frame_type = bytes[3];
        if !matches!(
            frame_type,
            FRAME_JSON_REQUEST
                | FRAME_SCORE_PAIRS
                | FRAME_ATTACK
                | FRAME_JSON_RESPONSE
                | FRAME_SCORES
                | FRAME_ATTACK_RESULT
        ) {
            return Err(FrameError::UnknownType(frame_type));
        }
        let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if u64::from(len) > cap {
            return Err(FrameError::TooLarge {
                declared: u64::from(len),
                cap,
            });
        }
        Ok(FrameHeader { frame_type, len })
    }

    /// Little-endian cursor over a payload slice.
    struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn u8(&mut self) -> Result<u8, FrameError> {
            let b = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| FrameError::Malformed("truncated u8 field".into()))?;
            self.pos += 1;
            Ok(b)
        }

        fn u32(&mut self) -> Result<u32, FrameError> {
            let bytes: [u8; 4] = self
                .buf
                .get(self.pos..self.pos + 4)
                .ok_or_else(|| FrameError::Malformed("truncated u32 field".into()))?
                .try_into()
                .expect("4-byte slice");
            self.pos += 4;
            Ok(u32::from_le_bytes(bytes))
        }

        fn u64(&mut self) -> Result<u64, FrameError> {
            let bytes: [u8; 8] = self
                .buf
                .get(self.pos..self.pos + 8)
                .ok_or_else(|| FrameError::Malformed("truncated u64 field".into()))?
                .try_into()
                .expect("8-byte slice");
            self.pos += 8;
            Ok(u64::from_le_bytes(bytes))
        }

        fn i64(&mut self) -> Result<i64, FrameError> {
            self.u64().map(|v| v as i64)
        }

        fn f64(&mut self) -> Result<f64, FrameError> {
            self.u64().map(f64::from_bits)
        }

        fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
            let s = self
                .buf
                .get(self.pos..self.pos + n)
                .ok_or_else(|| FrameError::Malformed(format!("truncated {n}-byte field")))?;
            self.pos += n;
            Ok(s)
        }

        /// A `u32` length-prefixed UTF-8 string field.
        fn str_field(&mut self, what: &str) -> Result<&'a str, FrameError> {
            let len = self.u32()? as usize;
            let raw = self.bytes(len)?;
            std::str::from_utf8(raw)
                .map_err(|_| FrameError::Malformed(format!("{what} is not valid UTF-8")))
        }

        /// The optional model id convention shared by the dense request
        /// payloads: a length of [`NO_MODEL_ID`] means "route to the
        /// default model", anything else prefixes that many id bytes.
        fn opt_model_id(&mut self) -> Result<Option<&'a str>, FrameError> {
            let id_len = self.u32()?;
            if id_len == NO_MODEL_ID {
                return Ok(None);
            }
            let raw = self.bytes(id_len as usize)?;
            std::str::from_utf8(raw)
                .map(Some)
                .map_err(|_| FrameError::Malformed("model id is not valid UTF-8".into()))
        }

        fn finish(self) -> Result<(), FrameError> {
            if self.pos == self.buf.len() {
                Ok(())
            } else {
                Err(FrameError::Malformed(format!(
                    "{} trailing bytes after payload",
                    self.buf.len() - self.pos
                )))
            }
        }
    }

    /// Appends a `u32` length-prefixed byte string.
    fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }

    /// Appends the optional-model-id field (see [`Reader::opt_model_id`]).
    fn put_opt_model_id(out: &mut Vec<u8>, model_id: Option<&str>) {
        match model_id {
            None => out.extend_from_slice(&NO_MODEL_ID.to_le_bytes()),
            Some(id) => put_bytes(out, id.as_bytes()),
        }
    }

    /// A borrowed view of a dense `ScorePairs` payload: the header fields
    /// decoded, the `f64` row bytes still sitting in the input buffer.
    /// The server's hot path decodes rows straight from the connection
    /// buffer into the kernel batch through this view — no intermediate
    /// `Vec<Vec<f64>>`, no payload copy.
    #[derive(Debug, Clone, Copy)]
    pub struct ScorePairsView<'a> {
        /// Routing id, borrowed from the payload; `None` routes to the
        /// server's default model.
        pub model_id: Option<&'a str>,
        /// Feature rows in the payload.
        pub rows: usize,
        /// Columns per row (must equal the model's feature count).
        pub cols: usize,
        /// `rows * cols` little-endian `f64`s, exactly `rows * cols * 8`
        /// bytes.
        data: &'a [u8],
    }

    impl ScorePairsView<'_> {
        /// Appends the payload's `rows x cols` values to `out` in
        /// row-major order, bit-exactly.
        pub fn extend_rows_into(&self, out: &mut Vec<f64>) {
            out.reserve(self.rows * self.cols);
            for c in self.data.chunks_exact(8) {
                out.push(f64::from_le_bytes(c.try_into().expect("8-byte chunk")));
            }
        }
    }

    /// Decodes a dense `ScorePairs` payload into a borrowed
    /// [`ScorePairsView`] without copying the row bytes.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] on any structural mismatch.
    pub fn decode_score_pairs(payload: &[u8]) -> Result<ScorePairsView<'_>, FrameError> {
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let model_id = r.opt_model_id()?;
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        if rows > 0 && cols == 0 {
            // No model has zero features, and without this check a
            // 12-byte payload could make a caller materialize billions
            // of empty rows.
            return Err(FrameError::Malformed(format!(
                "{rows} rows declared with zero columns"
            )));
        }
        let need = rows
            .checked_mul(cols)
            .and_then(|cells| cells.checked_mul(8))
            .ok_or_else(|| FrameError::Malformed("row/col counts overflow".into()))?;
        let data = r.bytes(need)?;
        r.finish()?;
        Ok(ScorePairsView {
            model_id,
            rows,
            cols,
            data,
        })
    }

    /// Encodes a complete request frame (header + payload).
    /// `ScorePairs` and `Attack` use their dense layouts; every other
    /// request is a JSON payload in a [`FRAME_JSON_REQUEST`] frame.
    #[must_use]
    pub fn encode_request(req: &Request) -> Vec<u8> {
        match req {
            Request::ScorePairs { features, model_id } => {
                let cols = features.first().map_or(0, Vec::len);
                let id_len = model_id.as_ref().map_or(4, |id| 4 + id.len());
                let mut out =
                    Vec::with_capacity(HEADER_LEN + id_len + 8 + features.len() * cols * 8);
                out.extend_from_slice(&[0u8; HEADER_LEN]);
                put_opt_model_id(&mut out, model_id.as_deref());
                out.extend_from_slice(&(features.len() as u32).to_le_bytes());
                out.extend_from_slice(&(cols as u32).to_le_bytes());
                for row in features {
                    for &v in row {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
                seal_frame(out, FRAME_SCORE_PAIRS)
            }
            Request::Attack {
                challenge,
                truth,
                threshold,
                detail,
                model_id,
            } => {
                let mut out =
                    Vec::with_capacity(HEADER_LEN + 32 + challenge.len() + truth.len() + 64);
                out.extend_from_slice(&[0u8; HEADER_LEN]);
                put_opt_model_id(&mut out, model_id.as_deref());
                out.extend_from_slice(&threshold.to_le_bytes());
                out.push(u8::from(*detail));
                put_bytes(&mut out, challenge.as_bytes());
                put_bytes(&mut out, truth.as_bytes());
                seal_frame(out, FRAME_ATTACK)
            }
            other => encode_json_frame(
                FRAME_JSON_REQUEST,
                &serde_json::to_string(other).expect("requests always serialize"),
            ),
        }
    }

    /// Encodes a complete response frame (header + payload). `Scores`
    /// and `AttackResult` use their dense layouts; every other response
    /// is a JSON payload in a [`FRAME_JSON_RESPONSE`] frame.
    #[must_use]
    pub fn encode_response(resp: &Response) -> Vec<u8> {
        match resp {
            Response::Scores { probs } => {
                let mut out = Vec::with_capacity(HEADER_LEN + 4 + probs.len() * 8);
                out.extend_from_slice(&encode_header(FRAME_SCORES, (4 + probs.len() * 8) as u32));
                out.extend_from_slice(&(probs.len() as u32).to_le_bytes());
                for &p in probs {
                    out.extend_from_slice(&p.to_le_bytes());
                }
                out
            }
            Response::AttackResult { summary, scored } => {
                let mut out = Vec::with_capacity(HEADER_LEN + 128);
                out.extend_from_slice(&[0u8; HEADER_LEN]);
                put_bytes(&mut out, summary.design.as_bytes());
                out.extend_from_slice(&(summary.num_vpins as u64).to_le_bytes());
                out.extend_from_slice(&summary.pairs_scored.to_le_bytes());
                out.extend_from_slice(&summary.threshold.to_le_bytes());
                out.extend_from_slice(&summary.accuracy.to_le_bytes());
                out.extend_from_slice(&summary.mean_loc.to_le_bytes());
                out.extend_from_slice(&summary.max_accuracy.to_le_bytes());
                match scored {
                    None => out.push(0),
                    Some(view) => {
                        out.push(1);
                        put_scored_view(&mut out, view);
                    }
                }
                seal_frame(out, FRAME_ATTACK_RESULT)
            }
            other => encode_json_frame(
                FRAME_JSON_RESPONSE,
                &serde_json::to_string(other).expect("responses always serialize"),
            ),
        }
    }

    /// Fills in the header of a frame built with a zeroed header
    /// placeholder, now that the payload length is known.
    fn seal_frame(mut out: Vec<u8>, frame_type: u8) -> Vec<u8> {
        let len = (out.len() - HEADER_LEN) as u32;
        out[..HEADER_LEN].copy_from_slice(&encode_header(frame_type, len));
        out
    }

    fn encode_json_frame(frame_type: u8, json: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + json.len());
        out.extend_from_slice(&encode_header(frame_type, json.len() as u32));
        out.extend_from_slice(json.as_bytes());
        out
    }

    /// Dense [`ScoredView`] layout: the scalar fields, the histogram,
    /// then each slot (`vpin`, optional `true_prob`, candidate list).
    /// All integers little-endian fixed width, all `f64`s raw bits.
    fn put_scored_view(out: &mut Vec<u8>, view: &ScoredView) {
        out.extend_from_slice(&(view.num_view_vpins as u64).to_le_bytes());
        out.extend_from_slice(&view.pairs_scored.to_le_bytes());
        out.extend_from_slice(&(view.hist.len() as u32).to_le_bytes());
        for &count in &view.hist {
            out.extend_from_slice(&count.to_le_bytes());
        }
        out.extend_from_slice(&(view.slots.len() as u32).to_le_bytes());
        for slot in &view.slots {
            out.extend_from_slice(&slot.vpin.to_le_bytes());
            match slot.true_prob {
                None => out.push(0),
                Some(p) => {
                    out.push(1);
                    out.extend_from_slice(&p.to_le_bytes());
                }
            }
            out.extend_from_slice(&(slot.top.len() as u32).to_le_bytes());
            for cand in &slot.top {
                out.extend_from_slice(&cand.p.to_le_bytes());
                out.extend_from_slice(&cand.index.to_le_bytes());
                out.extend_from_slice(&cand.dist.to_le_bytes());
            }
        }
    }

    /// Decodes a `0`/`1` presence byte; anything else is malformed (the
    /// flag doubles as a frame-desync detector).
    fn flag(r: &mut Reader<'_>, what: &str) -> Result<bool, FrameError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(FrameError::Malformed(format!(
                "{what} flag must be 0 or 1, got {other}"
            ))),
        }
    }

    fn read_scored_view(r: &mut Reader<'_>) -> Result<ScoredView, FrameError> {
        let num_view_vpins = r.u64()? as usize;
        let pairs_scored = r.u64()?;
        let hist_len = r.u32()? as usize;
        let mut hist = Vec::with_capacity(hist_len.min(r.buf.len() / 8 + 1));
        for _ in 0..hist_len {
            hist.push(r.u64()?);
        }
        let num_slots = r.u32()? as usize;
        let mut slots = Vec::with_capacity(num_slots.min(r.buf.len() / 9 + 1));
        for _ in 0..num_slots {
            let vpin = r.u32()?;
            let true_prob = flag(r, "true_prob")?.then(|| r.f64()).transpose()?;
            let top_len = r.u32()? as usize;
            let mut top = Vec::with_capacity(top_len.min(r.buf.len() / 20 + 1));
            for _ in 0..top_len {
                top.push(Cand {
                    p: r.f64()?,
                    index: r.u32()?,
                    dist: r.i64()?,
                });
            }
            slots.push(VpinScore {
                vpin,
                true_prob,
                top,
            });
        }
        Ok(ScoredView {
            slots,
            hist,
            num_view_vpins,
            pairs_scored,
        })
    }

    /// Decodes a request payload whose header declared `frame_type`.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] on any structural mismatch, including a
    /// `ScorePairs` or `Attack` request in a [`FRAME_JSON_REQUEST`]
    /// frame (those have dense frames of their own), or
    /// [`FrameError::UnknownType`] for a response-direction type.
    pub fn decode_request(frame_type: u8, payload: &[u8]) -> Result<Request, FrameError> {
        match frame_type {
            FRAME_JSON_REQUEST => {
                let text = std::str::from_utf8(payload)
                    .map_err(|_| FrameError::Malformed("request JSON is not UTF-8".into()))?;
                match serde_json::from_str(text) {
                    Ok(Request::ScorePairs { .. } | Request::Attack { .. }) => {
                        Err(FrameError::Malformed(
                            "ScorePairs and Attack use their dense frames (0x02, 0x03); \
                             the JSON frame carries control requests only"
                                .into(),
                        ))
                    }
                    Ok(request) => Ok(request),
                    Err(e) => Err(FrameError::Malformed(format!("request JSON: {e}"))),
                }
            }
            FRAME_SCORE_PAIRS => {
                let view = decode_score_pairs(payload)?;
                // `decode_score_pairs` admits zero columns only with zero rows.
                let features = if view.cols == 0 {
                    Vec::new()
                } else {
                    let mut flat = Vec::new();
                    view.extend_rows_into(&mut flat);
                    flat.chunks_exact(view.cols).map(<[f64]>::to_vec).collect()
                };
                Ok(Request::ScorePairs {
                    features,
                    model_id: view.model_id.map(str::to_owned),
                })
            }
            FRAME_ATTACK => {
                let mut r = Reader {
                    buf: payload,
                    pos: 0,
                };
                let model_id = r.opt_model_id()?.map(str::to_owned);
                let threshold = r.f64()?;
                let detail = flag(&mut r, "detail")?;
                let challenge = r.str_field("challenge")?.to_owned();
                let truth = r.str_field("truth")?.to_owned();
                r.finish()?;
                Ok(Request::Attack {
                    challenge,
                    truth,
                    threshold,
                    detail,
                    model_id,
                })
            }
            other => Err(FrameError::UnknownType(other)),
        }
    }

    /// Decodes a response payload whose header declared `frame_type`.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] on any structural mismatch, or
    /// [`FrameError::UnknownType`] for a request-direction type.
    pub fn decode_response(frame_type: u8, payload: &[u8]) -> Result<Response, FrameError> {
        match frame_type {
            FRAME_JSON_RESPONSE => serde_json::from_str(
                std::str::from_utf8(payload)
                    .map_err(|_| FrameError::Malformed("response JSON is not UTF-8".into()))?,
            )
            .map_err(|e| FrameError::Malformed(format!("response JSON: {e}"))),
            FRAME_SCORES => {
                let mut r = Reader {
                    buf: payload,
                    pos: 0,
                };
                let count = r.u32()? as usize;
                let raw = r.bytes(count * 8)?;
                let probs = raw
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect();
                r.finish()?;
                Ok(Response::Scores { probs })
            }
            FRAME_ATTACK_RESULT => {
                let mut r = Reader {
                    buf: payload,
                    pos: 0,
                };
                let design = r.str_field("design")?.to_owned();
                let num_vpins = r.u64()? as usize;
                let pairs_scored = r.u64()?;
                let threshold = r.f64()?;
                let accuracy = r.f64()?;
                let mean_loc = r.f64()?;
                let max_accuracy = r.f64()?;
                let scored = flag(&mut r, "scored")?
                    .then(|| read_scored_view(&mut r))
                    .transpose()?;
                r.finish()?;
                Ok(Response::AttackResult {
                    summary: super::AttackSummary {
                        design,
                        num_vpins,
                        pairs_scored,
                        threshold,
                        accuracy,
                        mean_loc,
                        max_accuracy,
                    },
                    scored,
                })
            }
            other => Err(FrameError::UnknownType(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn requests_roundtrip_and_are_single_line() {
        let reqs = vec![
            Request::Health,
            Request::Stats,
            Request::ListModels,
            Request::Reload,
            Request::ScorePairs {
                features: vec![vec![1.0, 2.5], vec![0.0, -3.0]],
                model_id: None,
            },
            Request::ScorePairs {
                features: vec![vec![1.0]],
                model_id: Some("retrained".into()),
            },
            Request::Attack {
                challenge: "design sb1\n".into(),
                truth: "0 1\n".into(),
                threshold: 0.5,
                detail: true,
                model_id: Some("incumbent".into()),
            },
            Request::Shutdown,
        ];
        for req in reqs {
            let line = serde_json::to_string(&req).expect("serializes");
            assert!(!line.contains('\n'), "one request per line: {line}");
            let back: Request = serde_json::from_str(&line).expect("parses");
            assert_eq!(req, back);
        }
        for (line, _) in readme_session() {
            serde_json::from_str::<Request>(line)
                .unwrap_or_else(|e| panic!("README request {line}: {e}"));
        }
    }

    /// The `(request, reply)` line pairs of README's `nc` session, so the
    /// documented wire cannot drift from the types.
    fn readme_session() -> Vec<(&'static str, &'static str)> {
        let readme = include_str!("../../../README.md");
        let start = readme
            .find("$ nc 127.0.0.1 7878\n")
            .expect("README has the nc session");
        let lines: Vec<&str> = readme[start..]
            .lines()
            .skip(1)
            .take_while(|l| !l.starts_with("```"))
            .collect();
        assert!(
            lines.len() >= 8 && lines.len().is_multiple_of(2),
            "{lines:?}"
        );
        lines.chunks(2).map(|p| (p[0], p[1])).collect()
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            Response::Health {
                model: "Imp-11".into(),
                features: 11,
                trees: 10,
                artifact_version: 1,
                model_id: "incumbent".into(),
                checksum: "fnv1a64:00000000000000ab".into(),
                schema_version: 1,
            },
            Response::Stats {
                stats: StatsSnapshot {
                    model_id: "incumbent".into(),
                    model_checksum: "fnv1a64:00000000000000ab".into(),
                    schema_version: 1,
                    reloads: 2,
                    shadow: Some(ShadowReport {
                        shadow_model: "retrained".into(),
                        threshold: 0.5,
                        sampled_requests: 7,
                        compared_pairs: 448,
                        max_abs_dp: 0.25,
                        mean_abs_dp: 0.125,
                        disagreements: 3,
                        shadow_missing: 1,
                    }),
                    requests: 5,
                    errors: 1,
                    io_errors: 2,
                    shed: 3,
                    timeouts: 4,
                    pairs_scored: 1234,
                    event_loops: 2,
                    score_batches: 10,
                    batched_rows: 2048,
                    p50_us: 40,
                    p95_us: 90,
                    p99_us: 99,
                    max_us: 120,
                },
            },
            Response::Models {
                default_model: "incumbent".into(),
                models: vec![ModelInfo {
                    model_id: "incumbent".into(),
                    config: "Imp-11".into(),
                    features: 11,
                    trees: 10,
                    checksum: "fnv1a64:00000000000000ab".into(),
                    schema_version: 1,
                    split_layer: "V8".into(),
                }],
            },
            Response::Reloaded {
                default_model: "retrained".into(),
                models: vec!["incumbent".into(), "retrained".into()],
                reloads: 3,
            },
            Response::Scores {
                probs: vec![0.25, 1.0 / 3.0],
            },
            Response::ShuttingDown,
            Response::Busy { retry_after_ms: 50 },
            Response::Error {
                code: ErrorCode::BadRequest,
                message: "bad batch".into(),
            },
            Response::Error {
                code: ErrorCode::TooLarge,
                message: "request line over the byte cap".into(),
            },
            Response::Error {
                code: ErrorCode::Timeout,
                message: "request read timed out".into(),
            },
        ];
        for resp in resps {
            let line = serde_json::to_string(&resp).expect("serializes");
            assert!(!line.contains('\n'));
            let back: Response = serde_json::from_str(&line).expect("parses");
            assert_eq!(resp, back);
        }
        // README's replies parse and print back byte for byte: a field
        // added, dropped or renamed fails here.
        for (_, line) in readme_session() {
            let resp: Response =
                serde_json::from_str(line).unwrap_or_else(|e| panic!("README reply {line}: {e}"));
            assert_eq!(serde_json::to_string(&resp).expect("serializes"), line);
        }
    }

    #[test]
    fn error_codes_name_themselves_and_classify_retryability() {
        for (code, name) in [
            (ErrorCode::BadRequest, "bad_request"),
            (ErrorCode::TooLarge, "too_large"),
            (ErrorCode::Timeout, "timeout"),
            (ErrorCode::Busy, "busy"),
            (ErrorCode::NotFound, "not_found"),
        ] {
            assert_eq!(code.as_str(), name);
            assert_eq!(code.to_string(), name);
            let line = serde_json::to_string(&code).expect("serializes");
            let back: ErrorCode = serde_json::from_str(&line).expect("parses");
            assert_eq!(code, back);
        }
    }

    #[test]
    fn pre_registry_request_lines_still_parse() {
        // Wire compatibility: a client built before per-model routing
        // sends no `model_id` key at all — that must parse as `None`
        // (route to default), not as a bad request.
        let line = r#"{"ScorePairs":{"features":[[1.0,2.0]]}}"#;
        let req: Request = serde_json::from_str(line).expect("parses");
        assert_eq!(
            req,
            Request::ScorePairs {
                features: vec![vec![1.0, 2.0]],
                model_id: None,
            }
        );
        let line = r#"{"Attack":{"challenge":"c","truth":"t","threshold":0.5,"detail":false}}"#;
        let req: Request = serde_json::from_str(line).expect("parses");
        assert_eq!(
            req,
            Request::Attack {
                challenge: "c".into(),
                truth: "t".into(),
                threshold: 0.5,
                detail: false,
                model_id: None,
            }
        );
    }

    fn frame_roundtrip_request(req: &Request) -> Request {
        let frame = binary::encode_request(req);
        let header = binary::decode_header(
            frame[..binary::HEADER_LEN].try_into().expect("header"),
            1 << 20,
        )
        .expect("valid header");
        assert_eq!(header.len as usize, frame.len() - binary::HEADER_LEN);
        binary::decode_request(header.frame_type, &frame[binary::HEADER_LEN..]).expect("decodes")
    }

    fn frame_roundtrip_response(resp: &Response) -> Response {
        let frame = binary::encode_response(resp);
        let header = binary::decode_header(
            frame[..binary::HEADER_LEN].try_into().expect("header"),
            1 << 20,
        )
        .expect("valid header");
        assert_eq!(header.len as usize, frame.len() - binary::HEADER_LEN);
        binary::decode_response(header.frame_type, &frame[binary::HEADER_LEN..]).expect("decodes")
    }

    #[test]
    fn binary_frames_roundtrip_every_request_variant() {
        let reqs = vec![
            Request::Health,
            Request::Stats,
            Request::ListModels,
            Request::Reload,
            Request::ScorePairs {
                features: vec![
                    vec![1.0, 2.5, -0.0],
                    vec![f64::MIN_POSITIVE, 3.0, 1.0 / 3.0],
                ],
                model_id: None,
            },
            Request::ScorePairs {
                features: vec![],
                model_id: Some(String::new()),
            },
            Request::ScorePairs {
                features: vec![vec![(0.1f64).sqrt()]],
                model_id: Some("retrained".into()),
            },
            Request::Attack {
                challenge: "design sb1\n".into(),
                truth: "0 1\n".into(),
                threshold: 0.5,
                detail: true,
                model_id: Some("incumbent".into()),
            },
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(req, frame_roundtrip_request(&req), "{req:?}");
        }
    }

    #[test]
    fn binary_frames_roundtrip_responses_bit_for_bit() {
        let probs: Vec<f64> = (0..300).map(|k| (k as f64 / 299.0).sqrt()).collect();
        let Response::Scores { probs: back } = frame_roundtrip_response(&Response::Scores {
            probs: probs.clone(),
        }) else {
            panic!("wrong variant");
        };
        for (a, b) in probs.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for resp in [
            Response::ShuttingDown,
            Response::Busy { retry_after_ms: 50 },
            Response::Error {
                code: ErrorCode::NotFound,
                message: "no such model".into(),
            },
        ] {
            assert_eq!(resp, frame_roundtrip_response(&resp), "{resp:?}");
        }
    }

    fn sample_scored_view() -> ScoredView {
        use sm_attack::attack::{Cand, VpinScore};
        ScoredView {
            slots: vec![
                VpinScore {
                    vpin: 0,
                    true_prob: Some((0.3f64).sqrt()),
                    top: vec![
                        Cand {
                            p: 0.875,
                            index: 3,
                            dist: -1200,
                        },
                        Cand {
                            p: 1.0 / 3.0,
                            index: 1,
                            dist: i64::MAX,
                        },
                    ],
                },
                VpinScore {
                    vpin: 7,
                    true_prob: None,
                    top: vec![],
                },
            ],
            hist: vec![0, 3, u64::MAX, 42],
            num_view_vpins: 9,
            pairs_scored: 1234,
        }
    }

    #[test]
    fn dense_attack_request_roundtrips_on_its_own_frame_type() {
        let req = Request::Attack {
            challenge: "design sb1\nvpin 0 10 20\n".into(),
            truth: "0 1\n".into(),
            threshold: 0.65,
            detail: true,
            model_id: Some("incumbent".into()),
        };
        let frame = binary::encode_request(&req);
        let header = binary::decode_header(
            frame[..binary::HEADER_LEN].try_into().expect("header"),
            1 << 20,
        )
        .expect("valid header");
        assert_eq!(
            header.frame_type,
            binary::FRAME_ATTACK,
            "Attack must ride its dense frame, not JSON"
        );
        assert_eq!(req, frame_roundtrip_request(&req));
        // No model id and no detail also roundtrip.
        let req = Request::Attack {
            challenge: String::new(),
            truth: String::new(),
            threshold: f64::MIN_POSITIVE,
            detail: false,
            model_id: None,
        };
        assert_eq!(req, frame_roundtrip_request(&req));
    }

    #[test]
    fn dense_attack_result_roundtrips_scored_view_bit_for_bit() {
        let resp = Response::AttackResult {
            summary: AttackSummary {
                design: "sb1".into(),
                num_vpins: 9,
                pairs_scored: 1234,
                threshold: 0.65,
                accuracy: (0.7f64).sqrt(),
                mean_loc: 3.5,
                max_accuracy: 0.875,
            },
            scored: Some(sample_scored_view()),
        };
        let frame = binary::encode_response(&resp);
        let header = binary::decode_header(
            frame[..binary::HEADER_LEN].try_into().expect("header"),
            1 << 20,
        )
        .expect("valid header");
        assert_eq!(header.frame_type, binary::FRAME_ATTACK_RESULT);
        let back = frame_roundtrip_response(&resp);
        // PartialEq on f64 treats -0.0 == 0.0; check the bits explicitly
        // for the fields that travel as raw f64.
        let (
            Response::AttackResult { summary, scored },
            Response::AttackResult {
                summary: s2,
                scored: sc2,
            },
        ) = (&resp, &back)
        else {
            panic!("wrong variant");
        };
        assert_eq!(summary.accuracy.to_bits(), s2.accuracy.to_bits());
        let (a, b) = (scored.as_ref().expect("view"), sc2.as_ref().expect("view"));
        assert_eq!(a.hist, b.hist);
        assert_eq!(a.num_view_vpins, b.num_view_vpins);
        assert_eq!(a.slots.len(), b.slots.len());
        for (sa, sb) in a.slots.iter().zip(&b.slots) {
            assert_eq!(sa.vpin, sb.vpin);
            assert_eq!(
                sa.true_prob.map(f64::to_bits),
                sb.true_prob.map(f64::to_bits)
            );
            for (ca, cb) in sa.top.iter().zip(&sb.top) {
                assert_eq!(ca.p.to_bits(), cb.p.to_bits());
                assert_eq!(ca.index, cb.index);
                assert_eq!(ca.dist, cb.dist);
            }
        }
        assert_eq!(resp, back);

        // A summary-only result (detail=false) roundtrips too.
        let lean = Response::AttackResult {
            summary: AttackSummary {
                design: "sb1".into(),
                num_vpins: 9,
                pairs_scored: 1234,
                threshold: 0.65,
                accuracy: 0.5,
                mean_loc: 3.5,
                max_accuracy: 0.875,
            },
            scored: None,
        };
        assert_eq!(lean, frame_roundtrip_response(&lean));
    }

    /// A complete `0x01` frame carrying `req` as JSON, the framing a
    /// client written before the dense frames sends for every request.
    fn json_request_frame(req: &Request) -> Vec<u8> {
        let json = serde_json::to_string(req).expect("serializes");
        let mut frame =
            binary::encode_header(binary::FRAME_JSON_REQUEST, json.len() as u32).to_vec();
        frame.extend_from_slice(json.as_bytes());
        frame
    }

    #[test]
    fn json_forced_framing_mirrors_for_compat_clients() {
        use binary::FrameError;
        // The JSON frame carries control requests only: a JSON-framed
        // ScorePairs or Attack is a typed Malformed error, and the dense
        // frames are the one framing for scoring.
        for req in [
            Request::ScorePairs {
                features: vec![vec![0.5; 3]],
                model_id: None,
            },
            Request::Attack {
                challenge: "c".into(),
                truth: "t".into(),
                threshold: 0.5,
                detail: false,
                model_id: Some("m".into()),
            },
        ] {
            let frame = json_request_frame(&req);
            let header = binary::decode_header(
                frame[..binary::HEADER_LEN].try_into().expect("header"),
                1 << 20,
            )
            .expect("a well-formed header");
            assert!(
                matches!(
                    binary::decode_request(header.frame_type, &frame[binary::HEADER_LEN..]),
                    Err(FrameError::Malformed(ref m)) if m.contains("dense")
                ),
                "{req:?}"
            );
            let dense = binary::encode_request(&req);
            assert_ne!(dense[3], binary::FRAME_JSON_REQUEST, "{req:?}");
            assert_eq!(frame_roundtrip_request(&req), req);
        }
        // Control requests still travel, and decode, as JSON frames.
        for req in [
            Request::Health,
            Request::Stats,
            Request::ListModels,
            Request::Reload,
            Request::Shutdown,
        ] {
            let frame = binary::encode_request(&req);
            assert_eq!(frame, json_request_frame(&req));
            assert_eq!(frame_roundtrip_request(&req), req);
        }
    }

    #[test]
    fn dense_attack_rejects_structural_garbage() {
        use binary::FrameError;
        // A presence flag outside {0,1} is a desync, not a bool.
        let req = Request::Attack {
            challenge: "c".into(),
            truth: "t".into(),
            threshold: 0.5,
            detail: true,
            model_id: None,
        };
        let frame = binary::encode_request(&req);
        let mut payload = frame[binary::HEADER_LEN..].to_vec();
        payload[4 + 8] = 2; // the detail flag, after model-id sentinel + threshold
        assert!(matches!(
            binary::decode_request(binary::FRAME_ATTACK, &payload),
            Err(FrameError::Malformed(_))
        ));
        // Truncated challenge field.
        let mut short = frame[binary::HEADER_LEN..].to_vec();
        short.truncate(short.len() - 1);
        assert!(matches!(
            binary::decode_request(binary::FRAME_ATTACK, &short),
            Err(FrameError::Malformed(_))
        ));
        // Trailing junk after a well-formed result payload.
        let resp = Response::AttackResult {
            summary: AttackSummary {
                design: "sb1".into(),
                num_vpins: 9,
                pairs_scored: 12,
                threshold: 0.5,
                accuracy: 0.25,
                mean_loc: 2.0,
                max_accuracy: 0.5,
            },
            scored: Some(sample_scored_view()),
        };
        let frame = binary::encode_response(&resp);
        let mut payload = frame[binary::HEADER_LEN..].to_vec();
        payload.push(0xEE);
        assert!(matches!(
            binary::decode_response(binary::FRAME_ATTACK_RESULT, &payload),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn score_pairs_view_borrows_rows_without_copying() {
        let req = Request::ScorePairs {
            features: vec![vec![1.5, -2.25], vec![0.0, 1.0 / 3.0]],
            model_id: Some("m".into()),
        };
        let frame = binary::encode_request(&req);
        let view = binary::decode_score_pairs(&frame[binary::HEADER_LEN..]).expect("view decodes");
        assert_eq!(view.model_id, Some("m"));
        assert_eq!((view.rows, view.cols), (2, 2));
        let mut flat = Vec::new();
        view.extend_rows_into(&mut flat);
        let expect = [1.5f64, -2.25, 0.0, 1.0 / 3.0];
        assert_eq!(flat.len(), 4);
        for (a, b) in flat.iter().zip(expect.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn binary_header_rejects_garbage_and_oversized_declarations() {
        use binary::FrameError;
        let ok = binary::encode_header(binary::FRAME_SCORE_PAIRS, 16);
        assert!(binary::decode_header(ok, 16).is_ok());

        let mut bad_magic = ok;
        bad_magic[0] = b'{';
        assert!(matches!(
            binary::decode_header(bad_magic, 16),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad_version = ok;
        bad_version[2] = 3;
        assert_eq!(
            binary::decode_header(bad_version, 16),
            Err(FrameError::BadVersion(3))
        );

        let mut bad_type = ok;
        bad_type[3] = 0x7f;
        assert_eq!(
            binary::decode_header(bad_type, 16),
            Err(FrameError::UnknownType(0x7f))
        );

        // The cap is enforced from the header alone: a declared length
        // one past the cap is rejected before any payload exists.
        assert_eq!(
            binary::decode_header(ok, 15),
            Err(FrameError::TooLarge {
                declared: 16,
                cap: 15
            })
        );
        assert_eq!(
            binary::decode_header(
                binary::encode_header(binary::FRAME_SCORE_PAIRS, u32::MAX),
                15
            ),
            Err(FrameError::TooLarge {
                declared: u64::from(u32::MAX),
                cap: 15
            })
        );
    }

    #[test]
    fn binary_payload_rejects_structural_mismatches() {
        use binary::FrameError;
        // Truncated mid-row: declared 2×2 rows but only 3 f64s present.
        let mut payload = Vec::new();
        payload.extend_from_slice(&binary::NO_MODEL_ID.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        for v in [1.0f64, 2.0, 3.0] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        assert!(matches!(
            binary::decode_request(binary::FRAME_SCORE_PAIRS, &payload),
            Err(FrameError::Malformed(_))
        ));

        // Trailing junk after a well-formed payload is rejected too.
        let mut frame = binary::encode_request(&Request::ScorePairs {
            features: vec![vec![1.0]],
            model_id: None,
        });
        frame.push(0xEE);
        assert!(matches!(
            binary::decode_request(binary::FRAME_SCORE_PAIRS, &frame[binary::HEADER_LEN..]),
            Err(FrameError::Malformed(_))
        ));

        // A model id that is not UTF-8.
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xFF, 0xFE]);
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            binary::decode_request(binary::FRAME_SCORE_PAIRS, &payload),
            Err(FrameError::Malformed(_))
        ));

        // Rows with zero columns: 12 bytes that would otherwise ask the
        // decoder for u32::MAX empty rows.
        let mut payload = Vec::new();
        payload.extend_from_slice(&binary::NO_MODEL_ID.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(payload.len(), 12);
        assert!(matches!(
            binary::decode_score_pairs(&payload),
            Err(FrameError::Malformed(_))
        ));
        assert!(matches!(
            binary::decode_request(binary::FRAME_SCORE_PAIRS, &payload),
            Err(FrameError::Malformed(_))
        ));

        // Response-direction frame type on the request decoder.
        assert_eq!(
            binary::decode_request(binary::FRAME_SCORES, &[]),
            Err(FrameError::UnknownType(binary::FRAME_SCORES))
        );
    }

    #[test]
    fn binary_magic_cannot_start_an_ndjson_line() {
        // Wire auto-detection hinges on this: 0xB5 is a UTF-8
        // continuation byte, so no valid JSON text can begin with it.
        assert!(std::str::from_utf8(&[binary::MAGIC0]).is_err());
        assert!(std::str::from_utf8(&[binary::MAGIC0, b'{', b'}']).is_err());
    }

    #[test]
    fn probabilities_survive_json_bit_for_bit() {
        // The transport must not perturb scores: shortest-roundtrip floats.
        let probs: Vec<f64> = (0..64).map(|k| (k as f64 / 63.0).sqrt()).collect();
        let line = serde_json::to_string(&Response::Scores {
            probs: probs.clone(),
        })
        .expect("serializes");
        let Response::Scores { probs: back } = serde_json::from_str(&line).expect("parses") else {
            panic!("wrong variant");
        };
        assert_eq!(probs.len(), back.len());
        for (a, b) in probs.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Text from arbitrary code points (surrogates become U+FFFD), so
    /// strings cover multi-byte UTF-8 and JSON escapes.
    fn text(codes: Vec<u32>) -> String {
        codes
            .into_iter()
            .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
            .collect()
    }

    /// Every `f64` a request carries, as raw bits.
    fn request_bits(req: &Request) -> Vec<u64> {
        match req {
            Request::ScorePairs { features, .. } => {
                features.iter().flatten().map(|v| v.to_bits()).collect()
            }
            Request::Attack { threshold, .. } => vec![threshold.to_bits()],
            _ => Vec::new(),
        }
    }

    /// Every `f64` a response carries, as raw bits.
    fn response_bits(resp: &Response) -> Vec<u64> {
        match resp {
            Response::Scores { probs } => probs.iter().map(|p| p.to_bits()).collect(),
            Response::AttackResult { summary, scored } => {
                let mut bits = [
                    summary.threshold,
                    summary.accuracy,
                    summary.mean_loc,
                    summary.max_accuracy,
                ]
                .map(f64::to_bits)
                .to_vec();
                for slot in scored.iter().flat_map(|view| &view.slots) {
                    bits.extend(slot.true_prob.map(f64::to_bits));
                    bits.extend(slot.top.iter().map(|c| c.p.to_bits()));
                }
                bits
            }
            _ => Vec::new(),
        }
    }

    /// Splits a complete frame into its validated header and payload.
    fn split_frame(frame: &[u8]) -> (u8, &[u8]) {
        let header = binary::decode_header(
            frame[..binary::HEADER_LEN].try_into().expect("header"),
            u64::from(u32::MAX),
        )
        .expect("valid header");
        let payload = &frame[binary::HEADER_LEN..];
        assert_eq!(header.len as usize, payload.len());
        (header.frame_type, payload)
    }

    /// Decoding then re-encoding gives the same bytes, and every `f64`
    /// comes back with the same bits (NaN payloads and signed zeros
    /// included, which `PartialEq` cannot see).
    fn assert_request_roundtrips(req: &Request) {
        let frame = binary::encode_request(req);
        let (frame_type, payload) = split_frame(&frame);
        let back = binary::decode_request(frame_type, payload).expect("decodes");
        assert_eq!(binary::encode_request(&back), frame, "{req:?}");
        assert_eq!(request_bits(&back), request_bits(req));
        for cut in 0..payload.len() {
            assert!(
                matches!(
                    binary::decode_request(frame_type, &payload[..cut]),
                    Err(binary::FrameError::Malformed(_))
                ),
                "{req:?} truncated to {cut} bytes"
            );
        }
    }

    /// A scoring request in a JSON frame is `Malformed`, whole or cut
    /// at about 16 evenly spaced points (a cut at every byte of a long
    /// JSON payload would dominate the suite's run time).
    fn assert_json_framed_rejected(req: &Request) {
        let frame = json_request_frame(req);
        let payload = &frame[binary::HEADER_LEN..];
        let step = payload.len() / 16 + 1;
        for cut in (0..payload.len()).step_by(step).chain([payload.len()]) {
            assert!(
                matches!(
                    binary::decode_request(binary::FRAME_JSON_REQUEST, &payload[..cut]),
                    Err(binary::FrameError::Malformed(_))
                ),
                "{req:?} as JSON, {cut} bytes"
            );
        }
    }

    /// [`assert_request_roundtrips`] for responses.
    fn assert_response_roundtrips(resp: &Response) {
        let frame = binary::encode_response(resp);
        let (frame_type, payload) = split_frame(&frame);
        let back = binary::decode_response(frame_type, payload).expect("decodes");
        assert_eq!(binary::encode_response(&back), frame, "{resp:?}");
        assert_eq!(response_bits(&back), response_bits(resp));
        for cut in 0..payload.len() {
            assert!(
                matches!(
                    binary::decode_response(frame_type, &payload[..cut]),
                    Err(binary::FrameError::Malformed(_))
                ),
                "{resp:?} truncated to {cut} bytes"
            );
        }
    }

    const REQUEST_TYPES: [u8; 3] = [
        binary::FRAME_JSON_REQUEST,
        binary::FRAME_SCORE_PAIRS,
        binary::FRAME_ATTACK,
    ];
    const RESPONSE_TYPES: [u8; 3] = [
        binary::FRAME_JSON_RESPONSE,
        binary::FRAME_SCORES,
        binary::FRAME_ATTACK_RESULT,
    ];

    /// A JSON control response; `f64` fields are kept finite because
    /// JSON has no NaN or infinity.
    fn control_response(kind: u8, words: &[String], n: u64, x: f64) -> Response {
        let word = |k: usize| words.get(k).cloned().unwrap_or_default();
        let x = if x.is_finite() { x } else { 0.0 };
        match kind % 7 {
            0 => Response::Health {
                model: word(0),
                features: n as usize,
                trees: (n >> 7) as usize,
                artifact_version: n as u32,
                model_id: word(1),
                checksum: word(2),
                schema_version: (n >> 32) as u32,
            },
            1 => Response::Models {
                default_model: word(0),
                models: words
                    .iter()
                    .map(|w| ModelInfo {
                        model_id: w.clone(),
                        config: word(1),
                        features: n as usize,
                        trees: 3,
                        checksum: w.clone(),
                        schema_version: 1,
                        split_layer: word(2),
                    })
                    .collect(),
            },
            2 => Response::Reloaded {
                default_model: word(0),
                models: words.to_vec(),
                reloads: n,
            },
            3 => Response::Stats {
                stats: StatsSnapshot {
                    model_id: word(0),
                    requests: n,
                    p99_us: n / 3,
                    shadow: Some(ShadowReport {
                        shadow_model: word(1),
                        threshold: x,
                        sampled_requests: n,
                        compared_pairs: n / 2,
                        max_abs_dp: x,
                        mean_abs_dp: -x,
                        disagreements: 1,
                        shadow_missing: 0,
                    }),
                    ..StatsSnapshot::default()
                },
            },
            4 => Response::ShuttingDown,
            5 => Response::Busy { retry_after_ms: n },
            _ => Response::Error {
                code: [
                    ErrorCode::BadRequest,
                    ErrorCode::TooLarge,
                    ErrorCode::Timeout,
                    ErrorCode::Busy,
                    ErrorCode::NotFound,
                ][(n % 5) as usize],
                message: word(0),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        fn dense_score_pairs_roundtrip_bit_for_bit(
            model_id in prop::option::of(
                prop::collection::vec(any::<u32>(), 0..12)
            ),
            cells in prop::collection::vec(any::<u64>(), 0..64),
            cols in 1usize..10,
        ) {
            let features = cells
                .chunks_exact(cols)
                .map(|row| row.iter().map(|&b| f64::from_bits(b)).collect())
                .collect();
            let req = Request::ScorePairs {
                features,
                model_id: model_id.map(text),
            };
            assert_request_roundtrips(&req);
            assert_json_framed_rejected(&req);
        }

        fn dense_attack_roundtrips_bit_for_bit(
            model_id in prop::option::of(
                prop::collection::vec(any::<u32>(), 0..12)
            ),
            threshold in any::<u64>(),
            detail in any::<bool>(),
            challenge in prop::collection::vec(any::<u32>(), 0..40),
            truth in prop::collection::vec(any::<u32>(), 0..40),
        ) {
            let req = Request::Attack {
                challenge: text(challenge),
                truth: text(truth),
                threshold: f64::from_bits(threshold),
                detail,
                model_id: model_id.map(text),
            };
            assert_request_roundtrips(&req);
            assert_json_framed_rejected(&req);
        }

        fn dense_scores_roundtrip_bit_for_bit(
            probs in prop::collection::vec(any::<u64>(), 0..300),
        ) {
            assert_response_roundtrips(&Response::Scores {
                probs: probs.into_iter().map(f64::from_bits).collect(),
            });
        }

        fn dense_attack_result_roundtrips_bit_for_bit(
            design in prop::collection::vec(any::<u32>(), 0..16),
            counts in (any::<u64>(), any::<u64>()),
            floats in (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
            ),
            view in prop::option::of((
                (any::<u64>(), any::<u64>()),
                prop::collection::vec(any::<u64>(), 0..12),
                prop::collection::vec(
                    (
                        any::<u32>(),
                        prop::option::of(any::<u64>()),
                        prop::collection::vec(
                            (
                                any::<u64>(),
                                any::<u32>(),
                                any::<i64>(),
                            ),
                            0..5,
                        ),
                    ),
                    0..6,
                ),
            )),
        ) {
            use sm_attack::attack::{Cand, VpinScore};
            let scored = view.map(|((vpins, pairs), hist, slots)| ScoredView {
                slots: slots
                    .into_iter()
                    .map(|(vpin, true_prob, top)| VpinScore {
                        vpin,
                        true_prob: true_prob.map(f64::from_bits),
                        top: top
                            .into_iter()
                            .map(|(p, index, dist)| Cand {
                                p: f64::from_bits(p),
                                index,
                                dist,
                            })
                            .collect(),
                    })
                    .collect(),
                hist,
                num_view_vpins: vpins as usize,
                pairs_scored: pairs,
            });
            assert_response_roundtrips(&Response::AttackResult {
                summary: AttackSummary {
                    design: text(design),
                    num_vpins: counts.0 as usize,
                    pairs_scored: counts.1,
                    threshold: f64::from_bits(floats.0),
                    accuracy: f64::from_bits(floats.1),
                    mean_loc: f64::from_bits(floats.2),
                    max_accuracy: f64::from_bits(floats.3),
                },
                scored,
            });
        }

        fn json_control_frames_roundtrip(
            kind in 0u8..5,
            response_kind in any::<u8>(),
            words in prop::collection::vec(
                prop::collection::vec(any::<u32>(), 0..10),
                0..4,
            ),
            n in any::<u64>(),
            x in any::<u64>(),
        ) {
            let req = [
                Request::Health,
                Request::Stats,
                Request::ListModels,
                Request::Reload,
                Request::Shutdown,
            ][usize::from(kind)]
            .clone();
            assert_eq!(binary::encode_request(&req)[3], binary::FRAME_JSON_REQUEST);
            assert_request_roundtrips(&req);
            let words: Vec<String> = words.into_iter().map(text).collect();
            let resp = control_response(response_kind, &words, n, f64::from_bits(x));
            let frame = binary::encode_response(&resp);
            assert_eq!(frame[3], binary::FRAME_JSON_RESPONSE);
            let (frame_type, payload) = split_frame(&frame);
            assert_eq!(binary::decode_response(frame_type, payload), Ok(resp.clone()));
            assert_response_roundtrips(&resp);
        }

        fn arbitrary_payloads_decode_or_fail_typed(
            frame_type in any::<u8>(),
            payload in prop::collection::vec(any::<u8>(), 0..96),
            header in prop::collection::vec(any::<u8>(), 8),
            cap in any::<u64>(),
        ) {
            use binary::FrameError;
            // Every frame type byte on both decoders: a wrong-direction
            // or unknown type is `UnknownType`, anything else decodes or
            // is `Malformed`, and a JSON frame never yields scoring.
            for t in REQUEST_TYPES.into_iter().chain(RESPONSE_TYPES).chain([frame_type]) {
                match binary::decode_request(t, &payload) {
                    Ok(Request::ScorePairs { .. } | Request::Attack { .. }) => {
                        assert_ne!(t, binary::FRAME_JSON_REQUEST);
                    }
                    Ok(_) | Err(FrameError::Malformed(_)) => assert!(REQUEST_TYPES.contains(&t)),
                    Err(FrameError::UnknownType(u)) => {
                        assert_eq!(u, t);
                        assert!(!REQUEST_TYPES.contains(&t));
                    }
                    Err(e) => panic!("request decoder gave a header error {e:?}"),
                }
                match binary::decode_response(t, &payload) {
                    Ok(_) | Err(FrameError::Malformed(_)) => assert!(RESPONSE_TYPES.contains(&t)),
                    Err(FrameError::UnknownType(u)) => {
                        assert_eq!(u, t);
                        assert!(!RESPONSE_TYPES.contains(&t));
                    }
                    Err(e) => panic!("response decoder gave a header error {e:?}"),
                }
            }
            // A dense ScorePairs header with garbage counts, and any header.
            let mut counts = binary::NO_MODEL_ID.to_le_bytes().to_vec();
            counts.extend_from_slice(&payload);
            let _ = binary::decode_request(binary::FRAME_SCORE_PAIRS, &counts);
            let header: [u8; binary::HEADER_LEN] = header.try_into().expect("8 bytes");
            let _ = binary::decode_header(header, cap);
        }
    }
}
