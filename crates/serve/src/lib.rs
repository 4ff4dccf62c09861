//! # sm-serve — model artifact store and attack inference service
//!
//! The paper's threat model (and its deep-learning scale-up successors)
//! assumes an attacker who trains *once* and then scores millions of v-pin
//! pairs cheaply. This crate turns the reproduction into exactly that
//! system:
//!
//! - [`artifact`] — a versioned, checksummed on-disk format for trained
//!   [`sm_attack::TrainedAttack`] models (`splitmfg train` writes one,
//!   every other entry point loads it back with typed validation errors).
//! - [`registry`] — a versioned on-disk model registry (checksummed
//!   artifacts plus a checksummed `index` file) loaded into an immutable
//!   in-memory [`registry::Catalog`] that the server hot-swaps atomically
//!   on `Reload` — deploy a retrained attacker next to the incumbent
//!   without dropping a connection.
//! - [`protocol`] — the request/response types the server speaks
//!   (`score_pairs`, `attack`, `list_models`, `reload`, `health`,
//!   `stats`, `shutdown`) with per-model routing via an optional
//!   `model_id` field, over two interchangeable wire encodings: NDJSON
//!   (protocol v1) and length-prefixed binary frames (protocol v2,
//!   [`protocol::binary`]). The server detects the wire per connection
//!   from its first byte; no negotiation round-trip.
//! - [`server`] — an event-driven TCP server: an epoll reactor (the
//!   vendored `mio` shim) does the socket I/O for every connection,
//!   whose protocol logic is a sans-io `Session` (no socket, no clock of
//!   its own, so every fault shape is testable without either). The
//!   loop scores each `ScorePairs` itself in one kernel call, and a
//!   bounded executor (sized by [`sm_ml::Parallelism`]) runs `Attack`
//!   requests. Hardened for
//!   hostile traffic: idle and mid-request deadlines, a hard cap on
//!   request bytes (checked from the binary header before buffering),
//!   `Busy` load shedding past the admission capacity, graceful
//!   shutdown, and exponential backoff on `accept()` errors — with
//!   exact request/latency/error/shed accounting.
//! - [`client`] — a blocking protocol client for either wire with
//!   connect/io deadlines and a bounded reply reader. Its
//!   [`ClientError::is_retryable`] states the retry contract: only `Io`
//!   and `Busy` failures may be retried.
//!
//! Everything is offline-buildable: no async runtime, only `std::net`,
//! `std::sync` and the workspace's vendored crates.
//!
//! ## Quick start
//!
//! ```
//! use sm_attack::attack::{AttackConfig, ScoreOptions, TrainedAttack};
//! use sm_layout::{SplitLayer, Suite};
//! use sm_serve::artifact::{ModelArtifact, TrainMeta};
//!
//! // Train once ...
//! let views = Suite::ispd2011_like(0.02)?.split_all(SplitLayer::new(8)?);
//! let train: Vec<_> = views[1..].iter().collect();
//! let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None)?;
//!
//! // ... checkpoint, reload, and the restored model scores bit-identically.
//! let artifact = ModelArtifact::from_trained(&model, TrainMeta::default());
//! let restored = ModelArtifact::decode(&artifact.encode())?.into_trained();
//! let opts = ScoreOptions::default();
//! assert_eq!(model.score(&views[0], &opts), restored.score(&views[0], &opts));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod artifact;
pub mod client;
mod framing;
pub mod protocol;
pub mod registry;
pub mod server;
mod session;

pub use artifact::{ArtifactError, ModelArtifact, TrainMeta, ARTIFACT_FORMAT, ARTIFACT_VERSION};
pub use client::{Client, ClientError, ClientTimeouts};
pub use protocol::{
    AttackSummary, ErrorCode, ModelInfo, Request, Response, ShadowReport, StatsSnapshot, Wire,
};
pub use registry::{
    publish, validate_model_id, verify, Catalog, IndexEntry, ModelEntry, RegistryError,
    RegistryIndex, VerifiedModel, REGISTRY_FORMAT, REGISTRY_VERSION, SINGLE_MODEL_ID,
};
pub use server::{
    event_loop_count, percentile_rank, pool_size, queue_depth, serve_source_with, ModelSource,
    ServeOptions, ServerHandle, ShadowConfig, ShutdownHandle, BUSY_RETRY_AFTER_MS,
};
