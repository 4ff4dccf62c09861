//! Subcommand implementations for the `splitmfg` binary.

use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use sm_attack::attack::{AttackConfig, ScoreOptions, ScoredView, TrainedAttack};
use sm_attack::checkpoint::{
    score_resumable_as, CheckpointError, CheckpointSpec, Resume, ScoreOutcome,
    DEFAULT_CHECKPOINT_EVERY,
};
use sm_attack::interrupt;
use sm_attack::proximity::{proximity_attack, validate_pa_fraction, DEFAULT_PA_FRACTIONS};
use sm_attack::Parallelism;
use sm_layout::io::{read_challenge, write_challenge, write_truth};
use sm_layout::{SplitLayer, SplitView, Suite};
use sm_serve::artifact::{ArtifactError, ModelArtifact, TrainMeta};
use sm_serve::client::{Client, ClientError};
use sm_serve::protocol::{Request, Response};
use sm_serve::registry::{publish, verify, RegistryError, RegistryIndex};
use sm_serve::server::{
    event_loop_count, pool_size, serve_source_with, ModelSource, ServeOptions, ShadowConfig,
    ShutdownHandle,
};

use crate::args::Args;

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Flag parsing / validation failure.
    Args(crate::args::ParseArgsError),
    /// Filesystem failure.
    Io(std::io::Error),
    /// Challenge parse failure.
    Parse(sm_layout::io::ParseChallengeError),
    /// Anything the attack layer reports.
    Attack(sm_attack::AttackError),
    /// A model artifact failed to load, validate, or save.
    Artifact(ArtifactError),
    /// A client failure talking to a running server (`models --addr`).
    Client(ClientError),
    /// A model registry failed to load, validate, or accept a publish.
    Registry(RegistryError),
    /// A checkpoint failed to load, verify, or save.
    Checkpoint(CheckpointError),
    /// The run was interrupted (SIGTERM/SIGINT) and drained cleanly;
    /// `main` maps this to exit code 3 so schedulers can tell a drained
    /// run from a failed one.
    Interrupted {
        /// Where the final checkpoint was written, if the interrupted
        /// stage had checkpointable state.
        checkpoint: Option<PathBuf>,
    },
    /// User-level misuse (unknown command, missing target, ...).
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "i/o: {e}"),
            CliError::Parse(e) => write!(f, "parse: {e}"),
            CliError::Attack(e) => write!(f, "attack: {e}"),
            CliError::Artifact(e) => write!(f, "{e}"),
            CliError::Client(e) => write!(f, "{e}"),
            CliError::Registry(e) => write!(f, "registry: {e}"),
            CliError::Checkpoint(e) => write!(f, "{e}"),
            CliError::Interrupted { checkpoint } => match checkpoint {
                Some(path) => write!(
                    f,
                    "interrupted; resume from the checkpoint at {} with --resume true",
                    path.display()
                ),
                None => write!(f, "interrupted before any checkpointable state existed"),
            },
            CliError::Usage(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<crate::args::ParseArgsError> for CliError {
    fn from(e: crate::args::ParseArgsError) -> Self {
        CliError::Args(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<sm_layout::io::ParseChallengeError> for CliError {
    fn from(e: sm_layout::io::ParseChallengeError) -> Self {
        CliError::Parse(e)
    }
}
impl From<sm_attack::AttackError> for CliError {
    fn from(e: sm_attack::AttackError) -> Self {
        CliError::Attack(e)
    }
}
impl From<ArtifactError> for CliError {
    fn from(e: ArtifactError) -> Self {
        CliError::Artifact(e)
    }
}
impl From<ClientError> for CliError {
    fn from(e: ClientError) -> Self {
        CliError::Client(e)
    }
}
impl From<RegistryError> for CliError {
    fn from(e: RegistryError) -> Self {
        CliError::Registry(e)
    }
}
impl From<CheckpointError> for CliError {
    fn from(e: CheckpointError) -> Self {
        CliError::Checkpoint(e)
    }
}

/// Routes a parsed command line to its implementation.
///
/// # Errors
///
/// Returns a [`CliError`] describing the failure; `main` prints it.
pub fn dispatch(args: &Args) -> Result<(), CliError> {
    match args.command.as_str() {
        "gen" => {
            args.check_known(&["out", "scale", "split"])?;
            cmd_gen(args)
        }
        "info" => {
            args.check_known(&["dir"])?;
            cmd_info(args)
        }
        "attack" => {
            args.check_known(&[
                "dir",
                "target",
                "config",
                "threshold",
                "threads",
                "model",
                "checkpoint-dir",
                "checkpoint-every",
                "resume",
                "json",
            ])?;
            cmd_attack(args)
        }
        "pa" => {
            args.check_known(&[
                "dir",
                "target",
                "config",
                "threads",
                "seed",
                "model",
                "checkpoint-dir",
                "checkpoint-every",
                "resume",
            ])?;
            cmd_pa(args)
        }
        "train" => {
            args.check_known(&[
                "dir",
                "target",
                "config",
                "threads",
                "out",
                "registry",
                "model-id",
                "make-default",
            ])?;
            cmd_train(args)
        }
        "serve" => {
            args.check_known(&[
                "model",
                "registry",
                "default-model",
                "shadow-model",
                "shadow-fraction",
                "addr",
                "threads",
                "request-timeout-ms",
                "idle-timeout-ms",
                "max-request-bytes",
                "max-queue",
                "event-loops",
            ])?;
            cmd_serve(args)
        }
        "models" => {
            args.check_known(&["registry", "addr", "verify"])?;
            cmd_models(args)
        }
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command '{other}' (try 'help')"
        ))),
    }
}

/// Prints usage text to stdout (`help` is an answer, not a diagnostic).
pub fn print_help() {
    println!(
        "splitmfg — ML security analysis of split manufacturing\n\
         \n\
         commands:\n\
         \x20 gen         --out DIR [--scale 0.2] [--split 8]         generate the 5-design suite\n\
         \x20 info        --dir DIR                                   summarise challenge files\n\
         \x20 attack      --dir DIR --target NAME [--config imp-11]\n\
         \x20             [--model FILE] [--threshold 0.5]\n\
         \x20             [--threads auto] [--checkpoint-dir DIR]\n\
         \x20             [--checkpoint-every 2048] [--resume false]\n\
         \x20             [--json FILE]                               leave-one-out ML attack\n\
         \x20 pa          --dir DIR --target NAME [--config imp-9]\n\
         \x20             [--model FILE] [--threads auto]\n\
         \x20             [--checkpoint-dir DIR]\n\
         \x20             [--checkpoint-every 2048] [--resume false]  validated proximity attack\n\
         \x20 train       --dir DIR (--out FILE | --registry DIR --model-id ID\n\
         \x20             [--make-default false]) [--target NAME]\n\
         \x20             [--config imp-11] [--threads auto]          fit once, write/publish an artifact\n\
         \x20 serve       (--model FILE | --registry DIR\n\
         \x20             [--default-model ID] [--shadow-model ID]\n\
         \x20             [--shadow-fraction 0.1])\n\
         \x20             [--addr 127.0.0.1:7878]\n\
         \x20             [--threads auto] [--request-timeout-ms 10000]\n\
         \x20             [--idle-timeout-ms 60000]\n\
         \x20             [--max-request-bytes 67108864]\n\
         \x20             [--max-queue 0] [--event-loops 0]           TCP inference server (ndjson+binary)\n\
         \x20 models      (--registry DIR [--verify true]\n\
         \x20             | --addr HOST:PORT)                         list / verify models\n\
         \x20 help                                                    this text\n\
         \n\
         configs: ml-9, imp-9, imp-7, imp-11, and Y variants (imp-9y, ...)\n\
         --threads takes 'auto', 'sequential', or a worker count; results\n\
         are identical for every setting (deterministic parallelism).\n\
         --model FILE loads a 'train' artifact instead of retraining; the\n\
         artifact records its own configuration, so --config is rejected.\n\
         serve timeouts/caps take 0 to disable (--max-queue 0 = 2x pool);\n\
         an overloaded server sheds connections with a Busy reply.\n\
         the server speaks two wires on one port, detected per connection\n\
         from the first byte: NDJSON (v1) and length-prefixed binary\n\
         frames (v2). --event-loops 0 sizes the reactor from the CPU\n\
         count; an event loop scores each ScorePairs itself, in one kernel\n\
         call, and --threads sizes the pool that runs Attack requests.\n\
         a registry is a directory of checksummed artifacts plus an index;\n\
         'train --registry' publishes into it atomically, 'serve --registry'\n\
         hosts every entry (requests route with \"model_id\", absent = the\n\
         default), a Reload request hot-swaps the catalog without dropping\n\
         connections, and --shadow-model scores a fraction of default-routed\n\
         traffic against a challenger, reporting exact divergence in Stats.\n\
         'models --registry DIR --verify true' sweeps every artifact offline\n\
         (index checksum + per-file hash + decode), nonzero exit on corruption.\n\
         crash safety: --checkpoint-dir makes attack/pa checkpoint every\n\
         --checkpoint-every targets (atomic, checksummed); --resume true\n\
         continues from the checkpoint, bit-identical to an uninterrupted\n\
         run (a mismatched config/model/view is a typed refusal). SIGTERM\n\
         drains the in-flight shard, writes a final checkpoint, and exits\n\
         with code 3 (0 = success, 1 = error, 2 = bad flags); 'attack\n\
         --json FILE' dumps the scored slots/hist/curve for comparison.\n\
         SIGTERM on serve stops accepting, drains in-flight requests, and\n\
         prints the final stats line, like a protocol Shutdown."
    );
}

fn parse_config(name: &str) -> Result<AttackConfig, CliError> {
    let lower = name.to_ascii_lowercase();
    let (base, y) = match lower.strip_suffix('y') {
        Some(stem) => (stem, true),
        None => (lower.as_str(), false),
    };
    let cfg = match base {
        "ml-9" | "ml9" => AttackConfig::ml9(),
        "imp-9" | "imp9" => AttackConfig::imp9(),
        "imp-7" | "imp7" => AttackConfig::imp7(),
        "imp-11" | "imp11" => AttackConfig::imp11(),
        _ => return Err(CliError::Usage(format!("unknown config '{name}'"))),
    };
    Ok(if y { cfg.with_y_limit() } else { cfg })
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let out: String = args
        .get_str("out")
        .ok_or_else(|| CliError::Usage("--out DIR required".into()))?
        .into();
    let scale: f64 = args.get_or("scale", 0.2)?;
    let split: u8 = args.get_or("split", 8)?;
    let layer = SplitLayer::new(split).map_err(|e| CliError::Usage(e.to_string()))?;
    fs::create_dir_all(&out)?;
    eprintln!("generating 5-design suite at scale {scale}, split layer {split} ...");
    let suite = Suite::ispd2011_like(scale).map_err(|e| CliError::Usage(e.to_string()))?;
    for bench in suite.benchmarks() {
        let view = bench.split(layer);
        let base = Path::new(&out).join(view.name.clone());
        fs::write(base.with_extension("challenge"), write_challenge(&view))?;
        fs::write(base.with_extension("truth"), write_truth(&view))?;
        println!(
            "{}: {} v-pins -> {}.challenge / .truth",
            view.name,
            view.num_vpins(),
            base.display()
        );
    }
    Ok(())
}

fn load_dir(dir: &str) -> Result<Vec<SplitView>, CliError> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "challenge"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::Usage(format!("no .challenge files in {dir}")));
    }
    let mut views = Vec::with_capacity(paths.len());
    for p in paths {
        let challenge = fs::read_to_string(&p)?;
        let truth = fs::read_to_string(p.with_extension("truth"))?;
        views.push(read_challenge(&challenge, &truth)?);
    }
    Ok(views)
}

fn split_target<'v>(
    views: &'v [SplitView],
    target: &str,
) -> Result<(Vec<&'v SplitView>, &'v SplitView), CliError> {
    let test = views
        .iter()
        .find(|v| v.name == target)
        .ok_or_else(|| CliError::Usage(format!("target '{target}' not found")))?;
    let train: Vec<&SplitView> = views.iter().filter(|v| v.name != target).collect();
    if train.is_empty() {
        return Err(CliError::Usage(
            "need at least one non-target design for training".into(),
        ));
    }
    Ok((train, test))
}

fn cmd_info(args: &Args) -> Result<(), CliError> {
    let dir: String = args
        .get_str("dir")
        .ok_or_else(|| CliError::Usage("--dir DIR required".into()))?
        .into();
    let views = load_dir(&dir)?;
    println!(
        "{:<8} {:>7} {:>9} {:>14} {:>12}",
        "design", "split", "v-pins", "die (um x um)", "drivers"
    );
    for v in &views {
        let drivers = v.vpins().iter().filter(|p| p.drives()).count();
        println!(
            "{:<8} {:>7} {:>9} {:>14} {:>12}",
            v.name,
            v.split.to_string(),
            v.num_vpins(),
            format!("{}x{}", v.die.width() / 1000, v.die.height() / 1000),
            drivers
        );
    }
    Ok(())
}

/// Loads a model artifact for `--model`, rejecting a simultaneous
/// `--config` (the artifact records its own configuration).
fn load_model_flag(args: &Args) -> Result<Option<TrainedAttack>, CliError> {
    let Some(path) = args.get_str("model") else {
        return Ok(None);
    };
    if args.get_str("config").is_some() {
        return Err(CliError::Usage(
            "--model and --config are mutually exclusive; the artifact records its \
             configuration"
                .into(),
        ));
    }
    let artifact = ModelArtifact::load(Path::new(path))?;
    let model = artifact.into_trained();
    eprintln!(
        "loaded {} from {path} ({} trees, {} training samples)",
        model.config().name,
        model.model().num_trees(),
        model.num_training_samples()
    );
    Ok(Some(model))
}

/// Validates the `--checkpoint-dir` / `--checkpoint-every` / `--resume`
/// flag family: values must parse, the dependent flags require
/// `--checkpoint-dir`, and `--checkpoint-every` must be at least 1.
/// Returns the resolved spec (checkpoint file `<file_name>` inside the
/// directory) plus the resume mode, or `None` when checkpointing is off.
fn checkpoint_flags(
    args: &Args,
    file_name: &str,
) -> Result<Option<(CheckpointSpec, Resume)>, CliError> {
    // Parse values first so garbage fails typed even when the combination
    // is also wrong.
    let every: usize = args.get_or("checkpoint-every", DEFAULT_CHECKPOINT_EVERY)?;
    let resume: bool = args.get_or("resume", false)?;
    let Some(dir) = args.get_str("checkpoint-dir") else {
        for flag in ["checkpoint-every", "resume"] {
            if args.get_str(flag).is_some() {
                return Err(CliError::Usage(format!(
                    "--{flag} requires --checkpoint-dir"
                )));
            }
        }
        return Ok(None);
    };
    if every == 0 {
        return Err(CliError::Usage("--checkpoint-every must be >= 1".into()));
    }
    fs::create_dir_all(dir)?;
    Ok(Some((
        CheckpointSpec {
            path: Path::new(dir).join(file_name),
            every,
        },
        if resume {
            Resume::IfPresent
        } else {
            Resume::Fresh
        },
    )))
}

/// Scores `test`, either directly or through the crash-safe resumable
/// driver when `--checkpoint-dir` is set. In checkpointing mode
/// SIGTERM/SIGINT drain the in-flight shard, persist a final checkpoint,
/// and surface as [`CliError::Interrupted`] (exit code 3).
fn score_maybe_resumable(
    kind: &str,
    model: &TrainedAttack,
    test: &SplitView,
    options: &ScoreOptions,
    checkpoint: Option<&(CheckpointSpec, Resume)>,
) -> Result<ScoredView, CliError> {
    let Some((spec, resume)) = checkpoint else {
        return Ok(model.score(test, options));
    };
    interrupt::install_handlers();
    match score_resumable_as(
        kind,
        model,
        test,
        options,
        spec,
        *resume,
        &interrupt::requested,
        &|done, total| {
            eprintln!(
                "resuming from checkpoint {} at {done}/{total} targets",
                spec.path.display()
            );
        },
    )? {
        ScoreOutcome::Complete(scored) => Ok(scored),
        ScoreOutcome::Interrupted {
            targets_done,
            num_targets,
        } => {
            eprintln!(
                "drained after {targets_done}/{num_targets} targets; checkpoint at {}",
                spec.path.display()
            );
            Err(CliError::Interrupted {
                checkpoint: Some(spec.path.clone()),
            })
        }
    }
}

fn cmd_attack(args: &Args) -> Result<(), CliError> {
    let dir: String = args
        .get_str("dir")
        .ok_or_else(|| CliError::Usage("--dir DIR required".into()))?
        .into();
    let target: String = args.require("target")?;
    let parallelism: Parallelism = args.get_or("threads", Parallelism::Auto)?;
    let threshold: f64 = args.get_or("threshold", 0.5)?;
    let checkpoint = checkpoint_flags(args, &format!("attack-{target}.ckpt"))?;

    let views = load_dir(&dir)?;
    let (train, test) = split_target(&views, &target)?;
    let model = match load_model_flag(args)? {
        Some(model) => model,
        None => {
            let config = parse_config(args.get_str("config").unwrap_or("imp-11"))?
                .with_parallelism(parallelism);
            eprintln!("training {} on {} designs ...", config.name, train.len());
            TrainedAttack::train(&config, &train, None)?
        }
    };
    eprintln!(
        "scoring {} ({} v-pins, {} training samples, radius {:?}) ...",
        test.name,
        test.num_vpins(),
        model.num_training_samples(),
        model.radius()
    );
    let scored = score_maybe_resumable(
        "attack",
        &model,
        test,
        &ScoreOptions {
            parallelism,
            ..ScoreOptions::default()
        },
        checkpoint.as_ref(),
    )?;
    if let Some(path) = args.get_str("json") {
        // Deterministic dump of the full scoring result: serde_json
        // round-trips f64 exactly, so byte-identical files mean
        // bit-identical slots/hists/curves (what the kill-and-resume
        // smoke compares with `cmp`).
        let json = format!(
            "{{\"scored\":{},\"curve\":{}}}\n",
            serde_json::to_string(&scored).expect("scored views always serialize"),
            serde_json::to_string(&scored.curve()).expect("curves always serialize"),
        );
        fs::write(path, json)?;
        eprintln!("wrote {path}");
    }
    println!("pairs evaluated : {}", scored.pairs_scored);
    println!("threshold       : {threshold}");
    println!("mean |LoC|      : {:.2}", scored.mean_loc_at(threshold));
    println!(
        "accuracy        : {:.2}%",
        100.0 * scored.accuracy_at(threshold)
    );
    println!("max accuracy    : {:.2}%", 100.0 * scored.max_accuracy());
    let curve = scored.curve();
    for acc in [0.95, 0.90, 0.80] {
        match curve.min_loc_at_accuracy(acc) {
            Some(pt) => println!(
                "|LoC| @ {:>3.0}% acc: {:.2} (threshold {:.3})",
                acc * 100.0,
                pt.mean_loc,
                pt.threshold
            ),
            None => println!(
                "|LoC| @ {:>3.0}% acc: unreachable (saturation)",
                acc * 100.0
            ),
        }
    }
    Ok(())
}

fn cmd_pa(args: &Args) -> Result<(), CliError> {
    let dir: String = args
        .get_str("dir")
        .ok_or_else(|| CliError::Usage("--dir DIR required".into()))?
        .into();
    let target: String = args.require("target")?;
    let parallelism: Parallelism = args.get_or("threads", Parallelism::Auto)?;
    let seed: u64 = args.get_or("seed", 17)?;
    let checkpoint = checkpoint_flags(args, &format!("pa-{target}.ckpt"))?;

    let views = load_dir(&dir)?;
    let (train, test) = split_target(&views, &target)?;
    // With --model, the PA-fraction validation reuses the artifact's
    // recorded configuration; only the already-trained ensemble is reused.
    let preloaded = load_model_flag(args)?;
    let config = match &preloaded {
        Some(model) => model.config().clone().with_parallelism(parallelism),
        None => {
            parse_config(args.get_str("config").unwrap_or("imp-9"))?.with_parallelism(parallelism)
        }
    };
    if checkpoint.is_some() {
        // Install early so a SIGTERM during the (non-checkpointable)
        // validation/training stages is honoured at the next stage
        // boundary instead of being lost.
        interrupt::install_handlers();
    }
    eprintln!("validating PA-LoC fractions on {} designs ...", train.len());
    let val = validate_pa_fraction(&config, &train, &DEFAULT_PA_FRACTIONS, seed)?;
    for (f, r) in &val.rates {
        println!(
            "fraction {:>7.3}% -> validation success {:>6.2}%",
            f * 100.0,
            r * 100.0
        );
    }
    println!("selected fraction: {:.3}%", val.best_fraction * 100.0);
    if checkpoint.is_some() && interrupt::requested() {
        // Stage boundary: validation is pure recomputation, so there is
        // nothing durable to write yet — a resume re-runs it identically.
        return Err(CliError::Interrupted { checkpoint: None });
    }
    let model = match preloaded {
        Some(model) => model,
        None => TrainedAttack::train(&config, &train, None)?,
    };
    let scored = score_maybe_resumable(
        "pa",
        &model,
        test,
        &ScoreOptions {
            parallelism,
            ..ScoreOptions::default()
        },
        checkpoint.as_ref(),
    )?;
    let outcome = proximity_attack(&scored, test, val.best_fraction, seed ^ 1);
    println!("proximity attack on {}: {}", test.name, outcome);
    Ok(())
}

/// Where `train` should put the finished artifact: a bare file, or a
/// named entry published into a registry directory.
enum TrainSink {
    File(String),
    Registry {
        dir: String,
        model_id: String,
        make_default: bool,
    },
}

/// Validates the `--out` / `--registry --model-id [--make-default]`
/// flag combinations *before* any training happens.
fn train_sink(args: &Args) -> Result<TrainSink, CliError> {
    match (args.get_str("out"), args.get_str("registry")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--out and --registry are mutually exclusive; pick a bare artifact file \
             or a registry publish"
                .into(),
        )),
        (None, None) => Err(CliError::Usage(
            "--out FILE or --registry DIR required".into(),
        )),
        (Some(out), None) => {
            for flag in ["model-id", "make-default"] {
                if args.get_str(flag).is_some() {
                    return Err(CliError::Usage(format!("--{flag} requires --registry")));
                }
            }
            Ok(TrainSink::File(out.into()))
        }
        (None, Some(dir)) => {
            let model_id: String = args
                .get_str("model-id")
                .ok_or_else(|| CliError::Usage("--registry requires --model-id ID".into()))?
                .into();
            Ok(TrainSink::Registry {
                dir: dir.into(),
                model_id,
                make_default: args.get_or("make-default", false)?,
            })
        }
    }
}

fn cmd_train(args: &Args) -> Result<(), CliError> {
    let dir: String = args
        .get_str("dir")
        .ok_or_else(|| CliError::Usage("--dir DIR required".into()))?
        .into();
    let sink = train_sink(args)?;
    let parallelism: Parallelism = args.get_or("threads", Parallelism::Auto)?;
    let config =
        parse_config(args.get_str("config").unwrap_or("imp-11"))?.with_parallelism(parallelism);

    let views = load_dir(&dir)?;
    let (train, excluded) = match args.get_str("target") {
        // Leave the named design out so the artifact is valid for a later
        // `attack --model` run against it.
        Some(target) => {
            let (train, _) = split_target(&views, target)?;
            (train, Some(target.to_owned()))
        }
        None => (views.iter().collect::<Vec<_>>(), None),
    };
    eprintln!("training {} on {} designs ...", config.name, train.len());
    let model = TrainedAttack::train(&config, &train, None)?;
    let meta = TrainMeta {
        benchmarks: train.iter().map(|v| v.name.clone()).collect(),
        split_layer: train[0].split.to_string(),
        excluded_target: excluded,
        created_unix_s: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
    };
    let artifact = ModelArtifact::from_trained(&model, meta);
    match sink {
        TrainSink::File(out) => {
            artifact.save(Path::new(&out))?;
            println!(
                "wrote {out}: {} ({} trees, {} training samples, {} bytes)",
                model.config().name,
                model.model().num_trees(),
                model.num_training_samples(),
                artifact.encode().len()
            );
        }
        TrainSink::Registry {
            dir,
            model_id,
            make_default,
        } => {
            let entry = publish(Path::new(&dir), &model_id, &artifact, make_default)?;
            let index = RegistryIndex::load(Path::new(&dir))?;
            println!(
                "published '{model_id}' to {dir}: {} ({} trees, {}){}",
                model.config().name,
                model.model().num_trees(),
                entry.checksum,
                if index.default_model == model_id {
                    " [default]"
                } else {
                    ""
                }
            );
        }
    }
    Ok(())
}

/// Validates the `--model` / `--registry` flag combinations and builds
/// the [`ModelSource`] plus the human-readable banner label.
fn serve_source_flags(args: &Args) -> Result<(ModelSource, String), CliError> {
    match (args.get_str("model"), args.get_str("registry")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--model and --registry are mutually exclusive; serve one artifact file \
             or a whole registry"
                .into(),
        )),
        (None, None) => Err(CliError::Usage(
            "--model FILE or --registry DIR required".into(),
        )),
        (Some(path), None) => {
            // Gate the registry-only flags before any file i/o.
            for flag in ["default-model", "shadow-model", "shadow-fraction"] {
                if args.get_str(flag).is_some() {
                    return Err(CliError::Usage(format!("--{flag} requires --registry")));
                }
            }
            let model = ModelArtifact::load(Path::new(path))?.into_trained();
            let label = model.config().name.clone();
            Ok((ModelSource::Single(model), label))
        }
        (None, Some(dir)) => {
            // Read the index up front for the banner; serve_source
            // re-validates (and checksums) everything when it loads the
            // catalog proper.
            let index = RegistryIndex::load(Path::new(dir))?;
            let default = args
                .get_str("default-model")
                .unwrap_or(&index.default_model)
                .to_owned();
            let label = format!(
                "registry {dir} ({} models, default '{default}')",
                index.entries.len()
            );
            Ok((
                ModelSource::Registry {
                    dir: PathBuf::from(dir),
                    default_model: args.get_str("default-model").map(str::to_owned),
                },
                label,
            ))
        }
    }
}

/// Validates the `--shadow-model` / `--shadow-fraction` pair.
fn shadow_flags(args: &Args) -> Result<Option<ShadowConfig>, CliError> {
    match args.get_str("shadow-model") {
        Some(id) => {
            let fraction: f64 = args.get_or("shadow-fraction", 0.1)?;
            if !(0.0..=1.0).contains(&fraction) {
                return Err(CliError::Usage(format!(
                    "--shadow-fraction must be in [0, 1], got {fraction}"
                )));
            }
            Ok(Some(ShadowConfig::new(id, fraction)))
        }
        None => {
            if args.get_str("shadow-fraction").is_some() {
                return Err(CliError::Usage(
                    "--shadow-fraction requires --shadow-model".into(),
                ));
            }
            Ok(None)
        }
    }
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    // Parse every scalar flag first so a typo'd value fails before any
    // model file or registry directory is touched.
    let addr: String = args.get_str("addr").unwrap_or("127.0.0.1:7878").into();
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        workers: args.get_or("threads", Parallelism::Auto)?,
        request_timeout_ms: args.get_or("request-timeout-ms", defaults.request_timeout_ms)?,
        idle_timeout_ms: args.get_or("idle-timeout-ms", defaults.idle_timeout_ms)?,
        max_request_bytes: args.get_or("max-request-bytes", defaults.max_request_bytes)?,
        max_queue: args.get_or("max-queue", defaults.max_queue)?,
        event_loops: args.get_or("event-loops", defaults.event_loops)?,
    };
    let shadow = shadow_flags(args)?;
    let (source, label) = serve_source_flags(args)?;
    let listener = TcpListener::bind(&addr)?;
    // Scripts parse this line for the resolved (possibly ephemeral) port.
    // "scoring workers" is the executor pool that runs `Attack` requests
    // (`pool_size`); the event loops are the reactor threads doing
    // connection i/o and `ScorePairs` scoring.
    println!(
        "serving {} on {} ({} scoring workers, {} event loops)",
        label,
        listener.local_addr()?,
        pool_size(options.workers),
        event_loop_count(&options)
    );
    use std::io::Write as _;
    std::io::stdout().flush()?;
    // SIGTERM/SIGINT drain the server exactly like a protocol Shutdown:
    // the handler only sets a flag; this watcher thread notices and pokes
    // the accept loop awake (glibc installs handlers with SA_RESTART, so
    // a blocked accept() would never otherwise observe the signal). The
    // thread is left running at exit — process teardown reaps it.
    interrupt::install_handlers();
    let shutdown = ShutdownHandle::new();
    let watcher = shutdown.clone();
    std::thread::spawn(move || loop {
        if interrupt::requested() {
            watcher.request();
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
    let stats = serve_source_with(source, shadow, listener, &options, Some(&shutdown))?;
    println!(
        "shutdown after {} requests ({} errors, {} io errors, {} shed, {} timeouts, \
         {} pairs scored, {} reloads); latency p50 {} us, p95 {} us, p99 {} us",
        stats.requests,
        stats.errors,
        stats.io_errors,
        stats.shed,
        stats.timeouts,
        stats.pairs_scored,
        stats.reloads,
        stats.p50_us,
        stats.p95_us,
        stats.p99_us
    );
    if stats.score_batches > 0 {
        println!(
            "score_pairs: {} kernel calls over {} rows ({:.1} rows/call)",
            stats.score_batches,
            stats.batched_rows,
            stats.batched_rows as f64 / stats.score_batches as f64
        );
    }
    if let Some(shadow) = &stats.shadow {
        println!(
            "shadow '{}': {} sampled requests, {} pairs compared, max |dp| {:.6}, \
             mean |dp| {:.6}, {} disagreements @ {}, {} missing",
            shadow.shadow_model,
            shadow.sampled_requests,
            shadow.compared_pairs,
            shadow.max_abs_dp,
            shadow.mean_abs_dp,
            shadow.disagreements,
            shadow.threshold,
            shadow.shadow_missing
        );
    }
    Ok(())
}

/// `models --verify`: offline integrity sweep of a registry directory,
/// one OK/CORRUPT line per model, typed error (nonzero exit) if anything
/// fails.
fn models_verify(dir: &str) -> Result<(), CliError> {
    let report = verify(Path::new(dir))?;
    let mut corrupt = 0usize;
    for model in &report {
        match &model.status {
            Ok(checksum) => println!("{:<20} OK      {checksum}", model.model_id),
            Err(reason) => {
                corrupt += 1;
                println!("{:<20} CORRUPT {reason}", model.model_id);
            }
        }
    }
    if corrupt > 0 {
        return Err(CliError::Usage(format!(
            "registry {dir} failed verification: {corrupt} of {} models corrupt",
            report.len()
        )));
    }
    println!("registry {dir} verified: {} models OK", report.len());
    Ok(())
}

fn cmd_models(args: &Args) -> Result<(), CliError> {
    // Parse --verify up front so garbage fails typed for either source.
    let verify_requested: bool = args.get_or("verify", false)?;
    match (args.get_str("registry"), args.get_str("addr")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--registry and --addr are mutually exclusive; inspect a directory \
             offline or ask a running server"
                .into(),
        )),
        (None, None) => Err(CliError::Usage(
            "--registry DIR or --addr HOST:PORT required".into(),
        )),
        (Some(dir), None) if verify_requested => models_verify(dir),
        (Some(dir), None) => {
            let index = RegistryIndex::load(Path::new(dir))?;
            println!(
                "registry {dir}: {} models, default '{}'",
                index.entries.len(),
                index.default_model
            );
            println!(
                "{:<20} {:>7} {:>7} {:<25} artifact",
                "model", "schema", "split", "checksum"
            );
            for e in &index.entries {
                let marker = if e.model_id == index.default_model {
                    "*"
                } else {
                    ""
                };
                println!(
                    "{:<20} {:>7} {:>7} {:<25} {}",
                    format!("{}{marker}", e.model_id),
                    e.schema_version,
                    e.meta.split_layer,
                    e.checksum,
                    e.path
                );
            }
            Ok(())
        }
        (None, Some(addr)) => {
            if args.get_str("verify").is_some() {
                return Err(CliError::Usage(
                    "--verify requires --registry (it is an offline filesystem sweep)".into(),
                ));
            }
            let mut client = Client::connect(addr)?;
            match client.call_ok(&Request::ListModels)? {
                Response::Models {
                    default_model,
                    models,
                } => {
                    println!(
                        "server {addr}: {} models, default '{default_model}'",
                        models.len()
                    );
                    println!(
                        "{:<20} {:<8} {:>8} {:>6} {:>7} checksum",
                        "model", "config", "features", "trees", "split"
                    );
                    for m in &models {
                        let marker = if m.model_id == default_model { "*" } else { "" };
                        println!(
                            "{:<20} {:<8} {:>8} {:>6} {:>7} {}",
                            format!("{}{marker}", m.model_id),
                            m.config,
                            m.features,
                            m.trees,
                            m.split_layer,
                            m.checksum
                        );
                    }
                    Ok(())
                }
                other => Err(CliError::Usage(format!(
                    "unexpected reply to ListModels: {other:?}"
                ))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_names_parse_with_and_without_y() {
        assert_eq!(parse_config("imp-11").expect("ok").name, "Imp-11");
        assert_eq!(parse_config("IMP9Y").expect("ok").name, "Imp-9Y");
        assert_eq!(parse_config("ml-9").expect("ok").name, "ML-9");
        assert!(parse_config("rococo").is_err());
    }

    #[test]
    fn gen_then_info_then_attack_roundtrip() {
        let dir = std::env::temp_dir().join("splitmfg_cli_test");
        let _ = fs::remove_dir_all(&dir);
        let gen = Args::parse(
            [
                "gen",
                "--out",
                dir.to_str().expect("utf8"),
                "--scale",
                "0.01",
                "--split",
                "8",
            ]
            .iter()
            .map(|s| (*s).to_owned()),
        )
        .expect("parses");
        dispatch(&gen).expect("gen runs");
        let views = load_dir(dir.to_str().expect("utf8")).expect("loads");
        assert_eq!(views.len(), 5);

        let attack = Args::parse(
            [
                "attack",
                "--dir",
                dir.to_str().expect("utf8"),
                "--target",
                "sb1",
                "--config",
                "imp-9",
            ]
            .iter()
            .map(|s| (*s).to_owned()),
        )
        .expect("parses");
        dispatch(&attack).expect("attack runs");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn threads_flag_parses_and_rejects_garbage() {
        let dir = std::env::temp_dir().join("splitmfg_cli_test_threads");
        let _ = fs::remove_dir_all(&dir);
        let gen = Args::parse(
            [
                "gen",
                "--out",
                dir.to_str().expect("utf8"),
                "--scale",
                "0.01",
                "--split",
                "8",
            ]
            .iter()
            .map(|s| (*s).to_owned()),
        )
        .expect("parses");
        dispatch(&gen).expect("gen runs");
        let base = [
            "attack",
            "--dir",
            dir.to_str().expect("utf8"),
            "--target",
            "sb1",
            "--config",
            "imp-9",
        ];
        for threads in ["2", "sequential", "auto"] {
            let mut argv: Vec<String> = base.iter().map(|s| (*s).to_owned()).collect();
            argv.extend(["--threads".to_owned(), threads.to_owned()]);
            let attack = Args::parse(argv).expect("parses");
            dispatch(&attack).expect("attack runs");
        }
        let mut argv: Vec<String> = base.iter().map(|s| (*s).to_owned()).collect();
        argv.extend(["--threads".to_owned(), "banana".to_owned()]);
        let attack = Args::parse(argv).expect("parses");
        assert!(matches!(dispatch(&attack), Err(CliError::Args(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_command_reports_usage() {
        let args = Args::parse(["frobnicate"].iter().map(|s| (*s).to_owned())).expect("parses");
        assert!(matches!(dispatch(&args), Err(CliError::Usage(_))));
    }

    fn dispatch_tokens(tokens: &[&str]) -> Result<(), CliError> {
        dispatch(&Args::parse(tokens.iter().map(|s| (*s).to_owned())).expect("parses"))
    }

    #[test]
    fn unknown_flags_are_typed_errors_not_ignored() {
        // A typo'd flag must surface as ParseArgsError::UnknownFlag for
        // every subcommand, not silently fall back to the default.
        for tokens in [
            &["attack", "--dir", "x", "--target", "sb1", "--treads", "4"][..],
            &["gen", "--out", "x", "--scael", "0.1"][..],
            &["info", "--dir", "x", "--verbose", "1"][..],
            &["train", "--dir", "x", "--out", "y", "--model", "z"][..],
            &["serve", "--model", "x", "--port", "80"][..],
            &["models", "--addr", "x", "--conns", "2"][..],
            // Removed options: the batch linger, intra-request batch
            // threads and JSON-framed scoring.
            &["serve", "--model", "x", "--batch-linger-us", "auto"][..],
            &["serve", "--model", "x", "--batch-threads", "seq"][..],
            &["models", "--addr", "x", "--json-payload", "true"][..],
        ] {
            let err = dispatch_tokens(tokens).expect_err("must reject");
            assert!(
                matches!(
                    err,
                    CliError::Args(crate::args::ParseArgsError::UnknownFlag { .. })
                ),
                "{tokens:?} -> {err:?}"
            );
        }
    }

    #[test]
    fn bad_threads_is_a_typed_bad_value() {
        let err = dispatch_tokens(&["train", "--dir", "x", "--out", "y", "--threads", "many"])
            .expect_err("must reject");
        assert!(
            matches!(
                err,
                CliError::Args(crate::args::ParseArgsError::BadValue { ref flag, .. })
                    if flag == "threads"
            ),
            "{err:?}"
        );
    }

    #[test]
    fn oracle_selector_flags_are_unknown_everywhere() {
        // The test oracles live in tests and benches, not behind flags:
        // each former selector must fail on flag checking, before any
        // challenge file or model is read.
        for cmd in [
            &["attack", "--dir", "x", "--target", "sb1"][..],
            &["pa", "--dir", "x", "--target", "sb1"][..],
            &["train", "--dir", "x", "--out", "y"][..],
            &["serve", "--model", "x"][..],
        ] {
            for (flag, value) in [
                ("kernel", "reference"),
                ("enumeration", "all-pairs"),
                ("tree-backend", "reference"),
            ] {
                let mut tokens: Vec<&str> = cmd.to_vec();
                let dashed = format!("--{flag}");
                tokens.extend([dashed.as_str(), value]);
                let err = dispatch_tokens(&tokens).expect_err("must reject");
                assert!(
                    matches!(
                        err,
                        CliError::Args(crate::args::ParseArgsError::UnknownFlag { flag: ref f, .. })
                            if f == flag
                    ),
                    "{tokens:?} -> {err:?}"
                );
            }
        }
    }

    #[test]
    fn hardening_flags_reject_garbage_with_typed_errors() {
        // The robustness knobs must fail closed on malformed values —
        // before any model file is touched.
        for (tokens, flag) in [
            (
                &["serve", "--model", "x", "--request-timeout-ms", "soon"][..],
                "request-timeout-ms",
            ),
            (
                &["serve", "--model", "x", "--idle-timeout-ms", "-5"][..],
                "idle-timeout-ms",
            ),
            (
                &["serve", "--model", "x", "--max-request-bytes", "big"][..],
                "max-request-bytes",
            ),
            (
                &["serve", "--model", "x", "--max-queue", "deep"][..],
                "max-queue",
            ),
            (
                &["serve", "--model", "x", "--event-loops", "many"][..],
                "event-loops",
            ),
            (
                &["models", "--registry", "x", "--verify", "maybe"][..],
                "verify",
            ),
            (
                &[
                    "attack",
                    "--dir",
                    "x",
                    "--target",
                    "sb1",
                    "--checkpoint-every",
                    "often",
                ][..],
                "checkpoint-every",
            ),
        ] {
            let err = dispatch_tokens(tokens).expect_err("must reject");
            assert!(
                matches!(
                    err,
                    CliError::Args(crate::args::ParseArgsError::BadValue { flag: ref f, .. })
                        if f == flag
                ),
                "{tokens:?} -> {err:?}"
            );
        }
    }

    #[test]
    fn missing_model_path_is_a_typed_artifact_io_error() {
        let err = dispatch_tokens(&[
            "attack",
            "--dir",
            "x",
            "--target",
            "sb1",
            "--model",
            "/nonexistent/model.smartifact",
        ])
        .expect_err("must reject");
        // The missing challenge dir is checked first; point at a real dir.
        let dir = std::env::temp_dir().join("splitmfg_cli_missing_model");
        let _ = fs::remove_dir_all(&dir);
        dispatch_tokens(&[
            "gen",
            "--out",
            dir.to_str().expect("utf8"),
            "--scale",
            "0.01",
        ])
        .expect("gen runs");
        let err2 = dispatch_tokens(&[
            "attack",
            "--dir",
            dir.to_str().expect("utf8"),
            "--target",
            "sb1",
            "--model",
            "/nonexistent/model.smartifact",
        ])
        .expect_err("must reject");
        assert!(
            matches!(err2, CliError::Artifact(ArtifactError::Io(_))),
            "{err2:?}"
        );
        // Without a directory the i/o error on --dir wins, also typed.
        assert!(matches!(err, CliError::Io(_)), "{err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_and_config_flags_are_mutually_exclusive() {
        let dir = std::env::temp_dir().join("splitmfg_cli_model_conflict");
        let _ = fs::remove_dir_all(&dir);
        dispatch_tokens(&[
            "gen",
            "--out",
            dir.to_str().expect("utf8"),
            "--scale",
            "0.01",
        ])
        .expect("gen runs");
        let err = dispatch_tokens(&[
            "attack",
            "--dir",
            dir.to_str().expect("utf8"),
            "--target",
            "sb1",
            "--model",
            "whatever.model",
            "--config",
            "imp-9",
        ])
        .expect_err("must reject");
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_models_and_attack_validate_required_flags() {
        assert!(matches!(
            dispatch_tokens(&["serve"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch_tokens(&["models"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch_tokens(&[
                "attack",
                "--dir",
                "x",
                "--target",
                "sb1",
                "--checkpoint-dir",
                "/nonexistent/ck",
                "--checkpoint-every",
                "0"
            ]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch_tokens(&["train", "--dir", "x"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn registry_flag_combinations_fail_closed_as_usage_errors() {
        // Every invalid combination must die on validation — before any
        // file, socket, or training run is touched (hence the bogus paths).
        for tokens in [
            // serve: exactly one source, registry-only options gated.
            &["serve", "--model", "m", "--registry", "r"][..],
            &["serve", "--model", "m", "--default-model", "x"][..],
            &["serve", "--model", "m", "--shadow-model", "x"][..],
            &["serve", "--shadow-fraction", "0.5", "--model", "m"][..],
            // train: exactly one sink, --model-id tied to --registry.
            &["train", "--dir", "d", "--out", "f", "--registry", "r"][..],
            &["train", "--dir", "d", "--out", "f", "--model-id", "x"][..],
            &[
                "train",
                "--dir",
                "d",
                "--out",
                "f",
                "--make-default",
                "true",
            ][..],
            &["train", "--dir", "d", "--registry", "r"][..],
            // models: exactly one source.
            &["models"][..],
            &["models", "--registry", "r", "--addr", "a"][..],
        ] {
            let err = dispatch_tokens(tokens).expect_err("must reject");
            assert!(matches!(err, CliError::Usage(_)), "{tokens:?} -> {err:?}");
        }
        // An out-of-range shadow fraction is caught in the CLI too, with
        // a message naming the flag (the server would also reject it).
        let err = dispatch_tokens(&[
            "serve",
            "--registry",
            "/nonexistent",
            "--shadow-model",
            "x",
            "--shadow-fraction",
            "1.5",
        ])
        .expect_err("must reject");
        // The registry read happens first and /nonexistent is missing, so
        // either typed failure is acceptable; it must not bind a socket.
        assert!(
            matches!(err, CliError::Usage(_) | CliError::Registry(_)),
            "{err:?}"
        );
    }

    #[test]
    fn train_publishes_into_a_registry_and_models_lists_it() {
        let dir = std::env::temp_dir().join("splitmfg_cli_registry_roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().expect("utf8");
        dispatch_tokens(&["gen", "--out", dir_s, "--scale", "0.01", "--split", "8"])
            .expect("gen runs");
        let reg = dir.join("registry");
        let reg_s = reg.to_str().expect("utf8");

        // First publish becomes the default implicitly.
        dispatch_tokens(&[
            "train",
            "--dir",
            dir_s,
            "--target",
            "sb1",
            "--config",
            "imp-9",
            "--registry",
            reg_s,
            "--model-id",
            "incumbent",
        ])
        .expect("first publish runs");
        // Second publish takes over the default explicitly.
        dispatch_tokens(&[
            "train",
            "--dir",
            dir_s,
            "--target",
            "sb5",
            "--config",
            "imp-9",
            "--registry",
            reg_s,
            "--model-id",
            "retrained",
            "--make-default",
            "true",
        ])
        .expect("second publish runs");

        let index = RegistryIndex::load(&reg).expect("index loads");
        assert_eq!(index.default_model, "retrained");
        assert_eq!(index.entries.len(), 2);
        assert!(index.entries.iter().any(|e| e.model_id == "incumbent"));
        let retrained = index
            .entries
            .iter()
            .find(|e| e.model_id == "retrained")
            .expect("published");
        assert_eq!(retrained.meta.excluded_target.as_deref(), Some("sb5"));
        assert!(retrained.checksum.starts_with("fnv1a64:"));

        dispatch_tokens(&["models", "--registry", reg_s]).expect("offline listing runs");

        // A path-traversal model id is a typed registry rejection.
        let err = dispatch_tokens(&[
            "train",
            "--dir",
            dir_s,
            "--registry",
            reg_s,
            "--model-id",
            "../evil",
            "--config",
            "imp-9",
        ])
        .expect_err("bad id must be rejected");
        assert!(
            matches!(err, CliError::Registry(RegistryError::BadModelId(_))),
            "{err:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_then_attack_with_model_skips_retraining() {
        let dir = std::env::temp_dir().join("splitmfg_cli_train_roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().expect("utf8");
        dispatch_tokens(&["gen", "--out", dir_s, "--scale", "0.01", "--split", "8"])
            .expect("gen runs");
        let model_path = dir.join("sb1.model");
        let model_s = model_path.to_str().expect("utf8");
        dispatch_tokens(&[
            "train", "--dir", dir_s, "--target", "sb1", "--config", "imp-9", "--out", model_s,
        ])
        .expect("train runs");
        dispatch_tokens(&[
            "attack", "--dir", dir_s, "--target", "sb1", "--model", model_s,
        ])
        .expect("attack with artifact runs");
        dispatch_tokens(&["pa", "--dir", dir_s, "--target", "sb1", "--model", model_s])
            .expect("pa with artifact runs");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_target_is_a_usage_error() {
        let dir = std::env::temp_dir().join("splitmfg_cli_test2");
        let _ = fs::remove_dir_all(&dir);
        let gen = Args::parse(
            [
                "gen",
                "--out",
                dir.to_str().expect("utf8"),
                "--scale",
                "0.01",
            ]
            .iter()
            .map(|s| (*s).to_owned()),
        )
        .expect("parses");
        dispatch(&gen).expect("gen runs");
        let attack = Args::parse(
            [
                "attack",
                "--dir",
                dir.to_str().expect("utf8"),
                "--target",
                "nope",
            ]
            .iter()
            .map(|s| (*s).to_owned()),
        )
        .expect("parses");
        assert!(matches!(dispatch(&attack), Err(CliError::Usage(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_flags_reject_garbage_with_typed_errors() {
        // Garbage values must die on flag parsing — before combination
        // validation and before any challenge file is read, so the
        // diagnostic names the malformed flag even when the combo is
        // also wrong.
        for (tokens, flag) in [
            (
                &[
                    "attack",
                    "--dir",
                    "x",
                    "--target",
                    "sb1",
                    "--checkpoint-dir",
                    "ck",
                    "--checkpoint-every",
                    "banana",
                ][..],
                "checkpoint-every",
            ),
            (
                &[
                    "pa",
                    "--dir",
                    "x",
                    "--target",
                    "sb1",
                    "--checkpoint-dir",
                    "ck",
                    "--resume",
                    "maybe",
                ][..],
                "resume",
            ),
            (
                &[
                    "attack", "--dir", "x", "--target", "sb1", "--resume", "perhaps",
                ][..],
                "resume",
            ),
            (
                &["models", "--registry", "r", "--verify", "junk"][..],
                "verify",
            ),
        ] {
            let err = dispatch_tokens(tokens).expect_err("must reject");
            assert!(
                matches!(
                    err,
                    CliError::Args(crate::args::ParseArgsError::BadValue { flag: ref f, .. })
                        if f == flag
                ),
                "{tokens:?} -> {err:?}"
            );
        }
    }

    #[test]
    fn checkpoint_flag_combinations_fail_closed_as_usage_errors() {
        for tokens in [
            // --resume / --checkpoint-every are meaningless without a
            // checkpoint directory to act on.
            &[
                "attack", "--dir", "x", "--target", "sb1", "--resume", "true",
            ][..],
            &[
                "attack",
                "--dir",
                "x",
                "--target",
                "sb1",
                "--checkpoint-every",
                "10",
            ][..],
            &["pa", "--dir", "x", "--target", "sb1", "--resume", "true"][..],
            &[
                "pa",
                "--dir",
                "x",
                "--target",
                "sb1",
                "--checkpoint-every",
                "10",
            ][..],
            // A zero-target shard can never make progress.
            &[
                "attack",
                "--dir",
                "x",
                "--target",
                "sb1",
                "--checkpoint-dir",
                "ck",
                "--checkpoint-every",
                "0",
            ][..],
            // --verify is an offline registry sweep; it cannot ride a
            // network listing.
            &["models", "--addr", "127.0.0.1:1", "--verify", "true"][..],
        ] {
            let err = dispatch_tokens(tokens).expect_err("must reject");
            assert!(matches!(err, CliError::Usage(_)), "{tokens:?} -> {err:?}");
        }
    }

    #[test]
    fn attack_with_checkpoint_completes_removes_checkpoint_and_writes_json() {
        let dir = std::env::temp_dir().join("splitmfg_cli_checkpoint_roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().expect("utf8");
        dispatch_tokens(&["gen", "--out", dir_s, "--scale", "0.01", "--split", "8"])
            .expect("gen runs");
        let ck = dir.join("ck");
        let json = dir.join("out.json");
        dispatch_tokens(&[
            "attack",
            "--dir",
            dir_s,
            "--target",
            "sb1",
            "--config",
            "imp-9",
            "--checkpoint-dir",
            ck.to_str().expect("utf8"),
            "--checkpoint-every",
            "2",
            "--json",
            json.to_str().expect("utf8"),
        ])
        .expect("checkpointed attack runs");
        assert!(
            !ck.join("attack-sb1.ckpt").exists(),
            "checkpoint must be removed once the run completes"
        );
        let dump = fs::read_to_string(&json).expect("json dump written");
        assert!(dump.starts_with("{\"scored\":"), "{dump:.40}");
        assert!(dump.contains("\"curve\":"), "{dump:.40}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn models_verify_passes_a_good_registry_and_fails_a_corrupt_one() {
        let dir = std::env::temp_dir().join("splitmfg_cli_verify_sweep");
        let _ = fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().expect("utf8");
        dispatch_tokens(&["gen", "--out", dir_s, "--scale", "0.01", "--split", "8"])
            .expect("gen runs");
        let reg = dir.join("registry");
        let reg_s = reg.to_str().expect("utf8");
        dispatch_tokens(&[
            "train",
            "--dir",
            dir_s,
            "--target",
            "sb1",
            "--config",
            "imp-9",
            "--registry",
            reg_s,
            "--model-id",
            "m1",
        ])
        .expect("publish runs");
        dispatch_tokens(&["models", "--registry", reg_s, "--verify", "true"])
            .expect("a freshly published registry verifies clean");

        // Flip one byte in the artifact: the sweep must report the model
        // corrupt and exit nonzero.
        let artifact = reg.join("m1.model");
        let mut bytes = fs::read(&artifact).expect("artifact exists");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&artifact, &bytes).expect("corrupts");
        let err = dispatch_tokens(&["models", "--registry", reg_s, "--verify", "true"])
            .expect_err("a corrupt registry must fail verification");
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("1 of 1"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
