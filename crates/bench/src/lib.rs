//! # sm-bench — experiment harness reproducing the paper's evaluation
//!
//! One binary per table/figure of the paper (`table1`–`table6`,
//! `fig4`–`fig10`), sharing the drivers in this library. Every binary
//! honours the `SM_SCALE` environment variable (default 1.0 = benchmarks
//! with 1/20 of the paper's v-pin counts) and prints plain-text tables
//! whose rows mirror the paper's.
//!
//! ```bash
//! cargo run --release -p sm-bench --bin table1          # full size
//! SM_SCALE=0.2 cargo run --release -p sm-bench --bin table5   # quick pass
//! ```

use std::time::{Duration, Instant};

use sm_attack::attack::{AttackConfig, ScoreOptions};
use sm_attack::loc::LocCurve;
use sm_attack::xval::{leave_one_out, FoldResult};
use sm_layout::{SplitLayer, SplitView, Suite};

/// Parses an `SM_SCALE` value: a finite number strictly greater than
/// zero.
///
/// # Errors
///
/// Returns a human-readable message for anything else — unparsable text,
/// NaN, infinities, zero, negatives.
pub fn parse_scale(s: &str) -> Result<f64, String> {
    match s.trim().parse::<f64>() {
        Err(_) => Err(format!("SM_SCALE must be a number, got '{s}'")),
        Ok(v) if !v.is_finite() => Err(format!("SM_SCALE must be finite, got '{s}'")),
        Ok(v) if v <= 0.0 => Err(format!("SM_SCALE must be positive, got '{s}'")),
        Ok(v) => Ok(v),
    }
}

/// Reads the benchmark scale from `SM_SCALE` (default 1.0 = 1/20 of the
/// paper's layout sizes).
///
/// An invalid value terminates the process with a clear error on stderr —
/// a typo like `SM_SCALE=1O` must never silently fall back to running the
/// whole experiment at the default scale.
pub fn scale_from_env() -> f64 {
    match std::env::var("SM_SCALE") {
        Err(_) => 1.0,
        Ok(s) => parse_scale(&s).unwrap_or_else(|e| {
            eprintln!("[harness] {e}");
            std::process::exit(2);
        }),
    }
}

/// Reads the environment variable `name` as a `T`, or `default` when it
/// is unset.
///
/// # Panics
///
/// Panics, naming the variable, when it is set but does not parse.
pub fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Err(_) => default,
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("invalid {name} value {s:?}")),
    }
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`), or
/// `None` where `/proc` is unavailable. Benchmarks report this as the
/// memory bound their streaming claims rest on.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The generated suite plus cached split views, shared by every harness.
pub struct Harness {
    suite: Suite,
    scale: f64,
}

impl Harness {
    /// Builds the suite at the `SM_SCALE` scale, logging progress to
    /// stderr.
    ///
    /// # Panics
    ///
    /// Panics if the suite cannot be generated (invalid scale).
    pub fn from_env() -> Self {
        let scale = scale_from_env();
        eprintln!("[harness] generating ISPD-2011-like suite at scale {scale} ...");
        let t = Instant::now();
        let suite = Suite::ispd2011_like(scale).expect("suite generation");
        eprintln!("[harness] suite ready in {:.1?}", t.elapsed());
        Self { suite, scale }
    }

    /// The benchmark scale in effect.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The underlying suite.
    pub fn suite(&self) -> &Suite {
        &self.suite
    }

    /// Splits every benchmark at via layer `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a valid split layer.
    pub fn views(&self, v: u8) -> Vec<SplitView> {
        let layer = SplitLayer::new(v).expect("valid split layer");
        let t = Instant::now();
        let views = self.suite.split_all(layer);
        let total: usize = views.iter().map(SplitView::num_vpins).sum();
        eprintln!(
            "[harness] split layer {v}: {total} v-pins across {} designs ({:.1?})",
            views.len(),
            t.elapsed()
        );
        views
    }
}

/// Leave-one-out folds plus the benchmark-averaged trade-off curve.
pub struct ConfigRun {
    /// Per-fold results in suite order.
    pub folds: Vec<FoldResult>,
    /// Curve averaged over the five benchmarks.
    pub curve: LocCurve,
    /// Total wall-clock time (train + score, all folds).
    pub runtime: Duration,
}

/// Runs a configuration's full leave-one-out evaluation.
///
/// # Panics
///
/// Panics on attack errors (harness binaries fail loudly).
pub fn run_config(config: &AttackConfig, views: &[SplitView], opts: &ScoreOptions) -> ConfigRun {
    let t = Instant::now();
    let folds = leave_one_out(config, views, opts)
        .unwrap_or_else(|e| panic!("{} failed: {e}", config.name));
    let runtime = t.elapsed();
    let curve = LocCurve::from_views(folds.iter().map(|f| &f.scored));
    ConfigRun {
        folds,
        curve,
        runtime,
    }
}

/// Formats an optional percentage (`None` prints as a dash, matching the
/// paper's saturated entries).
pub fn pct(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{:.2}%", 100.0 * v),
        None => "—".to_owned(),
    }
}

/// Formats an optional real with one decimal.
pub fn num(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v:.1}"),
        None => "—".to_owned(),
    }
}

/// Formats a duration compactly (s / min as appropriate).
pub fn dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 120.0 {
        format!("{s:.1} s")
    } else {
        format!("{:.1} min", s / 60.0)
    }
}

/// Prints a ruled table row: a label column then fixed-width cells.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<14}");
    for c in cells {
        print!(" | {c:>12}");
    }
    println!();
}

/// Prints a header row and a rule under it.
pub fn header(label: &str, cells: &[&str]) {
    let owned: Vec<String> = cells.iter().map(|c| (*c).to_owned()).collect();
    row(label, &owned);
    println!("{}", "-".repeat(14 + cells.len() * 15));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(Some(0.5)), "50.00%");
        assert_eq!(pct(None), "—");
        assert_eq!(num(Some(12.34)), "12.3");
        assert_eq!(dur(Duration::from_secs(30)), "30.0 s");
        assert_eq!(dur(Duration::from_secs(300)), "5.0 min");
    }

    #[test]
    fn scale_env_default_is_one() {
        // The variable may be set by an outer harness; only assert the
        // unset fallback.
        if std::env::var("SM_SCALE").is_err() {
            assert_eq!(scale_from_env(), 1.0);
        }
    }

    #[test]
    fn scale_parsing_accepts_positive_finite_numbers() {
        assert_eq!(parse_scale("1.0"), Ok(1.0));
        assert_eq!(parse_scale("0.2"), Ok(0.2));
        assert_eq!(parse_scale(" 10 "), Ok(10.0));
        assert_eq!(parse_scale("2e1"), Ok(20.0));
    }

    #[test]
    fn scale_parsing_rejects_garbage_and_nonpositive_values() {
        // The `SM_SCALE=1O` typo class: must be an error, never a silent
        // fallback to 1.0.
        for bad in ["1O", "", "ten", "1.0.0", "0x2"] {
            assert!(
                parse_scale(bad).is_err(),
                "'{bad}' must be rejected as unparsable"
            );
        }
        for bad in ["NaN", "nan", "inf", "-inf", "0", "0.0", "-1", "-0.5"] {
            assert!(
                parse_scale(bad).is_err(),
                "'{bad}' must be rejected as non-positive or non-finite"
            );
        }
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        // The test itself runs on Linux in CI and locally; a few megabytes
        // of RSS is guaranteed by the test harness alone.
        let rss = peak_rss_bytes().expect("VmHWM available on Linux");
        assert!(rss > 1 << 20, "implausible peak RSS {rss}");
    }
}
