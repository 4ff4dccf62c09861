//! Deterministic parallel execution primitives shared by the whole
//! pipeline.
//!
//! Every parallel site in this workspace follows the same discipline:
//! work is split into *contiguous index ranges*, each worker computes an
//! independent partial result with no shared mutable state, and partial
//! results are merged *in index order* on the calling thread. Because no
//! computation depends on chunk boundaries and the merge order is fixed,
//! the result is bit-identical for any [`Parallelism`] setting — including
//! floating-point accumulations, which always happen in the same order.
//!
//! [`par_chunks`] is the range-sharded primitive; [`par_map`] is the
//! per-item convenience built on it.

use std::ops::Range;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Upper bound on worker threads, whatever the configuration says.
pub const MAX_THREADS: usize = 64;

/// How much parallelism a pipeline stage may use.
///
/// The setting only affects wall-clock time, never results: all consumers
/// in this workspace are bit-identical across variants (see the module
/// docs). Parses from the strings the CLI's `--threads` flag accepts:
///
/// ```
/// use sm_ml::parallel::Parallelism;
///
/// assert_eq!("auto".parse(), Ok(Parallelism::Auto));
/// assert_eq!("sequential".parse(), Ok(Parallelism::Sequential));
/// assert_eq!("4".parse(), Ok(Parallelism::Threads(4)));
/// assert!("0".parse::<Parallelism>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Parallelism {
    /// Single-threaded: run everything on the calling thread.
    Sequential,
    /// Exactly this many worker threads (clamped to [`MAX_THREADS`]).
    Threads(usize),
    /// One worker per available CPU (`std::thread::available_parallelism`).
    #[default]
    Auto,
}

/// Error parsing a [`Parallelism`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseParallelismError(String);

impl std::fmt::Display for ParseParallelismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "expected 'auto', 'sequential', or a thread count >= 1, got '{}'",
            self.0
        )
    }
}

impl std::error::Error for ParseParallelismError {}

impl FromStr for Parallelism {
    type Err = ParseParallelismError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(Parallelism::Auto),
            "seq" | "sequential" => Ok(Parallelism::Sequential),
            other => match other.parse::<usize>() {
                Ok(0) | Err(_) => Err(ParseParallelismError(s.to_owned())),
                Ok(n) => Ok(Parallelism::Threads(n)),
            },
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Sequential => write!(f, "sequential"),
            Parallelism::Threads(n) => write!(f, "{n}"),
            Parallelism::Auto => write!(f, "auto"),
        }
    }
}

impl Parallelism {
    /// Number of workers to use for `n_items` independent work items:
    /// the configured count clamped to `[1, MAX_THREADS]` and never more
    /// than the number of items.
    pub fn worker_count(self, n_items: usize) -> usize {
        let configured = match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n,
            Parallelism::Auto => std::thread::available_parallelism().map_or(4, |p| p.get()),
        };
        configured.clamp(1, MAX_THREADS).min(n_items.max(1))
    }
}

/// Splits `0..n_items` into one contiguous range per worker, runs `worker`
/// on each range (in parallel for multi-worker settings), and returns the
/// per-range results in range order.
///
/// Deterministic by construction as long as `worker`'s output for a range
/// does not depend on which other ranges exist — the contract every caller
/// in this workspace upholds.
pub fn par_chunks<R, F>(par: Parallelism, n_items: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if n_items == 0 {
        return Vec::new();
    }
    let workers = par.worker_count(n_items);
    if workers <= 1 {
        return vec![worker(0..n_items)];
    }
    let chunk = n_items.div_ceil(workers);
    let worker = &worker;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_items)
            .step_by(chunk)
            .map(|start| {
                let range = start..(start + chunk).min(n_items);
                s.spawn(move || worker(range))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Splits `0..n_items` into consecutive shards of `shard` items (the last
/// one possibly shorter), in index order.
///
/// This is the persistence-boundary counterpart of [`par_chunks`]'s
/// worker split: a resumable driver scores one shard at a time and
/// checkpoints between shards, so the state at a shard boundary is a pure
/// function of which shards completed — independent of parallelism *and*
/// of the shard size itself (a resume may use a different `shard` than
/// the interrupted run). `shard` is clamped to at least 1.
pub fn shard_ranges(n_items: usize, shard: usize) -> impl Iterator<Item = Range<usize>> {
    let shard = shard.max(1);
    (0..n_items)
        .step_by(shard)
        .map(move |start| start..(start + shard).min(n_items))
}

/// Maps `f` over `0..n_items`, returning the results in index order.
/// Parallel per [`par_chunks`]; bit-identical to a sequential map.
pub fn par_map<T, F>(par: Parallelism, n_items: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n_items);
    for part in par_chunks(par, n_items, |range| range.map(&f).collect::<Vec<T>>()) {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_accepts_the_cli_spellings() {
        assert_eq!("AUTO".parse(), Ok(Parallelism::Auto));
        assert_eq!("Seq".parse(), Ok(Parallelism::Sequential));
        assert_eq!("8".parse(), Ok(Parallelism::Threads(8)));
        assert!("".parse::<Parallelism>().is_err());
        assert!("-2".parse::<Parallelism>().is_err());
        assert!("two".parse::<Parallelism>().is_err());
    }

    #[test]
    fn display_roundtrips_through_fromstr() {
        for p in [
            Parallelism::Sequential,
            Parallelism::Threads(3),
            Parallelism::Auto,
        ] {
            assert_eq!(p.to_string().parse(), Ok(p));
        }
    }

    #[test]
    fn worker_count_respects_items_and_bounds() {
        assert_eq!(Parallelism::Sequential.worker_count(100), 1);
        assert_eq!(Parallelism::Threads(4).worker_count(100), 4);
        assert_eq!(Parallelism::Threads(4).worker_count(2), 2);
        assert_eq!(Parallelism::Threads(0).worker_count(100), 1);
        assert_eq!(
            Parallelism::Threads(1000).worker_count(usize::MAX),
            MAX_THREADS
        );
        assert_eq!(Parallelism::Threads(4).worker_count(0), 1);
        assert!(Parallelism::Auto.worker_count(100) >= 1);
    }

    #[test]
    fn par_chunks_covers_the_range_in_order() {
        for par in [
            Parallelism::Sequential,
            Parallelism::Threads(3),
            Parallelism::Threads(7),
        ] {
            let parts = par_chunks(par, 10, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(flat, (0..10).collect::<Vec<usize>>(), "{par:?}");
        }
    }

    #[test]
    fn par_chunks_empty_input_spawns_nothing() {
        let parts = par_chunks(Parallelism::Threads(4), 0, |r| r.len());
        assert!(parts.is_empty());
    }

    #[test]
    fn shard_ranges_tile_the_index_space_exactly_once() {
        for (n, shard) in [(10, 3), (10, 10), (10, 100), (10, 1), (1, 4), (7, 7)] {
            let ranges: Vec<Range<usize>> = shard_ranges(n, shard).collect();
            let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
            assert_eq!(flat, (0..n).collect::<Vec<usize>>(), "n={n} shard={shard}");
            for r in &ranges {
                assert!(r.len() <= shard, "n={n} shard={shard} range {r:?}");
            }
        }
        assert_eq!(shard_ranges(0, 4).count(), 0);
        // A zero shard is clamped, not an infinite loop.
        assert_eq!(shard_ranges(3, 0).count(), 3);
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let expected: Vec<u64> = (0..37).map(|i| (i as u64).wrapping_mul(0x9e37)).collect();
        for par in [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Threads(5),
        ] {
            let got = par_map(par, 37, |i| (i as u64).wrapping_mul(0x9e37));
            assert_eq!(got, expected, "{par:?}");
        }
    }

    #[test]
    fn float_accumulation_is_bit_identical_across_settings() {
        // Per-chunk sums merged in order reproduce the sequential order of
        // additions only if the caller merges per-item values; par_map
        // guarantees item order, so a fold over its output is exact.
        let xs: Vec<f64> = (0..1000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let seq: f64 = xs.iter().sum();
        for par in [Parallelism::Threads(2), Parallelism::Threads(9)] {
            let mapped = par_map(par, xs.len(), |i| xs[i]);
            let total: f64 = mapped.iter().sum();
            assert_eq!(seq.to_bits(), total.to_bits());
        }
    }
}
