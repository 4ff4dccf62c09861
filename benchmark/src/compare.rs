//! `benchmark compare BASE.json NEW.json`: two records, run for run.
//!
//! Untraced run sets are paired by position (set `i` of one record with
//! set `i` of the other; the two sides should have been run alternately,
//! with the same seeds). Pairing by seed lets each pair's ratio, new over
//! base, cancel what the seed's inputs do to a metric, so what is left in
//! the ratios is the host's noise and the change. For each workload and
//! end-to-end metric:
//!
//! - **missing**: a run set of either side lacks the workload or the
//!   metric, for example because the workload crashed;
//! - **gain**: the new side is better in at least nine tenths of at least
//!   ten pairs (ties count for neither), and the medians differ by more
//!   than the base side's interquartile distance;
//! - **regression**: the median ratio is worse than 1 by more than the
//!   metric's bound;
//! - **unresolved**: the ratios' spread (interquartile distance over
//!   median) exceeds the bound, unless every new run is better than every
//!   base run;
//! - **within**: otherwise.
//!
//! A workload that failed more operations on the new side fails too.

use serde::Value;

use crate::report::{get, num, text, Json};
use crate::stats::{quartiles, relative_spread};

/// Verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Within,
    Unresolved,
    Regression,
    Missing,
}

/// One metric of one workload, compared. The quartiles are absent when
/// the verdict is `Missing`.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub quartiles: Option<Quartiles>,
    pub pairs: usize,
    pub wins: usize,
    pub verdict: Verdict,
}

/// Quartiles of each side's values and of the per-pair ratios.
#[derive(Debug)]
pub struct Quartiles {
    pub base: [f64; 3],
    pub new: [f64; 3],
    pub ratio: [f64; 3],
}

/// An end-to-end metric as `BENCHMARK.json` defines it.
struct Spec {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

pub fn main(args: &[String]) -> i32 {
    let mut paths = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            match it.next() {
                Some(p) => spec_path.clone_from(p),
                None => {
                    eprintln!("--spec needs a path");
                    return 2;
                }
            }
        } else {
            paths.push(a.clone());
        }
    }
    let [base, new] = paths.as_slice() else {
        eprintln!("usage: benchmark compare BASE.json NEW.json [--spec BENCHMARK.json]");
        return 2;
    };
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let result = (|| {
        let (base, new, spec) = (load(base)?, load(new)?, load(&spec_path)?);
        let rows = compare(&base, &new, &spec)?;
        Ok::<_, String>((rows, more_failures(&base, &new)))
    })();
    let (rows, failing) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[benchmark] {e}");
            return 2;
        }
    };
    println!(
        "{:<13} {:<13} {:>32} {:>32} {:>18} {:>6}  verdict",
        "workload",
        "metric",
        "base median [q1, q3]",
        "new median [q1, q3]",
        "new/base (spread)",
        "wins"
    );
    for r in &rows {
        let q = |v: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", v[1], v[0], v[2]);
        let (base, new, ratio) = match &r.quartiles {
            Some(qs) => (
                q(qs.base),
                q(qs.new),
                format!(
                    "{:.4} ({:.4})",
                    qs.ratio[1],
                    (qs.ratio[2] - qs.ratio[0]) / qs.ratio[1]
                ),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        println!(
            "{:<13} {:<13} {base:>32} {new:>32} {ratio:>18} {:>3}/{:<2}  {:?} ({})",
            r.workload, r.metric, r.wins, r.pairs, r.verdict, r.unit
        );
    }
    for w in &failing {
        println!("{w}: more failed operations than the base");
    }
    if passed(&rows, &failing) {
        0
    } else {
        1
    }
}

/// Whether a comparison passes: no metric regressed or went missing, and
/// no workload failed more operations.
fn passed(rows: &[Row], failing: &[String]) -> bool {
    failing.is_empty()
        && rows
            .iter()
            .all(|r| !matches!(r.verdict, Verdict::Regression | Verdict::Missing))
}

/// The untraced run sets of a record.
fn untraced_sets(record: &Value) -> Result<Vec<&Value>, String> {
    let sets = get(record, "sets")
        .and_then(Value::as_seq)
        .ok_or("a record has a list of sets")?;
    Ok(sets
        .iter()
        .filter(|s| matches!(get(s, "trace"), Some(Value::Bool(false))))
        .collect())
}

/// Every workload any of `sets` ran, in first-seen order.
fn workloads<'v>(sets: impl IntoIterator<Item = &'v Value>) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for set in sets {
        for (w, _) in get(set, "workloads").and_then(Value::as_map).unwrap_or(&[]) {
            if !names.contains(w) {
                names.push(w.clone());
            }
        }
    }
    names
}

/// The value of `metric` in `workload` of one run set.
fn metric(set: &Value, workload: &str, metric: &str) -> Option<f64> {
    let m = get(
        get(get(get(set, "workloads")?, workload)?, "metrics")?,
        metric,
    )?;
    get(m, "value").and_then(num)
}

/// Compares every end-to-end metric of every workload that either record
/// ran.
///
/// # Errors
///
/// Returns a message when a record or the spec is malformed, or the two
/// records share no untraced run set.
pub fn compare(base: &Value, new: &Value, spec: &Value) -> Result<Vec<Row>, String> {
    let specs = get(spec, "end_to_end")
        .and_then(Value::as_seq)
        .ok_or("the spec has an end_to_end list")?
        .iter()
        .map(|m| {
            let s = |k| get(m, k).and_then(text).map(str::to_owned);
            Some(Spec {
                name: s("name")?,
                unit: s("unit")?,
                lower_is_better: s("better")? == "lower",
                bound: get(m, "bound").and_then(num)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("each end_to_end metric has a name, unit, better and bound")?;
    let (b, n) = (untraced_sets(base)?, untraced_sets(new)?);
    let pairs = b.len().min(n.len());
    if pairs == 0 {
        return Err("the records share no untraced run set".into());
    }
    let (b, n) = (&b[..pairs], &n[..pairs]);
    let mut rows = Vec::new();
    for workload in workloads(b.iter().chain(n).copied()) {
        for s in &specs {
            let side = |sets: &[&Value]| -> Option<Vec<f64>> {
                sets.iter()
                    .map(|set| metric(set, &workload, &s.name))
                    .collect()
            };
            let mut row = Row {
                workload: workload.clone(),
                metric: s.name.clone(),
                unit: s.unit.clone(),
                quartiles: None,
                pairs,
                wins: 0,
                verdict: Verdict::Missing,
            };
            if let (Some(bv), Some(nv)) = (side(b), side(n)) {
                judge(&mut row, s, &bv, &nv);
            }
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Fills in `row` from the paired values `bv[i]`, `nv[i]`.
fn judge(row: &mut Row, s: &Spec, bv: &[f64], nv: &[f64]) {
    // Positive when `new` is better than `base`.
    let gain = |base: f64, new: f64| {
        if s.lower_is_better {
            base - new
        } else {
            new - base
        }
    };
    let ratios: Vec<f64> = bv.iter().zip(nv).map(|(b, n)| n / b).collect();
    let qs = Quartiles {
        base: quartiles(bv),
        new: quartiles(nv),
        ratio: quartiles(&ratios),
    };
    row.wins = bv
        .iter()
        .zip(nv)
        .filter(|(b, n)| gain(**b, **n) > 0.0)
        .count();
    let median_ratio = qs.ratio[1];
    let worse = if s.lower_is_better {
        median_ratio - 1.0
    } else {
        1.0 - median_ratio
    };
    let all_better = bv.iter().all(|b| nv.iter().all(|n| gain(*b, *n) > 0.0));
    row.verdict = if row.pairs >= 10
        && row.wins * 10 >= row.pairs * 9
        && gain(qs.base[1], qs.new[1]) > qs.base[2] - qs.base[0]
    {
        Verdict::Gain
    } else if worse > s.bound {
        Verdict::Regression
    } else if !all_better && relative_spread(&ratios) > s.bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    row.quartiles = Some(qs);
}

/// Workloads whose untraced sets failed more operations in `new`.
fn more_failures(base: &Value, new: &Value) -> Vec<String> {
    let (b, n) = (
        untraced_sets(base).unwrap_or_default(),
        untraced_sets(new).unwrap_or_default(),
    );
    let failed = |sets: &[&Value], workload: &str| -> f64 {
        sets.iter()
            .filter_map(|s| get(get(get(s, "workloads")?, workload)?, "failed").and_then(num))
            .sum()
    };
    workloads(b.iter().chain(&n).copied())
        .into_iter()
        .filter(|w| failed(&n, w) > failed(&b, w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::map;

    /// A record of one untraced set per value, each running `workloads`
    /// with that value as `ns_per_item`.
    fn record_of(workloads: &[&str], values: &[f64], failed: u64) -> Value {
        let sets = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let m = map(vec![
                    ("value", Value::Float(v)),
                    ("unit", Value::Str("ns".into())),
                ]);
                let result = map(vec![
                    ("correct", Value::Bool(failed == 0)),
                    ("attempted", Value::Int(10)),
                    ("failed", Value::Int(failed.into())),
                    ("metrics", map(vec![("ns_per_item", m)])),
                ]);
                let results = workloads.iter().map(|w| (*w, result.clone())).collect();
                map(vec![
                    ("seed", Value::Int(i as i128)),
                    ("trace", Value::Bool(false)),
                    ("workloads", map(results)),
                ])
            })
            .collect();
        map(vec![("sets", Value::Seq(sets))])
    }

    fn record(values: &[f64], failed: u64) -> Value {
        record_of(&["attack_keep"], values, failed)
    }

    fn spec(bound: f64) -> Value {
        let m = map(vec![
            ("name", Value::Str("ns_per_item".into())),
            ("unit", Value::Str("ns".into())),
            ("better", Value::Str("lower".into())),
            ("bound", Value::Float(bound)),
        ]);
        map(vec![("end_to_end", Value::Seq(vec![m]))])
    }

    fn verdict(base: &[f64], new: &[f64], bound: f64) -> Verdict {
        let rows = compare(&record(base, 0), &record(new, 0), &spec(bound)).expect("compares");
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    const BASE: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    #[test]
    fn same_code_is_within_bound() {
        let again: Vec<f64> = BASE.iter().rev().copied().collect();
        assert_eq!(verdict(&BASE, &again, 0.05), Verdict::Within);
    }

    #[test]
    fn pairing_cancels_what_the_seed_does() {
        // Seeds whose inputs cost from 50 to 500 ns: the values spread far
        // wider than the bound, but each pair's ratio is the same.
        let base: Vec<f64> = (1..=10).map(|i| 50.0 * f64::from(i)).collect();
        let same: Vec<f64> = base.iter().map(|v| v * 1.01).collect();
        assert_eq!(verdict(&base, &same, 0.05), Verdict::Within);
        let slower: Vec<f64> = base.iter().map(|v| v * 1.08).collect();
        assert_eq!(verdict(&base, &slower, 0.05), Verdict::Regression);
    }

    #[test]
    fn consistent_large_improvement_is_a_gain() {
        let faster: Vec<f64> = BASE.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&BASE, &faster, 0.05), Verdict::Gain);
        // Nine runs better, one worse, still nine tenths of the pairs.
        let mut mostly = faster.clone();
        mostly[3] = 200.0;
        assert_eq!(verdict(&BASE, &mostly, 0.05), Verdict::Gain);
        // Fewer than ten pairs never claim a gain.
        assert_eq!(verdict(&BASE[..5], &faster[..5], 0.05), Verdict::Within);
    }

    #[test]
    fn worse_by_more_than_the_bound_is_a_regression() {
        let slower: Vec<f64> = BASE.iter().map(|v| v * 1.10).collect();
        assert_eq!(verdict(&BASE, &slower, 0.05), Verdict::Regression);
        assert_eq!(verdict(&BASE, &slower, 0.15), Verdict::Within);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&BASE, &noisy, 0.05), Verdict::Unresolved);
        // Unless every new run beats every base run.
        let noisy_but_faster: Vec<f64> = noisy.iter().map(|v| v * 0.5).collect();
        assert_ne!(verdict(&BASE, &noisy_but_faster, 0.05), Verdict::Unresolved);
    }

    #[test]
    fn a_workload_missing_on_either_side_fails() {
        let both = record_of(&["attack_keep", "serve_burst"], &BASE, 0);
        let one = record_of(&["attack_keep"], &BASE, 0);
        for (base, new) in [(&both, &one), (&one, &both)] {
            let rows = compare(base, new, &spec(0.05)).expect("compares");
            let verdicts: Vec<(&str, Verdict)> = rows
                .iter()
                .map(|r| (r.workload.as_str(), r.verdict))
                .collect();
            assert_eq!(
                verdicts,
                [
                    ("attack_keep", Verdict::Within),
                    ("serve_burst", Verdict::Missing)
                ]
            );
            assert!(!passed(&rows, &more_failures(base, new)));
        }
        let rows = compare(&both, &both, &spec(0.05)).expect("compares");
        assert!(passed(&rows, &more_failures(&both, &both)));
    }

    #[test]
    fn more_failed_operations_are_reported() {
        assert_eq!(
            more_failures(&record(&BASE, 0), &record(&BASE, 1)),
            vec!["attack_keep"]
        );
        assert!(more_failures(&record(&BASE, 1), &record(&BASE, 0)).is_empty());
    }
}
