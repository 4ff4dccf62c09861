//! `benchmark`: runs the attack, training and serving workloads, prints
//! every metric by name and unit, checks that outputs are correct, and
//! records and compares sets of runs. See `README.md` beside this crate.

mod attack;
mod compare;
mod heap;
mod inputs;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::Value;

use report::{get, map, num, peak_rss_mib, text, Json, END_TO_END, PER_LAYER};
use trace::Tracer;

const USAGE: &str = "\
usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      run one workload in this process; the last stdout line is its result
  benchmark run [--seed N] [--seconds S] [--runs R] [--trace] [--workload NAME]...
                [--out FILE] [--append]
      run each workload in its own process, R untraced sets with seeds N..N+R
      (plus one traced set at seed N with --trace), print every metric and
      write the record to FILE (default target/benchmark/run.json)
  benchmark compare BASE.json NEW.json [--spec BENCHMARK.json]
      compare two records run for run against the bounds in BENCHMARK.json
workloads: attack_keep attack_walk train serve_steady serve_burst";

/// The workloads, in the order `benchmark run` runs them.
const WORKLOADS: [&str; 5] = [
    "attack_keep",
    "attack_walk",
    "train",
    "serve_steady",
    "serve_burst",
];

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Digests of the first attack pass and of the first trained model at
/// seed 0, which every later version of the code must reproduce.
const GOLDEN: &str = include_str!("../results/golden.json");

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run_sets(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            0
        }
        _ => one_workload(&args),
    };
    std::process::exit(code);
}

/// Flags of the workload and `run` forms.
struct Opts {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: u64,
    out: PathBuf,
    append: bool,
}

fn parse(args: &[String], run_form: bool) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: 0,
        seconds: 12,
        trace: false,
        runs: 1,
        out: PathBuf::from("target/benchmark/run.json"),
        append: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |s: String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {s:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                o.workloads.push(w);
            }
            "--seed" => o.seed = number(value("a seed")?)?,
            "--seconds" => o.seconds = number(value("a duration")?)?,
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    o.trace = false;
                }
                Some("1") => {
                    it.next();
                    o.trace = true;
                }
                _ => o.trace = true,
            },
            "--runs" if run_form => o.runs = number(value("a count")?)?,
            "--out" if run_form => o.out = PathBuf::from(value("a path")?),
            "--append" if run_form => o.append = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.seconds == 0 || o.seconds > 600 {
        return Err("--seconds must be between 1 and 600".into());
    }
    if o.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(o)
}

/// The workload form: runs one workload and prints its result line last.
fn one_workload(args: &[String]) -> i32 {
    let opts = match parse(args, false) {
        Ok(o) if o.workloads.len() == 1 => o,
        Ok(_) => {
            eprintln!("exactly one --workload is required\n{USAGE}");
            return 2;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let name = opts.workloads[0].as_str();
    let golden = golden(name, opts.seed);
    let seconds = opts.seconds as f64;
    let mut tracer = Tracer::new(opts.trace);
    let started = Instant::now();
    let result = match name {
        "attack_keep" => attack::run(
            &attack::KEEP,
            opts.seed,
            seconds,
            &mut tracer,
            golden.as_deref(),
        ),
        "attack_walk" => attack::run(
            &attack::WALK,
            opts.seed,
            seconds,
            &mut tracer,
            golden.as_deref(),
        ),
        "train" => train::run(opts.seed, seconds, &mut tracer, golden.as_deref()),
        "serve_steady" => serve::run(serve::Mode::Steady, opts.seed, seconds, &mut tracer),
        "serve_burst" => serve::run(serve::Mode::Burst, opts.seed, seconds, &mut tracer),
        _ => unreachable!("workload names are checked while parsing"),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("[benchmark] {name}: {e}");
            return 1;
        }
    };
    outcome.set("peak_heap_mib", heap::peak_mib());
    match peak_rss_mib() {
        Some(mib) => outcome.set("peak_rss_mib", mib),
        None => {
            eprintln!("[benchmark] {name}: VmHWM is unavailable");
            return 1;
        }
    }
    if opts.trace {
        let path = PathBuf::from(format!("target/benchmark/trace-{name}.json"));
        match tracer.write(&path, name) {
            Ok(()) => eprintln!(
                "[benchmark] {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("[benchmark] could not write {}: {e}", path.display()),
        }
    }
    let result = outcome.result(opts.trace);
    print_result(name, &result, started.elapsed().as_secs_f64());
    println!("{}", Json::compact(&result));
    if outcome.correct() {
        0
    } else {
        1
    }
}

/// The committed digest for `workload` at seed 0.
fn golden(workload: &str, seed: u64) -> Option<String> {
    if seed != 0 {
        return None;
    }
    let digests = Json::parse(GOLDEN).expect("results/golden.json parses");
    get(&digests, workload).and_then(text).map(str::to_owned)
}

/// Prints a result's metrics by name with their units to stderr.
fn print_result(workload: &str, result: &Value, wall_s: f64) {
    let field = |k| get(result, k).and_then(num).unwrap_or(0.0);
    let correct = matches!(get(result, "correct"), Some(Value::Bool(true)));
    eprintln!(
        "{workload}: {} in {wall_s:.1} s, {} attempted, {} failed (error rate {:.4})",
        if correct { "correct" } else { "INCORRECT" },
        field("attempted"),
        field("failed"),
        field("failed") / field("attempted").max(1.0)
    );
    if let Some(metrics) = get(result, "metrics").and_then(Value::as_map) {
        for (name, m) in metrics {
            let value = get(m, "value").and_then(num).unwrap_or(f64::NAN);
            let unit = get(m, "unit").and_then(text).unwrap_or("");
            eprintln!("  {name:<30} {value:>18.6} {unit}");
        }
    }
}

/// Prints one run set as a table: a row per metric, a column per
/// workload, and the error rate (failed over attempted operations) last.
fn print_table(seed: u64, traced: bool, results: &[(&str, Value)]) {
    println!(
        "\nseed {seed}, {}",
        if traced { "traced" } else { "untraced" }
    );
    print!("{:<30} {:<9}", "metric", "unit");
    for (workload, _) in results {
        print!(" {workload:>16}");
    }
    println!();
    let list = if traced { PER_LAYER } else { END_TO_END };
    for &(name, unit) in list {
        print!("{name:<30} {unit:<9}");
        for (_, r) in results {
            let value = get(r, "metrics")
                .and_then(|m| get(m, name))
                .and_then(|m| get(m, "value"))
                .and_then(num);
            match value {
                Some(v) => print!(" {v:>16.6}"),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
    print!("{:<30} {:<9}", "error rate", "ratio");
    for (_, r) in results {
        let field = |k| get(r, k).and_then(num).unwrap_or(0.0);
        print!(" {:>16.6}", field("failed") / field("attempted").max(1.0));
    }
    println!();
}

/// The `run` form: each workload in a child process, results recorded.
fn run_sets(args: &[String]) -> i32 {
    let opts = match parse(args, true) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let workloads: Vec<&str> = if opts.workloads.is_empty() {
        WORKLOADS.to_vec()
    } else {
        opts.workloads.iter().map(String::as_str).collect()
    };
    let mut record = match load_or_new(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[benchmark] {e}");
            return 1;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("[benchmark] cannot locate this executable: {e}");
            return 1;
        }
    };
    let mut plan: Vec<(u64, bool)> = (0..opts.runs).map(|r| (opts.seed + r, false)).collect();
    if opts.trace {
        plan.push((opts.seed, true));
    }
    let mut ok = true;
    for (seed, traced) in plan {
        let mut results = Vec::new();
        for &workload in &workloads {
            eprintln!(
                "[benchmark] {workload}, seed {seed}{}",
                if traced { ", traced" } else { "" }
            );
            let started = Instant::now();
            let child = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let result = match child {
                Ok(output) => {
                    ok &= output.status.success();
                    let stdout = String::from_utf8_lossy(&output.stdout);
                    stdout.lines().last().and_then(|l| Json::parse(l).ok())
                }
                Err(e) => {
                    eprintln!("[benchmark] could not start {workload}: {e}");
                    None
                }
            };
            match result {
                Some(r) => {
                    eprintln!(
                        "[benchmark] {workload} finished in {:.1} s",
                        started.elapsed().as_secs_f64()
                    );
                    results.push((workload, r));
                }
                None => {
                    ok = false;
                    eprintln!("[benchmark] {workload} printed no result");
                }
            }
        }
        print_table(seed, traced, &results);
        let set = map(vec![
            ("seed", Value::Int(seed.into())),
            ("trace", Value::Bool(traced)),
            ("workloads", map(results)),
        ]);
        push_set(&mut record, set);
        if let Err(e) = write_record(&opts.out, &record) {
            eprintln!("[benchmark] could not write {}: {e}", opts.out.display());
            return 1;
        }
    }
    eprintln!("[benchmark] record written to {}", opts.out.display());
    if ok {
        0
    } else {
        1
    }
}

/// The record at `opts.out` when appending to an existing one, else a
/// new record for this host.
fn load_or_new(opts: &Opts) -> Result<Value, String> {
    if opts.append && opts.out.exists() {
        let text = std::fs::read_to_string(&opts.out).map_err(|e| e.to_string())?;
        let record = Json::parse(&text)?;
        if get(&record, "sets").and_then(Value::as_seq).is_none() {
            return Err(format!("{} is not a run record", opts.out.display()));
        }
        if get(&record, "run_seconds").and_then(num) != Some(opts.seconds as f64) {
            return Err(format!(
                "{} was measured with another --seconds",
                opts.out.display()
            ));
        }
        return Ok(record);
    }
    Ok(map(vec![
        ("host", report::host(&commit())),
        ("run_seconds", Value::Int(opts.seconds.into())),
        ("sets", Value::Seq(Vec::new())),
    ]))
}

/// The checked-out commit, when this runs inside a git work tree.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn push_set(record: &mut Value, set: Value) {
    if let Value::Map(entries) = record {
        if let Some((_, Value::Seq(sets))) = entries.iter_mut().find(|(k, _)| k == "sets") {
            sets.push(set);
        }
    }
}

fn write_record(path: &Path, record: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, Json::pretty(record) + "\n")
}
