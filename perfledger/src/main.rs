//! `bench` — the performance ledger's command line.
//!
//! ```text
//! bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//!     one workload for S seconds (default: BENCHMARK.json's run_seconds);
//!     prints every metric by name and unit, then one JSON result line
//!     (end-to-end metrics, or per-layer ones with --trace 1)
//! bench [--seed N] [--seconds S] [--traced] [--json PATH]
//!     every workload, each in a child process; --traced runs the traced
//!     legs only, --json runs both and writes the ledger to PATH
//! bench --compare OLD NEW
//!     prints each metric's delta; exits 1 when a bounded metric
//!     worsened by more than its bound (or twice its noise, if larger)
//! ```

use pmp_perfledger::adapt::Adapt;
use pmp_perfledger::fanout::Fanout;
use pmp_perfledger::ledger::{self, Host, Row};
use pmp_perfledger::recover::Recover;
use pmp_perfledger::rpc::Rpc;
use pmp_perfledger::run::{self, Outcome, RunConfig};
use pmp_perfledger::WORKLOADS;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Prefix of the ledger-row lines a workload prints for the parent.
const ROW: &str = "row\t";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: ledger::run_seconds(ledger::BENCHMARK_JSON)?,
        trace: false,
        traced: false,
        json: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => a.traced = true,
            "--json" => a.json = Some(value()?.into()),
            "--compare" => {
                let old = value()?;
                a.compare = Some((old.into(), value()?.into()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((old, new)) = &args.compare {
        return compare(old, new);
    }
    match &args.workload {
        Some(w) => one_workload(w, &args),
        None => every_workload(&args),
    }
}

/// Runs one workload in this process and prints its result line last.
fn one_workload(name: &str, args: &Args) -> ExitCode {
    let cfg = RunConfig::timed(args.seed, args.seconds);
    let spans = span_dir();
    let out: Outcome = match (name, args.trace) {
        ("adapt", false) => run::e2e_run::<Adapt>(&cfg),
        ("adapt", true) => run::traced_run::<Adapt>(&cfg, &spans),
        ("rpc", false) => run::e2e_run::<Rpc>(&cfg),
        ("rpc", true) => run::traced_run::<Rpc>(&cfg, &spans),
        ("fanout", false) => run::e2e_run::<Fanout>(&cfg),
        ("fanout", true) => run::traced_run::<Fanout>(&cfg, &spans),
        ("recover", false) => run::e2e_run::<Recover>(&cfg),
        ("recover", true) => run::traced_run::<Recover>(&cfg, &spans),
        _ => {
            eprintln!(
                "bench: unknown workload {name} (one of {})",
                WORKLOADS.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    for m in &out.metrics {
        println!(
            "{:<8} {:<40} {:>16.4} {:<6} n={:<6} noise={:.1}%",
            out.workload,
            m.name,
            m.value,
            m.unit,
            m.n,
            m.spread.noise * 100.0
        );
    }
    for m in &out.metrics {
        println!("{ROW}{}", Row::of(out.workload, m, !args.trace).to_json());
    }
    for e in out.errors.iter().take(20) {
        eprintln!("bench: {name}: INCORRECT: {e}");
    }
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where traced runs write their spans: `bench/` under the cargo
/// target directory.
fn span_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("bench")
}

/// Runs every workload, each in its own child process so that its peak
/// memory is its own, one at a time.
fn every_workload(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traces: &[&str] = match (args.traced, args.json.is_some()) {
        (_, true) => &["0", "1"],
        (true, false) => &["1"],
        (false, false) => &["0"],
    };
    let mut rows: Vec<Row> = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        for trace in traces {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output();
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("bench: running {w}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            for line in stdout.lines() {
                match line.strip_prefix(ROW) {
                    Some(row) => {
                        let row = pmp_perfledger::json::parse(row)
                            .ok()
                            .and_then(|v| Row::from_json(&v));
                        // Workload-free rows are the same in every traced
                        // run; keep the first.
                        if let Some(row) = row.filter(|r| !rows.iter().any(|o| o.id == r.id)) {
                            rows.push(row);
                        }
                    }
                    None => println!("{line}"),
                }
            }
            if !out.status.success() {
                eprintln!("bench: {w} (trace {trace}) failed: {}", out.status);
                ok = false;
            }
        }
    }
    if let Some(path) = &args.json {
        let text = ledger::render(&Host::current(args.seed), &rows);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("bench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("bench: wrote {} rows to {}", rows.len(), path.display());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--compare OLD NEW`.
fn compare(old: &PathBuf, new: &PathBuf) -> ExitCode {
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| ledger::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (old, new, spec) = match (
        read(old),
        read(new),
        ledger::declared(ledger::BENCHMARK_JSON),
    ) {
        (Ok(o), Ok(n), Ok(s)) => (o, n, s),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, regressed) = ledger::compare(&old, &new, &spec);
    print!("{report}");
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
