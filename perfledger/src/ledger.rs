//! The ledger: one row per metric per workload, plus the host it ran
//! on, written as JSON and compared against an older ledger under the
//! bounds `BENCHMARK.json` declares.

use crate::json::{self, Value};
use crate::run::Metric;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The benchmark definition this build was made with.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One ledger row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `<workload>.<metric>`.
    pub id: String,
    /// The workload (or `micro` for workload-free rows).
    pub path: String,
    /// `e2e`, or the crate the metric belongs to.
    pub layer: String,
    /// Unit.
    pub unit: String,
    /// The reported value.
    pub median: f64,
    /// Smallest per-slice or per-repeat value.
    pub min: f64,
    /// 90th-percentile per-slice or per-repeat value.
    pub p90: f64,
    /// Samples behind the value.
    pub n: usize,
    /// Interquartile range over median of the per-slice or per-repeat
    /// values.
    pub noise: f64,
}

impl Row {
    /// The row for `m` measured on `workload`.
    #[must_use]
    pub fn of(workload: &str, m: &Metric, e2e: bool) -> Row {
        let micro = m.name.starts_with("micro.");
        let path = if micro { "micro" } else { workload };
        let layer = if e2e {
            "e2e".to_string()
        } else {
            let mut parts = m.name.split('.');
            match (parts.next(), parts.next()) {
                (Some("micro"), Some(l)) | (Some(l), Some(_)) => l.to_string(),
                _ => "core".to_string(),
            }
        };
        Row {
            id: if micro {
                m.name.clone()
            } else {
                format!("{path}.{}", m.name)
            },
            path: path.into(),
            layer,
            unit: m.unit.into(),
            median: m.value,
            min: m.spread.min,
            p90: m.spread.p90,
            n: m.n,
            noise: m.spread.noise,
        }
    }

    /// The metric name the row measures (its id without the path).
    #[must_use]
    pub fn metric(&self) -> &str {
        if self.path == "micro" {
            &self.id
        } else {
            self.id
                .strip_prefix(&format!("{}.", self.path))
                .unwrap_or(&self.id)
        }
    }

    /// The row as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\": {}, \"path\": {}, \"layer\": {}, \"unit\": {}, \"median\": {}, \"min\": {}, \"p90\": {}, \"n\": {}, \"noise\": {}}}",
            json::quote(&self.id),
            json::quote(&self.path),
            json::quote(&self.layer),
            json::quote(&self.unit),
            json::number(self.median),
            json::number(self.min),
            json::number(self.p90),
            self.n,
            json::number(self.noise)
        )
    }

    /// Reads a row back from its JSON object.
    #[must_use]
    pub fn from_json(v: &Value) -> Option<Row> {
        let s = |k: &str| v.get(k).and_then(Value::str).map(str::to_string);
        let n = |k: &str| v.get(k).and_then(Value::num);
        Some(Row {
            id: s("id")?,
            path: s("path")?,
            layer: s("layer")?,
            unit: s("unit")?,
            median: n("median")?,
            min: n("min")?,
            p90: n("p90")?,
            n: n("n")? as usize,
            noise: n("noise")?,
        })
    }
}

/// Where and how a ledger was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Logical CPUs available.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Build profile of the benchmark binary.
    pub profile: String,
    /// Commit of the measured sources, or `unknown`.
    pub commit: String,
    /// Seed of the run.
    pub seed: u64,
}

impl Host {
    /// This host, this build.
    #[must_use]
    pub fn current(seed: u64) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cpu,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
            seed,
        }
    }
}

/// The checked-out commit, read from the repository's `.git` without
/// running git.
fn git_commit() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// A whole ledger as JSON text.
#[must_use]
pub fn render(host: &Host, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"host\": {{\"nproc\": {}, \"cpu\": {}, \"profile\": {}, \"commit\": {}, \"seed\": {}}},",
        host.nproc,
        json::quote(&host.cpu),
        json::quote(&host.profile),
        json::quote(&host.commit),
        host.seed
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{sep}", r.to_json());
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads the rows of a ledger.
///
/// # Errors
///
/// Malformed JSON or rows.
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    let doc = json::parse(text)?;
    doc.get("rows")
        .and_then(Value::arr)
        .ok_or("ledger without rows")?
        .iter()
        .map(|v| Row::from_json(v).ok_or_else(|| "malformed ledger row".to_string()))
        .collect()
}

/// A declared metric: whether higher is better, and its regression
/// bound (end-to-end metrics only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Declared {
    /// Higher values are better.
    pub higher_better: bool,
    /// Share of the old value the metric may worsen by, if bounded.
    pub bound: Option<f64>,
}

/// Every metric `BENCHMARK.json` declares, by name.
///
/// # Errors
///
/// Malformed JSON.
pub fn declared(benchmark_json: &str) -> Result<BTreeMap<String, Declared>, String> {
    let doc = json::parse(benchmark_json)?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc.get(section).and_then(Value::arr).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Value::str)
                .ok_or("metric without a name")?;
            out.insert(
                name.to_string(),
                Declared {
                    higher_better: m.get("better").and_then(Value::str) == Some("higher"),
                    bound: m.get("bound").and_then(Value::num),
                },
            );
        }
    }
    Ok(out)
}

/// The length of one run `BENCHMARK.json` declares, in seconds.
///
/// # Errors
///
/// Malformed JSON, or no `run_seconds`.
pub fn run_seconds(benchmark_json: &str) -> Result<f64, String> {
    json::parse(benchmark_json)?
        .get("run_seconds")
        .and_then(Value::num)
        .ok_or_else(|| "BENCHMARK.json without run_seconds".into())
}

/// Compares `new` against `old` row by row and reports every delta.
/// Returns the report and whether some bounded metric worsened by more
/// than its bound, or by more than twice the recorded noise where that
/// is larger.
#[must_use]
pub fn compare(old: &[Row], new: &[Row], spec: &BTreeMap<String, Declared>) -> (String, bool) {
    let mut report = String::new();
    let mut regressed = false;
    let _ = writeln!(
        report,
        "{:<52} {:>14} {:>14} {:>9}  verdict",
        "id", "old", "new", "worse by"
    );
    for n in new {
        let Some(o) = old.iter().find(|o| o.id == n.id) else {
            let _ = writeln!(
                report,
                "{:<52} {:>14} {:>14.4} {:>9}  new row",
                n.id, "-", n.median, "-"
            );
            continue;
        };
        let decl = spec.get(n.metric()).copied().unwrap_or(Declared {
            higher_better: false,
            bound: None,
        });
        let worse = worsening(o.median, n.median, decl.higher_better);
        let verdict = match decl.bound {
            Some(bound) => {
                let allowed = bound.max(2.0 * o.noise.max(n.noise));
                if worse > allowed {
                    regressed = true;
                    format!("REGRESSED (allowed {:.1}%)", allowed * 100.0)
                } else {
                    format!("ok (allowed {:.1}%)", allowed * 100.0)
                }
            }
            None => "layer".into(),
        };
        let _ = writeln!(
            report,
            "{:<52} {:>14.4} {:>14.4} {:>8.1}%  {verdict}",
            n.id,
            o.median,
            n.median,
            worse * 100.0
        );
    }
    (report, regressed)
}

/// How much worse `new` is than `old`, as a share of `old` (negative
/// when better).
#[must_use]
pub fn worsening(old: f64, new: f64, higher_better: bool) -> f64 {
    let delta = if higher_better { old - new } else { new - old };
    if old != 0.0 {
        delta / old.abs()
    } else if delta > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: &str, median: f64, noise: f64) -> Row {
        Row {
            id: format!("adapt.{id}"),
            path: "adapt".into(),
            layer: "e2e".into(),
            unit: "1/s".into(),
            median,
            min: median,
            p90: median,
            n: 16,
            noise,
        }
    }

    fn spec() -> BTreeMap<String, Declared> {
        declared(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    #[test]
    fn a_twofold_slowdown_fails() {
        let old = [
            row("ops_per_gcycle", 1000.0, 0.02),
            row("op_mcycles_p50", 8.0, 0.02),
        ];
        let new = [
            row("ops_per_gcycle", 500.0, 0.02),
            row("op_mcycles_p50", 16.0, 0.02),
        ];
        let (report, regressed) = compare(&old, &new, &spec());
        assert!(regressed, "{report}");
        assert_eq!(report.matches("REGRESSED").count(), 2, "{report}");
    }

    #[test]
    fn a_delta_at_the_noise_level_passes() {
        // Worse by 1.5 bounds, with noise of one bound recorded: twice
        // the noise allows it.
        let bound = spec()["ops_per_gcycle"]
            .bound
            .expect("ops_per_gcycle is bounded");
        let worse = 1000.0 * (1.0 - 1.5 * bound);
        let old = [row("ops_per_gcycle", 1000.0, bound)];
        let new = [row("ops_per_gcycle", worse, bound)];
        let (report, regressed) = compare(&old, &new, &spec());
        assert!(!regressed, "{report}");
        // The same delta on a quiet metric is a regression.
        let quiet = |v| [row("ops_per_gcycle", v, 0.0)];
        assert!(compare(&quiet(1000.0), &quiet(worse), &spec()).1);
    }

    #[test]
    fn layer_rows_never_fail_a_comparison() {
        let old = [row("crypto.verify_us", 10.0, 0.0)];
        let new = [row("crypto.verify_us", 100.0, 0.0)];
        assert!(!compare(&old, &new, &spec()).1);
    }

    #[test]
    fn improvements_are_never_regressions() {
        assert!(worsening(1000.0, 2000.0, true) < 0.0);
        assert!(worsening(10.0, 5.0, false) < 0.0);
        assert_eq!(worsening(0.0, 0.0, false), 0.0);
    }

    #[test]
    fn ledgers_round_trip() {
        let host = Host::current(3);
        let rows = vec![
            row("ops_per_gcycle", 1234.5678, 0.031),
            row("op_mcycles_p90", 8.25, 0.1),
        ];
        assert_eq!(parse(&render(&host, &rows)).unwrap(), rows);
        assert!(host.nproc >= 1);
    }

    #[test]
    fn rows_name_their_layer() {
        let m = Metric::single("crypto.verify_us", "us", 7.0);
        let r = Row::of("adapt", &m, false);
        assert_eq!(
            (r.id.as_str(), r.layer.as_str(), r.metric()),
            ("adapt.crypto.verify_us", "crypto", "crypto.verify_us")
        );
        let m = Metric::single("micro.vm.call_ns.no_stubs", "ns", 7.0);
        let r = Row::of("adapt", &m, false);
        assert_eq!(
            (r.id.as_str(), r.path.as_str(), r.layer.as_str()),
            ("micro.vm.call_ns.no_stubs", "micro", "vm")
        );
        let r = Row::of(
            "rpc",
            &Metric::single("ops_per_gcycle", "1/Gcycle", 1.0),
            true,
        );
        assert_eq!((r.layer.as_str(), r.metric()), ("e2e", "ops_per_gcycle"));
    }
}
