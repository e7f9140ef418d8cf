//! Determinism lint: a token ban over every crate under `crates/`
//! except `pmp-telemetry`, which holds the one wall-clock read. Their
//! code feeds the replayable digests (`trace_digest`, journal digest,
//! WAL bytes) or a checked artifact (the harness output CI diffs
//! against EXPERIMENTS.md, the pinned chaos sweep). Cross-driver
//! byte-equality is the platform's core testable claim, and the two
//! ways it rots are wall-clock reads and hash-order iteration leaking
//! into send/journal paths.
//!
//! No non-comment line of those crates' non-test sources may name:
//!
//! * `Instant::now`, `SystemTime`, `thread_rng`, `rand::` — real time
//!   and real entropy must never reach simulated state (the one
//!   wall-clock read, `pmp_telemetry::Stopwatch`, lives outside them);
//! * `HashMap`, `HashSet` — hash order is per-process random. With
//!   ordered collections only, every iteration order is a property of
//!   the type, so no loop has to remember to sort.
//!
//! There is no allowlist: an exception is a change to this file.

use std::fs;
use std::path::{Path, PathBuf};

/// The crate that holds the one wall-clock read (`Stopwatch`) and the
/// metric registry behind it; every other crate under `crates/` is
/// scanned.
const UNSCANNED: &str = "telemetry";

/// Banned tokens, matched as substrings of non-comment code lines.
const TOKENS: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "rand::",
    "HashMap",
    "HashSet",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Every banned token in `text`, the source of the file at `path`, as
/// `path:line: [token] line`. Only code before the file's first
/// `#[cfg(test)]` counts (the repo keeps one trailing test module per
/// file), and a line that starts with `//` is a comment.
fn scan(path: &str, text: &str) -> Vec<String> {
    let src = text.find("#[cfg(test)]").map_or(text, |at| &text[..at]);
    let mut findings = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        for token in TOKENS.iter().filter(|t| line.contains(*t)) {
            findings.push(format!("{path}:{}: [{token}] {}", i + 1, line.trim()));
        }
    }
    findings
}

#[test]
fn digest_feeding_crates_are_free_of_nondeterminism_sources() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir() && !p.ends_with(UNSCANNED))
        .collect();
    crates.sort();
    assert!(crates.len() > 1, "crates/ lists the workspace crates");
    let mut findings = Vec::new();
    for krate in crates {
        let dir = krate.join("src");
        let mut files = Vec::new();
        rust_files(&dir, &mut files);
        assert!(!files.is_empty(), "no sources under {}", dir.display());
        for file in files {
            let text = fs::read_to_string(&file)
                .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
            let rel = file
                .strip_prefix(&root)
                .expect("under root")
                .to_string_lossy()
                .replace('\\', "/");
            findings.extend(scan(&rel, &text));
        }
    }
    assert!(
        findings.is_empty(),
        "nondeterminism sources in digest-feeding crates:\n  {}",
        findings.join("\n  ")
    );
}

#[test]
fn the_scan_flags_code_and_skips_comments_and_tests() {
    let text = "\
// A HashMap in a comment, and Instant::now, are words.
/// So are these: HashSet, SystemTime.
pub struct Base {
    pub grants: std::collections::HashMap<String, u64>,
}
fn tick() -> u64 {
    std::time::Instant::now().elapsed().as_nanos() as u64
}
#[cfg(test)]
mod tests {
    use std::collections::HashSet;
}
";
    assert_eq!(
        scan("crates/midas/src/base.rs", text),
        [
            "crates/midas/src/base.rs:4: [HashMap] pub grants: std::collections::HashMap<String, u64>,",
            "crates/midas/src/base.rs:7: [Instant::now] std::time::Instant::now().elapsed().as_nanos() as u64",
        ]
    );
}
