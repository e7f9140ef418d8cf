//! Determinism lint: a source-level guard over the crates whose code
//! feeds the replayable digests (`trace_digest`, journal digest, WAL
//! bytes). Cross-driver byte-equality is the platform's core testable
//! claim, and the two ways it historically rots are wall-clock reads
//! and hash-order iteration leaking into send/journal paths.
//!
//! The lint scans non-test sources of the digest-feeding crates for:
//!
//! * `Instant::now`, `SystemTime`, `thread_rng`, `rand::` — real time
//!   and real entropy must never reach simulated state;
//! * iteration over values declared as `HashMap`/`HashSet`
//!   (`.iter()`, `.keys()`, `.values()`, …) — hash order is
//!   per-process-random, so any such order that escapes into bytes is
//!   a nondeterminism bug. A hit is cleared automatically when a
//!   `.sort` appears within the next three lines (the
//!   collect-then-sort idiom), and otherwise must be justified in
//!   `tools/determinism-allowlist.txt`.
//!
//! The allowlist is exact: every entry must match a current finding,
//! so stale entries fail the build too. The scan is line-based and
//! heuristic — multi-line iterator chains evade it — but it catches
//! the common single-line forms and, more importantly, forces every
//! new wall-clock read into a reviewed allowlist entry.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose state feeds trace/journal/WAL digests.
const CRATES: &[&str] = &[
    "core",
    "midas",
    "discovery",
    "prose",
    "tuplespace",
    "trace",
    "vm",
];

/// Forbidden-token needles (matched as substrings of non-comment code
/// lines).
const TOKENS: &[&str] = &["Instant::now", "SystemTime", "thread_rng", "rand::"];

#[derive(Debug)]
struct Finding {
    /// Repo-relative path, forward slashes.
    path: String,
    line: usize,
    /// The token or iteration expression that fired.
    what: String,
    text: String,
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

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

/// Everything before the first `#[cfg(test)]`: the convention in this
/// repo is a single trailing test module per file.
fn non_test_source(text: &str) -> &str {
    match text.find("#[cfg(test)]") {
        Some(idx) => &text[..idx],
        None => text,
    }
}

fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("//!") || t.starts_with("///")
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Names declared in `line` with a `HashMap`/`HashSet` type or
/// constructor: `name: HashMap<..>`, `let mut name = HashMap::new()`.
fn declared_hash_names(line: &str, out: &mut Vec<String>) {
    let line = line.replace("std::collections::", "");
    for needle in ["HashMap", "HashSet"] {
        let mut from = 0;
        while let Some(pos) = line[from..].find(needle) {
            let at = from + pos;
            from = at + needle.len();
            // Walk back over the separator (`: ` or `= `) to the
            // declared identifier.
            let prefix = line[..at].trim_end();
            let prefix = prefix
                .strip_suffix(':')
                .or_else(|| prefix.strip_suffix('='))
                .map(str::trim_end);
            let Some(prefix) = prefix else { continue };
            let name: String = prefix
                .chars()
                .rev()
                .take_while(|&c| is_ident_char(c))
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            if !name.is_empty() && !name.chars().next().unwrap().is_numeric() {
                out.push(name);
            }
        }
    }
}

/// Iteration methods whose order is hash order.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
];

fn scan_file(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let src = non_test_source(text);
    let lines: Vec<&str> = src.lines().collect();

    let mut hash_names: Vec<String> = Vec::new();
    for line in &lines {
        if !is_comment(line) {
            declared_hash_names(line, &mut hash_names);
        }
    }
    hash_names.sort();
    hash_names.dedup();

    for (i, line) in lines.iter().enumerate() {
        if is_comment(line) {
            continue;
        }
        for token in TOKENS {
            if line.contains(token) {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: i + 1,
                    what: (*token).to_string(),
                    text: line.trim().to_string(),
                });
            }
        }
        for name in &hash_names {
            for method in ITER_METHODS {
                let needle = format!("{name}{method}");
                let Some(pos) = line.find(&needle) else {
                    continue;
                };
                // Word boundary on the left of the name.
                if pos > 0
                    && line[..pos]
                        .chars()
                        .next_back()
                        .is_some_and(is_ident_char)
                {
                    continue;
                }
                // collect-then-sort idiom: a `.sort` on this line or
                // within the next three clears the hit.
                let sorted_nearby = lines[i..lines.len().min(i + 4)]
                    .iter()
                    .any(|l| l.contains(".sort"));
                if sorted_nearby {
                    continue;
                }
                findings.push(Finding {
                    path: rel.to_string(),
                    line: i + 1,
                    what: needle.clone(),
                    text: line.trim().to_string(),
                });
            }
        }
    }
}

/// Allowlist entries: `path:substring`, substring matched against the
/// finding's `what` or line text.
fn load_allowlist(root: &Path) -> Vec<(String, String)> {
    let path = root.join("tools/determinism-allowlist.txt");
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (path, pat) = l
                .split_once(':')
                .unwrap_or_else(|| panic!("allowlist entry without `path:pattern`: {l}"));
            (path.trim().to_string(), pat.trim().to_string())
        })
        .collect()
}

#[test]
fn digest_feeding_crates_are_free_of_nondeterminism_sources() {
    let root = repo_root();
    let mut findings = Vec::new();
    for krate in CRATES {
        let dir = root.join("crates").join(krate).join("src");
        assert!(dir.is_dir(), "missing crate source dir {}", dir.display());
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
            scan_file(&rel, &text, &mut findings);
        }
    }

    let allowlist = load_allowlist(&root);
    let mut used = vec![false; allowlist.len()];
    let mut violations = Vec::new();
    for f in &findings {
        let allowed = allowlist.iter().enumerate().any(|(i, (path, pat))| {
            let hit = f.path == *path && (f.what.contains(pat) || f.text.contains(pat));
            if hit {
                used[i] = true;
            }
            hit
        });
        if !allowed {
            violations.push(format!("{}:{}: [{}] {}", f.path, f.line, f.what, f.text));
        }
    }
    let stale: Vec<String> = allowlist
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|((p, pat), _)| format!("{p}:{pat}"))
        .collect();

    assert!(
        violations.is_empty(),
        "nondeterminism-source findings not in tools/determinism-allowlist.txt:\n  {}",
        violations.join("\n  ")
    );
    assert!(
        stale.is_empty(),
        "stale allowlist entries (no longer match any finding — remove them):\n  {}",
        stale.join("\n  ")
    );
}
