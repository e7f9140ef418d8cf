//! Replays every committed chaos repro under both epoch drivers
//! (DESIGN.md §12).
//!
//! Each `tests/repros/*.repro` file is a minimized scenario that once
//! exposed a real bug; the file stays committed after the fix so the
//! bug can never quietly return. A repro that fails here means a
//! regression of the exact invariant it was minimized against — run
//! `cargo run -p pmp-chaos -- --replay tests/repros/<file>` to see the
//! violation text.

use pmp::chaos::{exec, repro};

fn repro_files() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/repros must exist")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "repro"))
        .collect();
    files.sort();
    files
}

#[test]
fn the_repro_corpus_is_not_empty() {
    assert!(
        !repro_files().is_empty(),
        "tests/repros holds the chaos corpus; it should never be empty"
    );
}

#[test]
fn every_committed_repro_replays_green() {
    for path in repro_files() {
        let bytes = std::fs::read(&path).unwrap();
        let sc = repro::load(&bytes)
            .unwrap_or_else(|e| panic!("{}: undecodable: {e}", path.display()));
        let cross = exec::run_cross(&sc);
        assert!(
            cross.violations.is_empty(),
            "{}: regressed:\n{}",
            path.display(),
            cross
                .violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(!cross.serial.aborted && !cross.parallel.aborted);
    }
}

#[test]
fn repro_files_are_canonical_bytes() {
    // `save(load(f)) == f`: the corpus stays byte-stable, so a repro
    // diff in review always means a semantic change to the scenario.
    for path in repro_files() {
        let bytes = std::fs::read(&path).unwrap();
        let (sc, flight) = repro::load_full(&bytes).unwrap();
        assert_eq!(
            repro::save(&sc, &flight),
            bytes,
            "{}: not in canonical serialized form",
            path.display()
        );
    }
}
