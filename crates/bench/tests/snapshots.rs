//! Pins every experiment's report byte for byte against its committed
//! golden copy, `results/<name>.txt`.
//!
//! Every report is arithmetic over the analytic models or a seeded
//! functional run, so any diff means a model, an engine or the table
//! renderer changed observable numbers. Re-bless deliberately with
//! `SIMD2_BLESS=1 cargo test -p simd2-bench --test snapshots`.

use std::collections::BTreeSet;
use std::path::Path;

use simd2_bench::experiments::EXPERIMENTS;

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

#[test]
fn every_experiment_matches_its_committed_golden() {
    let bless = std::env::var_os("SIMD2_BLESS").is_some();
    for e in &EXPERIMENTS {
        let golden = Path::new(RESULTS).join(e.name).with_extension("txt");
        let got = (e.render)();
        if bless {
            std::fs::write(&golden, &got).expect("bless golden");
            continue;
        }
        let want = std::fs::read_to_string(&golden)
            .unwrap_or_else(|err| panic!("read {}: {err}", golden.display()));
        assert!(
            got == want,
            "{name} drifted from results/{name}.txt.\n\
             If the change is intentional, re-bless with SIMD2_BLESS=1.\n\
             --- got ---\n{got}\n--- want ---\n{want}",
            name = e.name
        );
    }
}

/// Committed under `results/` without being an experiment's report: the
/// `serve_soak --sparse --seed 7` line `scripts/verify.sh --full` diffs.
const SOAK_GOLDENS: [&str; 1] = ["serve_soak_sparse"];

/// An experiment can be neither forgotten (a committed report no entry
/// regenerates) nor orphaned (an entry with no committed report).
#[test]
fn the_table_and_the_committed_reports_are_the_same_set() {
    let mut names: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_owned()).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
    names.extend(SOAK_GOLDENS.map(str::to_owned));
    let committed: BTreeSet<String> = std::fs::read_dir(RESULTS)
        .expect("read results/")
        .map(|entry| entry.expect("read results/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| {
            let stem = path.file_stem().expect("a .txt file has a stem");
            stem.to_string_lossy().into_owned()
        })
        .collect();
    assert_eq!(names, committed);
}
