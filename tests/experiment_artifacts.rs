//! The experiment harness against the committed artifacts: the experiments
//! that need no simulation run in-process here, and their output must match
//! `results/` byte for byte. `report` re-checks the paper's claims over the
//! committed sweep CSVs, so a drifted `figure4.csv`/`figure5.csv` or a
//! changed claim threshold fails too.

use lsv_bench::experiments::{execute, find, Ctx};
use std::path::PathBuf;

fn assert_reproduces(names: &[&str]) {
    let ctx = Ctx {
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results"),
        ..Ctx::default()
    };
    for name in names {
        let exp = find(name).unwrap_or_else(|| panic!("no experiment {name}"));
        // `execute` returns the artifacts without writing them.
        for a in execute(exp, &ctx).unwrap_or_else(|e| panic!("{e}")) {
            let committed = std::fs::read_to_string(&a.path)
                .unwrap_or_else(|e| panic!("{}: {e}", a.path.display()));
            assert!(
                a.body == committed,
                "{name} no longer reproduces {}",
                a.path.display()
            );
        }
    }
}

#[test]
fn analytic_experiments_reproduce_committed_artifacts() {
    assert_reproduces(&["table1", "table2", "table3", "figure2", "figure3"]);
}

#[test]
fn report_over_committed_results_reproduces_report_txt() {
    assert_reproduces(&["report"]);
}
