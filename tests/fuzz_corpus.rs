//! Tier-1 replay of the differential-fuzzing seed corpus.
//!
//! `lsvconv fuzz` explores randomized irregular geometries; this test pins
//! the corpus those runs are seeded from — rectangular kernels, per-axis
//! stride/pad, stride > kernel, pad >= kernel, unit and off-grid channel
//! counts, swept vector lengths — so every property (functional agreement
//! with naive, Functional/TimingOnly cycle agreement, lint cleanliness)
//! holds deterministically on every CI run, with the `lsv-analyze`
//! deny-linter enabled exactly as the CLI runs it.

use lsvconv::analyze::deny_validator;
use lsvconv::conv::fuzz::{run_corpus_backend, run_fuzz_backend, seed_corpus};
use lsvconv::conv::BackendKind;

#[test]
fn seed_corpus_replays_clean_under_lint() {
    let out = run_corpus_backend(&deny_validator, None, BackendKind::Sim);
    assert!(
        out.clean(),
        "corpus violations:\n{}",
        out.failures
            .iter()
            .map(|f| format!("  {}: {}", f.case, f.why))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(out.cases_run, seed_corpus().len());
}

#[test]
fn corpus_spans_the_irregular_geometry_axes() {
    // The corpus must keep covering what the fuzzer is designed around;
    // shrinking it to friendly shapes would silently weaken tier-1.
    let corpus = seed_corpus();
    assert!(corpus.iter().any(|c| c.problem.kh != c.problem.kw));
    assert!(corpus
        .iter()
        .any(|c| c.problem.stride_h != c.problem.stride_w));
    assert!(corpus.iter().any(|c| c.problem.pad_h != c.problem.pad_w));
    assert!(corpus
        .iter()
        .any(|c| c.problem.stride_w > c.problem.kw || c.problem.stride_h > c.problem.kh));
    assert!(corpus
        .iter()
        .any(|c| c.problem.pad_h >= c.problem.kh && c.problem.pad_w >= c.problem.kw));
    assert!(corpus
        .iter()
        .any(|c| c.problem.ic == 1 && c.problem.oc == 1));
    assert!(corpus
        .iter()
        .any(|c| c.problem.ic % 32 != 0 && c.problem.ic > 16));
}

#[test]
fn short_randomized_run_is_clean() {
    // A bounded randomized slice in tier-1 (the full 500-case sweep runs in
    // CI via `lsvconv fuzz`); fixed seed keeps it deterministic.
    let out = run_fuzz_backend(40, 0xC0FFEE, &deny_validator, None, BackendKind::Sim);
    assert!(out.clean(), "failures: {:?}", out.failures);
    assert_eq!(out.cases_run, 40);
}
