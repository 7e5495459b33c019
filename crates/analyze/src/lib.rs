//! # lsv-analyze — static kernel verifier and lint framework
//!
//! The simulator stack generates convolution kernels from a
//! [`lsv_conv::KernelConfig`]; this crate proves properties *about* those
//! kernels without trusting the generator:
//!
//! * **Static checks** ([`analyze_config`]) evaluate the paper's analytical
//!   model against a configuration triple: Formula 3 conflict prediction
//!   (`L1-CONFLICT`, explaining which cache sets thrash), the Formula 4
//!   register-block range (`BSEQ-LOWER` / `BSEQ-UPPER`), register pressure
//!   (`REG-PRESSURE`) and the MBDC layout contracts (`LAYOUT-DIVIDE`).
//! * **Dynamic checks** ([`analyze_trace`]) lint a recorded instruction
//!   stream: the address-stream bounds sanitizer (`OOB-ADDR`) and the
//!   accumulator-hazard analysis (`ACC-CLOBBER`).
//! * [`analyze_kernel`] combines both: it replays the generated kernel for a
//!   single image in trace-recording timing-only mode and merges the static
//!   and dynamic reports.
//!
//! Findings carry a stable [`RuleId`] and a [`Severity`]; `Deny` means the
//! configuration is wrong (out-of-bounds addresses, discarded partial sums,
//! broken layout contracts), `Warn` means the model predicts it is slow
//! (conflict misses, under-subscribed pipelines). The
//! [`deny_validator`] adapter plugs the linter into
//! [`lsv_conv::ConvDesc::create_validated`] so the tuner's output can be
//! rejected at primitive-creation time.

pub mod dataflow;
pub mod diagnostics;
pub mod profile_checks;
pub mod race_checks;
pub mod static_checks;
pub mod symbolic;
pub mod trace_checks;

pub use dataflow::{analyze_dataflow, DataflowSummary};
pub use diagnostics::{Diagnostic, Report, RuleId, Severity};
pub use profile_checks::check_profile_reconciliation;
pub use race_checks::check_races;
pub use static_checks::analyze_config;
pub use symbolic::{check_stream, lift_kernel, KernelLift, PartitionModel, RegionModel};

use lsv_arch::ArchParams;
use lsv_conv::{ConvDesc, ConvPrimitive, ConvProblem, KernelConfig, UnsupportedReason};
use lsv_vengine::{Arena, ExecutionMode, TraceEvent, VCore};

/// Lint a recorded instruction stream against the arena it executed in.
/// Thin re-export wrapper fixing the register-file bound to the
/// architecture's.
pub fn analyze_trace(arena: &Arena, trace: &[TraceEvent], arch: &ArchParams) -> Report {
    trace_checks::analyze_trace(arena, trace, arch.n_vregs)
}

/// Result of [`analyze_kernel_outcome`]: the merged report plus how it was
/// obtained.
#[derive(Debug)]
pub struct AnalysisOutcome {
    /// Merged findings.
    pub report: Report,
    /// True when a simulated traced replay ran (only on the inconclusive
    /// fallback path — the clean static path never replays).
    pub replayed: bool,
    /// True when the symbolic lift modelled every touched arena region.
    pub conclusive: bool,
}

/// Static-only analysis: configuration checks, then the symbolic lift
/// ([`symbolic::lift_kernel`]) feeding the bounds/vector-length proofs
/// ([`symbolic::check_stream`]), the register dataflow
/// ([`dataflow::analyze_dataflow`]) and the multicore race detector
/// ([`race_checks::check_races`]). Nothing is simulated: the kernel's
/// instruction stream is *recorded* in introspection mode (no functional,
/// timing or cache state) and every verdict is proved over all minibatch
/// indices from the affine region models.
///
/// Returns `(report, conclusive)`; `conclusive = false` means the stream
/// touched an arena region the lift cannot attribute to `src`/`dst`/`wei`,
/// so the bounds proof is incomplete and callers should fall back to the
/// traced replay ([`analyze_kernel_replay`]).
pub fn analyze_kernel_static(
    arch: &ArchParams,
    p: &ConvProblem,
    cfg: &KernelConfig,
) -> (Report, bool) {
    let mut report = analyze_config(arch, p, cfg);
    if report.has_deny() {
        // Generator preconditions broken: the kernel cannot even be built,
        // so there is no stream to lift — the static verdict is final.
        return (report, true);
    }
    let lift = symbolic::lift_kernel(arch, p, cfg);
    for stream in &lift.streams {
        report.merge(symbolic::check_stream(
            stream,
            &lift.regions,
            lift.n_full,
            arch.n_vlen(),
        ));
        let (df, _) = dataflow::analyze_dataflow(stream, arch.n_vregs);
        report.merge(df);
    }
    report.merge(race_checks::check_races(&lift, arch));
    (report, lift.conclusive)
}

/// The pre-PR6 dynamic path: a traced single-image replay in
/// [`ExecutionMode::TimingOnly`] feeding [`trace_checks::analyze_trace`].
/// Kept as the differential cross-check for the symbolic analyzer (see
/// [`verdict_agreement`]) and as the fallback when the lift is
/// inconclusive.
///
/// The replay clones the problem with `N = 1`: the configuration is
/// independent of the minibatch (the tuner never reads `N`), every image
/// executes the identical instruction stream modulo the base offset, and a
/// single image bounds the trace to a few hundred MB even for the largest
/// Table 3 layer. Loads do not dereference the arena in timing-only mode —
/// an out-of-bounds address is *recorded* (and reported as `OOB-ADDR`)
/// instead of crashing the replay.
pub fn analyze_kernel_replay(arch: &ArchParams, p: &ConvProblem, cfg: &KernelConfig) -> Report {
    let mut report = analyze_config(arch, p, cfg);
    if report.has_deny() {
        return report;
    }
    report.merge(traced_replay(arch, p, cfg));
    report
}

fn traced_replay(arch: &ArchParams, p: &ConvProblem, cfg: &KernelConfig) -> Report {
    let p1 = p.with_minibatch(1);
    let desc = ConvDesc::new(p1, cfg.direction, cfg.algorithm);
    let prim = desc.create_with_config(arch, *cfg, 1);
    let mut arena = Arena::new();
    let t = prim.alloc_tensors(&mut arena);
    let mut core = VCore::new(arch, ExecutionMode::TimingOnly, 1);
    core.enable_trace();
    prim.execute_core(&mut core, &mut arena, &t, 0..1, 0..prim.bwdw_small_blocks());
    let trace = core.trace().expect("trace was enabled");
    trace_checks::analyze_trace(&arena, trace, arch.n_vregs)
}

/// Full analysis, static-first: the symbolic path decides; the simulated
/// replay runs *only* when the lift is inconclusive and nothing was denied
/// statically. [`AnalysisOutcome::replayed`] records which path ran so
/// callers (the `lint-kernels` experiment, tests) can assert the clean path never
/// simulates.
pub fn analyze_kernel_outcome(
    arch: &ArchParams,
    p: &ConvProblem,
    cfg: &KernelConfig,
) -> AnalysisOutcome {
    let (mut report, conclusive) = analyze_kernel_static(arch, p, cfg);
    let mut replayed = false;
    if !conclusive && !report.has_deny() {
        report.merge(traced_replay(arch, p, cfg));
        replayed = true;
    }
    AnalysisOutcome {
        report,
        replayed,
        conclusive,
    }
}

/// Full analysis of one kernel — static-first since PR 6 (symbolic lift +
/// dataflow + race detector), with the traced replay only as an
/// inconclusive-lift fallback. See [`analyze_kernel_outcome`] for the
/// which-path-ran metadata.
pub fn analyze_kernel(arch: &ArchParams, p: &ConvProblem, cfg: &KernelConfig) -> Report {
    analyze_kernel_outcome(arch, p, cfg).report
}

/// Statically analyze the kernel the tuner would generate for `p` on every
/// architecture of the swept vector-length family (the fuzz harness's
/// `{512..16384}` bit sweep). Proves `VL-EXCEEDS` legality — and everything
/// else the static path checks — across the whole family without a single
/// simulation.
pub fn analyze_kernel_swept(
    p: &ConvProblem,
    dir: lsv_conv::Direction,
    alg: lsv_conv::Algorithm,
) -> Vec<(usize, Report)> {
    lsv_conv::fuzz::VLEN_SWEEP_BITS
        .iter()
        .map(|&bits| {
            let arch = lsv_arch::aurora_with_vlen_bits(bits);
            let cfg = lsv_conv::tuning::kernel_config(&arch, p, dir, alg, 1);
            (bits, analyze_kernel_static(&arch, p, &cfg).0)
        })
        .collect()
}

/// Differential oracle: the symbolic analyzer and the traced replay must
/// agree on the deny verdict of every rule both can express (`OOB-ADDR`,
/// `ACC-CLOBBER`). Returns a description of the first disagreement. Used as
/// a fuzz property ([`lsv_conv::fuzz`] `--agreement`) so the analyzer is
/// itself fuzzed.
pub fn verdict_agreement(
    arch: &ArchParams,
    p: &ConvProblem,
    cfg: &KernelConfig,
) -> Result<(), String> {
    let (symbolic, _) = analyze_kernel_static(arch, p, cfg);
    let replay = analyze_kernel_replay(arch, p, cfg);
    for rule in [RuleId::OobAddr, RuleId::AccClobber] {
        let s = symbolic::denies(&symbolic, rule);
        let r = symbolic::denies(&replay, rule);
        if s != r {
            return Err(format!(
                "{} verdict disagreement: symbolic={s}, replay={r} (symbolic: {symbolic:?})",
                rule.as_str()
            ));
        }
    }
    Ok(())
}

/// Validator closure body for [`ConvDesc::create_validated`]: runs the full
/// analysis and rejects on any `Deny`, summarizing the denying diagnostics
/// in the error string.
pub fn deny_validator(
    arch: &ArchParams,
    p: &ConvProblem,
    cfg: &KernelConfig,
) -> Result<(), String> {
    let report = analyze_kernel(arch, p, cfg);
    if !report.has_deny() {
        return Ok(());
    }
    let denies: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .map(|d| d.to_string())
        .collect();
    Err(denies.join("; "))
}

/// Convenience: create a primitive and gate it on the linter in one call —
/// `desc.create(...)` followed by [`deny_validator`] on the tuned
/// configuration, with rejection surfacing as
/// [`UnsupportedReason::Rejected`].
pub fn create_checked(
    desc: &ConvDesc,
    arch: &ArchParams,
    threads: usize,
) -> Result<ConvPrimitive, UnsupportedReason> {
    desc.create_validated(arch, threads, &deny_validator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::sx_aurora;
    use lsv_conv::{Algorithm, Direction};

    #[test]
    fn tuned_kernels_replay_clean_end_to_end() {
        let arch = sx_aurora();
        // Small but representative: strided conv with padding, all three
        // algorithms and directions through the full static + dynamic path.
        let p = ConvProblem::new(2, 16, 24, 14, 14, 3, 3, 2, 1);
        for alg in Algorithm::ALL {
            for dir in Direction::ALL {
                let cfg = lsv_conv::tuning::kernel_config(&arch, &p, dir, alg, 1);
                let r = analyze_kernel(&arch, &p, &cfg);
                assert!(!r.has_deny(), "{alg}/{dir:?}: {r:?}");
            }
        }
    }

    #[test]
    fn create_checked_accepts_tuned_and_rejects_corrupt() {
        let arch = sx_aurora();
        let p = ConvProblem::new(1, 32, 32, 8, 8, 3, 3, 1, 1);
        let desc = ConvDesc::new(p, Direction::Fwd, Algorithm::Mbdc);
        assert!(create_checked(&desc, &arch, 1).is_ok());

        // A validator that rejects everything exercises the Rejected path.
        let always_no = |_: &ArchParams, _: &ConvProblem, _: &KernelConfig| Err("nope".to_string());
        match desc.create_validated(&arch, 1, &always_no) {
            Err(UnsupportedReason::Rejected { why }) => assert_eq!(why, "nope"),
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn statically_denied_config_skips_replay() {
        let arch = sx_aurora();
        let p = ConvProblem::new(1, 32, 32, 8, 8, 1, 1, 1, 0);
        let mut cfg = lsv_conv::tuning::kernel_config(&arch, &p, Direction::Fwd, Algorithm::Dc, 1);
        cfg.rb.rb_w = 100; // blows the register file; replay would panic
        let r = analyze_kernel(&arch, &p, &cfg);
        assert!(r.fired(RuleId::RegPressure) && r.has_deny());
        assert!(deny_validator(&arch, &p, &cfg).is_err());
    }
}
