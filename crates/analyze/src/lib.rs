//! # lsv-analyze — static kernel verifier and lint framework
//!
//! The simulator stack generates convolution kernels from a
//! [`lsv_conv::KernelConfig`]; this crate proves properties *about* those
//! kernels without trusting the generator and without simulating them:
//!
//! * **Configuration checks** ([`analyze_config`]) evaluate the paper's
//!   analytical model against a configuration triple: Formula 3 conflict
//!   prediction (`L1-CONFLICT`, explaining which cache sets thrash), the
//!   Formula 4 register-block range (`BSEQ-LOWER` / `BSEQ-UPPER`), register
//!   pressure (`REG-PRESSURE`) and the MBDC layout contracts
//!   (`LAYOUT-DIVIDE`).
//! * **Stream checks** run over the kernel's *recorded* instruction stream
//!   ([`lift_kernel`]): the affine bounds and vector-length proofs
//!   ([`check_stream`]: `OOB-ADDR`, `REGION-OVERLAP`, `VL-EXCEEDS`), the
//!   register dataflow ([`analyze_dataflow`]: `ACC-CLOBBER`, `UNINIT-READ`,
//!   `DEAD-WRITE`, `REG-PRESSURE`) and the multicore race detector
//!   ([`check_races`]).
//! * [`analyze_kernel`] runs all of them: it is the one verification path.
//!
//! Findings carry a stable [`RuleId`] and a [`Severity`]; `Deny` means the
//! configuration is wrong (out-of-bounds addresses, discarded partial sums,
//! broken layout contracts), `Warn` means the model predicts it is slow
//! (conflict misses, under-subscribed pipelines). The
//! [`deny_validator`] adapter plugs the linter into
//! [`lsv_conv::ConvDesc::create_validated`] so the tuner's output can be
//! rejected at primitive-creation time. The crate's tests hold the static
//! path against a traced-replay oracle that lives only there.

pub mod dataflow;
pub mod diagnostics;
pub mod profile_checks;
pub mod race_checks;
pub mod static_checks;
pub mod symbolic;

pub use dataflow::{analyze_dataflow, DataflowSummary};
pub use diagnostics::{Diagnostic, Report, RuleId, Severity};
pub use profile_checks::check_profile_reconciliation;
pub use race_checks::check_races;
pub use static_checks::analyze_config;
pub use symbolic::{check_stream, lift_kernel, KernelLift, PartitionModel, RegionModel};

use lsv_arch::ArchParams;
use lsv_conv::{ConvDesc, ConvPrimitive, ConvProblem, KernelConfig, UnsupportedReason};

/// Full analysis of one kernel: configuration checks, then the symbolic
/// lift ([`symbolic::lift_kernel`]) feeding the bounds/vector-length proofs
/// ([`symbolic::check_stream`]), the register dataflow
/// ([`dataflow::analyze_dataflow`]) and the multicore race detector
/// ([`race_checks::check_races`]). Nothing is simulated: the kernel's
/// instruction stream is *recorded* in introspection mode (no functional,
/// timing or cache state) and every verdict is proved over all minibatch
/// indices from the affine region models. An arena region the lift cannot
/// attribute to `src`/`dst`/`wei` is itself a `Deny` finding.
pub fn analyze_kernel(arch: &ArchParams, p: &ConvProblem, cfg: &KernelConfig) -> Report {
    let mut report = analyze_config(arch, p, cfg);
    if report.has_deny() {
        // Generator preconditions broken: the kernel cannot even be built,
        // so there is no stream to lift — the static verdict is final.
        return report;
    }
    let (lift, findings) = symbolic::lift_kernel(arch, p, cfg);
    report.merge(findings);
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
    report
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
    fn tuned_kernels_analyze_clean() {
        let arch = sx_aurora();
        // Small but representative: strided conv with padding, all three
        // algorithms and directions through the one static path — the lift
        // attributes every region, so nothing denies.
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
    fn statically_denied_config_skips_the_lift() {
        let arch = sx_aurora();
        let p = ConvProblem::new(1, 32, 32, 8, 8, 1, 1, 1, 0);
        let mut cfg = lsv_conv::tuning::kernel_config(&arch, &p, Direction::Fwd, Algorithm::Dc, 1);
        cfg.rb.rb_w = 100; // blows the register file; the lift would panic
        let r = analyze_kernel(&arch, &p, &cfg);
        assert!(r.fired(RuleId::RegPressure) && r.has_deny());
        assert!(deny_validator(&arch, &p, &cfg).is_err());
    }
}
