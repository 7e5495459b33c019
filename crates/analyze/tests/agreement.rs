//! The static analyzer verified against the traced-replay oracle.
//!
//! Two properties keep the one static path honest:
//!
//! 1. **Verdict agreement**: [`trace_checks::verdict_agreement`] — the
//!    static analyzer and a traced replay reach the same `OOB-ADDR` /
//!    `ACC-CLOBBER` deny verdicts — over the fuzz seed corpus plus the
//!    50-case randomized sweep at seed 1, the reach of `lsvconv fuzz
//!    --smoke`.
//! 2. **Shift equivalence**: the affine-lift premise — image `n`'s stream
//!    is image 0's stream with activation addresses shifted by
//!    `n · stride_image` and weight addresses untouched — checked
//!    event-by-event on a recorded two-image kernel.

mod trace_checks;

use lsv_arch::sx_aurora;
use lsv_conv::fuzz::{run_corpus_backend, run_fuzz_backend, seed_corpus};
use lsv_conv::tuning::kernel_config;
use lsv_conv::{Algorithm, BackendKind, ConvDesc, ConvProblem, Direction};
use lsv_vengine::{TraceEvent, VCore};
use trace_checks::verdict_agreement;

#[test]
fn corpus_verdicts_agree_symbolic_vs_replay() {
    let out = run_corpus_backend(
        &lsv_analyze::deny_validator,
        Some(&verdict_agreement),
        BackendKind::Sim,
    );
    assert!(out.clean(), "failures: {:?}", out.failures);
    assert_eq!(out.cases_run, seed_corpus().len());
    assert_eq!(out.skipped, 0, "corpus entries must all be supported");
}

#[test]
fn randomized_verdicts_agree_symbolic_vs_replay() {
    let out = run_fuzz_backend(
        50,
        1,
        &lsv_analyze::deny_validator,
        Some(&verdict_agreement),
        BackendKind::Sim,
    );
    assert!(out.clean(), "failures: {:?}", out.failures);
    assert_eq!(out.cases_run, 50);
}

/// The affine-lift premise, checked directly: record images 0 and 1 of an
/// `N = 2` problem separately and compare streams event-by-event.
#[test]
fn recorded_streams_are_shift_equivalent_across_images() {
    let arch = sx_aurora();
    let p = ConvProblem::new(2, 16, 24, 14, 14, 3, 3, 2, 1);
    for alg in Algorithm::ALL {
        for dir in [Direction::Fwd, Direction::BwdData] {
            let cfg = kernel_config(&arch, &p, dir, alg, 1);
            let prim = ConvDesc::new(p, dir, alg).create_with_config(&arch, cfg, 1);
            let mut arena = lsv_vengine::Arena::new();
            let t = prim.alloc_tensors(&mut arena);
            let src_stride = (t.src.elems_padded() / t.src.n) as u64 * 4;
            let dst_stride = (t.dst.elems_padded() / t.dst.n) as u64 * 4;

            let mut core = VCore::new_introspect(&arch);
            prim.execute_core(&mut core, &mut arena, &t, 0..1);
            let s0 = core.take_trace().unwrap();
            prim.execute_core(&mut core, &mut arena, &t, 1..2);
            let s1 = core.take_trace().unwrap();

            assert_eq!(s0.len(), s1.len(), "{alg}/{dir:?}: stream lengths differ");
            let regions = arena.regions();
            let shift_of = |region: Option<u32>| -> u64 {
                let Some(r) = region else { return 0 };
                let base = regions[r as usize].base;
                if base == t.src.base {
                    src_stride
                } else if base == t.dst.base {
                    dst_stride
                } else {
                    0 // weights: n-independent
                }
            };
            for (i, e0) in s0.iter().enumerate() {
                let shifted = match *e0 {
                    TraceEvent::ScalarLoad { addr, region } => TraceEvent::ScalarLoad {
                        addr: addr + shift_of(region),
                        region,
                    },
                    TraceEvent::ScalarStore { addr, region } => TraceEvent::ScalarStore {
                        addr: addr + shift_of(region),
                        region,
                    },
                    TraceEvent::VLoad {
                        vr,
                        addr,
                        span,
                        region,
                        vl,
                    } => TraceEvent::VLoad {
                        vr,
                        addr: addr + shift_of(region),
                        span,
                        region,
                        vl,
                    },
                    TraceEvent::VStore {
                        vr,
                        addr,
                        span,
                        region,
                        vl,
                    } => TraceEvent::VStore {
                        vr,
                        addr: addr + shift_of(region),
                        span,
                        region,
                        vl,
                    },
                    TraceEvent::VGather {
                        vr,
                        addr,
                        span,
                        region,
                        vl,
                    } => TraceEvent::VGather {
                        vr,
                        addr: addr + shift_of(region),
                        span,
                        region,
                        vl,
                    },
                    TraceEvent::VScatter {
                        vr,
                        addr,
                        span,
                        region,
                        vl,
                    } => TraceEvent::VScatter {
                        vr,
                        addr: addr + shift_of(region),
                        span,
                        region,
                        vl,
                    },
                    other => other,
                };
                assert_eq!(
                    shifted, s1[i],
                    "{alg}/{dir:?}: event #{i} not shift-equivalent (image 0: {e0:?})"
                );
            }
        }
    }
}
