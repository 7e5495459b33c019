//! The traced-replay oracle the static analyzer is held against.
//!
//! `lsv_analyze::analyze_kernel` proves its verdicts from a recorded stream
//! and affine region models, without simulating. This module is the
//! independent reference: [`analyze_kernel_replay`] replays the kernel for
//! one image on the simulated core and lints the concrete trace against the
//! arena it executed in — the address-stream bounds sanitizer (`OOB-ADDR`)
//! and the accumulator lifetime checker (`ACC-CLOBBER`), properties that
//! depend on the addresses the generated kernel actually emits.
//! [`verdict_agreement`] requires both paths to reach the same deny
//! verdicts. It lives only in the test suite: no library path replays.

use lsv_analyze::diagnostics::{CappedRule, Report, RuleId, Severity};
use lsv_analyze::symbolic::denies;
use lsv_analyze::{analyze_config, analyze_kernel};
use lsv_arch::ArchParams;
use lsv_conv::{ConvDesc, ConvProblem, KernelConfig};
use lsv_vengine::{Arena, ExecutionMode, TraceEvent, VCore};

/// What a memory-touching trace event claims about itself: an operation name,
/// the first byte it touches, its byte footprint, and the region the engine
/// resolved for its base address at record time.
fn memory_footprint(ev: &TraceEvent) -> Option<(&'static str, u64, u64, Option<u32>)> {
    match *ev {
        TraceEvent::ScalarLoad { addr, region } => Some(("scalar load", addr, 4, region)),
        TraceEvent::ScalarStore { addr, region } => Some(("scalar store", addr, 4, region)),
        TraceEvent::VLoad {
            addr, span, region, ..
        } => Some(("vector load", addr, span, region)),
        TraceEvent::VStore {
            addr, span, region, ..
        } => Some(("vector store", addr, span, region)),
        TraceEvent::VGather {
            addr, span, region, ..
        } => Some(("block gather", addr, span, region)),
        TraceEvent::VScatter {
            addr, span, region, ..
        } => Some(("block scatter", addr, span, region)),
        _ => None,
    }
}

/// Address-stream bounds sanitizer: every memory access in the trace must lie
/// wholly inside one arena allocation. An access outside every allocation, or
/// one that starts inside a tensor but runs past its extent, is the simulator
/// equivalent of a segfault / silent corruption of a neighbouring tensor.
fn check_oob(arena: &Arena, trace: &[TraceEvent], report: &mut Report) {
    let mut cap = CappedRule::new(RuleId::OobAddr);
    for (i, ev) in trace.iter().enumerate() {
        let Some((what, addr, span, region)) = memory_footprint(ev) else {
            continue;
        };
        match region {
            None => cap.push(
                report,
                format!(
                    "trace event #{i}: {what} of {span} bytes at {addr:#x} hits \
                     no allocation (arena holds {} regions)",
                    arena.regions().len()
                ),
            ),
            Some(r) => {
                let reg = &arena.regions()[r as usize];
                if addr + span > reg.end() {
                    cap.push(
                        report,
                        format!(
                            "trace event #{i}: {what} of {span} bytes at {addr:#x} \
                             starts inside `{}` [{:#x}, {:#x}) but overruns it by \
                             {} bytes",
                            reg.label,
                            reg.base,
                            reg.end(),
                            addr + span - reg.end()
                        ),
                    );
                }
            }
        }
    }
    cap.finish(report);
}

/// Per-register accumulator state for the clobber analysis.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AccState {
    /// Never accumulated into, or drained since.
    Clean,
    /// Holds FMA results not yet stored/reduced; the event index of the last
    /// contributing FMA is kept for the diagnostic.
    Dirty(usize),
}

/// Accumulator-hazard analysis: a register that received FMA results must be
/// stored (or reduced) before anything overwrites it, and must not still hold
/// live results when the trace ends. Either case means the kernel computed
/// partial sums and threw them away — numerically wrong output even though
/// every individual instruction was well-formed.
fn check_acc_clobber(trace: &[TraceEvent], report: &mut Report) {
    let mut cap = CappedRule::new(RuleId::AccClobber);
    let mut state: Vec<AccState> = Vec::new();
    let ensure = |state: &mut Vec<AccState>, vr: usize| {
        if state.len() <= vr {
            state.resize(vr + 1, AccState::Clean);
        }
    };
    for (i, ev) in trace.iter().enumerate() {
        match *ev {
            TraceEvent::VFma { acc, .. } => {
                ensure(&mut state, acc);
                state[acc] = AccState::Dirty(i);
            }
            TraceEvent::VStore { vr, .. }
            | TraceEvent::VScatter { vr, .. }
            | TraceEvent::VReduce { vr, .. } => {
                ensure(&mut state, vr);
                state[vr] = AccState::Clean;
            }
            TraceEvent::VZero { vr, .. }
            | TraceEvent::VLoad { vr, .. }
            | TraceEvent::VGather { vr, .. } => {
                ensure(&mut state, vr);
                if let AccState::Dirty(fma) = state[vr] {
                    let how = match ev {
                        TraceEvent::VZero { .. } => "zeroed",
                        _ => "overwritten by a load",
                    };
                    cap.push(
                        report,
                        format!(
                            "trace event #{i}: accumulator v{vr} is {how} while \
                             holding unsaved FMA results (last accumulation at \
                             event #{fma}) — partial sums are discarded"
                        ),
                    );
                    // Reset so one lost accumulator is reported once, not at
                    // every subsequent reuse.
                    state[vr] = AccState::Clean;
                }
            }
            _ => {}
        }
    }
    for (vr, s) in state.iter().enumerate() {
        if let AccState::Dirty(fma) = s {
            cap.push(
                report,
                format!(
                    "accumulator v{vr} still holds unsaved FMA results at the end \
                     of the trace (last accumulation at event #{fma})"
                ),
            );
        }
    }
    cap.finish(report);
}

/// Register-file usage census over the trace: the highest vector register the
/// recorded stream actually touches, useful for cross-checking the static
/// `analyze_config` pressure model. Returns `None` for a trace with no
/// vector-register activity.
fn max_vreg_used(trace: &[TraceEvent]) -> Option<usize> {
    trace
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::VLoad { vr, .. }
            | TraceEvent::VStore { vr, .. }
            | TraceEvent::VZero { vr, .. }
            | TraceEvent::VReduce { vr, .. }
            | TraceEvent::VGather { vr, .. }
            | TraceEvent::VScatter { vr, .. } => Some(vr),
            TraceEvent::VFma { acc, w, w2, .. } => Some(acc.max(w).max(w2.unwrap_or(0))),
            _ => None,
        })
        .max()
}

/// Run every dynamic check over a recorded trace against the arena it
/// executed in, plus the register-file bound of the architecture that
/// recorded it (for the trace-level `REG-PRESSURE` cross-check).
pub fn analyze_trace(arena: &Arena, trace: &[TraceEvent], n_vregs: usize) -> Report {
    let mut report = Report::new();
    check_oob(arena, trace, &mut report);
    check_acc_clobber(trace, &mut report);
    if let Some(hi) = max_vreg_used(trace) {
        if hi >= n_vregs {
            report.push(
                RuleId::RegPressure,
                Severity::Deny,
                format!(
                    "trace touches vector register v{hi} but the architecture \
                     has only {n_vregs} registers (v0..v{})",
                    n_vregs - 1
                ),
            );
        }
    }
    report
}

/// The configuration checks plus a traced single-image replay in
/// [`ExecutionMode::TimingOnly`] feeding [`analyze_trace`].
///
/// The replay clones the problem with `N = 1`: the configuration is
/// independent of the minibatch (the tuner never reads `N`), and every image
/// executes the identical instruction stream modulo the base offset. Loads
/// do not dereference the arena in timing-only mode — an out-of-bounds
/// address is *recorded* (and reported as `OOB-ADDR`) instead of crashing
/// the replay.
pub fn analyze_kernel_replay(arch: &ArchParams, p: &ConvProblem, cfg: &KernelConfig) -> Report {
    let mut report = analyze_config(arch, p, cfg);
    if report.has_deny() {
        return report;
    }
    let p1 = p.with_minibatch(1);
    let prim = ConvDesc::new(p1, cfg.direction, cfg.algorithm).create_with_config(arch, *cfg, 1);
    let mut arena = Arena::new();
    let t = prim.alloc_tensors(&mut arena);
    let mut core = VCore::new(arch, ExecutionMode::TimingOnly);
    core.enable_trace();
    prim.execute_core(&mut core, &mut arena, &t, 0..prim.work_items());
    let trace = core.trace().expect("trace was enabled");
    report.merge(analyze_trace(&arena, trace, arch.n_vregs));
    report
}

/// The differential oracle: the static analyzer and the traced replay must
/// agree on the deny verdict of every rule both can express (`OOB-ADDR`,
/// `ACC-CLOBBER`). Returns a description of the first disagreement. Has the
/// fuzz harness's oracle shape, so the analyzer is fuzzed alongside the
/// kernels it verifies.
pub fn verdict_agreement(
    arch: &ArchParams,
    p: &ConvProblem,
    cfg: &KernelConfig,
) -> Result<(), String> {
    let symbolic = analyze_kernel(arch, p, cfg);
    let replay = analyze_kernel_replay(arch, p, cfg);
    for rule in [RuleId::OobAddr, RuleId::AccClobber] {
        let s = denies(&symbolic, rule);
        let r = denies(&replay, rule);
        if s != r {
            return Err(format!(
                "{} verdict disagreement: symbolic={s}, replay={r} (symbolic: {symbolic:?})",
                rule.as_str()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_analyze::diagnostics::MAX_FINDINGS_PER_RULE;

    fn arena_with(labels: &[(&str, usize)]) -> Arena {
        let mut a = Arena::new();
        for &(label, elems) in labels {
            a.alloc_labeled(elems, label);
        }
        a
    }

    #[test]
    fn in_bounds_trace_is_clean() {
        let a = arena_with(&[("src", 64)]);
        let base = a.regions()[0].base;
        let trace = vec![
            TraceEvent::VZero { vr: 0, vl: 32 },
            TraceEvent::VLoad {
                vr: 1,
                addr: base,
                span: 128,
                region: Some(0),
                vl: 32,
            },
            TraceEvent::VFma {
                acc: 0,
                w: 1,
                w2: None,
                vl: 32,
            },
            TraceEvent::VStore {
                vr: 0,
                addr: base + 128,
                span: 128,
                region: Some(0),
                vl: 32,
            },
        ];
        let r = analyze_trace(&a, &trace, 64);
        assert!(r.diagnostics.is_empty(), "{r:?}");
    }

    #[test]
    fn overrun_names_the_region() {
        let a = arena_with(&[("dst 1x8x2x2", 32)]);
        let base = a.regions()[0].base;
        let trace = vec![TraceEvent::VStore {
            vr: 0,
            addr: base + 64,
            span: 128, // region holds 128 bytes; this overruns by 64
            region: Some(0),
            vl: 32,
        }];
        let r = analyze_trace(&a, &trace, 64);
        assert!(r.fired(RuleId::OobAddr) && r.has_deny(), "{r:?}");
        let msg = r.by_rule(RuleId::OobAddr).next().unwrap().message.clone();
        assert!(msg.contains("dst 1x8x2x2"), "{msg}");
        assert!(msg.contains("overruns it by 64 bytes"), "{msg}");
    }

    #[test]
    fn unmapped_address_is_denied() {
        let a = arena_with(&[("src", 16)]);
        let trace = vec![TraceEvent::ScalarLoad {
            addr: 0x4000_0000,
            region: None,
        }];
        let r = analyze_trace(&a, &trace, 64);
        assert!(r.fired(RuleId::OobAddr) && r.has_deny(), "{r:?}");
    }

    #[test]
    fn finding_flood_is_capped() {
        let a = arena_with(&[("src", 16)]);
        let trace: Vec<TraceEvent> = (0..40)
            .map(|i| TraceEvent::ScalarLoad {
                addr: 0x4000_0000 + i * 4,
                region: None,
            })
            .collect();
        let r = analyze_trace(&a, &trace, 64);
        assert_eq!(
            r.by_rule(RuleId::OobAddr).count(),
            MAX_FINDINGS_PER_RULE + 1
        );
        assert_eq!(r.count(Severity::Deny), MAX_FINDINGS_PER_RULE);
        assert_eq!(r.count(Severity::Note), 1, "{r:?}");
    }

    #[test]
    fn clobbered_accumulator_is_denied() {
        let a = arena_with(&[("src", 64)]);
        let base = a.regions()[0].base;
        let trace = vec![
            TraceEvent::VFma {
                acc: 3,
                w: 10,
                w2: None,
                vl: 64,
            },
            TraceEvent::VZero { vr: 3, vl: 64 }, // dirty accumulator lost
            TraceEvent::VStore {
                vr: 3,
                addr: base,
                span: 4,
                region: Some(0),
                vl: 1,
            },
        ];
        let r = analyze_trace(&a, &trace, 64);
        assert!(r.fired(RuleId::AccClobber) && r.has_deny(), "{r:?}");
        assert_eq!(r.by_rule(RuleId::AccClobber).count(), 1, "reported once");
    }

    #[test]
    fn dirty_accumulator_at_end_is_denied() {
        let a = arena_with(&[("src", 64)]);
        let trace = vec![TraceEvent::VFma {
            acc: 5,
            w: 9,
            w2: None,
            vl: 64,
        }];
        let r = analyze_trace(&a, &trace, 64);
        assert!(r.fired(RuleId::AccClobber), "{r:?}");
        let msg = r
            .by_rule(RuleId::AccClobber)
            .next()
            .unwrap()
            .message
            .clone();
        assert!(msg.contains("end of the trace"), "{msg}");
    }

    #[test]
    fn weight_reload_into_clean_register_is_fine() {
        let a = arena_with(&[("wei", 64)]);
        let base = a.regions()[0].base;
        // The double-buffer pattern: load weights, FMA into a *different*
        // accumulator, reload the weight register.
        let trace = vec![
            TraceEvent::VLoad {
                vr: 8,
                addr: base,
                span: 64,
                region: Some(0),
                vl: 16,
            },
            TraceEvent::VFma {
                acc: 0,
                w: 8,
                w2: None,
                vl: 16,
            },
            TraceEvent::VLoad {
                vr: 8,
                addr: base + 64,
                span: 64,
                region: Some(0),
                vl: 16,
            },
            TraceEvent::VFma {
                acc: 0,
                w: 8,
                w2: None,
                vl: 16,
            },
            TraceEvent::VReduce { vr: 0, vl: 16 },
        ];
        let r = analyze_trace(&a, &trace, 64);
        assert!(r.diagnostics.is_empty(), "{r:?}");
    }

    #[test]
    fn trace_register_overflow_is_denied() {
        let a = arena_with(&[("src", 16)]);
        let trace = vec![TraceEvent::VZero { vr: 64, vl: 64 }];
        let r = analyze_trace(&a, &trace, 64);
        assert!(r.fired(RuleId::RegPressure) && r.has_deny(), "{r:?}");
        assert_eq!(max_vreg_used(&trace), Some(64));
    }
}
