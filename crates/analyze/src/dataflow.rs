//! Register dataflow over a recorded kernel stream: def-use chains per
//! vector register, giving hazard rules a per-instruction trace check cannot
//! express and an *exact* register-pressure proof.
//!
//! The stream is the same introspection recording [`crate::symbolic`] lifts
//! — no functional or timing state is consulted. Per event the register
//! effects are:
//!
//! | event                | reads            | writes      |
//! |----------------------|------------------|-------------|
//! | `VLoad`/`VGather`    | —                | `vr`        |
//! | `VZero`              | —                | `vr`        |
//! | `VStore`/`VScatter`  | `vr`             | —           |
//! | `VReduce`            | `vr`             | —           |
//! | `VFma`               | `acc`, `w`, `w2` | `acc` (RMW) |
//!
//! Rules:
//!
//! * `UNINIT-READ` — a register is read before any write defines it.
//! * `DEAD-WRITE` — a definition is overwritten (or the stream ends)
//!   without ever being read. Severity depends on what died: a dead *load*
//!   is wasted memory traffic but functionally harmless (the bwd-data
//!   kernel's software-pipelined weight loads legitimately prefetch taps
//!   that reach no output under striding) → `Warn`; a dead
//!   *computed or zeroed* value means the generator discarded work →
//!   `Deny`.
//! * `ACC-CLOBBER` — dataflow-precise accumulator-hazard analysis: an FMA
//!   chain's partial sum is overwritten by a load/zero, or still dirty at
//!   stream end, without an intervening store/reduce. The crate's tests
//!   cross-check its verdicts against the traced-replay oracle over the fuzz
//!   corpus.
//! * `REG-PRESSURE` — a register index beyond the architected file is
//!   touched. The message carries the *exact* maximum number of
//!   simultaneously live registers (backward liveness scan), replacing the
//!   Formula 4 upper bound of the static config check with a proof.

use crate::diagnostics::{CappedRule, Report, RuleId, Severity};
use lsv_vengine::TraceEvent;

/// Per-stream dataflow facts, usable by callers for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataflowSummary {
    /// Highest register index touched, if any vector instruction ran.
    pub max_vreg: Option<usize>,
    /// Exact maximum number of simultaneously live registers.
    pub max_live: usize,
    /// Total register definitions (writes).
    pub defs: u64,
    /// Total register uses (reads).
    pub uses: u64,
}

#[derive(Clone, Copy, Default, PartialEq)]
enum DefKind {
    #[default]
    Load,
    Zero,
    Fma,
}

#[derive(Clone, Copy, Default)]
struct RegState {
    written: bool,
    /// Event index of the live (most recent) definition.
    def_at: usize,
    /// What kind of instruction produced the live definition.
    def_kind: DefKind,
    /// The live definition has been read at least once.
    read_since: bool,
    /// The register holds an unstored FMA partial sum.
    dirty_acc: bool,
    /// `UNINIT-READ` already reported for this register (suppress repeats).
    uninit_reported: bool,
}

/// Analyze def-use chains over one recorded stream. `n_vregs` is the
/// architected register-file size.
pub fn analyze_dataflow(stream: &[TraceEvent], n_vregs: usize) -> (Report, DataflowSummary) {
    let mut report = Report::new();
    let mut uninit = CappedRule::new(RuleId::UninitRead);
    let mut dead = CappedRule::new(RuleId::DeadWrite);
    let mut dead_load = CappedRule::with_severity(RuleId::DeadWrite, Severity::Warn);
    let mut clobber = CappedRule::new(RuleId::AccClobber);
    let mut pressure = CappedRule::new(RuleId::RegPressure);

    let mut regs: Vec<RegState> = Vec::new();
    let mut summary = DataflowSummary::default();
    // Highest register index touched, plus one (0 = none yet). Tracked as a
    // plain integer so the hot loop stays branch-cheap under debug builds
    // (this pass runs over multi-million-event streams in the test suite).
    let mut max_vreg_p1 = 0usize;

    // The per-event handlers are macros, not closures: they expand inline,
    // which keeps the unoptimized (tier-1 debug test) build fast.
    macro_rules! touch {
        ($r:expr) => {{
            if $r >= max_vreg_p1 {
                max_vreg_p1 = $r + 1;
            }
            if $r >= regs.len() {
                regs.resize($r + 1, RegState::default());
            }
        }};
    }
    macro_rules! do_read {
        ($r:expr, $i:expr, $consumes:expr) => {{
            let r = $r;
            summary.uses += 1;
            touch!(r);
            let st = &mut regs[r];
            if !st.written && !st.uninit_reported {
                st.uninit_reported = true;
                uninit.push(
                    &mut report,
                    format!("instruction #{}: v{r} is read before any definition", $i),
                );
            }
            st.read_since = true;
            if $consumes {
                st.dirty_acc = false;
            }
        }};
    }
    macro_rules! do_write {
        ($r:expr, $i:expr, $kind:expr) => {{
            let r = $r;
            summary.defs += 1;
            touch!(r);
            let st = &mut regs[r];
            if st.written && !st.read_since {
                let (rule, what) = if st.def_kind == DefKind::Load {
                    (&mut dead_load, "loaded value (wasted memory traffic)")
                } else {
                    (&mut dead, "computed value (discarded work)")
                };
                rule.push(
                    &mut report,
                    format!(
                        "instruction #{}: write to v{r} overwrites the {what} \
                         defined at #{} that was never read",
                        $i, st.def_at
                    ),
                );
            }
            if st.dirty_acc {
                clobber.push(
                    &mut report,
                    format!(
                        "instruction #{}: v{r} holds an unstored FMA partial sum \
                         (accumulating since #{}) and is overwritten",
                        $i, st.def_at
                    ),
                );
            }
            // A fresh (non-RMW) definition starts a new chain.
            st.dirty_acc = false;
            st.def_at = $i;
            st.def_kind = $kind;
            st.written = true;
            st.read_since = false;
        }};
    }

    for (i, ev) in stream.iter().enumerate() {
        match *ev {
            TraceEvent::VLoad { vr, .. } | TraceEvent::VGather { vr, .. } => {
                do_write!(vr, i, DefKind::Load)
            }
            TraceEvent::VZero { vr, .. } => do_write!(vr, i, DefKind::Zero),
            TraceEvent::VStore { vr, .. }
            | TraceEvent::VScatter { vr, .. }
            | TraceEvent::VReduce { vr, .. } => do_read!(vr, i, true),
            TraceEvent::VFma { acc, w, w2, .. } => {
                do_read!(acc, i, false);
                do_read!(w, i, false);
                if let Some(w2) = w2 {
                    do_read!(w2, i, false);
                }
                // RMW write-back: `acc` was just read, so the dead-write and
                // clobber checks cannot fire; the chain start is preserved.
                summary.defs += 1;
                let st = &mut regs[acc];
                st.def_kind = DefKind::Fma;
                if !st.dirty_acc {
                    st.dirty_acc = true;
                    st.def_at = i;
                }
                st.written = true;
                st.read_since = false;
            }
            _ => {}
        }
    }
    summary.max_vreg = max_vreg_p1.checked_sub(1);
    for (r, st) in regs.iter().enumerate() {
        if st.written && !st.read_since {
            let (rule, what) = if st.def_kind == DefKind::Load {
                (&mut dead_load, "loaded value (wasted memory traffic)")
            } else {
                (&mut dead, "computed value (discarded work)")
            };
            rule.push(
                &mut report,
                format!(
                    "stream ends with v{r}'s {what} defined at #{} never read",
                    st.def_at
                ),
            );
        }
        if st.dirty_acc {
            clobber.push(
                &mut report,
                format!(
                    "stream ends with v{r} holding an unstored FMA partial sum \
                     (accumulating since #{})",
                    st.def_at
                ),
            );
        }
    }

    summary.max_live = max_live_registers(stream);
    if let Some(max) = summary.max_vreg {
        if max >= n_vregs {
            pressure.push(
                &mut report,
                format!(
                    "stream touches v{max} but the register file has {n_vregs} \
                     registers (exact peak liveness: {} live at once)",
                    summary.max_live
                ),
            );
        }
    }

    uninit.finish(&mut report);
    dead.finish(&mut report);
    dead_load.finish(&mut report);
    clobber.finish(&mut report);
    pressure.finish(&mut report);
    (report, summary)
}

/// Exact peak register pressure: backward liveness scan (a register is live
/// from its definition to its last read), returning the maximum size of the
/// live set at any program point.
pub fn max_live_registers(stream: &[TraceEvent]) -> usize {
    let mut live: Vec<bool> = Vec::new();
    let mut n_live = 0usize;
    let mut max_live = 0usize;
    // At the point *before* an event: its written register is dead (unless
    // also read there — FMA's RMW keeps acc live), its read registers live.
    macro_rules! kill {
        ($r:expr) => {{
            if $r < live.len() && live[$r] {
                live[$r] = false;
                n_live -= 1;
            }
        }};
    }
    macro_rules! make_live {
        ($r:expr) => {{
            if $r >= live.len() {
                live.resize($r + 1, false);
            }
            if !live[$r] {
                live[$r] = true;
                n_live += 1;
            }
        }};
    }
    for ev in stream.iter().rev() {
        match *ev {
            TraceEvent::VLoad { vr, .. }
            | TraceEvent::VGather { vr, .. }
            | TraceEvent::VZero { vr, .. } => kill!(vr),
            TraceEvent::VStore { vr, .. }
            | TraceEvent::VScatter { vr, .. }
            | TraceEvent::VReduce { vr, .. } => make_live!(vr),
            TraceEvent::VFma { acc, w, w2, .. } => {
                // kill(acc) then make_live(acc) collapses to make_live(acc).
                make_live!(acc);
                make_live!(w);
                if let Some(w2) = w2 {
                    make_live!(w2);
                }
            }
            _ => {}
        }
        if n_live > max_live {
            max_live = n_live;
        }
    }
    max_live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::denies;

    fn vload(vr: usize) -> TraceEvent {
        TraceEvent::VLoad {
            vr,
            addr: 0x1000,
            span: 256,
            region: Some(0),
            vl: 64,
        }
    }
    fn vstore(vr: usize) -> TraceEvent {
        TraceEvent::VStore {
            vr,
            addr: 0x2000,
            span: 256,
            region: Some(1),
            vl: 64,
        }
    }
    fn vzero(vr: usize) -> TraceEvent {
        TraceEvent::VZero { vr, vl: 64 }
    }
    fn vfma(acc: usize, w: usize) -> TraceEvent {
        TraceEvent::VFma {
            acc,
            w,
            w2: None,
            vl: 64,
        }
    }

    #[test]
    fn clean_fma_chain_has_no_findings_and_exact_liveness() {
        // zero acc, load two operands, fma twice, store: 3 live at peak.
        let stream = vec![
            vzero(0),
            vload(1),
            vload(2),
            vfma(0, 1),
            vfma(0, 2),
            vstore(0),
        ];
        let (r, s) = analyze_dataflow(&stream, 64);
        assert!(r.diagnostics.is_empty(), "{r:?}");
        assert_eq!(s.max_vreg, Some(2));
        assert_eq!(s.max_live, 3);
        assert_eq!(s.defs, 5); // zero + 2 loads + 2 fma RMWs
        assert_eq!(s.uses, 5); // 2×(acc+w) + store
    }

    #[test]
    fn uninit_read_fires_once_per_register() {
        let stream = vec![vfma(0, 1), vfma(0, 1), vstore(0)];
        let (r, _) = analyze_dataflow(&stream, 64);
        assert!(denies(&r, RuleId::UninitRead), "{r:?}");
        // v0 and v1 each reported exactly once despite two uninit FMAs.
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|d| d.rule == RuleId::UninitRead)
                .count(),
            2
        );
    }

    #[test]
    fn dead_write_denies_discarded_compute() {
        // A zeroed accumulator overwritten without ever being read is
        // discarded work: deny, both mid-stream and at stream end.
        let overwritten = vec![vzero(0), vzero(0), vload(1), vfma(0, 1), vstore(0)];
        let (r, _) = analyze_dataflow(&overwritten, 64);
        assert!(denies(&r, RuleId::DeadWrite), "{r:?}");

        let never_read = vec![vzero(0), vload(1), vfma(0, 1), vstore(0), vzero(2)];
        let (r2, _) = analyze_dataflow(&never_read, 64);
        assert!(denies(&r2, RuleId::DeadWrite), "{r2:?}");
        assert!(r2.diagnostics[0].to_string().contains("stream ends"));
    }

    #[test]
    fn dead_load_warns_but_does_not_deny() {
        // The bwd-data kernel's pipelined weight prefetch can load a tap
        // that striding never consumes: wasted bandwidth, not a bug.
        let overwritten = vec![vzero(0), vload(1), vload(1), vfma(0, 1), vstore(0)];
        let (r, _) = analyze_dataflow(&overwritten, 64);
        assert!(r.fired(RuleId::DeadWrite), "{r:?}");
        assert!(!r.has_deny(), "dead loads must not deny: {r:?}");
        assert!(r.diagnostics[0]
            .to_string()
            .contains("wasted memory traffic"));
    }

    #[test]
    fn acc_clobber_fires_on_overwrite_and_dirty_end() {
        let overwritten = vec![vzero(0), vload(1), vfma(0, 1), vzero(0), vstore(0)];
        let (r, _) = analyze_dataflow(&overwritten, 64);
        assert!(denies(&r, RuleId::AccClobber), "{r:?}");

        let dirty_end = vec![vzero(0), vload(1), vfma(0, 1)];
        let (r2, _) = analyze_dataflow(&dirty_end, 64);
        assert!(denies(&r2, RuleId::AccClobber), "{r2:?}");

        // A reduce consumes the sum just like a store.
        let reduced = vec![
            vzero(0),
            vload(1),
            vfma(0, 1),
            TraceEvent::VReduce { vr: 0, vl: 64 },
        ];
        let (r3, _) = analyze_dataflow(&reduced, 64);
        assert!(!r3.fired(RuleId::AccClobber), "{r3:?}");
    }

    #[test]
    fn reg_pressure_reports_exact_peak_liveness() {
        let stream = vec![vzero(70), vstore(70)];
        let (r, s) = analyze_dataflow(&stream, 64);
        assert!(denies(&r, RuleId::RegPressure), "{r:?}");
        assert_eq!(s.max_live, 1);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.to_string().contains("1 live at once")),
            "{r:?}"
        );
        // Same stream on a big enough file is clean.
        let (r2, _) = analyze_dataflow(&stream, 128);
        assert!(!r2.fired(RuleId::RegPressure));
    }

    #[test]
    fn liveness_counts_overlapping_ranges_not_indices() {
        // v0..v3 written then all read: 4 simultaneously live even though
        // writes are sequential.
        let stream = vec![
            vzero(0),
            vzero(1),
            vzero(2),
            vzero(3),
            vstore(0),
            vstore(1),
            vstore(2),
            vstore(3),
        ];
        assert_eq!(max_live_registers(&stream), 4);
        // Serial reuse: one at a time.
        let serial = vec![vzero(0), vstore(0), vzero(0), vstore(0)];
        assert_eq!(max_live_registers(&serial), 1);
    }
}
