//! Reconciliation check for the region profiler's accounting.
//!
//! The profiler promises *exact* conservation: self (exclusive) cycles summed
//! over every region path equal the core's drained `CoreStats::cycles`, and
//! the same for instruction and cache-event totals (the drain syncs the root
//! region to the final horizon, so no cycle can escape attribution). This
//! pass re-derives those sums from a [`RegionProfile`] and emits
//! `PROFILE-UNRECONCILED` at `Deny` severity for any mismatch — the profile
//! is misleading and must not be reported.

use crate::diagnostics::{Report, RuleId, Severity};
use lsv_vengine::{CoreStats, RegionProfile};

/// Check that `profile`'s per-region accounting reconciles with the
/// whole-run counters in `stats` (normally `profile.total`, but callers that
/// kept their own drained [`CoreStats`] can cross-check against that too).
pub fn check_profile_reconciliation(profile: &RegionProfile, stats: &CoreStats) -> Report {
    let mut report = Report::new();

    let self_sum = profile.self_cycles_total();
    if self_sum != stats.cycles {
        report.push(
            RuleId::ProfileUnreconciled,
            Severity::Deny,
            format!(
                "per-region self cycles sum to {self_sum} but the core ran {} cycles \
                 (delta {})",
                stats.cycles,
                stats.cycles as i64 - self_sum as i64
            ),
        );
    }

    let insts = profile.insts_total();
    if insts != stats.insts {
        report.push(
            RuleId::ProfileUnreconciled,
            Severity::Deny,
            format!(
                "per-region instruction totals ({} insts) differ from the core's ({})",
                insts.total(),
                stats.insts.total()
            ),
        );
    }

    let cache = profile.cache_total();
    if cache != stats.cache {
        report.push(
            RuleId::ProfileUnreconciled,
            Severity::Deny,
            format!(
                "per-region cache totals (L1 {}/{} hit/miss) differ from the core's \
                 (L1 {}/{})",
                cache.l1.hits, cache.l1.misses, stats.cache.l1.hits, stats.cache.l1.misses
            ),
        );
    }

    let stalls = profile.regions.iter().fold([0u64; 4], |mut acc, r| {
        for (slot, (_, cycles)) in acc.iter_mut().zip(r.stall_breakdown()) {
            *slot += cycles;
        }
        acc
    });
    let expect: Vec<u64> = stats.stall_breakdown().iter().map(|&(_, c)| c).collect();
    if stalls.as_slice() != expect.as_slice() {
        report.push(
            RuleId::ProfileUnreconciled,
            Severity::Deny,
            format!("per-region stall totals {stalls:?} differ from the core's {expect:?}"),
        );
    }

    if profile.dropped_spans > 0 {
        report.push(
            RuleId::ProfileUnreconciled,
            Severity::Warn,
            format!(
                "{} span events were dropped (MAX_SPAN_EVENTS reached); the trace \
                 timeline is truncated (accounting is unaffected)",
                profile.dropped_spans
            ),
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;
    use lsv_vengine::{ExecutionMode, VCore};

    fn profiled_run() -> (RegionProfile, CoreStats) {
        let arch = sx_aurora();
        let mut core = VCore::new(&arch, ExecutionMode::TimingOnly);
        core.enable_profiler();
        core.region_enter("a");
        core.scalar_ops(7);
        core.region_enter("b");
        for reg in 0..3 {
            core.vbroadcast_zero(reg, 256);
        }
        core.region_exit();
        core.region_exit();
        let stats = core.drain();
        (core.take_profile().unwrap(), stats)
    }

    #[test]
    fn clean_profile_reconciles() {
        let (profile, stats) = profiled_run();
        let report = check_profile_reconciliation(&profile, &stats);
        assert!(
            report.diagnostics.is_empty(),
            "unexpected findings: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn tampered_totals_are_denied() {
        let (profile, mut stats) = profiled_run();
        stats.cycles += 100;
        stats.insts.vfmas += 1;
        let report = check_profile_reconciliation(&profile, &stats);
        assert!(report.has_deny());
        assert!(report.fired(RuleId::ProfileUnreconciled));
        assert_eq!(report.count(Severity::Deny), 2);
    }
}
