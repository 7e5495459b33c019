//! Structured diagnostics: stable rule identifiers, severity levels, and
//! the report type every analysis pass appends to.

use std::fmt;

/// How severe a finding is.
///
/// The ordering is meaningful: `Note < Warn < Deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: a property worth surfacing, not a defect.
    Note,
    /// The configuration is legal but predictably slow (e.g. a DC kernel
    /// in the Formula 3 conflict regime — the paper's Table 3 expects it).
    Warn,
    /// The configuration violates a contract: the kernel is wrong, unsafe,
    /// or breaks an invariant its algorithm promises (a BDC kernel that
    /// still thrashes, an out-of-bounds address, a clobbered accumulator).
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Stable identifiers for every lint rule.
///
/// These are API: `results/lint.json`, the CI gate and the tests key on
/// them, so variants are append-only and the string forms never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// Formula 3 (§5.2): the scalar activation stream thrashes L1 sets.
    L1Conflict,
    /// Formula 4 lower bound (§6.2): register blocking too small to hide
    /// FMA latency given `B_seq` filler instructions.
    BseqLower,
    /// Formula 4 upper bound (§6.2): register blocking so large the scalar
    /// stream re-enters the conflict regime (BDC contract).
    BseqUpper,
    /// A traced scalar/vector/gather address fell outside every tensor.
    OobAddr,
    /// An accumulator holding unsaved FMA results was overwritten.
    AccClobber,
    /// MBDC layout contract: block sizes must divide into the cache-line
    /// grain `N_cline` and reorder shapes must round-trip.
    LayoutDivide,
    /// The kernel needs more vector registers than the architecture has.
    RegPressure,
    /// The region profiler's per-region accounting does not reconcile with
    /// the core's whole-run counters (cycles, instructions or cache events).
    ProfileUnreconciled,
    /// A symbolically lifted access starts inside one tensor but its
    /// footprint extends into a *different* tensor's region — silent
    /// corruption of a neighbouring allocation for some minibatch index.
    RegionOverlap,
    /// An instruction's vector length is zero or exceeds the architected
    /// `MAX_VLEN` (the strip-mining class of bug, proved over the whole
    /// swept arch family instead of caught by one fuzz case).
    VlExceeds,
    /// A vector register is read before anything ever wrote it.
    UninitRead,
    /// A vector register write is overwritten (or the stream ends) without
    /// any intervening read — the kernel computed a value and discarded it.
    DeadWrite,
    /// Two cores' symbolic write sets overlap under the multicore work
    /// partitioning — a data race on the shared arena.
    RaceWriteOverlap,
    /// Adjacent cores write disjoint bytes of the same cache line at a
    /// partition boundary (correct but coherence-hostile).
    FalseSharing,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 14] = [
        RuleId::L1Conflict,
        RuleId::BseqLower,
        RuleId::BseqUpper,
        RuleId::OobAddr,
        RuleId::AccClobber,
        RuleId::LayoutDivide,
        RuleId::RegPressure,
        RuleId::ProfileUnreconciled,
        RuleId::RegionOverlap,
        RuleId::VlExceeds,
        RuleId::UninitRead,
        RuleId::DeadWrite,
        RuleId::RaceWriteOverlap,
        RuleId::FalseSharing,
    ];

    /// The stable string form used in reports and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            RuleId::L1Conflict => "L1-CONFLICT",
            RuleId::BseqLower => "BSEQ-LOWER",
            RuleId::BseqUpper => "BSEQ-UPPER",
            RuleId::OobAddr => "OOB-ADDR",
            RuleId::AccClobber => "ACC-CLOBBER",
            RuleId::LayoutDivide => "LAYOUT-DIVIDE",
            RuleId::RegPressure => "REG-PRESSURE",
            RuleId::ProfileUnreconciled => "PROFILE-UNRECONCILED",
            RuleId::RegionOverlap => "REGION-OVERLAP",
            RuleId::VlExceeds => "VL-EXCEEDS",
            RuleId::UninitRead => "UNINIT-READ",
            RuleId::DeadWrite => "DEAD-WRITE",
            RuleId::RaceWriteOverlap => "RACE-WRITE-OVERLAP",
            RuleId::FalseSharing => "FALSE-SHARING",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a rule, its severity for this occurrence, and an
/// explanation with the concrete numbers that triggered it.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Severity of this occurrence (one rule can be `Warn` for DC but
    /// `Deny` for BDC, where the property is a contract).
    pub severity: Severity,
    /// Human-readable explanation including the violating values.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.severity, self.rule, self.message)
    }
}

/// The outcome of analysing one kernel configuration.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in the order the passes emitted them.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Append a finding.
    pub fn push(&mut self, rule: RuleId, severity: Severity, message: String) {
        self.diagnostics.push(Diagnostic {
            rule,
            severity,
            message,
        });
    }

    /// Merge another report's findings into this one.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any finding denies the configuration.
    pub fn has_deny(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }

    /// All findings for one rule.
    pub fn by_rule(&self, rule: RuleId) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.rule == rule)
    }

    /// Whether `rule` fired at least once.
    pub fn fired(&self, rule: RuleId) -> bool {
        self.by_rule(rule).next().is_some()
    }

    /// The most severe finding in the report, or `None` for a clean report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }
}

/// Stop describing individual findings of one rule after this many; the
/// remainder is summarized in a closing `Note` so a systematically broken
/// kernel does not produce a million-line report.
pub const MAX_FINDINGS_PER_RULE: usize = 16;

/// Tracks per-rule finding counts and enforces the reporting cap. Every
/// analysis pass (symbolic lift, dataflow, race detector) emits findings
/// through one of these so flood behaviour is uniform.
pub struct CappedRule {
    rule: RuleId,
    severity: Severity,
    emitted: usize,
    suppressed: usize,
}

impl CappedRule {
    /// A capped emitter denying on `rule`.
    pub fn new(rule: RuleId) -> Self {
        Self::with_severity(rule, Severity::Deny)
    }

    /// A capped emitter firing `rule` at an explicit severity (the race
    /// detector's `FALSE-SHARING` warns rather than denies).
    pub fn with_severity(rule: RuleId, severity: Severity) -> Self {
        Self {
            rule,
            severity,
            emitted: 0,
            suppressed: 0,
        }
    }

    /// Report one finding, or count it once the cap is reached.
    pub fn push(&mut self, report: &mut Report, message: String) {
        if self.emitted < MAX_FINDINGS_PER_RULE {
            self.emitted += 1;
            report.push(self.rule, self.severity, message);
        } else {
            self.suppressed += 1;
        }
    }

    /// Close the rule: summarize any suppressed findings in one `Note`.
    pub fn finish(self, report: &mut Report) {
        if self.suppressed > 0 {
            report.push(
                self.rule,
                Severity::Note,
                format!(
                    "{} further {} findings suppressed after the first {}",
                    self.suppressed,
                    self.rule.as_str(),
                    self.emitted
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_note_warn_deny() {
        assert!(Severity::Note < Severity::Warn && Severity::Warn < Severity::Deny);
    }

    #[test]
    fn rule_ids_are_stable_strings() {
        let ids: Vec<&str> = RuleId::ALL.iter().map(|r| r.as_str()).collect();
        assert_eq!(
            ids,
            [
                "L1-CONFLICT",
                "BSEQ-LOWER",
                "BSEQ-UPPER",
                "OOB-ADDR",
                "ACC-CLOBBER",
                "LAYOUT-DIVIDE",
                "REG-PRESSURE",
                "PROFILE-UNRECONCILED",
                "REGION-OVERLAP",
                "VL-EXCEEDS",
                "UNINIT-READ",
                "DEAD-WRITE",
                "RACE-WRITE-OVERLAP",
                "FALSE-SHARING"
            ]
        );
    }

    #[test]
    fn rule_registry_matches_design_doc_table() {
        // Every stable RuleId string must appear as a rule-table row in
        // DESIGN.md — the doc is the registry of record; adding a rule
        // without documenting it (or renaming one) fails here.
        let design =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
                .expect("DESIGN.md readable from the workspace root");
        for rule in RuleId::ALL {
            let row = format!("| `{}`", rule.as_str());
            assert!(
                design.contains(&row),
                "rule {} has no `{row} …` row in the DESIGN.md rule table",
                rule.as_str()
            );
        }
    }

    #[test]
    fn merge_preserves_emission_order() {
        let mut first = Report::new();
        first.push(RuleId::L1Conflict, Severity::Warn, "a".into());
        first.push(RuleId::OobAddr, Severity::Deny, "b".into());
        let mut second = Report::new();
        second.push(RuleId::RegPressure, Severity::Note, "c".into());
        second.push(RuleId::DeadWrite, Severity::Deny, "d".into());
        first.merge(second);
        let messages: Vec<&str> = first
            .diagnostics
            .iter()
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(
            messages,
            ["a", "b", "c", "d"],
            "merge appends, never reorders"
        );
        assert_eq!(first.by_rule(RuleId::DeadWrite).count(), 1);
    }

    #[test]
    fn max_severity_escalates_with_worst_finding() {
        let mut r = Report::new();
        assert_eq!(r.max_severity(), None);
        r.push(RuleId::FalseSharing, Severity::Note, "n".into());
        assert_eq!(r.max_severity(), Some(Severity::Note));
        r.push(RuleId::FalseSharing, Severity::Warn, "w".into());
        assert_eq!(r.max_severity(), Some(Severity::Warn));
        r.push(RuleId::RaceWriteOverlap, Severity::Deny, "d".into());
        assert_eq!(r.max_severity(), Some(Severity::Deny));
        assert!(r.has_deny());
        // A later milder finding never de-escalates the report.
        r.push(RuleId::FalseSharing, Severity::Note, "n2".into());
        assert_eq!(r.max_severity(), Some(Severity::Deny));
    }

    #[test]
    fn capped_rule_respects_severity_and_cap() {
        let mut r = Report::new();
        let mut cap = CappedRule::with_severity(RuleId::FalseSharing, Severity::Warn);
        for i in 0..MAX_FINDINGS_PER_RULE + 5 {
            cap.push(&mut r, format!("line {i}"));
        }
        cap.finish(&mut r);
        assert_eq!(r.count(Severity::Warn), MAX_FINDINGS_PER_RULE);
        assert_eq!(r.count(Severity::Note), 1, "suppression summary");
        assert!(!r.has_deny());
    }

    #[test]
    fn report_aggregation() {
        let mut r = Report::new();
        assert!(!r.has_deny());
        r.push(RuleId::L1Conflict, Severity::Warn, "thrash".into());
        r.push(RuleId::OobAddr, Severity::Deny, "oob".into());
        assert!(r.has_deny());
        assert_eq!(r.count(Severity::Warn), 1);
        assert!(r.fired(RuleId::OobAddr) && !r.fired(RuleId::AccClobber));
        let mut other = Report::new();
        other.push(RuleId::RegPressure, Severity::Deny, "regs".into());
        r.merge(other);
        assert_eq!(r.diagnostics.len(), 3);
    }
}
