//! The kernel-verifier sweep.

use super::{Ctx, Outcome};
use lsv_analyze::{analyze_kernel, Report, RuleId, Severity};
use lsv_arch::aurora_with_vlen_bits;
use lsv_conv::fuzz::VLEN_SWEEP_BITS;
use lsv_conv::par::par_map;
use lsv_conv::{Algorithm, ConvDesc, ConvProblem, Direction};
use lsv_models::resnet_layers;
use lsv_obs::escape_json;
use std::fmt::Write as _;
use std::time::Instant;

/// One analyzed kernel: identity plus its lint report.
struct Entry {
    layer_id: usize,
    problem: ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
    vlen_bits: usize,
    report: Report,
}

fn to_json(entries: &[Entry]) -> String {
    let mut s = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        let diags: Vec<String> = e
            .report
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "{{\"rule\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\"}}",
                    d.rule.as_str(),
                    d.severity,
                    escape_json(&d.message)
                )
            })
            .collect();
        s.push_str(&format!(
            "  {{\"layer\": {}, \"problem\": \"{}\", \"direction\": \"{}\", \
             \"algorithm\": \"{}\", \"vlen_bits\": {}, \
             \"deny\": {}, \"warn\": {}, \"note\": {}, \
             \"diagnostics\": [{}]}}{}\n",
            e.layer_id,
            e.problem,
            e.direction.short_name(),
            e.algorithm.short_name(),
            e.vlen_bits,
            e.report.count(Severity::Deny),
            e.report.count(Severity::Warn),
            e.report.count(Severity::Note),
            diags.join(", "),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    s.push_str("]\n");
    s
}

/// Run the `lsv-analyze` verifier over every kernel the stack can generate
/// across the whole long-vector arch family (512..16384-bit Aurora
/// variants): Table 3's 19 ResNet layers x {DC, BDC, MBDC} x {fwdd, bwdd,
/// bwdw}, each configuration produced by the real tuner (`ConvDesc::create`,
/// including its register-pressure fallback) and then checked by the
/// static-first analyzer (symbolic lift, register dataflow, race detector).
///
/// The human-readable report (one line per kernel, then the diagnostics
/// grouped by rule) goes to stderr; `lint.json` is schema-validated against
/// `lint.schema.json`. The experiment fails — and writes nothing — if any
/// kernel has a `Deny` finding: the tuner must never emit a kernel its own
/// verifier rejects.
pub fn lint_kernels(_: &Ctx) -> Outcome {
    let arches: Vec<_> = VLEN_SWEEP_BITS
        .iter()
        .map(|&bits| aurora_with_vlen_bits(bits))
        .collect();
    let layers = resnet_layers(256);
    let mut jobs: Vec<(usize, usize, Direction, Algorithm)> = Vec::new();
    for ai in 0..arches.len() {
        for id in 0..layers.len() {
            for d in Direction::ALL {
                for a in Algorithm::ALL {
                    jobs.push((ai, id, d, a));
                }
            }
        }
    }

    let t0 = Instant::now();
    let mut entries: Vec<Entry> = par_map(jobs, |(ai, id, direction, algorithm)| {
        let arch = &arches[ai];
        let p = layers[id];
        let desc = ConvDesc::new(p, direction, algorithm);
        let report = match desc.create(arch, 8) {
            Ok(prim) => analyze_kernel(arch, &p, prim.cfg()),
            Err(e) => {
                // The tuner itself refused — surface that as a Deny so the
                // sweep never silently skips a kernel.
                let mut r = Report::new();
                r.push(
                    RuleId::RegPressure,
                    Severity::Deny,
                    format!("primitive creation failed: {e}"),
                );
                r
            }
        };
        Entry {
            layer_id: id,
            problem: p,
            direction,
            algorithm,
            vlen_bits: arch.vlen_bits,
            report,
        }
    });
    let wall = t0.elapsed();
    entries.sort_by_key(|e| {
        (
            e.layer_id,
            e.direction.short_name(),
            e.algorithm.short_name(),
            e.vlen_bits,
        )
    });

    let mut totals = [0usize; 3]; // deny, warn, note
    let mut log = String::from("layer direction alg    vlen  deny warn note  rules\n");
    for e in &entries {
        let (d, w, n) = (
            e.report.count(Severity::Deny),
            e.report.count(Severity::Warn),
            e.report.count(Severity::Note),
        );
        totals[0] += d;
        totals[1] += w;
        totals[2] += n;
        let rules: Vec<&str> = RuleId::ALL
            .iter()
            .filter(|&&r| e.report.fired(r))
            .map(|r| r.as_str())
            .collect();
        writeln!(
            log,
            "{:>5} {:<9} {:<5} {:>5} {:>4} {:>4} {:>4}  {}",
            e.layer_id,
            e.direction.short_name(),
            e.algorithm.short_name(),
            e.vlen_bits,
            d,
            w,
            n,
            if rules.is_empty() {
                "-".to_string()
            } else {
                rules.join(",")
            }
        )?;
    }

    log.push('\n');
    for rule in RuleId::ALL {
        let msgs: Vec<&Entry> = entries.iter().filter(|e| e.report.fired(rule)).collect();
        if msgs.is_empty() {
            continue;
        }
        writeln!(
            log,
            "[{}] fired on {} kernels, e.g.:",
            rule.as_str(),
            msgs.len()
        )?;
        let e = msgs[0];
        for d in e.report.by_rule(rule).take(2) {
            writeln!(
                log,
                "  layer {} {} {}: {}",
                e.layer_id,
                e.direction.short_name(),
                e.algorithm.short_name(),
                d.message
            )?;
        }
    }
    writeln!(
        log,
        "\nanalyzed {} kernels in {:.2?}: {} deny, {} warn, {} note",
        entries.len(),
        wall,
        totals[0],
        totals[1],
        totals[2]
    )?;
    eprint!("{log}");

    if totals[0] > 0 {
        return Err(format!("{} deny findings", totals[0]).into());
    }
    Ok(vec![to_json(&entries)])
}
