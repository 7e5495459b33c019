//! The golden ledger and the artifact cross-check.
//!
//! `golden/<workload>.tsv` holds one row per grid item: the key, then the
//! exact values the item must reproduce (chip cycles and instructions for
//! `sweep_cold`; best cycles, analytic cycles and candidate counts for
//! `tune_cold`; `rel_err` bits and the pass flag for
//! `validate_functional`). `lsvbench bless` writes the files; every run
//! compares against the copies compiled into the binary. Independently,
//! `sweep_cold` rows must reproduce `results/figure4.csv` and
//! `validate_functional` rows the DC/BDC/MBDC lines of
//! `results/validate.csv`, which ties the benchmark to the program that
//! produced `results/`.

use crate::workload::Workload;
use std::collections::BTreeMap;

const SWEEP: &str = include_str!("golden/sweep_cold.tsv");
const TUNE: &str = include_str!("golden/tune_cold.tsv");
const VALIDATE: &str = include_str!("golden/validate_functional.tsv");
const FIGURE4: &str = include_str!("../../../../../results/figure4.csv");
const VALIDATE_CSV: &str = include_str!("../../../../../results/validate.csv");

/// Column names after the key, per grid workload.
pub fn columns(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::SweepCold => &["chip_cycles", "insts"],
        Workload::TuneCold => &["best_cycles", "analytic_cycles", "generated", "unique"],
        Workload::ValidateFunctional => &["rel_err_bits", "passed"],
        _ => &[],
    }
}

/// Golden rows: key to values.
pub type Ledger = BTreeMap<String, Vec<String>>;

/// Render a ledger as TSV (a `#` header line naming the columns).
pub fn write_tsv(w: Workload, rows: &Ledger) -> String {
    let mut out = format!("# key\t{}\n", columns(w).join("\t"));
    for (k, v) in rows {
        out.push_str(k);
        for x in v {
            out.push('\t');
            out.push_str(x);
        }
        out.push('\n');
    }
    out
}

/// Parse a ledger written by [`write_tsv`].
pub fn parse_tsv(w: Workload, text: &str) -> Result<Ledger, String> {
    let width = columns(w).len();
    let mut rows = Ledger::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let mut f = line.split('\t');
        let key = f.next().unwrap_or_default().to_string();
        let vals: Vec<String> = f.map(str::to_string).collect();
        if vals.len() != width {
            return Err(format!(
                "{} golden line {}: {} values, want {width}",
                w.name(),
                n + 1,
                vals.len()
            ));
        }
        if rows.insert(key.clone(), vals).is_some() {
            return Err(format!("{} golden: duplicate key {key}", w.name()));
        }
    }
    Ok(rows)
}

/// The ledger compiled into this binary.
pub fn committed(w: Workload) -> Result<Ledger, String> {
    let text = match w {
        Workload::SweepCold => SWEEP,
        Workload::TuneCold => TUNE,
        Workload::ValidateFunctional => VALIDATE,
        _ => return Ok(Ledger::new()),
    };
    parse_tsv(w, text)
}

/// Whether `line` is a row of the committed artifact this workload must
/// reproduce (always true for workloads without one).
pub fn in_artifact(w: Workload, line: &str) -> bool {
    match w {
        Workload::SweepCold => FIGURE4.lines().any(|l| l == line),
        Workload::ValidateFunctional => VALIDATE_CSV.lines().any(|l| l == line),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_round_trips() {
        let mut rows = Ledger::new();
        rows.insert("11.fwdd.BDC".into(), vec!["123".into(), "456".into()]);
        rows.insert("0.bwdw.vednn".into(), vec!["7".into(), "8".into()]);
        let text = write_tsv(Workload::SweepCold, &rows);
        assert!(text.starts_with("# key\tchip_cycles\tinsts\n"));
        assert_eq!(parse_tsv(Workload::SweepCold, &text).unwrap(), rows);
    }

    #[test]
    fn tsv_rejects_short_rows_and_duplicates() {
        assert!(parse_tsv(Workload::ValidateFunctional, "1.fwdd.DC\t3f800000\n").is_err());
        let dup = "1.fwdd.DC\t0\t1\n1.fwdd.DC\t0\t1\n";
        assert!(parse_tsv(Workload::ValidateFunctional, dup).is_err());
    }

    #[test]
    fn committed_ledgers_cover_every_grid_item() {
        for w in [
            Workload::SweepCold,
            Workload::TuneCold,
            Workload::ValidateFunctional,
        ] {
            let ledger = committed(w).unwrap();
            for it in crate::workload::grid_items(w, false) {
                assert!(
                    ledger.contains_key(&it.key()),
                    "{} lacks {}",
                    w.name(),
                    it.key()
                );
            }
        }
    }
}
