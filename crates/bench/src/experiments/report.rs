//! The artifact's analysis-notebook role (appendix A.4).

use super::{Ctx, Outcome};
use crate::geomean;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone)]
struct PerfRow {
    layer: usize,
    direction: String,
    algorithm: String,
    gflops: f64,
    conflicts_predicted: bool,
}

fn load_performance(dir: &Path) -> Result<Vec<PerfRow>, String> {
    let text = std::fs::read_to_string(dir.join("figure4.csv"))
        .or_else(|_| std::fs::read_to_string(dir.join("performance.csv")))
        .map_err(|e| {
            format!(
                "no figure4.csv or performance.csv in {} ({e}); run figure4 first",
                dir.display()
            )
        })?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("problem_id") && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            if f.len() < 10 {
                return None;
            }
            Some(PerfRow {
                layer: f[0].parse().ok()?,
                direction: f[1].to_string(),
                algorithm: f[2].to_string(),
                gflops: f[4].parse().ok()?,
                conflicts_predicted: f[9] == "true",
            })
        })
        .collect())
}

/// PASS/FAIL lines plus a failure count.
struct Verdicts {
    out: String,
    failures: usize,
}

impl Verdicts {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        let _ = writeln!(
            self.out,
            "[{}] {name}: {detail}",
            if ok { "PASS" } else { "FAIL" }
        );
        if !ok {
            self.failures += 1;
        }
    }
}

/// Read the CSVs the other experiments wrote into the output directory and
/// check the paper's headline claims automatically, one PASS/FAIL verdict
/// per claim. Any failed claim fails the experiment.
pub fn report(ctx: &Ctx) -> Outcome {
    let dir = ctx.out_dir.as_path();
    let rows = load_performance(dir)?;
    if rows.is_empty() {
        return Err("no performance rows found".into());
    }

    let mut v = Verdicts {
        out: String::new(),
        failures: 0,
    };

    // Index rows by (direction, algorithm).
    let mut by: HashMap<(String, String), Vec<&PerfRow>> = HashMap::new();
    for r in &rows {
        by.entry((r.direction.clone(), r.algorithm.clone()))
            .or_default()
            .push(r);
    }
    let gm = |dir: &str, alg: &str| -> f64 {
        geomean(
            by.get(&(dir.to_string(), alg.to_string()))
                .map(|v| v.iter().map(|r| r.gflops).collect::<Vec<_>>())
                .unwrap_or_default(),
        )
    };
    let find = |layer: usize, dir: &str, alg: &str| {
        rows.iter()
            .find(|r| r.layer == layer && r.direction == dir && r.algorithm == alg)
            .ok_or_else(|| format!("missing row: layer {layer} {dir} {alg}"))
    };

    // --- claim: BDC beats DC in every direction (>= 1.0x, > 1.3x overall)
    for d in ["fwdd", "bwdd", "bwdw"] {
        let ratio = gm(d, "BDC") / gm(d, "DC");
        v.check(
            &format!("BDC >= DC ({d})"),
            ratio >= 0.99,
            format!("geomean ratio {ratio:.2}x"),
        );
    }

    // --- claim: BDC and MBDC beat vednn overall (paper: 1.83x / 1.63x on R101)
    let bdc_vednn = geomean(
        ["fwdd", "bwdd", "bwdw"]
            .iter()
            .map(|d| gm(d, "BDC") / gm(d, "vednn")),
    );
    let mbdc_vednn = geomean(
        ["fwdd", "bwdd", "bwdw"]
            .iter()
            .map(|d| gm(d, "MBDC") / gm(d, "vednn")),
    );
    v.check(
        "BDC > vednn (paper 1.83x)",
        bdc_vednn > 1.3,
        format!("{bdc_vednn:.2}x"),
    );
    v.check(
        "MBDC > vednn (paper 1.63x)",
        mbdc_vednn > 1.2,
        format!("{mbdc_vednn:.2}x"),
    );

    // --- claim: DC collapses on the Formula-3 layers (fwdd)
    let (mut hot, mut cold) = (Vec::new(), Vec::new());
    for r in by
        .get(&("fwdd".to_string(), "DC".to_string()))
        .ok_or("no fwdd DC rows")?
    {
        if r.conflicts_predicted {
            hot.push(r.gflops);
        } else {
            cold.push(r.gflops);
        }
    }
    let collapse = geomean(cold.iter().copied()) / geomean(hot.iter().copied());
    v.check(
        "DC conflict collapse (fwdd)",
        collapse > 1.5,
        format!(
            "clean/conflicted geomean = {collapse:.2}x ({} conflicted layers)",
            hot.len()
        ),
    );

    // --- claim: BDC rescues the conflicted layers (paper ~2.95x over DC)
    let mut rescued = Vec::new();
    for dc in rows
        .iter()
        .filter(|r| r.direction == "fwdd" && r.algorithm == "DC" && r.conflicts_predicted)
    {
        rescued.push(find(dc.layer, "fwdd", "BDC")?.gflops / dc.gflops);
    }
    let rescue = geomean(rescued);
    v.check(
        "BDC speedup on conflicted fwdd layers (paper ~2.95x)",
        rescue > 2.0,
        format!("{rescue:.2}x"),
    );

    // --- claim: MBDC bwdw is bimodal (slow early, fast late)
    let mbdc_bwdw: Vec<&PerfRow> = rows
        .iter()
        .filter(|r| r.direction == "bwdw" && r.algorithm == "MBDC")
        .collect();
    let dc_bwdw: Vec<&PerfRow> = rows
        .iter()
        .filter(|r| r.direction == "bwdw" && r.algorithm == "DC")
        .collect();
    let early = |rs: &[&PerfRow]| geomean(rs.iter().filter(|r| r.layer <= 10).map(|r| r.gflops));
    let late = |rs: &[&PerfRow]| geomean(rs.iter().filter(|r| r.layer >= 11).map(|r| r.gflops));
    v.check(
        "MBDC bwdw slower than DC on layers 0-10 (bank serialization)",
        early(&mbdc_bwdw) < early(&dc_bwdw),
        format!("{:.0} vs {:.0} GFLOP/s", early(&mbdc_bwdw), early(&dc_bwdw)),
    );
    v.check(
        "MBDC bwdw faster than DC on layers 11-18",
        late(&mbdc_bwdw) > late(&dc_bwdw),
        format!("{:.0} vs {:.0} GFLOP/s", late(&mbdc_bwdw), late(&dc_bwdw)),
    );

    // --- claim: vednn strong on layer 2, weak on 7x7 (ids 16-18)
    let vednn_l2 = find(2, "fwdd", "vednn")?;
    let vednn_7x7 = geomean(
        rows.iter()
            .filter(|r| r.layer >= 16 && r.direction == "fwdd" && r.algorithm == "vednn")
            .map(|r| r.gflops),
    );
    v.check(
        "vednn best-case on layer 2 (paper 65.5% peak)",
        vednn_l2.gflops > 2500.0,
        format!("{:.0} GFLOP/s", vednn_l2.gflops),
    );
    v.check(
        "vednn weak on 7x7 layers",
        vednn_7x7 < vednn_l2.gflops / 3.0,
        format!("{vednn_7x7:.0} vs {:.0} GFLOP/s", vednn_l2.gflops),
    );

    // --- Figure 5 claims, if present.
    if let Ok(text) = std::fs::read_to_string(dir.join("figure5.csv")) {
        let mut t: HashMap<(String, usize, String), f64> = HashMap::new();
        for l in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("model"))
        {
            let f: Vec<&str> = l.split(',').collect();
            if f.len() == 5 {
                if let (Ok(vl), Ok(ms)) = (f[1].parse::<usize>(), f[3].parse::<f64>()) {
                    t.insert((f[0].to_string(), vl, f[2].to_string()), ms);
                }
            }
        }
        for model in ["resnet-50", "resnet-101", "resnet-152"] {
            let time = |vl: usize, alg: &str| t.get(&(model.to_string(), vl, alg.to_string()));
            if let (Some(dc), Some(bdc)) = (time(16384, "DC"), time(16384, "BDC")) {
                let r = dc / bdc;
                v.check(
                    &format!("Figure 5: BDC > DC at 16384-bit ({model})"),
                    r > 1.15,
                    format!("{r:.2}x (paper 1.41-1.46x)"),
                );
            }
            // parity below 8192-bit
            if let (Some(dc), Some(bdc)) = (time(2048, "DC"), time(2048, "BDC")) {
                let r = dc / bdc;
                v.check(
                    &format!("Figure 5: parity at 2048-bit ({model})"),
                    (0.9..1.15).contains(&r),
                    format!("{r:.2}x"),
                );
            }
        }
    }

    let mut out = v.out;
    if v.failures > 0 {
        eprint!("{out}");
        return Err(format!("{} claim(s) FAILED", v.failures).into());
    }
    out.push_str("\nall headline claims reproduced.\n");
    Ok(vec![out])
}
