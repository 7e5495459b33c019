//! The artifact's `validate.sh` equivalent.

use super::{Ctx, Outcome};
use lsv_arch::presets::sx_aurora;
use lsv_conv::par::par_map;
use lsv_conv::{store, validate as validate_direct, verify, Algorithm, Direction};
use lsv_models::resnet_layers;
use lsv_vednn::VednnConv;
use std::fmt::Write as _;

/// Functional correctness checks of every convolution algorithm (including
/// the vednn baseline) against the naive reference, over every Table 3
/// layer and direction at minibatch 1: one CSV line per test case with a
/// `status` field (`passed` / `failed`), exactly like the artifact's
/// correctness stage. Any failed case fails the experiment.
pub fn validate(_: &Ctx) -> Outcome {
    let minibatch = 1;
    let arch = sx_aurora();
    let layers = resnet_layers(minibatch);

    let mut jobs: Vec<(usize, Direction, &'static str)> = Vec::new();
    for id in 0..layers.len() {
        for dir in Direction::ALL {
            for name in ["DC", "BDC", "MBDC", "vednn"] {
                jobs.push((id, dir, name));
            }
        }
    }

    let mut results: Vec<(usize, Direction, &'static str, f32, bool)> =
        par_map(jobs, |(id, dir, name)| {
            let p = layers[id];
            let r = match name {
                "DC" => validate_direct(&arch, &p, dir, Algorithm::Dc),
                "BDC" => validate_direct(&arch, &p, dir, Algorithm::Bdc),
                "MBDC" => validate_direct(&arch, &p, dir, Algorithm::Mbdc),
                _ => {
                    // Held to the direct kernels' operands, reference and
                    // per-element criterion, and served from the layer store
                    // when a previous regen validated the same point.
                    let key = store::validation_key(&arch, &p, dir, "vednn-verify");
                    store::store().memo(&key, || {
                        let conv = VednnConv::best(&arch, p, dir);
                        verify::validate_output(&p, dir, |src, wei, dst| {
                            conv.run_functional(src, wei, dst).0
                        })
                    })
                }
            };
            (id, dir, name, r.rel_err, r.passed)
        });
    results.sort_by_key(|r| (r.0, r.1.short_name(), r.2));

    let mut out = String::from("problem_id,direction,algorithm,minibatch,rel_err,status\n");
    let mut failures = 0;
    for (id, dir, name, rel, pass) in &results {
        if !pass {
            failures += 1;
        }
        writeln!(
            out,
            "{},{},{},{},{:.2e},{}",
            id,
            dir.short_name(),
            name,
            minibatch,
            rel,
            if *pass { "passed" } else { "failed" }
        )?;
    }
    eprintln!(
        "# {} / {} cases passed",
        results.len() - failures,
        results.len()
    );
    if failures > 0 {
        eprint!("{out}");
        return Err(format!("{failures} validation case(s) failed").into());
    }
    Ok(vec![out])
}
