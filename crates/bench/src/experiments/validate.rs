//! The artifact's `validate.sh` equivalent.

use super::{Ctx, Outcome};
use lsv_arch::presets::sx_aurora;
use lsv_conv::par::par_map;
use lsv_conv::{naive, store, validate as validate_direct, Algorithm, Direction, ValidationReport};
use lsv_models::resnet_layers;
use lsv_vednn::VednnConv;
use rand::{Rng, SeedableRng};
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
                    // Deterministic in (arch, p, dir): served from the layer
                    // store when a previous regen validated the same point.
                    let key = store::validation_key(&arch, &p, dir, "vednn");
                    store::store().memo(&key, || {
                        let mut rng = rand::rngs::StdRng::seed_from_u64(99 + id as u64);
                        let src: Vec<f32> = (0..p.n * p.ic * p.ih * p.iw)
                            .map(|_| rng.gen_range(-1.0..1.0))
                            .collect();
                        let wei: Vec<f32> = (0..p.oc * p.ic * p.kh * p.kw)
                            .map(|_| rng.gen_range(-1.0..1.0))
                            .collect();
                        let dst: Vec<f32> = (0..p.n * p.oc * p.oh() * p.ow())
                            .map(|_| rng.gen_range(-1.0..1.0))
                            .collect();
                        let conv = VednnConv::best(&arch, p, dir);
                        let (got, _) = conv.run_functional(&src, &wei, &dst);
                        let (want, _) = naive::reference(&p, dir, &src, &wei, &dst);
                        let rel = naive::normwise_rel_err(&got, &want);
                        ValidationReport {
                            max_abs_err: naive::max_abs_diff(&got, &want),
                            rel_err: rel,
                            passed: rel < 1e-2,
                        }
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
