//! The artifact's `validate.sh` equivalent: functional correctness checks of
//! every convolution algorithm (including the vednn baseline) against the
//! naive reference, over every Table 3 layer and direction.
//!
//! Emits one CSV line per test case with a `status` field (`passed` /
//! `failed`), exactly like the artifact's correctness stage.
//!
//! Usage: `validate [minibatch]` (default 1).

use lsv_arch::presets::sx_aurora;
use lsv_conv::{naive, validate, Algorithm, Direction};
use lsv_models::resnet_layers;
use lsv_vednn::VednnConv;
use rand::{Rng, SeedableRng};

fn main() {
    let minibatch: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1);
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
        lsv_bench::par::par_map(jobs, |(id, dir, name)| {
            let p = layers[id];
            let (rel, pass) = match name {
                "vednn" => {
                    // Deterministic in (arch, p, dir): served from the layer
                    // store when a previous regen validated the same point.
                    let st = lsv_conv::store::store();
                    let key = lsv_conv::store::validation_key(&arch, &p, dir, "vednn");
                    let fresh = || {
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
                        lsv_conv::ValidationReport {
                            max_abs_err: naive::max_abs_diff(&got, &want),
                            rel_err: rel,
                            passed: rel < 1e-2,
                        }
                    };
                    let r = if let Some(r) = st.get_validation(&key) {
                        if st.paranoid_sample(&key) {
                            let f = fresh();
                            assert_eq!(
                                (f.rel_err.to_bits(), f.passed),
                                (r.rel_err.to_bits(), r.passed),
                                "paranoid store recheck diverged for key {}",
                                key.canonical()
                            );
                            st.note_paranoid_recheck();
                        }
                        r
                    } else {
                        let r = fresh();
                        st.put_validation(&key, &r);
                        r
                    };
                    (r.rel_err, r.passed)
                }
                _ => {
                    let alg = match name {
                        "DC" => Algorithm::Dc,
                        "BDC" => Algorithm::Bdc,
                        _ => Algorithm::Mbdc,
                    };
                    let r = validate(&arch, &p, dir, alg);
                    (r.rel_err, r.passed)
                }
            };
            (id, dir, name, rel, pass)
        });
    results.sort_by_key(|r| (r.0, r.1.short_name(), r.2));

    println!("problem_id,direction,algorithm,minibatch,rel_err,status");
    let mut failures = 0;
    for (id, dir, name, rel, pass) in &results {
        if !pass {
            failures += 1;
        }
        println!(
            "{},{},{},{},{:.2e},{}",
            id,
            dir.short_name(),
            name,
            minibatch,
            rel,
            if *pass { "passed" } else { "failed" }
        );
    }
    eprintln!(
        "# {} / {} cases passed",
        results.len() - failures,
        results.len()
    );
    lsv_conv::store::dump_stats_to_env_file();
    if failures > 0 {
        std::process::exit(1);
    }
}
