//! The tuner's stored decision: a warm call replays it without simulating,
//! and a 100%-paranoid store re-runs the search behind every decision hit
//! without a mismatch. One test per binary, so the process-wide store's
//! counters see no other test's traffic.

use lsv_arch::presets::sx_aurora;
use lsv_conv::store::{self, StoreConfig};
use lsv_conv::{tune_empirical, Algorithm, ConvProblem, Direction, ExecutionMode};

#[test]
fn warm_decision_simulates_nothing_and_paranoid_rechecks_agree() {
    store::configure(StoreConfig {
        paranoid_pct: 100,
        ..StoreConfig::default()
    })
    .expect("first store use");
    let arch = sx_aurora();
    let mode = ExecutionMode::TimingOnly;
    let p = ConvProblem::new(8, 32, 32, 10, 10, 3, 3, 1, 1);
    for n in [1, 9, 17] {
        let p = p.with_minibatch(n);
        for dir in Direction::ALL {
            for alg in Algorithm::ALL {
                let cold = tune_empirical(&arch, &p, dir, alg, mode).expect("creatable");
                let before = store::store().stats();
                let warm = tune_empirical(&arch, &p, dir, alg, mode).expect("creatable");
                let d = store::store().stats().delta(&before);
                let what = format!("{p} {dir} {alg}");
                assert_eq!(warm.simulated, 0, "{what}");
                // The re-check repeats the cold call's search exactly.
                assert_eq!(warm.bounded, cold.bounded, "{what}: re-checked search");
                assert_eq!((d.misses, d.inserts), (0, 0), "{what}: a warm call");
                assert!(
                    d.paranoid_rechecks > 0,
                    "{what}: the decision is re-checked"
                );
                assert_eq!(warm.best_cfg, cold.best_cfg, "{what}");
                assert_eq!(
                    (
                        warm.best_cycles,
                        warm.analytic_cycles,
                        warm.generated,
                        warm.unique
                    ),
                    (
                        cold.best_cycles,
                        cold.analytic_cycles,
                        cold.generated,
                        cold.unique
                    ),
                    "{what}"
                );
            }
        }
    }
}
