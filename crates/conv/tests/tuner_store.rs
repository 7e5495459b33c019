//! The tuner's stored decision: a warm call replays it without simulating,
//! a 100%-paranoid store re-runs the search behind every decision hit
//! without a mismatch, and a damaged decision is a counted corrupt miss that
//! the fresh search overwrites. The tests share the process-wide store and
//! run one at a time under `SERIAL`, so the counter deltas each one takes
//! see no other test's traffic.

use lsv_arch::presets::sx_aurora;
use lsv_conv::store::{self, Record, StoreConfig};
use lsv_conv::tuning::decision_key;
use lsv_conv::{tune_empirical, Algorithm, ConvProblem, Direction, ExecutionMode};
use std::sync::{Mutex, MutexGuard, Once};

static SERIAL: Mutex<()> = Mutex::new(());

/// Configure the process-wide store once (paranoid on every hit) and hold
/// the lock that runs the tests one at a time.
fn paranoid_store() -> MutexGuard<'static, ()> {
    static CONFIGURE: Once = Once::new();
    CONFIGURE.call_once(|| {
        store::configure(StoreConfig {
            paranoid_pct: 100,
            ..StoreConfig::default()
        })
        .expect("first store use");
    });
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn warm_decision_simulates_nothing_and_paranoid_rechecks_agree() {
    let _serial = paranoid_store();
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

/// A stored decision past the candidate list can only come from a damaged
/// entry: the call counts it in `store.corrupt`, searches afresh (without a
/// paranoid panic over the bad index) and overwrites the entry with the
/// fresh decision, which the next call replays.
#[test]
fn damaged_choice_is_a_counted_miss_and_rewritten() {
    let _serial = paranoid_store();
    let arch = sx_aurora();
    let mode = ExecutionMode::TimingOnly;
    let p = ConvProblem::new(2, 24, 40, 9, 9, 3, 3, 1, 1);
    for dir in Direction::ALL {
        let (alg, what) = (Algorithm::Bdc, format!("{p} {dir}"));
        let cold = tune_empirical(&arch, &p, dir, alg, mode).expect("creatable");
        let key = decision_key(&arch, &p, dir, alg, mode);
        let good = store::store().get(&key);
        assert!(
            matches!(good, Some(Record::Choice(i)) if (i as usize) < cold.unique),
            "{what}: the decision is stored"
        );
        store::store().put(&key, Record::Choice(u8::MAX));

        let before = store::store().stats();
        let again = tune_empirical(&arch, &p, dir, alg, mode).expect("creatable");
        let d = store::store().stats().delta(&before);
        assert_eq!((d.corrupt, d.inserts), (1, 1), "{what}: counted, rewritten");
        assert_eq!(again.best_cfg, cold.best_cfg, "{what}");
        assert_eq!(again.best_cycles, cold.best_cycles, "{what}");
        assert_eq!(store::store().get(&key), good, "{what}: the fresh decision");

        let before = store::store().stats();
        let warm = tune_empirical(&arch, &p, dir, alg, mode).expect("creatable");
        let d = store::store().stats().delta(&before);
        assert_eq!((d.corrupt, d.misses), (0, 0), "{what}: replayed");
        assert_eq!(warm.best_cfg, cold.best_cfg, "{what}");
    }
}
