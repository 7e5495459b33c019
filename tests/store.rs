//! Content-addressed layer-result store: key discipline, on-disk robustness,
//! and cold-vs-warm reproducibility.
//!
//! The store's contract (DESIGN.md section 15):
//!  * distinct cache-relevant inputs always produce distinct keys — checked
//!    here over the full 855-point kernel family (19 Table 3 layers x 3
//!    directions x 3 algorithms x 5 vector lengths);
//!  * a persisted entry with a stale schema stamp is a *silent* miss (and the
//!    next put replaces it), while an unreadable, truncated or malformed
//!    entry, or one the caller's check rejects, is a *counted* miss that
//!    the next put rewrites;
//!  * a warm store replays byte-identical results versus the cold run.

use lsv_arch::presets::{aurora_with_vlen_bits, sx_aurora};
use lsv_bench::{run_suite, Engine};
use lsv_conv::store::{self, LayerStore, Record, StoreConfig, Stored};
use lsv_conv::tuning::kernel_config;
use lsv_conv::{Algorithm, Direction, ExecutionMode, ValidationReport};
use lsv_models::resnet_layers;
use std::collections::HashMap;
use std::path::PathBuf;

/// Fresh scratch directory under target/, unique per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/test-scratch")
        .join(format!("lsv-store-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn disk_store(dir: &std::path::Path) -> LayerStore {
    LayerStore::new(StoreConfig {
        disabled: false,
        dir: Some(dir.to_path_buf()),
        paranoid_pct: 0,
    })
}

#[test]
fn keys_deterministic_and_sensitive_to_every_input() {
    let arch = sx_aurora();
    let p = resnet_layers(32)[8];
    let cfg = kernel_config(&arch, &p, Direction::Fwd, Algorithm::Bdc, arch.cores);
    let mk = || {
        store::slice_key(
            &arch,
            &p,
            Direction::Fwd,
            "direct",
            arch.cores,
            ExecutionMode::TimingOnly,
            Some(&cfg),
        )
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.canonical(), b.canonical(), "same inputs, same canon");
    assert_eq!(a.hash128(), b.hash128(), "same inputs, same hash");

    // Each cache-relevant input perturbs the canonical form (and the hash).
    let variants = [
        store::slice_key(
            &arch,
            &p,
            Direction::BwdData,
            "direct",
            arch.cores,
            ExecutionMode::TimingOnly,
            Some(&cfg),
        ),
        store::slice_key(
            &arch,
            &p,
            Direction::Fwd,
            "vednn:gemm",
            arch.cores,
            ExecutionMode::TimingOnly,
            Some(&cfg),
        ),
        store::slice_key(
            &arch,
            &p,
            Direction::Fwd,
            "direct",
            1,
            ExecutionMode::TimingOnly,
            Some(&cfg),
        ),
        store::slice_key(
            &arch,
            &p,
            Direction::Fwd,
            "direct",
            arch.cores,
            ExecutionMode::Functional,
            Some(&cfg),
        ),
        store::slice_key(
            &arch,
            &p,
            Direction::Fwd,
            "direct",
            arch.cores,
            ExecutionMode::TimingOnly,
            None,
        ),
        store::validation_key(&arch, &p, Direction::Fwd, "direct"),
        store::choice_key(&arch, &p, Direction::Fwd, "vednn-best"),
    ];
    for (i, v) in variants.iter().enumerate() {
        assert_ne!(v.canonical(), a.canonical(), "variant {i} must differ");
        assert_ne!(v.hash128(), a.hash128(), "variant {i} hash must differ");
    }
}

/// The full kernel family the repo ever simulates on the Aurora-style
/// presets: 19 Table 3 layers x 3 directions x 3 algorithms x 5 vector
/// lengths = 855 keys. Distinct canonical forms must map to distinct
/// 128-bit hashes (a collision would silently alias two results).
#[test]
fn family_sweep_855_keys_never_collide() {
    let mut by_hash: HashMap<u128, String> = HashMap::new();
    let mut n = 0usize;
    for vlen_bits in [512usize, 2048, 4096, 8192, 16384] {
        let arch = aurora_with_vlen_bits(vlen_bits);
        for p in resnet_layers(256) {
            for dir in Direction::ALL {
                for alg in Algorithm::ALL {
                    let cfg = kernel_config(&arch, &p, dir, alg, arch.cores);
                    let key = store::slice_key(
                        &arch,
                        &p,
                        dir,
                        "direct",
                        arch.cores,
                        ExecutionMode::TimingOnly,
                        Some(&cfg),
                    );
                    n += 1;
                    if let Some(prev) = by_hash.insert(key.hash128(), key.canonical().to_string()) {
                        assert_eq!(
                            prev,
                            key.canonical(),
                            "hash collision between distinct canonical keys"
                        );
                        panic!("duplicate canonical key in family sweep: {prev}");
                    }
                }
            }
        }
    }
    assert_eq!(n, 855, "sweep shape drifted: expected 19 x 3 x 3 x 5 keys");
    assert_eq!(by_hash.len(), 855, "every key distinct");
}

#[test]
fn disk_round_trip_and_stale_schema_is_silent_miss() {
    let dir = scratch("stale");
    let arch = sx_aurora();
    let p = resnet_layers(8)[3];
    let key = store::validation_key(&arch, &p, Direction::Fwd, "direct");
    let entry = dir.join(format!("{}.entry", key.file_stem()));

    // A persisted entry written under an older schema stamp: silent miss.
    std::fs::write(
        &entry,
        format!("lsv-layer-store v0\nkey {}\nchoice 1\n", key.canonical()),
    )
    .unwrap();
    let st = disk_store(&dir);
    assert_eq!(st.get(&key), None, "stale schema must read as a miss");
    assert_eq!(st.stats().misses, 1);

    // The next put replaces the stale file; a *fresh* store (empty memory
    // tier) then serves the record from disk.
    st.put(&key, Record::Choice(7));
    let st2 = disk_store(&dir);
    assert_eq!(st2.get(&key), Some(Record::Choice(7)));
    assert_eq!(st2.stats().disk_hits, 1);
    assert_eq!(st2.stats().misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged entry costs one recomputation, never a run: it reads as a miss
/// counted in `corrupt`, the recomputed record overwrites it, and a fresh
/// store then serves it from disk.
#[test]
fn corrupt_entry_is_counted_miss_and_rewritten() {
    let dir = scratch("corrupt");
    let arch = sx_aurora();
    let p = resnet_layers(8)[3];
    let fresh = ValidationReport {
        max_abs_err: 0.5,
        rel_err: 0.25,
        passed: true,
    };
    for damage in ["truncated", "flipped-byte", "garbage", "unreadable"] {
        let key = store::validation_key(&arch, &p, Direction::BwdData, damage);
        let entry = dir.join(format!("{}.entry", key.file_stem()));
        disk_store(&dir).put(&key, fresh.to_record());
        let good = std::fs::read(&entry).unwrap();
        let damaged = match damage {
            // Schema and key lines survive, the record line is lost.
            "truncated" => format!("{}\nkey {}", store::SCHEMA, key.canonical()).into_bytes(),
            // The record's last byte, the `passed` flag, turns from `1` to `q`.
            "flipped-byte" => {
                let mut b = good.clone();
                let at = b.len() - 2;
                b[at] ^= 0x40;
                b
            }
            "garbage" => {
                format!("{}\nkey {}\nslice 1 two\n", store::SCHEMA, key.canonical()).into_bytes()
            }
            _ => vec![0xff; 16], // not UTF-8
        };
        assert_ne!(damaged, good);
        std::fs::write(&entry, damaged).unwrap();

        let st = disk_store(&dir);
        let got = st.memo(&key, || fresh);
        assert_eq!(got.rel_err.to_bits(), fresh.rel_err.to_bits(), "{damage}");
        let s = st.stats();
        assert_eq!(
            (s.disk_hits, s.misses, s.corrupt, s.inserts),
            (0, 1, 1, 1),
            "{damage}: a counted miss, recomputed and inserted"
        );
        assert_eq!(std::fs::read(&entry).unwrap(), good, "{damage}: rewritten");

        let st2 = disk_store(&dir);
        assert_eq!(st2.get(&key), Some(fresh.to_record()), "{damage}");
        assert_eq!((st2.stats().disk_hits, st2.stats().corrupt), (1, 0));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An entry that parses but that the caller's check rejects (a tuner
/// decision past its candidate list) is a counted corrupt miss like a
/// damaged one: the fresh value is served and overwrites the entry on disk,
/// which a later put of the same record keeps.
#[test]
fn rejected_entry_is_counted_miss_and_rewritten() {
    let dir = scratch("rejected");
    let arch = sx_aurora();
    let p = resnet_layers(8)[3];
    let key = store::validation_key(&arch, &p, Direction::Fwd, "rejected");
    let entry = dir.join(format!("{}.entry", key.file_stem()));
    let fresh = ValidationReport {
        max_abs_err: 0.5,
        rel_err: 0.25,
        passed: true,
    };
    let stale = ValidationReport {
        passed: false,
        ..fresh
    };
    disk_store(&dir).put(&key, stale.to_record());
    let passed = |v: &ValidationReport| {
        if v.passed {
            Ok(())
        } else {
            Err("did not pass".to_string())
        }
    };

    let st = disk_store(&dir);
    let got = st.memo_checked(&key, || fresh, passed);
    assert!(got.passed);
    let s = st.stats();
    assert_eq!(
        (s.disk_hits, s.misses, s.corrupt, s.inserts),
        (0, 1, 1, 1),
        "a counted miss, recomputed and inserted"
    );
    let st2 = disk_store(&dir);
    assert_eq!(st2.get(&key), Some(fresh.to_record()), "rewritten on disk");
    let good = std::fs::read(&entry).unwrap();
    st2.put(&key, fresh.to_record());
    assert_eq!(std::fs::read(&entry).unwrap(), good);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A disk write that fails is counted, not a panic: one `write_errors`, the
/// disk tier off for the rest of the store's life, the memory tier still
/// serving. A directory at the entry's exact `.tmp.<pid>` path makes the
/// write fail even for root, which ignores permission bits.
#[test]
fn failed_write_is_counted_and_turns_the_disk_tier_off() {
    let dir = scratch("write-error");
    let arch = sx_aurora();
    let p = resnet_layers(8)[3];
    let key = store::validation_key(&arch, &p, Direction::Fwd, "write-error");
    let other = store::validation_key(&arch, &p, Direction::BwdData, "write-error");
    let tmp = dir.join(format!("{}.tmp.{}", key.file_stem(), std::process::id()));
    std::fs::create_dir(&tmp).unwrap();
    let fresh = ValidationReport {
        max_abs_err: 0.5,
        rel_err: 0.25,
        passed: true,
    };

    let st = disk_store(&dir);
    let got = st.memo(&key, || fresh);
    assert_eq!(got.rel_err.to_bits(), fresh.rel_err.to_bits());
    assert_eq!(st.stats().write_errors, 1);
    assert!(tmp.is_dir(), "a directory that is not ours stays");
    // The memory tier keeps serving; the disk tier writes nothing more.
    assert_eq!(st.get(&key), Some(fresh.to_record()));
    st.put(&other, fresh.to_record());
    assert_eq!(st.get(&other), Some(fresh.to_record()));
    let s = st.stats();
    assert_eq!((s.mem_hits, s.inserts, s.write_errors), (2, 2, 1));
    assert_eq!(st.disk_bytes(), 0, "no entry reached the disk");
    let doc = store::stats_metrics_json(&s, 0);
    assert!(doc.contains("\"name\": \"store.write_errors\", \"value\": 1"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hash_collision_on_disk_is_silent_miss() {
    let dir = scratch("collision");
    let arch = sx_aurora();
    let p = resnet_layers(8)[3];
    let key = store::validation_key(&arch, &p, Direction::BwdWeights, "direct");
    let entry = dir.join(format!("{}.entry", key.file_stem()));
    // Well-formed entry whose key line belongs to a *different* canonical
    // key (a 128-bit hash collision): must not be served.
    std::fs::write(
        &entry,
        format!(
            "{}\nkey some-other-canonical-key\nchoice 3\n",
            store::SCHEMA
        ),
    )
    .unwrap();
    assert_eq!(disk_store(&dir).get(&key), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cold-vs-warm byte identity over a real (small) sweep, through the
/// process-global store the bench paths use. The warm pass must reproduce
/// every CSV row byte for byte and simulate nothing. Paranoid mode is on at
/// 100% so every warm hit is re-simulated and compared on the spot.
#[test]
fn cold_vs_warm_sweep_rows_byte_identical() {
    let dir = scratch("coldwarm");
    store::configure(StoreConfig {
        disabled: false,
        dir: Some(dir.clone()),
        paranoid_pct: 100,
    })
    .expect("global store already initialised by another path in this test binary");

    let arch = sx_aurora();
    let engines = [Engine::Direct(Algorithm::Bdc)];
    let dirs = [Direction::Fwd, Direction::BwdWeights];
    let cold: Vec<String> = run_suite(&arch, 2, &engines, &dirs, ExecutionMode::TimingOnly)
        .iter()
        .map(|r| r.to_csv())
        .collect();
    let s0 = store::store().stats();
    assert!(s0.inserts > 0, "cold pass must populate the store");
    assert!(store::store().disk_bytes() > 0, "disk tier must persist");

    let warm: Vec<String> = run_suite(&arch, 2, &engines, &dirs, ExecutionMode::TimingOnly)
        .iter()
        .map(|r| r.to_csv())
        .collect();
    let s1 = store::store().stats();
    assert_eq!(cold, warm, "warm store must replay identical CSV rows");
    assert_eq!(s1.inserts, s0.inserts, "warm pass must not re-insert");
    assert!(
        s1.mem_hits + s1.disk_hits > s0.mem_hits + s0.disk_hits,
        "warm pass must be served from the store"
    );
    assert!(
        s1.paranoid_rechecks > s0.paranoid_rechecks,
        "paranoid mode at 100% must re-verify warm hits"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
