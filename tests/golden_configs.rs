//! Configuration ledger: pins every kernel configuration the primitive API
//! generates for the Table 3 suite.
//!
//! For every Table 3 layer x direction x algorithm on five architectures
//! (the SX-Aurora target, the short-SIMD AVX-512 and SVE presets, the
//! long-vector RVV preset and a 512-bit Aurora), the fixture holds the
//! canonical store-key string of `ConvDesc::create`'s configuration. The key
//! names every field of the config (layouts, blocks, tile, role swap,
//! weight buffers, Formula 3 verdict), so any change to configuration
//! generation on any architecture shows up here, not only as a drift in a
//! simulated number.
//!
//! Regenerate the fixture (only when configuration generation is meant to
//! change) with:
//!
//! ```sh
//! LSV_GOLDEN_BLESS=1 cargo test --release --test golden_configs
//! ```

use lsv_arch::presets::{
    a64fx_sve, aurora_with_vlen_bits, rvv_longvector, skylake_avx512, sx_aurora,
};
use lsv_arch::ArchParams;
use lsv_conv::{store, Algorithm, ConvDesc, Direction, ExecutionMode};
use lsv_models::resnet_layers;
use std::path::PathBuf;

/// The minibatch of the Figure 4 sweep.
const MINIBATCH: usize = 256;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_configs.txt")
}

fn archs() -> [(&'static str, ArchParams); 5] {
    [
        ("sx_aurora", sx_aurora()),
        ("skylake_avx512", skylake_avx512()),
        ("a64fx_sve", a64fx_sve()),
        ("rvv_longvector", rvv_longvector()),
        ("aurora_512", aurora_with_vlen_bits(512)),
    ]
}

/// One line per (arch, layer, direction, algorithm): the key of the
/// generated configuration, or the reason creation failed.
fn render_ledger() -> String {
    let mut out = String::new();
    for (name, arch) in archs() {
        let cores = arch.cores.max(1);
        for (layer, p) in resnet_layers(MINIBATCH).into_iter().enumerate() {
            for dir in Direction::ALL {
                for alg in Algorithm::ALL {
                    let entry = match ConvDesc::new(p, dir, alg).create(&arch, cores) {
                        Ok(prim) => store::slice_key(
                            &arch,
                            &p,
                            dir,
                            "direct",
                            cores,
                            ExecutionMode::TimingOnly,
                            Some(prim.cfg()),
                        )
                        .canonical()
                        .to_string(),
                        Err(e) => format!("unsupported: {e}"),
                    };
                    out.push_str(&format!("{name} {layer} {dir} {alg} {entry}\n"));
                }
            }
        }
    }
    out
}

#[test]
fn generated_configs_match_the_ledger() {
    let got = render_ledger();
    let path = fixture_path();
    if std::env::var("LSV_GOLDEN_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("golden_configs: blessed {} entries", got.lines().count());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "config ledger {} unreadable ({e}); run with LSV_GOLDEN_BLESS=1 to create it",
            path.display()
        )
    });
    let diffs: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got:  {g}\n  want: {w}"))
        .collect();
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "ledger line counts differ"
    );
    assert!(
        diffs.is_empty(),
        "{} generated configurations diverged from the ledger; if configuration \
         generation is meant to change, re-bless with LSV_GOLDEN_BLESS=1.\n{}",
        diffs.len(),
        diffs[..diffs.len().min(6)].join("\n")
    );
}
