//! Golden-cycle regression suite: pins the simulator's *timing semantics*.
//!
//! Host-side performance work on the simulator (allocation-free `VCore`,
//! O(1) shadow LRU, line-coalesced cache traffic, parallel sweeps) must not
//! change a single simulated cycle or cache counter. This suite locks a
//! representative subset of the Table 3 suite — six layers spanning 3x3,
//! strided-1x1 and conflict-prone shapes, across {DC, BDC, MBDC} x
//! {fwdd, bwdd, bwdw} — against fixtures recorded before the optimization
//! work, plus the vednn baseline on every one of those layers (rows with `alg`
//! `vednn`). Any timing-visible regression fails `cargo test -q`.
//!
//! Regenerate the fixture (only when a *modelling* change intentionally
//! shifts cycle counts) with:
//!
//! ```sh
//! LSV_GOLDEN_BLESS=1 cargo test --release --test golden_cycles
//! ```

use lsv_conv::{bench_layer, Algorithm, Direction, ExecutionMode, LayerPerf};
use lsv_models::resnet_layer;
use lsv_vednn::bench_layer_vednn;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Layer ids snapshotted: stem 3x3 (2), strided 1x1 shortcut (4), 28x28 3x3
/// (6), the Section 8 conflict-prone reduce (8), 14x14 3x3 (11) and the 7x7
/// 3x3 (16).
const LAYERS: [usize; 6] = [2, 4, 6, 8, 11, 16];

/// Minibatch 16 = two images per simulated core: both the cold and the
/// steady-state measurement paths are pinned.
const MINIBATCH: usize = 16;

const ALGORITHMS: [Algorithm; 3] = [Algorithm::Dc, Algorithm::Bdc, Algorithm::Mbdc];

/// Layers whose vednn rows are snapshotted: between them both kernel
/// families (spatial and GEMM) in fwd/bwd-data, GEMM in bwd-weights, on
/// unit-stride and strided shapes, down to the 14x14 (11) and 7x7 (16)
/// images where the spatial kernel packs several output rows per vector.
const VEDNN_LAYERS: [usize; 6] = [2, 4, 6, 8, 11, 16];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_cycles.csv")
}

/// One snapshot line: every simulated quantity that must stay bit-identical.
fn snapshot_line(layer: usize, alg: &str, dir: Direction, perf: &LayerPerf) -> String {
    let c = &perf.report.cache;
    let mut s = String::new();
    write!(s, "{},{},{},{}", layer, alg, dir.short_name(), perf.cycles).unwrap();
    for l in [&c.l1, &c.l2, &c.llc] {
        write!(
            s,
            ",{},{},{},{}",
            l.hits, l.misses, l.conflict_misses, l.writebacks
        )
        .unwrap();
    }
    write!(
        s,
        ",{},{},{},{},{},{}",
        c.mem_fetches,
        perf.report.insts.total(),
        perf.report.stall_scalar,
        perf.report.stall_dep,
        perf.report.stall_port,
        perf.report.bank_serial_cycles,
    )
    .unwrap();
    s
}

fn render_snapshot() -> String {
    let mut out = String::from(
        "layer,alg,dir,cycles,\
         l1_hits,l1_misses,l1_conflicts,l1_writebacks,\
         l2_hits,l2_misses,l2_conflicts,l2_writebacks,\
         llc_hits,llc_misses,llc_conflicts,llc_writebacks,\
         mem_fetches,insts,stall_scalar,stall_dep,stall_port,bank_serial_cycles\n",
    );
    let arch = lsv_arch::presets::sx_aurora();
    let mode = ExecutionMode::TimingOnly;
    for &layer in &LAYERS {
        let p = resnet_layer(layer, MINIBATCH);
        for &alg in &ALGORITHMS {
            for dir in Direction::ALL {
                let perf = bench_layer(&arch, &p, dir, alg, mode);
                out.push_str(&snapshot_line(layer, alg.short_name(), dir, &perf));
                out.push('\n');
            }
        }
    }
    for &layer in &VEDNN_LAYERS {
        let p = resnet_layer(layer, MINIBATCH);
        for dir in Direction::ALL {
            let perf = bench_layer_vednn(&arch, &p, dir, mode);
            out.push_str(&snapshot_line(layer, "vednn", dir, &perf));
            out.push('\n');
        }
    }
    out
}

#[test]
fn golden_cycles_match_fixture() {
    let got = render_snapshot();
    let path = fixture_path();
    if std::env::var("LSV_GOLDEN_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("golden_cycles: blessed {} entries", got.lines().count() - 1);
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden fixture {} unreadable ({e}); run with LSV_GOLDEN_BLESS=1 to create it",
            path.display()
        )
    });
    if got != want {
        // Report the first few diverging lines precisely rather than dumping
        // both files.
        let mut diffs = Vec::new();
        for (g, w) in got.lines().zip(want.lines()) {
            if g != w {
                diffs.push(format!("  got:  {g}\n  want: {w}"));
            }
        }
        if got.lines().count() != want.lines().count() {
            diffs.push(format!(
                "  line counts differ: got {}, fixture {}",
                got.lines().count(),
                want.lines().count()
            ));
        }
        panic!(
            "simulated cycles/cache stats diverged from the golden fixture \
             ({} lines differ).\nTiming semantics must not change in a \
             host-performance PR; if the divergence is an intentional \
             modelling change, re-bless with LSV_GOLDEN_BLESS=1.\n{}",
            diffs.len(),
            diffs[..diffs.len().min(6)].join("\n")
        );
    }
}

/// Functional execution computes real data on top of the same address
/// stream; it must report the *identical* timing to a TimingOnly run.
#[test]
fn functional_and_timing_only_agree_on_cycles() {
    let arch = lsv_arch::presets::sx_aurora();
    for (layer, alg) in [(2, Algorithm::Bdc), (8, Algorithm::Dc)] {
        let p = resnet_layer(layer, 8);
        for dir in Direction::ALL {
            let t = bench_layer(&arch, &p, dir, alg, ExecutionMode::TimingOnly);
            let f = bench_layer(&arch, &p, dir, alg, ExecutionMode::Functional);
            assert_eq!(
                t.cycles, f.cycles,
                "layer {layer} {alg:?} {dir:?}: functional vs timing-only cycles"
            );
            assert_eq!(
                t.report.cache, f.report.cache,
                "layer {layer} {alg:?} {dir:?}: cache stats must not depend on mode"
            );
        }
    }
}
