//! Structural tests of the generated instruction streams, via the engine's
//! trace facility: the paper's `B_seq` reasoning (Section 6.2) assumes the
//! JIT emits a scalar load and a pointer update between consecutive vector
//! FMAs — verify our generated kernels really have that shape, and that the
//! MBDC kernels really access the destination with gathers/scatters while
//! DC/BDC use unit-stride vector ops (Table 2's defining difference).

use lsv_arch::presets::sx_aurora;
use lsv_conv::{Algorithm, ConvDesc, ConvProblem, Direction};
use lsv_vengine::{Arena, ExecutionMode, TraceEvent, VCore};

fn default_problem() -> ConvProblem {
    ConvProblem::new(1, 40, 48, 6, 6, 3, 3, 1, 1)
}

fn trace_of(alg: Algorithm, dir: Direction) -> Vec<TraceEvent> {
    trace_of_problem(alg, dir, default_problem())
}

fn trace_of_problem(alg: Algorithm, dir: Direction, p: ConvProblem) -> Vec<TraceEvent> {
    let arch = sx_aurora();
    let prim = ConvDesc::new(p, dir, alg).create(&arch, 1).unwrap();
    let mut arena = Arena::new();
    let t = prim.alloc_tensors(&mut arena);
    let mut core = VCore::new(&arch, ExecutionMode::TimingOnly);
    core.enable_trace();
    prim.execute_core(&mut core, &mut arena, &t, 0..prim.work_items());
    core.trace().unwrap().to_vec()
}

/// Average instruction distance between consecutive vector FMAs.
fn mean_fma_distance(trace: &[TraceEvent]) -> f64 {
    let idx: Vec<usize> = trace
        .iter()
        .enumerate()
        .filter_map(|(i, e)| matches!(e, TraceEvent::VFma { .. }).then_some(i))
        .collect();
    assert!(idx.len() > 10, "kernel too small to measure");
    let total: usize = idx.windows(2).map(|w| w[1] - w[0]).sum();
    total as f64 / (idx.len() - 1) as f64
}

#[test]
fn fwd_kernels_have_bseq_three_structure() {
    // Between FMAs: scalar pointer update + scalar load (B_seq = 3),
    // slightly diluted by loop-boundary instructions.
    for alg in Algorithm::ALL {
        let trace = trace_of(alg, Direction::Fwd);
        let d = mean_fma_distance(&trace);
        assert!(
            (2.5..4.0).contains(&d),
            "{alg}: mean inter-FMA distance {d:.2}, expected ~3 (B_seq)"
        );
        // Each FMA is immediately preceded by its scalar load.
        let mut checked = 0;
        for w in trace.windows(2) {
            if let [TraceEvent::ScalarLoad { .. }, TraceEvent::VFma { .. }] = w {
                checked += 1;
            }
        }
        let fmas = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::VFma { .. }))
            .count();
        assert!(
            checked as f64 > 0.95 * fmas as f64,
            "{alg}: only {checked}/{fmas} FMAs fed by an adjacent scalar load"
        );
    }
}

#[test]
fn mbdc_uses_gathers_dc_uses_unit_stride() {
    let dc = trace_of(Algorithm::Dc, Direction::Fwd);
    let mbdc = trace_of(Algorithm::Mbdc, Direction::Fwd);
    let count = |t: &[TraceEvent], f: fn(&TraceEvent) -> bool| t.iter().filter(|e| f(e)).count();
    assert_eq!(
        count(&dc, |e| matches!(
            e,
            TraceEvent::VGather { .. } | TraceEvent::VScatter { .. }
        )),
        0,
        "DC never gathers"
    );
    assert!(
        count(&mbdc, |e| matches!(e, TraceEvent::VScatter { .. })) > 0,
        "MBDC stores D via block scatters"
    );
    // D *loads* (gathers) only appear once the channel reduction is split
    // into multiple chunks; force a small schedule grain to exercise them.
    let arch = sx_aurora();
    let p = default_problem();
    let desc = ConvDesc::new(p, Direction::Fwd, Algorithm::Mbdc);
    let mut cfg = *desc.create(&arch, 1).unwrap().cfg();
    cfg.tile.c_i = 8; // several IC chunks -> the partial sums round-trip D
    let prim = desc.create_with_config(&arch, cfg, 1);
    let mut arena = Arena::new();
    let t = prim.alloc_tensors(&mut arena);
    let mut core = VCore::new(&arch, ExecutionMode::TimingOnly);
    core.enable_trace();
    prim.execute_core(&mut core, &mut arena, &t, 0..1);
    let chunked = core.trace().unwrap();
    assert!(
        chunked
            .iter()
            .filter(|e| matches!(e, TraceEvent::VGather { .. }))
            .count()
            > 0,
        "chunked MBDC reloads D via block gathers"
    );
}

#[test]
fn accumulator_rotation_matches_register_block() {
    // Consecutive FMAs must hit *different* accumulators (the independent
    // chains of Section 4.1); the same accumulator returns after
    // ~RB_h*RB_w FMAs.
    let arch = sx_aurora();
    let p = ConvProblem::new(1, 40, 48, 6, 6, 3, 3, 1, 1);
    let prim = ConvDesc::new(p, Direction::Fwd, Algorithm::Dc)
        .create(&arch, 1)
        .unwrap();
    let rb = prim.cfg().rb.combined();
    let trace = trace_of(Algorithm::Dc, Direction::Fwd);
    let accs: Vec<usize> = trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::VFma { acc, .. } => Some(*acc),
            _ => None,
        })
        .collect();
    let mut same_adjacent = 0usize;
    for w in accs.windows(2) {
        if w[0] == w[1] {
            same_adjacent += 1;
        }
    }
    assert!(
        (same_adjacent as f64) < 0.02 * accs.len() as f64,
        "adjacent FMAs reuse an accumulator {same_adjacent}/{} times",
        accs.len()
    );
    // All rb accumulator registers appear.
    let distinct: std::collections::HashSet<_> = accs.iter().collect();
    // The 6x6 output means partial edge blocks; at least a full block's
    // worth of accumulators must be exercised somewhere.
    assert!(
        distinct.len() >= rb.min(p.oh() * p.ow()),
        "only {} accumulators seen, rb = {rb}",
        distinct.len()
    );
}

#[test]
fn bwdw_stores_each_output_vector_once() {
    // The bwdw accumulators live across the whole reduction: the number of
    // vector stores must equal the number of W_diff vectors, not scale with
    // the spatial size.
    let arch = sx_aurora();
    let p = default_problem();
    let prim = ConvDesc::new(p, Direction::BwdWeights, Algorithm::Dc)
        .create(&arch, 1)
        .unwrap();
    let trace = trace_of_problem(Algorithm::Dc, Direction::BwdWeights, p);
    let stores = trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::VStore { .. }))
        .count();
    // One store per (vec_block, small channel, kh, kw).
    let cfg = prim.cfg();
    let (c_vec, c_small) = if cfg.vec_over_ic {
        (p.ic, p.oc)
    } else {
        (p.oc, p.ic)
    };
    let expected = c_vec.div_ceil(cfg.vl) * c_small * p.kh * p.kw;
    assert_eq!(stores, expected);
}
