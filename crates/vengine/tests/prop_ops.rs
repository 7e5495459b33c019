//! Property tests for the vector engine's functional semantics: memory ops
//! round-trip for arbitrary geometries, FMA arithmetic matches scalar math,
//! the grouped broadcast-FMA triple equals its per-instruction sequence on
//! every core kind, an untimed functional core computes what a timed one
//! does, and timing invariants (cycles monotone in work, the issue-slot
//! bound).

use lsv_arch::presets::{skylake_avx512, sx_aurora};
use lsv_arch::ArchParams;
use lsv_vengine::{Arena, CoreStats, ExecutionMode, ScalarValue, VCore};
use proptest::prelude::*;

/// Feed `core` one instruction per `(op, a, b)`, with operands folded into
/// `arch`'s register file and vector length. Scalar loads hand their value
/// to the next broadcast FMA, which blocks the frontend until it is ready.
/// A functional core's arena starts with deterministic non-zero data.
fn run_stream(core: &mut VCore, arena: &mut Arena, arch: &ArchParams, ops: &[(u8, usize, usize)]) {
    let (n_vregs, n_vlen) = (arch.n_vregs, arch.n_vlen());
    let elems = 80 * 1024;
    let base = arena.alloc(elems);
    if core.mode().is_functional() {
        let data: Vec<f32> = (0..elems)
            .map(|i| (i * 37 % 101) as f32 * 0.01 - 0.5)
            .collect();
        arena.store_slice(base, &data);
    }
    let mut pending = ScalarValue::constant(1.0);
    for &(op, a, b) in ops {
        let vr = a % n_vregs;
        let other = (vr + 1 + b % (n_vregs - 1)) % n_vregs;
        let vl = 1 + b % n_vlen;
        let addr = base + ((a * 977 + b * 131) % (60 * 1024)) as u64 * 4;
        match op {
            0 => core.scalar_op(),
            1 => core.scalar_ops(b % 40),
            2 => pending = core.scalar_load(arena, addr),
            3 => core.vfma_bcast(vr, other, pending, vl),
            4 => core.vload(arena, vr, addr, vl),
            5 => core.vstore(arena, vr, addr, vl),
            6 | 7 => {
                let block = 1 + a % 8.min(n_vlen);
                let blocks: Vec<u64> = (0..(n_vlen / block).clamp(1, 4) as u64)
                    .map(|i| addr + i * (b % 64 + 1) as u64 * 128)
                    .collect();
                if op == 6 {
                    core.vgather_blocks(arena, vr, &blocks, block);
                } else {
                    core.vscatter_blocks(arena, vr, &blocks, block);
                }
            }
            8 => core.vbroadcast_zero(vr, vl),
            9 => core.vfma_vv(vr, other, other, vl),
            10 => pending = core.vreduce_sum(vr, vl),
            11 | 12 => {
                let rows = 1 + a % 4;
                let row_elems = 1 + b % (n_vlen / rows).max(1);
                let stride = (row_elems * 4 + a % 8 * 128) as u64;
                if op == 11 {
                    core.vload_rows(arena, vr, addr, row_elems, stride, rows);
                } else {
                    core.vstore_rows(arena, vr, addr, row_elems, stride, rows);
                }
            }
            13 | 14 => {
                let stride = (4 * (1 + a % 3)) as u64;
                if op == 13 {
                    core.vload_strided(arena, vr, addr, stride, vl);
                } else {
                    core.vstore_strided(arena, vr, addr, stride, vl);
                }
            }
            15 => core.scalar_store(arena, addr, pending.value),
            _ => {
                let group: Vec<(usize, u64)> = (0..b % 6)
                    .map(|j| {
                        let acc = (vr + 1 + (a + 7 * j) % (n_vregs - 1)) % n_vregs;
                        (acc, ((a * j * 13 + b) % 512 * 4) as u64)
                    })
                    .collect();
                core.fma_bcast_group(arena, vr, vl, addr, &group);
            }
        }
    }
}

/// Every register's bits (NaN-safe equality).
fn reg_bits(core: &VCore, arch: &ArchParams) -> Vec<u32> {
    (0..arch.n_vregs)
        .flat_map(|vr| core.vreg(vr).iter().map(|v| v.to_bits()))
        .collect()
}

/// Every allocated element's bits.
fn arena_bits(arena: &Arena) -> Vec<u32> {
    arena
        .regions()
        .iter()
        .flat_map(|r| {
            arena
                .slice(r.base, (r.bytes / 4) as usize)
                .iter()
                .map(|v| v.to_bits())
        })
        .collect()
}

/// One group of broadcast FMAs: multiplicand selector, vector-length
/// selector, base selector, `(acc, offset kind, k)` entries, how often the
/// group repeats and what runs between its repeats.
type Group = (usize, usize, usize, Vec<(usize, u8, usize)>, usize, u8);

/// Every kind of core a micro-kernel runs on, with its arena: timing-only,
/// functional, functional with a trace, untimed functional, introspection
/// (trace, no timing) and counting (neither).
fn cores(arch: &ArchParams) -> Vec<(&'static str, VCore, Arena)> {
    use ExecutionMode::{Functional, TimingOnly};
    let mut traced = VCore::new(arch, Functional);
    traced.enable_trace();
    vec![
        (
            "timing",
            VCore::new(arch, TimingOnly),
            Arena::for_mode(TimingOnly),
        ),
        (
            "functional",
            VCore::new(arch, Functional),
            Arena::for_mode(Functional),
        ),
        ("traced", traced, Arena::for_mode(Functional)),
        (
            "untimed",
            VCore::new_untimed(arch, Functional),
            Arena::for_mode(Functional),
        ),
        (
            "introspect",
            VCore::new_introspect(arch),
            Arena::for_mode(TimingOnly),
        ),
        (
            "counting",
            VCore::new_counting(arch),
            Arena::for_mode(TimingOnly),
        ),
    ]
}

/// Feed `core` the groups, each as `fma_bcast_group` calls (`grouped`) or
/// as the per-instruction `scalar_op`, `scalar_load`, `vfma_bcast`
/// sequences they stand for. Offset kind 0 stays in one line (repeated
/// lines), kind 1 steps by the L1 way size (every offset maps to one set,
/// so more than `ways` of them conflict), kind 2 is anywhere in two ways. A
/// group repeats up to 3 more times at channel-stride bases (4 bytes on:
/// the next channel of a line-blocked scalar stream, which re-touches the
/// previous repeat's lines), with a vector load (LLC only), a scalar load
/// or a scalar store (both L1, in the group base's L1 set) or nothing
/// between repeats.
fn run_groups(
    core: &mut VCore,
    arena: &mut Arena,
    arch: &ArchParams,
    groups: &[Group],
    grouped: bool,
) {
    let (n_vregs, n_vlen) = (arch.n_vregs, arch.n_vlen());
    let way = arch.l1d.size / arch.l1d.ways;
    let elems = 9 * way / 4 + n_vlen;
    let base = arena.alloc(elems);
    if core.mode().is_functional() {
        let data: Vec<f32> = (0..elems)
            .map(|i| (i * 37 % 101) as f32 * 0.01 - 0.5)
            .collect();
        arena.store_slice(base, &data);
    }
    // The two multiplicand registers sit at the top of the file.
    for w in [n_vregs - 1, n_vregs - 2] {
        core.vload(arena, w, base + (w * 4) as u64, n_vlen);
    }
    let vls = [1, n_vlen.min(3), n_vlen / 2 + 1, n_vlen];
    // The register past the accumulators takes the vector loads between
    // repeats.
    let spare = n_vregs - 3;
    for (w_sel, vl_sel, base_sel, entries, repeats, between) in groups {
        let w = n_vregs - 1 - w_sel % 2;
        let vl = vls[vl_sel % vls.len()];
        let group: Vec<(usize, u64)> = entries
            .iter()
            .map(|&(acc, kind, k)| {
                let off = match kind {
                    0 => k % 8 * 4,
                    1 => k % 8 * way,
                    _ => k % (2 * way / 4) * 4,
                };
                (acc % spare, off as u64)
            })
            .collect();
        for r in 0..=repeats % 4 {
            let gbase = base + ((base_sel % 64 + r) * 4) as u64;
            if grouped {
                core.fma_bcast_group(arena, w, vl, gbase, &group);
            } else {
                for &(acc, off) in &group {
                    core.scalar_op();
                    let sv = core.scalar_load(arena, gbase + off);
                    core.vfma_bcast(acc, w, sv, vl);
                }
            }
            // A line `1 + r` ways on: in the base line's L1 set, so the
            // scalar accesses between repeats evict the group's lines.
            let other = gbase + (way * (1 + r)) as u64;
            match between % 4 {
                0 => {}
                1 => core.vload(arena, spare, other, vl),
                2 => {
                    core.scalar_load(arena, other);
                }
                _ => core.scalar_store(arena, other, 0.5),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The grouped B_seq triple is the per-instruction sequence on every core
    // kind (timed timing-only and functional cores among them), also when a
    // group repeats at channel-stride bases with vector loads, scalar loads
    // or scalar stores between the repeats: equal `drain()` (cycles, every
    // stall counter, every cache level), registers, arena contents, trace
    // events and counters, on a width-1 and a width-4 frontend.
    #[test]
    fn fma_bcast_group_is_the_per_instruction_sequence(
        groups in proptest::collection::vec(
            (
                0usize..2,
                0usize..4,
                0usize..64,
                proptest::collection::vec((0usize..64, 0u8..3, 0usize..4096), 0..12),
                0usize..4,
                0u8..4,
            ),
            1..8,
        ),
    ) {
        for arch in [sx_aurora(), skylake_avx512()] {
            let mut counts = Vec::new();
            for ((kind, mut grouped, mut a1), (_, mut single, mut a2)) in
                cores(&arch).into_iter().zip(cores(&arch))
            {
                run_groups(&mut grouped, &mut a1, &arch, &groups, true);
                run_groups(&mut single, &mut a2, &arch, &groups, false);
                prop_assert_eq!(grouped.trace(), single.trace(), "{} trace", kind);
                if grouped.mode().is_functional() {
                    for vr in 0..arch.n_vregs {
                        prop_assert_eq!(grouped.vreg(vr), single.vreg(vr), "{} v{}", kind, vr);
                    }
                    prop_assert_eq!(arena_bits(&a1), arena_bits(&a2), "{} arena", kind);
                }
                let (g, s) = (grouped.drain(), single.drain());
                prop_assert_eq!(g, s, "{} stats", kind);
                counts.push(g.insts);
            }
            prop_assert!(counts.windows(2).all(|w| w[0] == w[1]), "counters differ by core kind");
        }
    }

    // An untimed functional core computes what a timed one does: on random
    // streams of every instruction kind (grouped triples, gathers and
    // scatters, strided and 2-D accesses, reductions), with and without a
    // trace, on a width-1 and a width-4 frontend, the registers, arena
    // contents, trace and counters are equal, and the untimed core reports
    // no cycle, stall or cache access.
    #[test]
    fn untimed_functional_core_computes_what_the_timed_core_does(
        traced in 0usize..2,
        ops in proptest::collection::vec((0u8..17, 0usize..4096, 0usize..4096), 1..300),
    ) {
        for arch in [sx_aurora(), skylake_avx512()] {
            let mut timed = VCore::new(&arch, ExecutionMode::Functional);
            let mut untimed = VCore::new_untimed(&arch, ExecutionMode::Functional);
            if traced == 1 {
                timed.enable_trace();
                untimed.enable_trace();
            }
            let (mut a1, mut a2) = (Arena::new(), Arena::new());
            run_stream(&mut timed, &mut a1, &arch, &ops);
            run_stream(&mut untimed, &mut a2, &arch, &ops);
            prop_assert!(!untimed.is_timed() && timed.is_timed());
            prop_assert_eq!(reg_bits(&untimed, &arch), reg_bits(&timed, &arch), "registers");
            prop_assert_eq!(arena_bits(&a2), arena_bits(&a1), "arena contents");
            prop_assert_eq!(untimed.trace(), timed.trace());
            let (t, u) = (timed.drain(), untimed.drain());
            prop_assert_eq!(u, CoreStats { insts: t.insts, ..CoreStats::default() });
        }
    }

    #[test]
    fn vload_vstore_roundtrip(vl in 1usize..513, offset_lines in 0u64..8) {
        let arch = sx_aurora();
        let mut core = VCore::new(&arch, ExecutionMode::Functional);
        let mut arena = Arena::new();
        let src = arena.alloc(1024) + offset_lines * 128;
        let dst = arena.alloc(1024);
        let vals: Vec<f32> = (0..vl).map(|i| i as f32 * 1.5 - 7.0).collect();
        arena.store_slice(src, &vals);
        core.vload(&arena, 0, src, vl);
        core.vstore(&mut arena, 0, dst, vl);
        prop_assert_eq!(arena.load_vec(dst, vl), vals);
    }

    #[test]
    fn fma_bcast_matches_scalar_math(vl in 1usize..513, scalar in -10.0f32..10.0) {
        let arch = sx_aurora();
        let mut core = VCore::new(&arch, ExecutionMode::Functional);
        let mut arena = Arena::new();
        let w = arena.alloc(512);
        let acc0 = arena.alloc(512);
        let wv: Vec<f32> = (0..vl).map(|i| (i as f32).cos()).collect();
        let a0: Vec<f32> = (0..vl).map(|i| (i as f32) * 0.25).collect();
        arena.store_slice(w, &wv);
        arena.store_slice(acc0, &a0);
        core.vload(&arena, 0, acc0, vl);
        core.vload(&arena, 1, w, vl);
        core.vfma_bcast(0, 1, ScalarValue::constant(scalar), vl);
        for i in 0..vl {
            let want = a0[i] + wv[i] * scalar;
            prop_assert!((core.vreg(0)[i] - want).abs() <= 1e-5 * want.abs().max(1.0));
        }
    }

    #[test]
    fn gather_scatter_roundtrip(
        nblocks in 1usize..17,
        block_elems in 1usize..33,
        stride_lines in 1u64..64,
    ) {
        prop_assume!(nblocks * block_elems <= 512);
        prop_assume!(stride_lines * 128 >= (block_elems * 4) as u64);
        let arch = sx_aurora();
        let mut core = VCore::new(&arch, ExecutionMode::Functional);
        let mut arena = Arena::new();
        let span = (nblocks as u64 * stride_lines * 128 / 4) as usize + block_elems;
        let src_base = arena.alloc(span);
        let dst_base = arena.alloc(span);
        let blocks_src: Vec<u64> = (0..nblocks as u64).map(|i| src_base + i * stride_lines * 128).collect();
        let blocks_dst: Vec<u64> = (0..nblocks as u64).map(|i| dst_base + i * stride_lines * 128).collect();
        for (bi, &b) in blocks_src.iter().enumerate() {
            for e in 0..block_elems {
                arena.write(b + (e * 4) as u64, (bi * 1000 + e) as f32);
            }
        }
        core.vgather_blocks(&arena, 3, &blocks_src, block_elems);
        core.vscatter_blocks(&mut arena, 3, &blocks_dst, block_elems);
        for (bi, &b) in blocks_dst.iter().enumerate() {
            for e in 0..block_elems {
                prop_assert_eq!(arena.read(b + (e * 4) as u64), (bi * 1000 + e) as f32);
            }
        }
    }

    #[test]
    fn rows_load_matches_manual_copy(
        rows in 1usize..9,
        row_elems in 1usize..33,
        stride_elems in 33usize..128,
    ) {
        prop_assume!(rows * row_elems <= 512);
        let arch = sx_aurora();
        let mut core = VCore::new(&arch, ExecutionMode::Functional);
        let mut arena = Arena::new();
        let base = arena.alloc(rows * stride_elems + row_elems);
        for i in 0..(rows * stride_elems + row_elems) {
            arena.write(base + (i * 4) as u64, i as f32);
        }
        core.vload_rows(&arena, 2, base, row_elems, (stride_elems * 4) as u64, rows);
        for r in 0..rows {
            for e in 0..row_elems {
                prop_assert_eq!(core.vreg(2)[r * row_elems + e], (r * stride_elems + e) as f32);
            }
        }
    }

    #[test]
    fn strided_load_store_roundtrip(count in 1usize..129, stride_elems in 1usize..9) {
        let arch = sx_aurora();
        let mut core = VCore::new(&arch, ExecutionMode::Functional);
        let mut arena = Arena::new();
        let base = arena.alloc(count * stride_elems + 1);
        let out = arena.alloc(count * stride_elems + 1);
        for i in 0..count {
            arena.write(base + (i * stride_elems * 4) as u64, (i * 7) as f32);
        }
        core.vload_strided(&arena, 1, base, (stride_elems * 4) as u64, count);
        core.vstore_strided(&mut arena, 1, out, (stride_elems * 4) as u64, count);
        for i in 0..count {
            prop_assert_eq!(arena.read(out + (i * stride_elems * 4) as u64), (i * 7) as f32);
        }
    }

    #[test]
    fn cycles_monotone_in_fma_count(n1 in 1usize..50, extra in 1usize..50) {
        let arch = sx_aurora();
        let run = |n: usize| -> u64 {
            let mut core = VCore::new(&arch, ExecutionMode::TimingOnly);
            let arena = Arena::new();
            for i in 0..n {
                core.vfma_bcast(i % 8, 30, ScalarValue::constant(1.0), 512);
                let _ = &arena;
            }
            core.drain().cycles
        };
        prop_assert!(run(n1 + extra) >= run(n1));
    }

    // The issue-slot invariant: a drained core's cycles are at least
    // ceil(insts / scalar_issue_width) - 1 on any stream, and a counting
    // core fed the same stream reports the identical counters.
    #[test]
    fn cycles_are_bounded_by_issue_slots_and_counting_agrees(
        wide in 0usize..2,
        ops in proptest::collection::vec((0u8..11, 0usize..4096, 0usize..4096), 1..300),
    ) {
        let arch = if wide == 1 { skylake_avx512() } else { sx_aurora() };
        let mut timed = VCore::new(&arch, ExecutionMode::TimingOnly);
        let mut arena = Arena::for_mode(ExecutionMode::TimingOnly);
        run_stream(&mut timed, &mut arena, &arch, &ops);
        let s = timed.drain();
        let width = arch.scalar_issue_width as u64;
        prop_assert!(s.cycles + 1 >= s.insts.total().div_ceil(width));
        prop_assert!(s.cycles >= s.insts.issue_cycles_lower_bound(arch.scalar_issue_width));
        let mut counting = VCore::new_counting(&arch);
        let mut arena = Arena::for_mode(ExecutionMode::TimingOnly);
        run_stream(&mut counting, &mut arena, &arch, &ops);
        let c = counting.drain();
        prop_assert_eq!(c.insts, s.insts);
        prop_assert_eq!(c.cycles, 0);
    }
}
