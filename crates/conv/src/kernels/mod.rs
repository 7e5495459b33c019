//! The generated micro-kernels and the scheduling loops that drive them.
//!
//! These functions are the interpreter-side equivalent of the paper's JIT
//! assembler output (Section 6.5): a [`crate::KernelConfig`] fixes every
//! blocking factor and layout at primitive-creation time; the kernel then
//! replays the *exact* instruction stream of the fully-unrolled micro-kernel
//! on the simulated vector core — scalar loads, pointer updates, vector
//! loads/stores or coarse-grain gathers/scatters, and FMAs, in the order a
//! JIT would emit them (so the `B_seq` distance of Section 6.2 is real).
//!
//! The split is the paper's: `walk` holds the scheduling loops as values,
//! [`data`] the one micro-kernel of the forward- and backward-data passes,
//! and [`bwd_weights`] the backward-weights micro-kernel. The native host
//! lowering interprets the same walks.
//!
//! Emission follows the JIT's shape too: both micro-kernels form addresses
//! once per kernel tap (offsets per channel, a base per channel or point),
//! never per instruction, and issue each group of `B_seq` triples — scalar
//! pointer update, scalar load, broadcast FMA — through one
//! [`lsv_vengine::VCore::fma_bcast_group`] call. A timed core serves the
//! group's loads as one cache round and times its triples in one loop
//! (a round repeating the previous pure-hit round only counts its L1
//! hits, the next channel of a line-blocked scalar stream being the common
//! case); a counting core adds it up in O(1), which makes the tuner's
//! instruction-count bound cheap.

pub mod bwd_weights;
pub mod data;
pub(crate) mod walk;

use lsv_tensor::ActTensor;
use lsv_vengine::{Arena, VCore};

/// Blocks per vector access that fit the stack buffer in
/// [`load_act_vec`]/[`store_act_vec`] (covers every practical `vl / cb`
/// combination; larger gathers fall back to a heap buffer). These helpers run
/// once per micro-kernel vector access, so the former per-call `Vec` was one
/// of the hottest allocation sites in the simulator.
const MAX_BLOCKS_INLINE: usize = 64;

/// The slot after `slot` in a rotating buffer of `n` registers (without the
/// division of `(slot + 1) % n`).
#[inline]
pub(crate) fn next_slot(slot: usize, n: usize) -> usize {
    if slot + 1 == n {
        0
    } else {
        slot + 1
    }
}

/// Number of stored lanes a vector access of `vl` logical channels starting
/// at channel `c0` touches in tensor `t`: `vl` itself for a `C_b >= vl`
/// layout (unit-stride), or `ceil(vl / C_b) * C_b` for a multi-block layout
/// (the gather covers whole blocks, including tail padding lanes).
#[inline]
pub(crate) fn act_vec_lanes(t: &ActTensor, vl: usize) -> usize {
    let cb = t.layout.cb;
    if cb >= vl {
        vl
    } else {
        vl.div_ceil(cb) * cb
    }
}

/// Load a feature-map vector of `vl` channels `[c0, c0+vl)` for spatial
/// point `(y, x)` of image `n` into register `reg`.
///
/// Unit-stride layouts (`C_b >= vl`) use one vector load (Algorithm 2
/// line 12); multi-block layouts (`C_b < vl`) use a coarse-grain block
/// gather (Algorithm 4 line 15, with the Equation 5 index pattern).
#[allow(clippy::too_many_arguments)]
pub(crate) fn load_act_vec(
    core: &mut VCore,
    arena: &Arena,
    t: &ActTensor,
    n: usize,
    c0: usize,
    y: usize,
    x: usize,
    vl: usize,
    reg: usize,
) {
    let cb = t.layout.cb;
    if cb >= vl {
        debug_assert!(
            c0 % cb + vl <= cb,
            "vector access straddles a channel block"
        );
        let addr = t.block_at(n, c0 / cb, y, x) + ((c0 % cb) as u64) * 4;
        core.vload(arena, reg, addr, vl);
    } else {
        debug_assert_eq!(c0 % cb, 0, "gather must start on a block boundary");
        core.region_enter("gather");
        let bpv = vl.div_ceil(cb);
        let mut inline = [0u64; MAX_BLOCKS_INLINE];
        if bpv <= MAX_BLOCKS_INLINE {
            for (j, slot) in inline[..bpv].iter_mut().enumerate() {
                *slot = t.block_at(n, c0 / cb + j, y, x);
            }
            core.vgather_blocks(arena, reg, &inline[..bpv], cb);
        } else {
            let blocks: Vec<u64> = (0..bpv).map(|j| t.block_at(n, c0 / cb + j, y, x)).collect();
            core.vgather_blocks(arena, reg, &blocks, cb);
        }
        core.region_exit();
    }
}

/// Store the counterpart of [`load_act_vec`] (vector store or block scatter;
/// Algorithm 2 line 19 / Algorithm 4 line 22).
#[allow(clippy::too_many_arguments)]
pub(crate) fn store_act_vec(
    core: &mut VCore,
    arena: &mut Arena,
    t: &ActTensor,
    n: usize,
    c0: usize,
    y: usize,
    x: usize,
    vl: usize,
    reg: usize,
) {
    let cb = t.layout.cb;
    if cb >= vl {
        debug_assert!(
            c0 % cb + vl <= cb,
            "vector access straddles a channel block"
        );
        let addr = t.block_at(n, c0 / cb, y, x) + ((c0 % cb) as u64) * 4;
        core.vstore(arena, reg, addr, vl);
    } else {
        debug_assert_eq!(c0 % cb, 0, "scatter must start on a block boundary");
        core.region_enter("scatter");
        let bpv = vl.div_ceil(cb);
        let mut inline = [0u64; MAX_BLOCKS_INLINE];
        if bpv <= MAX_BLOCKS_INLINE {
            for (j, slot) in inline[..bpv].iter_mut().enumerate() {
                *slot = t.block_at(n, c0 / cb + j, y, x);
            }
            core.vscatter_blocks(arena, reg, &inline[..bpv], cb);
        } else {
            let blocks: Vec<u64> = (0..bpv).map(|j| t.block_at(n, c0 / cb + j, y, x)).collect();
            core.vscatter_blocks(arena, reg, &blocks, cb);
        }
        core.region_exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;
    use lsv_tensor::ActivationLayout;
    use lsv_vengine::ExecutionMode;

    #[test]
    fn act_vec_lanes_covers_blocks() {
        let mut arena = Arena::new();
        let t = ActTensor::alloc(&mut arena, 1, 512, 4, 4, ActivationLayout { cb: 32 });
        assert_eq!(act_vec_lanes(&t, 512), 512);
        let t64 = ActTensor::alloc(&mut arena, 1, 64, 4, 4, ActivationLayout { cb: 32 });
        assert_eq!(act_vec_lanes(&t64, 64), 64);
        let t48 = ActTensor::alloc(&mut arena, 1, 48, 4, 4, ActivationLayout { cb: 32 });
        assert_eq!(act_vec_lanes(&t48, 48), 64, "tail block padded");
    }

    #[test]
    fn load_store_roundtrip_unit_stride_and_gather() {
        let arch = sx_aurora();
        for cb in [512usize, 32] {
            let mut arena = Arena::new();
            let mut core = VCore::new(&arch, ExecutionMode::Functional);
            let t = ActTensor::alloc(&mut arena, 1, 512, 3, 3, ActivationLayout { cb });
            let data: Vec<f32> = (0..t.elems()).map(|i| i as f32).collect();
            t.store_nchw(&mut arena, &data);
            load_act_vec(&mut core, &arena, &t, 0, 0, 1, 2, 512, 0);
            let u = ActTensor::alloc(&mut arena, 1, 512, 3, 3, ActivationLayout { cb });
            store_act_vec(&mut core, &mut arena, &u, 0, 0, 1, 2, 512, 0);
            for c in 0..512 {
                assert_eq!(
                    arena.read(u.at(0, c, 1, 2)),
                    arena.read(t.at(0, c, 1, 2)),
                    "cb={cb} channel {c}"
                );
            }
        }
    }
}
