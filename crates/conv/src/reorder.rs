//! Layout reorder primitives, executed on the simulated vector engine.
//!
//! oneDNN-style frameworks surround every convolution with *reorders*: the
//! framework's plain NCHW/OIHW tensors are converted into the primitive's
//! blocked layout before execution and back afterwards (Section 6.5's
//! two-step flow implies them). The conversions in `lsv-tensor`
//! (`store_nchw` / `load_nchw`) are host-side test helpers; this module
//! provides the *measured* equivalent: vector-engine kernels that move the
//! data through the simulated memory system.
//!
//! The activation reorder walks the destination layout block by block: for
//! each `(n, c-block, h)` it performs `W` strided vector loads from the
//! NCHW source (channel-major gather of `C_b` channels per spatial point)
//! and one unit-stride store per point — matching how a tuned pack routine
//! behaves on a long-vector machine.

use lsv_tensor::{ActTensor, WeiTensor};
use lsv_vengine::{Arena, VCore};

/// Reorder a plain-NCHW activation tensor into a channel-blocked one, on
/// the simulated core. Both tensors must already be allocated in `arena`
/// and describe the same logical shape.
///
/// # Panics
/// Panics if the logical shapes differ or `src` is not NCHW.
pub fn reorder_activations(
    core: &mut VCore,
    arena: &mut Arena,
    src_nchw: &ActTensor,
    dst_blocked: &ActTensor,
) {
    assert_eq!(src_nchw.layout.cb, 1, "source must be plain NCHW");
    assert_eq!(
        (src_nchw.n, src_nchw.c, src_nchw.h, src_nchw.w),
        (dst_blocked.n, dst_blocked.c, dst_blocked.h, dst_blocked.w),
        "shape mismatch"
    );
    let (n, c, h, w) = (src_nchw.n, src_nchw.c, src_nchw.h, src_nchw.w);
    let cb = dst_blocked.layout.cb;
    let max_vl = core.arch().n_vlen();
    let plane_bytes = (h * w * 4) as u64; // channel stride in NCHW
    core.region_enter("pack_act");
    for ni in 0..n {
        for cblk in 0..dst_blocked.c_blocks() {
            let c0 = cblk * cb;
            let cc = cb.min(c - c0.min(c));
            if c0 >= c {
                break;
            }
            for y in 0..h {
                core.scalar_ops(2);
                for x in 0..w {
                    // Gather `cc` channels of one spatial point: stride is a
                    // whole H*W plane in NCHW. Strip-mined by the machine
                    // vector length for layouts wider than a register.
                    let mut off = 0;
                    while off < cc {
                        let vl = max_vl.min(cc - off);
                        core.scalar_op();
                        core.vload_strided(
                            arena,
                            0,
                            src_nchw.at(ni, c0 + off, y, x),
                            plane_bytes,
                            vl,
                        );
                        core.vstore(
                            arena,
                            0,
                            dst_blocked.block_at(ni, cblk, y, x) + (off * 4) as u64,
                            vl,
                        );
                        off += vl;
                    }
                }
            }
        }
    }
    core.region_exit(); // pack_act
}

/// Reorder a blocked activation tensor back to plain NCHW (the output-side
/// reorder), on the simulated core.
pub fn reorder_activations_back(
    core: &mut VCore,
    arena: &mut Arena,
    src_blocked: &ActTensor,
    dst_nchw: &ActTensor,
) {
    assert_eq!(dst_nchw.layout.cb, 1, "destination must be plain NCHW");
    assert_eq!(
        (src_blocked.n, src_blocked.c, src_blocked.h, src_blocked.w),
        (dst_nchw.n, dst_nchw.c, dst_nchw.h, dst_nchw.w),
        "shape mismatch"
    );
    let (n, c, h, w) = (dst_nchw.n, dst_nchw.c, dst_nchw.h, dst_nchw.w);
    let cb = src_blocked.layout.cb;
    let max_vl = core.arch().n_vlen();
    let plane_bytes = (h * w * 4) as u64;
    core.region_enter("unpack_act");
    for ni in 0..n {
        for cblk in 0..src_blocked.c_blocks() {
            let c0 = cblk * cb;
            if c0 >= c {
                break;
            }
            let cc = cb.min(c - c0);
            for y in 0..h {
                core.scalar_ops(2);
                for x in 0..w {
                    let mut off = 0;
                    while off < cc {
                        let vl = max_vl.min(cc - off);
                        core.scalar_op();
                        core.vload(
                            arena,
                            0,
                            src_blocked.block_at(ni, cblk, y, x) + (off * 4) as u64,
                            vl,
                        );
                        core.vstore_strided(
                            arena,
                            0,
                            dst_nchw.at(ni, c0 + off, y, x),
                            plane_bytes,
                            vl,
                        );
                        off += vl;
                    }
                }
            }
        }
    }
    core.region_exit(); // unpack_act
}

/// Reorder plain-OIHW weights into a blocked weights tensor on the
/// simulated core: for each `(oc-block, ic, kh, kw)` destination vector,
/// gather `OC_b` output channels (stride `IC*KH*KW` elements in OIHW) and
/// store unit-stride.
pub fn reorder_weights(
    core: &mut VCore,
    arena: &mut Arena,
    src_oihw: &WeiTensor,
    dst_blocked: &WeiTensor,
) {
    assert_eq!(
        (src_oihw.layout.icb, src_oihw.layout.ocb),
        (1, 1),
        "source must be plain OIHW"
    );
    assert_eq!(
        (src_oihw.oc, src_oihw.ic, src_oihw.kh, src_oihw.kw),
        (
            dst_blocked.oc,
            dst_blocked.ic,
            dst_blocked.kh,
            dst_blocked.kw
        ),
        "shape mismatch"
    );
    let (oc, ic, kh, kw) = (src_oihw.oc, src_oihw.ic, src_oihw.kh, src_oihw.kw);
    let ocb = dst_blocked.layout.ocb;
    let max_vl = core.arch().n_vlen();
    let oc_stride_bytes = (ic * kh * kw * 4) as u64;
    core.region_enter("pack_wei");
    for ob in 0..dst_blocked.oc_blocks() {
        let o0 = ob * ocb;
        if o0 >= oc {
            break;
        }
        let cnt = ocb.min(oc - o0);
        for i in 0..ic {
            for y in 0..kh {
                core.scalar_ops(2);
                for x in 0..kw {
                    let mut off = 0;
                    while off < cnt {
                        let vl = max_vl.min(cnt - off);
                        core.scalar_op();
                        core.vload_strided(
                            arena,
                            0,
                            src_oihw.at(o0 + off, i, y, x),
                            oc_stride_bytes,
                            vl,
                        );
                        core.vstore(
                            arena,
                            0,
                            dst_blocked.oc_vector_at(ob, i, y, x) + (off * 4) as u64,
                            vl,
                        );
                        off += vl;
                    }
                }
            }
        }
    }
    core.region_exit(); // pack_wei
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;
    use lsv_tensor::{ActivationLayout, WeightLayout};
    use lsv_vengine::ExecutionMode;

    #[test]
    fn activation_reorder_roundtrip() {
        let arch = sx_aurora();
        let mut arena = Arena::new();
        let mut core = VCore::new(&arch, ExecutionMode::Functional);
        let nchw = ActTensor::alloc(&mut arena, 2, 40, 5, 6, ActivationLayout::nchw());
        let blocked = ActTensor::alloc(&mut arena, 2, 40, 5, 6, ActivationLayout { cb: 32 });
        let back = ActTensor::alloc(&mut arena, 2, 40, 5, 6, ActivationLayout::nchw());
        let data: Vec<f32> = (0..nchw.elems()).map(|i| i as f32).collect();
        nchw.store_nchw(&mut arena, &data);
        reorder_activations(&mut core, &mut arena, &nchw, &blocked);
        assert_eq!(blocked.load_nchw(&arena), data, "forward reorder correct");
        reorder_activations_back(&mut core, &mut arena, &blocked, &back);
        assert_eq!(back.load_nchw(&arena), data, "inverse reorder correct");
        let stats = core.drain();
        assert!(stats.insts.vloads > 0 && stats.insts.vstores > 0);
    }

    #[test]
    fn reorders_strip_mine_blocks_wider_than_vlen() {
        // Found by `lsvconv fuzz`: MBDC's line-grain layouts block channels
        // by N_cline = 32, which exceeds the 16 f32 lanes of a 512-bit
        // machine — the reorder kernels must strip-mine, not issue vl > VLEN.
        let arch = lsv_arch::presets::aurora_with_vlen_bits(512);
        assert!(arch.n_vlen() < 32, "premise: block wider than a register");
        let mut arena = Arena::new();
        let mut core = VCore::new(&arch, ExecutionMode::Functional);
        let nchw = ActTensor::alloc(&mut arena, 1, 40, 3, 3, ActivationLayout::nchw());
        let blocked = ActTensor::alloc(&mut arena, 1, 40, 3, 3, ActivationLayout { cb: 32 });
        let back = ActTensor::alloc(&mut arena, 1, 40, 3, 3, ActivationLayout::nchw());
        let data: Vec<f32> = (0..nchw.elems()).map(|i| i as f32).collect();
        nchw.store_nchw(&mut arena, &data);
        reorder_activations(&mut core, &mut arena, &nchw, &blocked);
        reorder_activations_back(&mut core, &mut arena, &blocked, &back);
        assert_eq!(back.load_nchw(&arena), data);

        let oihw = WeiTensor::alloc(&mut arena, 40, 2, 3, 3, WeightLayout::oihw());
        let wblocked = WeiTensor::alloc(&mut arena, 40, 2, 3, 3, WeightLayout { icb: 2, ocb: 32 });
        let wdata: Vec<f32> = (0..oihw.elems()).map(|i| (i as f32).cos()).collect();
        oihw.store_oihw(&mut arena, &wdata);
        reorder_weights(&mut core, &mut arena, &oihw, &wblocked);
        assert_eq!(wblocked.load_oihw(&arena), wdata);
    }

    #[test]
    fn weight_reorder_matches_host_conversion() {
        let arch = sx_aurora();
        let mut arena = Arena::new();
        let mut core = VCore::new(&arch, ExecutionMode::Functional);
        let oihw = WeiTensor::alloc(&mut arena, 20, 6, 3, 3, WeightLayout::oihw());
        let blocked = WeiTensor::alloc(&mut arena, 20, 6, 3, 3, WeightLayout { icb: 4, ocb: 16 });
        let data: Vec<f32> = (0..oihw.elems()).map(|i| (i as f32).sin()).collect();
        oihw.store_oihw(&mut arena, &data);
        reorder_weights(&mut core, &mut arena, &oihw, &blocked);
        assert_eq!(blocked.load_oihw(&arena), data);
    }
}
