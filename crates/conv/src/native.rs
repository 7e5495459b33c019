//! Native host lowering of the frozen kernel plan (the compute side of
//! [`crate::backend::NativeBackend`]).
//!
//! Each function interprets the same walk ([`crate::kernels::walk`]) as its
//! simulator kernel, but performs the data movement directly on the arena's
//! host memory instead of replaying the instruction stream on the simulated
//! core: the same tiles in the same order, the same per-output-element
//! *accumulation order*, and the same unfused multiply-then-add
//! (`acc += w * s`, exactly the simulator's functional `vfma_bcast`).
//! Functional results are therefore bit-identical to
//! `ExecutionMode::Functional` — the property the fuzz oracle and
//! `tests/backend_equivalence.rs` pin — at host speed: no issue model, no
//! cache hierarchy, no trace. Only the hot loops inside a tile are the
//! lowering's own.
//!
//! The data-movement instruction counters (scalar loads, vector
//! loads/stores, gathers, scatters, FMAs) are mirrored too, so a kernel and
//! its lowering drifting apart shows up as a counter mismatch even when the
//! values still agree. Scalar address arithmetic (`scalar_ops`) is *not*
//! mirrored: in the simulator it exists to occupy the frontend, which the
//! native backend does not model.

use crate::kernels::act_vec_lanes;
use crate::kernels::walk::{Tile, TileWalk, WeightTap, WeightWalk};
use crate::primitive::ConvTensors;
use crate::problem::ConvProblem;
use crate::tuning::KernelConfig;
use lsv_tensor::ActTensor;
use lsv_vengine::{Arena, InstCounters};
use std::ops::Range;

/// Host-side accumulator file: the register block of one micro-kernel,
/// flattened. Plays the role of the simulator's vector register file for
/// the accumulators (the weight/activation operand "registers" are read
/// straight from the arena — the double-buffer only changes timing, never
/// values, so the lowering counts its loads but skips the staging copy).
///
/// Registers are packed at the *current* working length `vl` (not the
/// allocation width), so a register-block row is contiguous and the hot
/// loops can walk it with `chunks_exact_mut(vl)` — no per-FMA bounds
/// checks, which is where small-`vl` kernels spend their time.
struct AccFile {
    data: Vec<f32>,
}

impl AccFile {
    fn new(regs: usize, width: usize) -> Self {
        Self {
            data: vec![0.0; regs.max(1) * width.max(1)],
        }
    }

    #[inline]
    fn reg(&mut self, i: usize, vl: usize) -> &mut [f32] {
        &mut self.data[i * vl..(i + 1) * vl]
    }

    /// The contiguous run of registers `[first, first + n)` at stride `vl`.
    #[inline]
    fn row(&mut self, first: usize, n: usize, vl: usize) -> &mut [f32] {
        &mut self.data[first * vl..(first + n) * vl]
    }

    /// Read-only counterpart of [`AccFile::row`] (for writeback while the
    /// arena is mutably borrowed).
    #[inline]
    fn row_ref(&self, first: usize, n: usize, vl: usize) -> &[f32] {
        &self.data[first * vl..(first + n) * vl]
    }
}

/// The data movement of [`load_act`]'s coarse-grain block gather, without
/// the counter update (the `bwd_weights` hot loop batches its counts).
#[allow(clippy::too_many_arguments)] // mirrors the simulator op's full coordinate tuple
fn gather_blocks(
    arena: &Arena,
    t: &ActTensor,
    n: usize,
    c0: usize,
    y: usize,
    x: usize,
    vl: usize,
    out: &mut [f32],
) {
    let cb = t.layout.cb;
    debug_assert_eq!(c0 % cb, 0, "gather must start on a block boundary");
    let mut filled = 0;
    for j in 0..vl.div_ceil(cb) {
        let take = cb.min(vl - filled);
        let addr = t.block_at(n, c0 / cb + j, y, x);
        out[filled..filled + take].copy_from_slice(arena.slice(addr, take));
        filled += take;
    }
}

/// Reload a whole `rbh × rbw` register block of partial sums from `t` —
/// one [`load_act`] per register, batched: on the unit-stride path the
/// address chain is hoisted to one row slice per `h` (consecutive `w` sit
/// `C_b` floats apart) and the counter update is one add.
#[allow(clippy::too_many_arguments)] // mirrors the simulator op's full coordinate tuple
fn load_block(
    arena: &Arena,
    t: &ActTensor,
    n: usize,
    c0: usize,
    y0: usize,
    x0: usize,
    rbh: usize,
    rbw: usize,
    vl: usize,
    accs: &mut AccFile,
    counters: &mut InstCounters,
) {
    let cb = t.layout.cb;
    if cb >= vl {
        counters.vloads += (rbh * rbw) as u64;
        let blk = c0 / cb;
        let off = ((c0 % cb) as u64) * 4;
        for h in 0..rbh {
            let row = arena.slice(t.block_at(n, blk, y0 + h, x0) + off, (rbw - 1) * cb + vl);
            let acc_row = accs.row(h * rbw, rbw, vl);
            for (w, acc) in acc_row.chunks_exact_mut(vl).enumerate() {
                acc.copy_from_slice(&row[w * cb..w * cb + vl]);
            }
        }
    } else {
        counters.gathers += (rbh * rbw) as u64;
        for h in 0..rbh {
            for w in 0..rbw {
                gather_blocks(
                    arena,
                    t,
                    n,
                    c0,
                    y0 + h,
                    x0 + w,
                    vl,
                    accs.reg(h * rbw + w, vl),
                );
            }
        }
    }
}

/// Writeback counterpart of [`load_block`]: one [`store_act`] per register,
/// batched the same way.
#[allow(clippy::too_many_arguments)] // mirrors the simulator op's full coordinate tuple
fn store_block(
    arena: &mut Arena,
    t: &ActTensor,
    n: usize,
    c0: usize,
    y0: usize,
    x0: usize,
    rbh: usize,
    rbw: usize,
    vl: usize,
    accs: &AccFile,
    counters: &mut InstCounters,
) {
    let cb = t.layout.cb;
    if cb >= vl {
        counters.vstores += (rbh * rbw) as u64;
        let blk = c0 / cb;
        let off = ((c0 % cb) as u64) * 4;
        for h in 0..rbh {
            let row = arena.slice_mut(t.block_at(n, blk, y0 + h, x0) + off, (rbw - 1) * cb + vl);
            let acc_row = accs.row_ref(h * rbw, rbw, vl);
            for (w, acc) in acc_row.chunks_exact(vl).enumerate() {
                row[w * cb..w * cb + vl].copy_from_slice(acc);
            }
        }
    } else {
        for h in 0..rbh {
            for w in 0..rbw {
                store_act(
                    arena,
                    t,
                    n,
                    c0,
                    y0 + h,
                    x0 + w,
                    vl,
                    accs.row_ref(h * rbw + w, 1, vl),
                    counters,
                );
            }
        }
    }
}

/// Store the counterpart of [`load_act`] (vector store or block scatter).
/// Only the `vl` logical lanes are written: the simulator's scatter also
/// rewrites the tail block's padding lanes, but those never hold logical
/// channels, are zero under both backends, and are invisible to every
/// readback path.
#[allow(clippy::too_many_arguments)] // mirrors the simulator op's full coordinate tuple
fn store_act(
    arena: &mut Arena,
    t: &ActTensor,
    n: usize,
    c0: usize,
    y: usize,
    x: usize,
    vl: usize,
    vals: &[f32],
    counters: &mut InstCounters,
) {
    let cb = t.layout.cb;
    if cb >= vl {
        debug_assert!(
            c0 % cb + vl <= cb,
            "vector access straddles a channel block"
        );
        counters.vstores += 1;
        let addr = t.block_at(n, c0 / cb, y, x) + ((c0 % cb) as u64) * 4;
        arena.store_slice(addr, &vals[..vl]);
    } else {
        debug_assert_eq!(c0 % cb, 0, "scatter must start on a block boundary");
        counters.scatters += 1;
        let mut written = 0;
        for j in 0..vl.div_ceil(cb) {
            let take = cb.min(vl - written);
            let addr = t.block_at(n, c0 / cb + j, y, x);
            arena.store_slice(addr, &vals[written..written + take]);
            written += take;
        }
    }
}

/// The simulator's functional `vfma_bcast`: `acc[i] += w[i] * s`,
/// deliberately *unfused* so the rounding of every element matches the
/// reference interpreter bit for bit. Both slices must already be exactly
/// `vl` long: re-slicing (`[..vl]`) inside this function costs a fat-pointer
/// rebuild per call that blocks vectorization — measurably the hottest
/// instruction in the whole backend — so callers bound once, outside their
/// loops. Callers batch the `vfmas`/`fma_elems` counter updates per tile
/// for the same reason.
#[inline]
fn fma_bcast(acc: &mut [f32], w: &[f32], s: f32) {
    debug_assert_eq!(acc.len(), w.len());
    for (a, &b) in acc.iter_mut().zip(w) {
        *a += b * s;
    }
}

/// A run of [`fma_bcast`]s into one accumulator: `acc += wvs[i] * svals[i]`
/// applied sequentially (the simulator's tap order — the arithmetic is the
/// same unfused mul-then-add whichever variant runs). Small power-of-two
/// working lengths — the shapes where loop scaffolding would otherwise
/// dominate — dispatch to a const-length body so the accumulator stays in
/// SIMD registers across the whole run instead of round-tripping memory per
/// tap.
#[inline]
fn fma_run(acc: &mut [f32], wvs: &[&[f32]], svals: &[f32]) {
    match acc.len() {
        8 => fma_run_n::<8>(acc, wvs, svals),
        16 => fma_run_n::<16>(acc, wvs, svals),
        32 => fma_run_n::<32>(acc, wvs, svals),
        _ => {
            for (wv, &sv) in wvs.iter().zip(svals) {
                fma_bcast(acc, wv, sv);
            }
        }
    }
}

#[inline]
fn fma_run_n<const N: usize>(acc: &mut [f32], wvs: &[&[f32]], svals: &[f32]) {
    let acc: &mut [f32; N] = acc.try_into().unwrap();
    for (wv, &sv) in wvs.iter().zip(svals) {
        let wv: &[f32; N] = (*wv).try_into().unwrap();
        for i in 0..N {
            acc[i] += wv[i] * sv;
        }
    }
}

/// A sweep of one broadcast vector across consecutive accumulators:
/// `acc_row[c] += vs * svals[c]` (the backward-weights inner loop), with the
/// same const-length dispatch as [`fma_run`].
#[inline]
fn fma_sweep(acc_row: &mut [f32], vs: &[f32], svals: &[f32], vl: usize) {
    match vl {
        8 => fma_sweep_n::<8>(acc_row, vs, svals),
        16 => fma_sweep_n::<16>(acc_row, vs, svals),
        32 => fma_sweep_n::<32>(acc_row, vs, svals),
        _ => {
            for (acc, &sv) in acc_row.chunks_exact_mut(vl).zip(svals) {
                fma_bcast(acc, vs, sv);
            }
        }
    }
}

#[inline]
fn fma_sweep_n<const N: usize>(acc_row: &mut [f32], vs: &[f32], svals: &[f32]) {
    let vs: &[f32; N] = vs.try_into().unwrap();
    for (acc, &sv) in acc_row.chunks_exact_mut(N).zip(svals) {
        let acc: &mut [f32; N] = acc.try_into().unwrap();
        for i in 0..N {
            acc[i] += vs[i] * sv;
        }
    }
}

/// The address-contiguous runs `(offset, len)` of the channel chunk
/// `r0..r0 + cnt` in a `C_b = cb` layout: within one channel block
/// consecutive channels sit one float apart, so the hot loop reads each run
/// with one slice.
fn runs(r0: usize, cnt: usize, cb: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut i = 0;
    std::iter::from_fn(move || {
        (i < cnt).then(|| {
            let run = (cb - (r0 + i) % cb).min(cnt - i);
            i += run;
            (i - run, run)
        })
    })
}

/// Native lowering of [`crate::kernels::data::run`]: the same
/// [`TileWalk`], data ops executed on host memory.
pub(crate) fn run_data(
    cfg: &KernelConfig,
    p: &ConvProblem,
    arena: &mut Arena,
    t: &ConvTensors,
    images: Range<usize>,
    counters: &mut InstCounters,
) {
    let walk = TileWalk::new(cfg, p, images);
    let (acc_t, sca_t) = walk.roles.activations(t);
    // The weights are read-only here: one host copy per call lets the
    // per-(kh, kw) table of weight vectors outlive the arena writes of each
    // tile's writeback, so no tile allocates.
    let wei = &t.wei;
    let wmem = arena.slice(wei.base, wei.elems_padded()).to_vec();
    let mut wvs: Vec<&[f32]> = Vec::with_capacity(cfg.tile.c_i);
    let mut accs = AccFile::new(cfg.block(), cfg.vl);
    let cb = sca_t.layout.cb;
    for tile in walk.tiles() {
        let Tile {
            n,
            vb,
            c0,
            vl,
            r0,
            r_cnt,
            kh0,
            kh_cnt,
            kw0,
            kw_cnt,
            y0,
            rbh,
            x0,
            rbw,
            ..
        } = tile;

        // --- accumulator init (zero or reload partials).
        if tile.first_pass {
            accs.row(0, rbh * rbw, vl).fill(0.0);
        } else {
            load_block(
                arena, acc_t, n, c0, y0, x0, rbh, rbw, vl, &mut accs, counters,
            );
        }

        // --- inner (kh, kw, c_i) loop, in the simulator's exact
        // per-accumulator tap order: (kh, kw) outer, `c` fastest. The
        // spatial position of an accumulator is free to move outward — each
        // accumulator only sees its own taps — so the lowering walks
        // point-major: weight vectors resolved once per (kh, kw), the reached
        // rows and columns taken from the walk's tap maps (no per-point
        // checks), and per row each channel run sweeps the reached
        // accumulators with one address increment per point. Runs iterate
        // in ascending `c`, so every accumulator still receives its taps
        // `c`-fastest. The weight double-buffer is value-transparent: count
        // its pipelined loads, read at use; counters batch in locals.
        counters.vloads += (kh_cnt * kw_cnt * r_cnt) as u64;
        let mut taps = 0u64;
        for kh in kh0..kh0 + kh_cnt {
            let rows = walk.roles.rows.reach(y0, rbh, kh);
            if rows.count == 0 {
                continue;
            }
            for kw in kw0..kw0 + kw_cnt {
                let cols = walk.roles.cols.reach(x0, rbw, kw);
                if cols.count == 0 {
                    continue;
                }
                wvs.clear();
                wvs.extend((r0..r0 + r_cnt).map(|c| {
                    let at = ((wei.oc_vector_at(vb, c, kh, kw) - wei.base) / 4) as usize;
                    &wmem[at..at + vl]
                }));
                taps += (rows.count * cols.count * r_cnt) as u64;
                let sstep = (cols.coord_step * cb * 4) as u64;
                for (h, y) in rows.iter() {
                    let acc_row = accs.row(h * rbw, rbw, vl);
                    for (i, run) in runs(r0, r_cnt, cb) {
                        let mut saddr = sca_t.at(n, r0 + i, y, cols.coord);
                        let wv = &wvs[i..i + run];
                        if cols.step == 1 {
                            // The reached accumulators are contiguous:
                            // sweep them without per-point index checks.
                            let span =
                                &mut acc_row[cols.first * vl..(cols.first + cols.count) * vl];
                            for acc in span.chunks_exact_mut(vl) {
                                fma_run(acc, wv, arena.slice(saddr, run));
                                saddr += sstep;
                            }
                        } else {
                            for (w, _) in cols.iter() {
                                fma_run(
                                    &mut acc_row[w * vl..(w + 1) * vl],
                                    wv,
                                    arena.slice(saddr, run),
                                );
                                saddr += sstep;
                            }
                        }
                    }
                }
            }
        }
        counters.scalar_loads += taps;
        counters.vfmas += taps;
        counters.fma_elems += taps * vl as u64;

        // --- write partial sums back.
        store_block(arena, acc_t, n, c0, y0, x0, rbh, rbw, vl, &accs, counters);
    }
}

/// Native lowering of [`crate::kernels::bwd_weights::run`]: the same
/// [`WeightWalk`], `RB_c` accumulator chains held across the whole
/// `(n, oh, ow)` reduction, one store per finished `W_diff` vector.
pub(crate) fn run_bwd_weights(
    cfg: &KernelConfig,
    p: &ConvProblem,
    arena: &mut Arena,
    t: &ConvTensors,
    small_blocks: Range<usize>,
    counters: &mut InstCounters,
) {
    let walk = WeightWalk::new(cfg, p, small_blocks);
    let (vec_t, sca_t) = walk.roles.activations(t);
    let images = 0..p.n;
    let vl_max = cfg.vl;
    let lanes_max = act_vec_lanes(vec_t, vl_max);
    let mut accs = AccFile::new(cfg.rb_c, vl_max);
    let mut vbuf = vec![0.0f32; lanes_max.max(vl_max)];
    let (vec_cb, sca_cb) = (vec_t.layout.cb, sca_t.layout.cb);

    for tap in walk.taps() {
        let WeightTap {
            vb,
            c0,
            vl,
            cs0,
            rb_cur,
            kh,
            kw,
            rows,
            cols,
            ..
        } = tap;
        // The `rb_cur` scalar channels are address-consecutive when they sit
        // in one channel block — the common case, read via one slice.
        let sca_contig = cs0 % sca_cb + rb_cur <= sca_cb;
        let points = (images.len() * rows.count * cols.count) as u64;
        accs.row(0, rb_cur, vl).fill(0.0);
        // The spatial sweep over the tap's valid rectangle: per point one
        // vector load of the vectorized activations (software-pipelined in
        // the simulator — each point is loaded exactly once either way) and
        // `rb_cur` scalar-load + FMA pairs, in the walk's order.
        if vec_cb >= vl && sca_contig && cols.count > 0 {
            // Fast path: both operands are contiguous arena slices whose
            // addresses advance by a fixed stride per output column — hoist
            // the layout math to one base address per row and step
            // incrementally (the `cols.count > 0` guard keeps the hoisted
            // base addresses in bounds when the tap reaches no column).
            let vstep = ((if cfg.vec_over_ic { cols.coord_step } else { 1 }) * vec_cb * 4) as u64;
            let sstep = ((if cfg.vec_over_ic { 1 } else { cols.coord_step }) * sca_cb * 4) as u64;
            let voff = ((c0 % vec_cb) as u64) * 4;
            let acc_row = accs.row(0, rb_cur, vl);
            for n in images.clone() {
                for (oy, ih) in rows.iter() {
                    let (ox0, iw0) = (cols.first, cols.coord);
                    let ((y, x0), (sy, sx0)) = if cfg.vec_over_ic {
                        ((ih, iw0), (oy, ox0))
                    } else {
                        ((oy, ox0), (ih, iw0))
                    };
                    let mut vaddr = vec_t.block_at(n, c0 / vec_cb, y, x0) + voff;
                    let mut saddr = sca_t.at(n, cs0, sy, sx0);
                    for _ in 0..cols.count {
                        let vs = arena.slice(vaddr, vl);
                        let svals = arena.slice(saddr, rb_cur);
                        fma_sweep(acc_row, vs, svals, vl);
                        vaddr += vstep;
                        saddr += sstep;
                    }
                }
            }
        } else {
            for n in images.clone() {
                for (oy, ih) in rows.iter() {
                    for (ox, iw) in cols.iter() {
                        let (y, x) = if cfg.vec_over_ic { (ih, iw) } else { (oy, ox) };
                        let vslice: &[f32] = if vec_cb >= vl {
                            let addr =
                                vec_t.block_at(n, c0 / vec_cb, y, x) + ((c0 % vec_cb) as u64) * 4;
                            arena.slice(addr, vl)
                        } else {
                            gather_blocks(arena, vec_t, n, c0, y, x, vl, &mut vbuf);
                            &vbuf
                        };
                        let (sy, sx) = if cfg.vec_over_ic { (oy, ox) } else { (ih, iw) };
                        let vs = &vslice[..vl];
                        if sca_contig {
                            let svals = arena.slice(sca_t.at(n, cs0, sy, sx), rb_cur);
                            fma_sweep(accs.row(0, rb_cur, vl), vs, svals, vl);
                        } else {
                            for c in 0..rb_cur {
                                let sv = arena.read(sca_t.at(n, cs0 + c, sy, sx));
                                fma_bcast(accs.reg(c, vl), vs, sv);
                            }
                        }
                    }
                }
            }
        }
        if vec_cb >= vl {
            counters.vloads += points;
        } else {
            counters.gathers += points;
        }
        counters.scalar_loads += points * rb_cur as u64;
        counters.vfmas += points * rb_cur as u64;
        counters.fma_elems += points * (rb_cur * vl) as u64;
        for j in 0..rb_cur {
            counters.vstores += 1;
            let addr = t.wei.oc_vector_at(vb, cs0 + j, kh, kw);
            arena.store_slice(addr, accs.reg(j, vl));
        }
    }
}
