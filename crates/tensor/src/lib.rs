//! # lsv-tensor — rank-4 tensors and blocked memory layouts
//!
//! The paper's algorithms are defined as much by their *memory layouts* as by
//! their loop nests (Sections 4.2, 6.1, 6.3). This crate provides:
//!
//! * [`ActTensor`] — activation tensors `(N, C, H, W)` stored in the blocked
//!   layout `(N, C/C_b, H, W, C_b)` of Figure 1. The block factor `C_b` is a
//!   runtime parameter:
//!   - `C_b = min(C, N_vlen)` — the state-of-the-art / DC / BDC layout,
//!   - `C_b = N_cline` — the MBDC multi-block layout (Section 6.3),
//!   - `C_b = 1` — plain NCHW (used by the vednn baseline).
//! * [`WeiTensor`] — weight tensors `(OC, IC, KH, KW)` stored as
//!   `(OC/OC_b, IC/IC_b, KH, KW, IC_b, OC_b)`, including the *loop-resized*
//!   variant `(OC/OC_b, IC/N_cline, KH, KW, N_cline, OC_b)` of Section 6.1.
//! * NCHW/OIHW conversion for validation against the naive reference.
//!   Each copy borrows the tensor's arena extent once and moves one
//!   channel block at a time through a tiled transpose (block and lane
//!   indices are computed per block and per tile row, not per element);
//!   the per-element [`ActTensor::at`] / [`WeiTensor::at`] addresses are
//!   the oracle the tests hold the copies to. Tail-block padding is never
//!   written, so it keeps the zeros of the allocation.
//!
//! Tensors do not own their storage: data lives in an
//! [`lsv_vengine::Arena`] so the cache simulator sees real addresses.

use lsv_vengine::Arena;
use rand::distributions::{Distribution, Uniform};
use rand::SeedableRng;

/// Side of the square tiles a layout copy walks: a 32 x 32 tile of f32 is
/// 4 KiB on each side, so both sides' lines stay cached while it is walked.
const TILE: usize = 32;

/// Walk one block of a layout copy as `f(blocked, logical)` element-index
/// pairs: `rows x cols` elements, each repeated over `taps`, with
/// `blocked = r * b.0 + k * b.1 + c` (the blocked side's lanes are
/// contiguous) and `logical = r * l.0 + c * l.1 + k * l.2`. The walk goes
/// tile by tile over `(rows, cols)` with the taps inside a tile, so a
/// tile's lines on both sides are reused across its taps.
fn walk_block(
    (rows, cols, taps): (usize, usize, usize),
    b: (usize, usize),
    l: (usize, usize, usize),
    mut f: impl FnMut(usize, usize),
) {
    for r0 in (0..rows).step_by(TILE) {
        let r1 = (r0 + TILE).min(rows);
        for c0 in (0..cols).step_by(TILE) {
            let c1 = (c0 + TILE).min(cols);
            for k in 0..taps {
                for r in r0..r1 {
                    let (bi, li) = (r * b.0 + k * b.1, r * l.0 + k * l.2);
                    for c in c0..c1 {
                        f(bi + c, li + c * l.1);
                    }
                }
            }
        }
    }
}

/// Activation memory layout: channel-blocked `(N, C/cb, H, W, cb)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationLayout {
    /// Channel block size (`IC_b` / `OC_b` in the paper).
    pub cb: usize,
}

impl ActivationLayout {
    /// The state-of-the-art layout: `C_b = min(C, N_vlen)` (Section 4.2).
    pub fn vlen_blocked(c: usize, n_vlen: usize) -> Self {
        Self {
            cb: c.min(n_vlen).max(1),
        }
    }

    /// The MBDC multi-block layout: `C_b = N_cline` (Section 6.3).
    pub fn cline_blocked(c: usize, n_cline: usize) -> Self {
        Self {
            cb: c.min(n_cline).max(1),
        }
    }

    /// Plain NCHW (`C_b = 1`), used by the vednn baseline.
    pub fn nchw() -> Self {
        Self { cb: 1 }
    }
}

/// Weight memory layout: `(OC/ocb, IC/icb, KH, KW, icb, ocb)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightLayout {
    /// Inner IC block (`IC_b`, or `N_cline` after loop resizing).
    pub icb: usize,
    /// Inner OC block (`OC_b`).
    pub ocb: usize,
}

impl WeightLayout {
    /// State-of-the-art layout: both blocks tied to the vector length.
    pub fn vlen_blocked(ic: usize, oc: usize, n_vlen: usize) -> Self {
        Self {
            icb: ic.min(n_vlen).max(1),
            ocb: oc.min(n_vlen).max(1),
        }
    }

    /// Loop-resized layout (Section 6.1): IC block decoupled from the vector
    /// length and tied to the cache line.
    pub fn loop_resized(ic: usize, oc: usize, n_vlen: usize, n_cline: usize) -> Self {
        Self {
            icb: ic.min(n_cline).max(1),
            ocb: oc.min(n_vlen).max(1),
        }
    }

    /// Plain OIHW (both blocks 1), used by the vednn baseline.
    pub fn oihw() -> Self {
        Self { icb: 1, ocb: 1 }
    }
}

/// An activation tensor `(N, C, H, W)` resident in an [`Arena`].
#[derive(Debug, Clone, Copy)]
pub struct ActTensor {
    /// Minibatch size.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// Memory layout.
    pub layout: ActivationLayout,
    /// Base byte address in the arena.
    pub base: u64,
}

impl ActTensor {
    /// Allocate a zero-initialized activation tensor.
    pub fn alloc(
        arena: &mut Arena,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        layout: ActivationLayout,
    ) -> Self {
        let t = Self {
            n,
            c,
            h,
            w,
            layout,
            base: 0,
        };
        let mut t = t;
        t.base = arena.alloc_labeled(
            t.elems_padded(),
            &format!("act {n}x{c}x{h}x{w} cb={}", layout.cb),
        );
        t
    }

    /// Number of channel blocks (`C / C_b`, rounded up; the tail block is
    /// zero-padded).
    #[inline]
    pub fn c_blocks(&self) -> usize {
        self.c.div_ceil(self.layout.cb)
    }

    /// Total stored elements including tail-block padding.
    #[inline]
    pub fn elems_padded(&self) -> usize {
        self.n * self.c_blocks() * self.h * self.w * self.layout.cb
    }

    /// Logical element count (`N*C*H*W`).
    #[inline]
    pub fn elems(&self) -> usize {
        self.n * self.c * self.h * self.w
    }

    /// Byte address of element `(n, c, h, w)`: the sum of the image's base
    /// `block_at(n, 0, 0, 0)`, [`ActTensor::channel_offset`] and
    /// [`ActTensor::point_offset`], which is how a micro-kernel forms it
    /// from addresses computed once per channel and once per kernel tap.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> u64 {
        debug_assert!(n < self.n && c < self.c && h < self.h && w < self.w);
        let cb = self.layout.cb;
        let idx = (((n * self.c_blocks() + c / cb) * self.h + h) * self.w + w) * cb + c % cb;
        self.base + (idx as u64) * 4
    }

    /// Byte offset of channel `c` from channel 0 at the same `(n, h, w)`.
    #[inline]
    pub fn channel_offset(&self, c: usize) -> u64 {
        debug_assert!(c < self.c);
        let cb = self.layout.cb;
        (((c / cb) * self.h * self.w * cb + c % cb) * 4) as u64
    }

    /// Byte offset of spatial point `(h, w)` from `(0, 0)` in the same image
    /// and channel.
    #[inline]
    pub fn point_offset(&self, h: usize, w: usize) -> u64 {
        debug_assert!(h < self.h && w < self.w);
        ((h * self.w + w) * self.layout.cb * 4) as u64
    }

    /// Byte address of the first channel of block `cblk` at `(n, h, w)` —
    /// the address a unit-stride vector load/store of the block starts at
    /// (Algorithm 2 lines 12/19).
    #[inline]
    pub fn block_at(&self, n: usize, cblk: usize, h: usize, w: usize) -> u64 {
        debug_assert!(n < self.n && cblk < self.c_blocks() && h < self.h && w < self.w);
        let cb = self.layout.cb;
        let idx = (((n * self.c_blocks() + cblk) * self.h + h) * self.w + w) * cb;
        self.base + (idx as u64) * 4
    }

    /// Import from a logical NCHW host buffer (length `N*C*H*W`).
    pub fn store_nchw(&self, arena: &mut Arena, data: &[f32]) {
        assert_eq!(data.len(), self.elems(), "NCHW buffer length mismatch");
        let stored = arena.slice_mut(self.base, self.elems_padded());
        if self.layout.cb == 1 {
            stored.copy_from_slice(data);
            return;
        }
        self.walk(|b, l| stored[b] = data[l]);
    }

    /// Export to a logical NCHW host buffer.
    pub fn load_nchw(&self, arena: &Arena) -> Vec<f32> {
        let stored = arena.slice(self.base, self.elems_padded());
        if self.layout.cb == 1 {
            return stored.to_vec();
        }
        let mut out = vec![0.0; self.elems()];
        self.walk(|b, l| out[l] = stored[b]);
        out
    }

    /// Every logical element as a `(stored, nchw)` index pair: per image
    /// and channel block, the block's `(H*W, lanes)` plane is the transpose
    /// of its channels' NCHW rows.
    fn walk(&self, mut f: impl FnMut(usize, usize)) {
        let (cb, hw) = (self.layout.cb, self.h * self.w);
        for n in 0..self.n {
            for cblk in 0..self.c_blocks() {
                let c0 = cblk * cb;
                let lanes = cb.min(self.c - c0);
                let (b0, l0) = (
                    (n * self.c_blocks() + cblk) * hw * cb,
                    (n * self.c + c0) * hw,
                );
                walk_block((hw, lanes, 1), (cb, 0), (1, hw, 0), |b, l| {
                    f(b0 + b, l0 + l)
                });
            }
        }
    }

    /// Fill with deterministic pseudo-random values in `[-1, 1)`.
    pub fn fill_random(&self, arena: &mut Arena, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dist = Uniform::new(-1.0f32, 1.0);
        let data: Vec<f32> = (0..self.elems()).map(|_| dist.sample(&mut rng)).collect();
        self.store_nchw(arena, &data);
    }

    /// Zero all stored elements (including padding).
    pub fn zero(&self, arena: &mut Arena) {
        arena.fill(self.base, self.elems_padded(), 0.0);
    }
}

/// A weight tensor `(OC, IC, KH, KW)` resident in an [`Arena`].
#[derive(Debug, Clone, Copy)]
pub struct WeiTensor {
    /// Output channels.
    pub oc: usize,
    /// Input channels.
    pub ic: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Memory layout.
    pub layout: WeightLayout,
    /// Base byte address in the arena.
    pub base: u64,
}

impl WeiTensor {
    /// Allocate a zero-initialized weight tensor.
    pub fn alloc(
        arena: &mut Arena,
        oc: usize,
        ic: usize,
        kh: usize,
        kw: usize,
        layout: WeightLayout,
    ) -> Self {
        let mut t = Self {
            oc,
            ic,
            kh,
            kw,
            layout,
            base: 0,
        };
        t.base = arena.alloc_labeled(
            t.elems_padded(),
            &format!(
                "wei {oc}x{ic}x{kh}x{kw} icb={} ocb={}",
                layout.icb, layout.ocb
            ),
        );
        t
    }

    /// Number of IC blocks.
    #[inline]
    pub fn ic_blocks(&self) -> usize {
        self.ic.div_ceil(self.layout.icb)
    }

    /// Number of OC blocks.
    #[inline]
    pub fn oc_blocks(&self) -> usize {
        self.oc.div_ceil(self.layout.ocb)
    }

    /// Total stored elements including padding.
    #[inline]
    pub fn elems_padded(&self) -> usize {
        self.oc_blocks() * self.ic_blocks() * self.kh * self.kw * self.layout.icb * self.layout.ocb
    }

    /// Logical element count.
    #[inline]
    pub fn elems(&self) -> usize {
        self.oc * self.ic * self.kh * self.kw
    }

    /// Byte address of element `(oc, ic, kh, kw)`.
    #[inline]
    pub fn at(&self, oc: usize, ic: usize, kh: usize, kw: usize) -> u64 {
        debug_assert!(oc < self.oc && ic < self.ic && kh < self.kh && kw < self.kw);
        let (icb, ocb) = (self.layout.icb, self.layout.ocb);
        let idx = ((((oc / ocb * self.ic_blocks() + ic / icb) * self.kh + kh) * self.kw + kw)
            * icb
            + ic % icb)
            * ocb
            + oc % ocb;
        self.base + (idx as u64) * 4
    }

    /// Byte address of the OC-block vector at `(oc_blk, ic, kh, kw)` — the
    /// address the micro-kernel's weights vector load starts at
    /// (Algorithm 2 line 14): the tap's [`WeiTensor::oc_tap_at`] plus
    /// [`WeiTensor::ic_offset`].
    #[inline]
    pub fn oc_vector_at(&self, oc_blk: usize, ic: usize, kh: usize, kw: usize) -> u64 {
        self.oc_tap_at(oc_blk, kh, kw) + self.ic_offset(ic)
    }

    /// Byte address of the OC-block vector of input channel 0 at kernel tap
    /// `(kh, kw)`.
    #[inline]
    pub fn oc_tap_at(&self, oc_blk: usize, kh: usize, kw: usize) -> u64 {
        debug_assert!(oc_blk < self.oc_blocks() && kh < self.kh && kw < self.kw);
        let (icb, ocb) = (self.layout.icb, self.layout.ocb);
        let idx = (((oc_blk * self.ic_blocks() * self.kh + kh) * self.kw + kw) * icb) * ocb;
        self.base + (idx as u64) * 4
    }

    /// Byte offset of input channel `ic`'s OC-block vector from channel 0's
    /// at the same kernel tap.
    #[inline]
    pub fn ic_offset(&self, ic: usize) -> u64 {
        debug_assert!(ic < self.ic);
        let (icb, ocb) = (self.layout.icb, self.layout.ocb);
        ((((ic / icb) * self.kh * self.kw * icb + ic % icb) * ocb) * 4) as u64
    }

    /// Import from a logical OIHW host buffer (length `OC*IC*KH*KW`).
    pub fn store_oihw(&self, arena: &mut Arena, data: &[f32]) {
        self.store(arena, data, false);
    }

    /// Export to a logical OIHW host buffer.
    pub fn load_oihw(&self, arena: &Arena) -> Vec<f32> {
        self.load(arena, false)
    }

    /// Import from a host buffer with the channel dimensions swapped,
    /// `(IC, OC, KH, KW)` in this tensor's terms: the tensor holds a pass's
    /// weights role-swapped, its `oc` rows being the buffer's input
    /// channels (length `OC*IC*KH*KW`).
    pub fn store_iohw(&self, arena: &mut Arena, data: &[f32]) {
        self.store(arena, data, true);
    }

    /// Export to a host buffer with the channel dimensions swapped, the
    /// inverse of [`WeiTensor::store_iohw`].
    pub fn load_iohw(&self, arena: &Arena) -> Vec<f32> {
        self.load(arena, true)
    }

    fn store(&self, arena: &mut Arena, data: &[f32], swapped: bool) {
        assert_eq!(data.len(), self.elems(), "weights buffer length mismatch");
        let stored = arena.slice_mut(self.base, self.elems_padded());
        if self.is_logical_order(swapped) {
            stored.copy_from_slice(data);
            return;
        }
        self.walk(swapped, |b, l| stored[b] = data[l]);
    }

    fn load(&self, arena: &Arena, swapped: bool) -> Vec<f32> {
        let stored = arena.slice(self.base, self.elems_padded());
        if self.is_logical_order(swapped) {
            return stored.to_vec();
        }
        let mut out = vec![0.0; self.elems()];
        self.walk(swapped, |b, l| out[l] = stored[b]);
        out
    }

    /// Whether the stored layout is the host buffer's order element for
    /// element (plain OIHW, unswapped), so a copy is one `memcpy`.
    fn is_logical_order(&self, swapped: bool) -> bool {
        !swapped && self.layout.icb == 1 && self.layout.ocb == 1
    }

    /// Every logical element as a `(stored, host)` index pair: per
    /// `(OC, IC)` block, each tap's `(IC_b, OC_b)` tile is the transpose of
    /// the block's host rows, whose strides depend on `swapped`.
    fn walk(&self, swapped: bool, mut f: impl FnMut(usize, usize)) {
        let (icb, ocb) = (self.layout.icb, self.layout.ocb);
        let taps = self.kh * self.kw;
        // Host strides of the tensor's (oc, ic) indices.
        let (o_stride, i_stride) = if swapped {
            (taps, self.oc * taps)
        } else {
            (self.ic * taps, taps)
        };
        let block = taps * icb * ocb;
        for ob in 0..self.oc_blocks() {
            let (o0, ocv) = (ob * ocb, ocb.min(self.oc - ob * ocb));
            for ib in 0..self.ic_blocks() {
                let (i0, icv) = (ib * icb, icb.min(self.ic - ib * icb));
                let b0 = (ob * self.ic_blocks() + ib) * block;
                let l0 = o0 * o_stride + i0 * i_stride;
                walk_block(
                    (icv, ocv, taps),
                    (ocb, icb * ocb),
                    (i_stride, o_stride, 1),
                    |b, l| f(b0 + b, l0 + l),
                );
            }
        }
    }

    /// Fill with deterministic pseudo-random values in `[-1, 1)`.
    pub fn fill_random(&self, arena: &mut Arena, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dist = Uniform::new(-1.0f32, 1.0);
        let data: Vec<f32> = (0..self.elems()).map(|_| dist.sample(&mut rng)).collect();
        self.store_oihw(arena, &data);
    }

    /// Zero all stored elements (including padding).
    pub fn zero(&self, arena: &mut Arena) {
        arena.fill(self.base, self.elems_padded(), 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_blocked_offsets_match_figure1() {
        // Figure 1: the channel block interleaves channel data for adjacent
        // spatial points: (n, cblk, h, w, cb) order.
        let mut arena = Arena::new();
        let t = ActTensor::alloc(&mut arena, 1, 64, 4, 4, ActivationLayout { cb: 32 });
        // channel 0..31 at (0,0,0) are contiguous
        assert_eq!(t.at(0, 1, 0, 0), t.at(0, 0, 0, 0) + 4);
        // channel 32 starts a new block: whole H*W*cb plane away
        assert_eq!(
            t.at(0, 32, 0, 0),
            t.at(0, 0, 0, 0) + (4 * 4 * 32 * 4) as u64
        );
        // next spatial point is cb elements away (the Figure 3 stride!)
        assert_eq!(t.at(0, 0, 0, 1), t.at(0, 0, 0, 0) + (32 * 4) as u64);
        assert_eq!(t.block_at(0, 0, 0, 1), t.at(0, 0, 0, 1));
    }

    #[test]
    fn nchw_is_cb1() {
        let mut arena = Arena::new();
        let t = ActTensor::alloc(&mut arena, 2, 3, 4, 5, ActivationLayout::nchw());
        // NCHW: w is innermost
        assert_eq!(t.at(0, 0, 0, 1), t.at(0, 0, 0, 0) + 4);
        assert_eq!(t.at(0, 1, 0, 0), t.at(0, 0, 0, 0) + (4 * 5 * 4) as u64);
        assert_eq!(t.at(1, 0, 0, 0), t.at(0, 0, 0, 0) + (3 * 4 * 5 * 4) as u64);
    }

    #[test]
    fn store_load_nchw_roundtrip() {
        let mut arena = Arena::new();
        let t = ActTensor::alloc(&mut arena, 2, 7, 3, 5, ActivationLayout { cb: 4 });
        let data: Vec<f32> = (0..t.elems()).map(|i| i as f32).collect();
        t.store_nchw(&mut arena, &data);
        assert_eq!(t.load_nchw(&arena), data);
    }

    #[test]
    fn tail_block_is_padded() {
        let mut arena = Arena::new();
        // C=7, cb=4 -> 2 blocks, 8 slots per spatial point.
        let t = ActTensor::alloc(&mut arena, 1, 7, 2, 2, ActivationLayout { cb: 4 });
        assert_eq!(t.c_blocks(), 2);
        assert_eq!(t.elems_padded(), 2 * 2 * 2 * 4);
        let data: Vec<f32> = (0..t.elems()).map(|_| 1.0).collect();
        t.store_nchw(&mut arena, &data);
        // Padding slot (channel 7 of block 1) stays zero.
        let pad_addr = t.block_at(0, 1, 0, 0) + 3 * 4;
        assert_eq!(arena.read(pad_addr), 0.0);
    }

    #[test]
    fn weight_blocked_offsets() {
        let mut arena = Arena::new();
        let t = WeiTensor::alloc(&mut arena, 8, 6, 3, 3, WeightLayout { icb: 2, ocb: 4 });
        // oc innermost within block
        assert_eq!(t.at(1, 0, 0, 0), t.at(0, 0, 0, 0) + 4);
        // ic next
        assert_eq!(t.at(0, 1, 0, 0), t.at(0, 0, 0, 0) + (4 * 4) as u64);
        // kw next: icb*ocb
        assert_eq!(t.at(0, 0, 0, 1), t.at(0, 0, 0, 0) + (2 * 4 * 4) as u64);
        assert_eq!(t.oc_vector_at(0, 1, 0, 0), t.at(0, 1, 0, 0));
        assert_eq!(t.oc_vector_at(1, 0, 2, 2), t.at(4, 0, 2, 2));
    }

    /// The per-channel and per-tap parts a micro-kernel adds up name the
    /// same element as the direct address, across tail blocks.
    #[test]
    fn address_parts_sum_to_the_element_address() {
        let mut arena = Arena::new();
        let a = ActTensor::alloc(&mut arena, 2, 7, 3, 5, ActivationLayout { cb: 4 });
        for n in 0..a.n {
            for c in 0..a.c {
                for h in 0..a.h {
                    for w in 0..a.w {
                        let parts =
                            a.block_at(n, 0, 0, 0) + a.channel_offset(c) + a.point_offset(h, w);
                        assert_eq!(parts, a.at(n, c, h, w), "({n}, {c}, {h}, {w})");
                    }
                }
            }
        }
        let t = WeiTensor::alloc(&mut arena, 8, 7, 3, 2, WeightLayout { icb: 2, ocb: 4 });
        for ob in 0..t.oc_blocks() {
            for ic in 0..t.ic {
                for kh in 0..t.kh {
                    for kw in 0..t.kw {
                        assert_eq!(
                            t.oc_vector_at(ob, ic, kh, kw),
                            t.at(ob * 4, ic, kh, kw),
                            "({ob}, {ic}, {kh}, {kw})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn store_load_oihw_roundtrip() {
        let mut arena = Arena::new();
        let t = WeiTensor::alloc(&mut arena, 5, 7, 3, 3, WeightLayout { icb: 4, ocb: 4 });
        let data: Vec<f32> = (0..t.elems()).map(|i| (i as f32).sin()).collect();
        t.store_oihw(&mut arena, &data);
        assert_eq!(t.load_oihw(&arena), data);
    }

    #[test]
    fn layout_constructors() {
        let l = ActivationLayout::vlen_blocked(2048, 512);
        assert_eq!(l.cb, 512);
        let l = ActivationLayout::vlen_blocked(64, 512);
        assert_eq!(l.cb, 64, "dynamic blocking: C_b = min(C, N_vlen)");
        let l = ActivationLayout::cline_blocked(2048, 32);
        assert_eq!(l.cb, 32);
        let w = WeightLayout::loop_resized(1024, 256, 512, 32);
        assert_eq!(w.icb, 32);
        assert_eq!(w.ocb, 256);
    }

    #[test]
    fn fill_random_is_deterministic() {
        let mut a1 = Arena::new();
        let mut a2 = Arena::new();
        let t1 = ActTensor::alloc(&mut a1, 1, 4, 3, 3, ActivationLayout { cb: 2 });
        let t2 = ActTensor::alloc(&mut a2, 1, 4, 3, 3, ActivationLayout::nchw());
        t1.fill_random(&mut a1, 42);
        t2.fill_random(&mut a2, 42);
        assert_eq!(
            t1.load_nchw(&a1),
            t2.load_nchw(&a2),
            "layout-independent content"
        );
    }
}
