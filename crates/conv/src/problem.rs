//! Convolution problem descriptors (Section 2's tensor-shape conventions).

use std::fmt;
use std::ops::Range;

/// Training pass direction (Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Forward data: `D = conv(S, W)`.
    Fwd,
    /// Backward data: `S_diff = conv*(D_diff, W)`.
    BwdData,
    /// Backward weights: `W_diff = conv*(S, D_diff)`.
    BwdWeights,
}

impl Direction {
    /// All three directions in the paper's Figure 4 order.
    pub const ALL: [Direction; 3] = [Direction::Fwd, Direction::BwdData, Direction::BwdWeights];

    /// The short name used in the paper and the artifact CSVs.
    pub fn short_name(&self) -> &'static str {
        match self {
            Direction::Fwd => "fwdd",
            Direction::BwdData => "bwdd",
            Direction::BwdWeights => "bwdw",
        }
    }

    /// The operand the pass computes; the other two are its inputs.
    pub fn output(self) -> Operand {
        match self {
            Direction::Fwd => Operand::Dst,
            Direction::BwdData => Operand::Src,
            Direction::BwdWeights => Operand::Wei,
        }
    }
}

/// One of a convolution's three operand tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Source activations `S` (`S_diff` as backward data's output).
    Src,
    /// Weights `W` (`W_diff` as backward weights' output).
    Wei,
    /// Destination activations `D` (`D_diff` as a backward input).
    Dst,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Convolution algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Direct Convolution for long SIMD architectures (Section 4) — the
    /// state-of-the-art baseline.
    Dc,
    /// Bounded Direct Convolution (Section 6.2).
    Bdc,
    /// Multi-Block Direct Convolution (Section 6.3).
    Mbdc,
}

impl Algorithm {
    /// The three direct algorithms in the paper's plotting order.
    pub const ALL: [Algorithm; 3] = [Algorithm::Dc, Algorithm::Bdc, Algorithm::Mbdc];

    /// Display name matching the paper.
    pub fn short_name(&self) -> &'static str {
        match self {
            Algorithm::Dc => "DC",
            Algorithm::Bdc => "BDC",
            Algorithm::Mbdc => "MBDC",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// A 2-D convolution problem: `S (N, IC, IH, IW)` * `W (OC, IC, KH, KW)`
/// -> `D (N, OC, OH, OW)` with per-axis stride and padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvProblem {
    /// Minibatch size `N`.
    pub n: usize,
    /// Input feature maps `IC`.
    pub ic: usize,
    /// Output feature maps `OC`.
    pub oc: usize,
    /// Input height `IH`.
    pub ih: usize,
    /// Input width `IW`.
    pub iw: usize,
    /// Kernel height `KH`.
    pub kh: usize,
    /// Kernel width `KW`.
    pub kw: usize,
    /// Vertical stride `C_str,h`.
    pub stride_h: usize,
    /// Horizontal stride `C_str,w`.
    pub stride_w: usize,
    /// Vertical zero padding `C_pad,h`.
    pub pad_h: usize,
    /// Horizontal zero padding `C_pad,w`.
    pub pad_w: usize,
}

impl ConvProblem {
    /// Construct a problem with symmetric stride and padding (the paper's
    /// geometry domain).
    ///
    /// # Panics
    /// Panics where [`ConvProblem::try_new`] returns an error.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: usize,
        ic: usize,
        oc: usize,
        ih: usize,
        iw: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Self::new_asym(n, ic, oc, ih, iw, kh, kw, stride, stride, pad, pad)
    }

    /// Construct a problem with independent per-axis stride and padding
    /// (rectangular geometries: `1x7` kernels, `2x1` strides, one-sided-axis
    /// padding).
    ///
    /// # Panics
    /// Panics where [`ConvProblem::try_new`] returns an error.
    #[allow(clippy::too_many_arguments)]
    pub fn new_asym(
        n: usize,
        ic: usize,
        oc: usize,
        ih: usize,
        iw: usize,
        kh: usize,
        kw: usize,
        stride_h: usize,
        stride_w: usize,
        pad_h: usize,
        pad_w: usize,
    ) -> Self {
        Self::try_new(n, ic, oc, ih, iw, kh, kw, stride_h, stride_w, pad_h, pad_w)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one validity rule of a problem: every dimension and stride is
    /// positive and the kernel fits the padded input on both axes, so the
    /// output shape is non-empty. Returns the violated rule otherwise.
    #[allow(clippy::too_many_arguments)]
    pub fn try_new(
        n: usize,
        ic: usize,
        oc: usize,
        ih: usize,
        iw: usize,
        kh: usize,
        kw: usize,
        stride_h: usize,
        stride_w: usize,
        pad_h: usize,
        pad_w: usize,
    ) -> Result<Self, String> {
        if [n, ic, oc, ih, iw, kh, kw].contains(&0) {
            return Err(format!(
                "minibatch, channels, image and kernel sizes must be positive \
                 (n {n}, ic {ic}, oc {oc}, ih {ih}, iw {iw}, kh {kh}, kw {kw})"
            ));
        }
        if stride_h == 0 || stride_w == 0 {
            return Err("stride must be positive".to_string());
        }
        if ih + 2 * pad_h < kh || iw + 2 * pad_w < kw {
            return Err(format!(
                "kernel larger than padded input ({kh}x{kw} kernel, \
                 {ih}x{iw} input padded by {pad_h}x{pad_w})"
            ));
        }
        Ok(Self {
            n,
            ic,
            oc,
            ih,
            iw,
            kh,
            kw,
            stride_h,
            stride_w,
            pad_h,
            pad_w,
        })
    }

    /// Same problem with a different minibatch size.
    ///
    /// # Panics
    /// Panics if `n` is zero, like [`ConvProblem::new`] does.
    pub fn with_minibatch(&self, n: usize) -> Self {
        assert!(n > 0, "minibatch must be positive");
        let mut p = *self;
        p.n = n;
        p
    }

    /// True when stride and padding are symmetric across both spatial axes —
    /// the geometry domain of the paper's experiments.
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        self.stride_h == self.stride_w && self.pad_h == self.pad_w
    }

    /// Output height `OH`.
    #[inline]
    pub fn oh(&self) -> usize {
        (self.ih + 2 * self.pad_h - self.kh) / self.stride_h + 1
    }

    /// Output width `OW`.
    #[inline]
    pub fn ow(&self) -> usize {
        (self.iw + 2 * self.pad_w - self.kw) / self.stride_w + 1
    }

    /// Multiply-accumulate count of one pass (identical for all three
    /// directions), i.e. `N*OC*OH*OW*IC*KH*KW`.
    pub fn macs(&self) -> u64 {
        self.n as u64
            * self.oc as u64
            * self.oh() as u64
            * self.ow() as u64
            * self.ic as u64
            * self.kh as u64
            * self.kw as u64
    }

    /// Floating-point operations of one pass (2 per MAC) — the numerator of
    /// the paper's GFLOP/s metric.
    pub fn flops(&self) -> u64 {
        2 * self.macs()
    }
}

/// Output positions `o` in `0..out` whose input coordinate
/// `o * stride + k - pad` falls inside `0..len`, for kernel offset `k`: the
/// outputs kernel tap `k` reaches along one axis. Every backend and the
/// naive reference derive tap validity from this one function.
pub fn taps(out: usize, stride: usize, k: usize, pad: usize, len: usize) -> Range<usize> {
    let lo = pad.saturating_sub(k).div_ceil(stride);
    let hi = if len + pad > k {
        ((len + pad - k - 1) / stride + 1).min(out)
    } else {
        0
    };
    lo..hi.max(lo)
}

impl fmt::Display for ConvProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Symmetric problems keep the historical format so artifact CSVs and
        // the golden-cycle fixture stay bit-identical.
        if self.is_symmetric() {
            write!(
                f,
                "n{}ic{}oc{}ih{}iw{}kh{}kw{}s{}p{}",
                self.n,
                self.ic,
                self.oc,
                self.ih,
                self.iw,
                self.kh,
                self.kw,
                self.stride_w,
                self.pad_w
            )
        } else {
            write!(
                f,
                "n{}ic{}oc{}ih{}iw{}kh{}kw{}s{}x{}p{}x{}",
                self.n,
                self.ic,
                self.oc,
                self.ih,
                self.iw,
                self.kh,
                self.kw,
                self.stride_h,
                self.stride_w,
                self.pad_h,
                self.pad_w
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shapes_match_table3() {
        // Table 3 rows (ID, IC, OC, IH/IW, OH/OW, K, stride, pad).
        let l0 = ConvProblem::new(256, 64, 256, 56, 56, 1, 1, 1, 0);
        assert_eq!((l0.oh(), l0.ow()), (56, 56));
        let l2 = ConvProblem::new(256, 64, 64, 56, 56, 3, 3, 1, 1);
        assert_eq!((l2.oh(), l2.ow()), (56, 56));
        let l4 = ConvProblem::new(256, 256, 512, 56, 56, 1, 1, 2, 0);
        assert_eq!((l4.oh(), l4.ow()), (28, 28));
        let l16 = ConvProblem::new(256, 512, 512, 7, 7, 3, 3, 1, 1);
        assert_eq!((l16.oh(), l16.ow()), (7, 7));
    }

    #[test]
    fn flops_formula() {
        let p = ConvProblem::new(2, 3, 4, 8, 8, 3, 3, 1, 1);
        assert_eq!(p.flops(), 2 * 2 * 4 * 8 * 8 * 3 * 3 * 3);
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn rejects_kernel_larger_than_input() {
        ConvProblem::new(1, 1, 1, 2, 2, 5, 5, 1, 0);
    }

    #[test]
    fn with_minibatch_only_changes_n() {
        let p = ConvProblem::new(256, 64, 64, 56, 56, 3, 3, 1, 1);
        let q = p.with_minibatch(8);
        assert_eq!(q.n, 8);
        assert_eq!(q.ic, p.ic);
        assert_eq!(q.oh(), p.oh());
    }

    #[test]
    #[should_panic(expected = "minibatch must be positive")]
    fn with_minibatch_rejects_zero() {
        let p = ConvProblem::new(256, 64, 64, 56, 56, 3, 3, 1, 1);
        let _ = p.with_minibatch(0);
    }

    #[test]
    fn asymmetric_output_shapes() {
        // SConv-style rectangular kernels: 1x7 stride 1x2, pad 0x3.
        let p = ConvProblem::new_asym(1, 8, 8, 14, 14, 1, 7, 1, 2, 0, 3);
        assert_eq!((p.oh(), p.ow()), (14, 7));
        assert!(!p.is_symmetric());
        // 7x1 transpose with the strides swapped.
        let q = ConvProblem::new_asym(1, 8, 8, 14, 14, 7, 1, 2, 1, 3, 0);
        assert_eq!((q.oh(), q.ow()), (7, 14));
    }

    #[test]
    fn display_keeps_legacy_format_when_symmetric() {
        let p = ConvProblem::new(8, 64, 64, 56, 56, 3, 3, 2, 1);
        assert_eq!(p.to_string(), "n8ic64oc64ih56iw56kh3kw3s2p1");
        let q = ConvProblem::new_asym(8, 64, 64, 56, 56, 3, 3, 2, 1, 1, 0);
        assert_eq!(q.to_string(), "n8ic64oc64ih56iw56kh3kw3s2x1p1x0");
    }

    #[test]
    fn try_new_names_the_violated_rule() {
        let bad = |r: Result<ConvProblem, String>| r.unwrap_err();
        assert!(bad(ConvProblem::try_new(0, 1, 1, 4, 4, 1, 1, 1, 1, 0, 0)).contains("positive"));
        assert!(bad(ConvProblem::try_new(1, 1, 1, 4, 4, 1, 1, 0, 1, 0, 0)).contains("stride"));
        assert!(
            bad(ConvProblem::try_new(1, 1, 1, 2, 2, 5, 5, 1, 1, 1, 1)).contains("kernel larger")
        );
        assert_eq!(
            ConvProblem::try_new(2, 3, 4, 8, 8, 3, 3, 1, 1, 1, 1),
            Ok(ConvProblem::new(2, 3, 4, 8, 8, 3, 3, 1, 1))
        );
    }

    #[test]
    fn taps_cover_exactly_the_in_image_outputs() {
        for (out, stride, k, pad, len) in [
            (4, 1, 0, 1, 4),
            (4, 1, 2, 1, 4),
            (2, 3, 0, 0, 4),
            (3, 2, 4, 4, 2),
            (5, 1, 0, 4, 2),
        ] {
            let want: Vec<usize> = (0..out)
                .filter(|&o| {
                    (0..len as isize).contains(&((o * stride + k) as isize - pad as isize))
                })
                .collect();
            assert_eq!(taps(out, stride, k, pad, len).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn rejects_kernel_larger_than_padded_axis() {
        ConvProblem::new_asym(1, 1, 1, 8, 2, 1, 5, 1, 1, 0, 1);
    }
}
