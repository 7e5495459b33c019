//! # lsv-models — ResNet convolution workloads
//!
//! * [`resnet_layers`] — the 19-layer suite of the paper's Table 3 (the
//!   distinct convolution shapes of the ResNet bottleneck models on
//!   ImageNet).
//! * [`ResNetModel`] — ResNet-50/101/152 with per-layer occurrence counts
//!   derived from the bottleneck block structure (`[3,4,6,3]`, `[3,4,23,3]`,
//!   `[3,8,36,3]`), used by the paper's Figures 5 and 6 ("each layer appears
//!   a different number of times on each model; e.g. layer IDs 11-13 are
//!   more frequent in the larger models").

use lsv_conv::ConvProblem;

/// Number of distinct layer shapes in Table 3.
pub const NUM_LAYERS: usize = 19;

/// Rows of Table 3: `(IC, OC, IH/IW, OH/OW, KH/KW, stride, pad)`.
pub const TABLE3: [(usize, usize, usize, usize, usize, usize, usize); NUM_LAYERS] = [
    (64, 256, 56, 56, 1, 1, 0),   // 0
    (64, 64, 56, 56, 1, 1, 0),    // 1
    (64, 64, 56, 56, 3, 1, 1),    // 2
    (256, 64, 56, 56, 1, 1, 0),   // 3
    (256, 512, 56, 28, 1, 2, 0),  // 4
    (256, 128, 56, 28, 1, 2, 0),  // 5
    (128, 128, 28, 28, 3, 1, 1),  // 6
    (128, 512, 28, 28, 1, 1, 0),  // 7
    (512, 128, 28, 28, 1, 1, 0),  // 8
    (512, 1024, 28, 14, 1, 2, 0), // 9
    (512, 256, 28, 14, 1, 2, 0),  // 10
    (256, 256, 14, 14, 3, 1, 1),  // 11
    (256, 1024, 14, 14, 1, 1, 0), // 12
    (1024, 256, 14, 14, 1, 1, 0), // 13
    (1024, 2048, 14, 7, 1, 2, 0), // 14
    (1024, 512, 14, 7, 1, 2, 0),  // 15
    (512, 512, 7, 7, 3, 1, 1),    // 16
    (512, 2048, 7, 7, 1, 1, 0),   // 17
    (2048, 512, 7, 7, 1, 1, 0),   // 18
];

/// The Table 3 layer suite at a given minibatch size (the paper uses 256 for
/// Figure 4, and sweeps {8..256} in Figure 6).
pub fn resnet_layers(minibatch: usize) -> Vec<ConvProblem> {
    TABLE3
        .iter()
        .map(|&(ic, oc, ihw, _ohw, k, s, pad)| {
            ConvProblem::new(minibatch, ic, oc, ihw, ihw, k, k, s, pad)
        })
        .collect()
}

/// One Table 3 layer by id.
///
/// # Panics
/// Panics if `id >= 19`.
pub fn resnet_layer(id: usize, minibatch: usize) -> ConvProblem {
    let (ic, oc, ihw, _ohw, k, s, pad) = TABLE3[id];
    ConvProblem::new(minibatch, ic, oc, ihw, ihw, k, k, s, pad)
}

/// A ResNet model variant (bottleneck architecture on 224x224 ImageNet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResNetModel {
    /// ResNet-50: blocks `[3, 4, 6, 3]`.
    R50,
    /// ResNet-101: blocks `[3, 4, 23, 3]`.
    R101,
    /// ResNet-152: blocks `[3, 8, 36, 3]`.
    R152,
}

impl ResNetModel {
    /// All three models in the Figure 5 order.
    pub const ALL: [ResNetModel; 3] = [ResNetModel::R50, ResNetModel::R101, ResNetModel::R152];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ResNetModel::R50 => "resnet-50",
            ResNetModel::R101 => "resnet-101",
            ResNetModel::R152 => "resnet-152",
        }
    }

    /// Bottleneck block counts per stage `[conv2, conv3, conv4, conv5]`.
    pub fn blocks(&self) -> [usize; 4] {
        match self {
            ResNetModel::R50 => [3, 4, 6, 3],
            ResNetModel::R101 => [3, 4, 23, 3],
            ResNetModel::R152 => [3, 8, 36, 3],
        }
    }

    /// How many times each Table 3 layer id occurs in one training step of
    /// this model.
    ///
    /// Per stage with `b` blocks the bottleneck structure contributes:
    /// the strided shortcut and strided reduce once, the 3x3 and the expand
    /// `b` times, and the wide-input reduce `b - 1` times. Stage 2 keeps the
    /// stem-width variants (ids 0-3) of Table 3.
    pub fn layer_counts(&self) -> [usize; NUM_LAYERS] {
        let [b2, b3, b4, b5] = self.blocks();
        [
            b2 + 1, // 0: 64->256 expand (every block) + downsample shortcut
            1,      // 1: 64->64 reduce (first block only, stem input)
            b2,     // 2: 64->64 3x3
            b2 - 1, // 3: 256->64 reduce (blocks 2..)
            1,      // 4: 256->512 s2 shortcut
            1,      // 5: 256->128 s2 reduce
            b3,     // 6: 128x128 3x3
            b3,     // 7: 128->512 expand
            b3 - 1, // 8: 512->128 reduce
            1,      // 9: 512->1024 s2 shortcut
            1,      // 10: 512->256 s2 reduce
            b4,     // 11: 256x256 3x3
            b4,     // 12: 256->1024 expand
            b4 - 1, // 13: 1024->256 reduce
            1,      // 14: 1024->2048 s2 shortcut
            1,      // 15: 1024->512 s2 reduce
            b5,     // 16: 512x512 3x3
            b5,     // 17: 512->2048 expand
            b5 - 1, // 18: 2048->512 reduce
        ]
    }

    /// Total convolution layers in one forward pass.
    pub fn total_conv_layers(&self) -> usize {
        self.layer_counts().iter().sum()
    }

    /// Total MAC flops (x2) of one pass over all convolutions at a given
    /// minibatch.
    pub fn total_flops(&self, minibatch: usize) -> u64 {
        let counts = self.layer_counts();
        resnet_layers(minibatch)
            .iter()
            .zip(counts)
            .map(|(p, c)| p.flops() * c as u64)
            .sum()
    }

    /// Passes in one training step: forward + backward-data +
    /// backward-weights, each touching the same convolution volume.
    pub const TRAINING_PASSES: u64 = 3;

    /// Flops of one inference pass (forward only) over all convolutions.
    pub fn inference_flops(&self, minibatch: usize) -> u64 {
        self.total_flops(minibatch)
    }

    /// Flops of one training step — the Figures 5/6 "x3 passes" factor.
    /// Every model-level GFLOP/s number must come through here (or
    /// [`ResNetModel::inference_flops`]) so the factor cannot drift between
    /// call sites.
    pub fn training_flops(&self, minibatch: usize) -> u64 {
        Self::TRAINING_PASSES * self.total_flops(minibatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_output_shapes_are_consistent() {
        for (i, &(_, _, _ihw, ohw, ..)) in TABLE3.iter().enumerate() {
            let p = resnet_layer(i, 256);
            assert_eq!(p.oh(), ohw, "layer {i} OH");
            assert_eq!(p.ow(), ohw, "layer {i} OW");
        }
    }

    #[test]
    fn layer_counts_sum_to_model_depth() {
        // Bottleneck conv count: 3 per block + 4 downsample shortcuts.
        // ResNet-50: 16 blocks -> 48 + 4 = 52 convs (53 layers minus the
        // stem conv, which Table 3 excludes as it is a 7x7/stride-2 stem).
        assert_eq!(ResNetModel::R50.total_conv_layers(), 52);
        // ResNet-101: 33 blocks -> 99 + 4 = 103.
        assert_eq!(ResNetModel::R101.total_conv_layers(), 103);
        // ResNet-152: 50 blocks -> 150 + 4 = 154.
        assert_eq!(ResNetModel::R152.total_conv_layers(), 154);
    }

    #[test]
    fn late_layers_more_frequent_in_larger_models() {
        // The paper: "layer IDs 11-13 are more frequent in the larger models".
        let c50 = ResNetModel::R50.layer_counts();
        let c101 = ResNetModel::R101.layer_counts();
        let c152 = ResNetModel::R152.layer_counts();
        for id in 11..=13 {
            assert!(c101[id] > c50[id]);
            assert!(c152[id] > c101[id]);
        }
    }

    #[test]
    fn flops_scale_linearly_with_minibatch() {
        let m = ResNetModel::R101;
        assert_eq!(m.total_flops(32) * 8, m.total_flops(256));
    }

    #[test]
    fn training_is_exactly_three_inference_passes() {
        for m in ResNetModel::ALL {
            for mb in [1, 8, 256] {
                assert_eq!(m.inference_flops(mb), m.total_flops(mb));
                assert_eq!(m.training_flops(mb), 3 * m.inference_flops(mb));
            }
        }
    }

    #[test]
    fn resnet50_flops_are_plausible() {
        // ResNet-50 convolutions are ~3.7 GMAC per 224x224 image (the
        // well-known "~3.8G" figure counts multiply-adds; x2 for FLOPs).
        let gmacs = ResNetModel::R50.total_flops(1) as f64 / 2e9;
        assert!((3.0..4.5).contains(&gmacs), "{gmacs} GMAC");
    }
}
