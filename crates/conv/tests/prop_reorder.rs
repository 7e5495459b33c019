//! Property tests for the measured reorder primitives: NCHW -> blocked ->
//! NCHW is the identity for arbitrary shapes and block sizes, and the
//! OIHW weight reorder matches the host-side conversion.

use lsv_arch::presets::sx_aurora;
use lsv_conv::reorder::{reorder_activations, reorder_activations_back, reorder_weights};
use lsv_tensor::{ActTensor, ActivationLayout, WeiTensor, WeightLayout};
use lsv_vengine::{Arena, ExecutionMode, VCore};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn activation_reorder_roundtrips(
        n in 1usize..3,
        c in 1usize..50,
        h in 1usize..7,
        w in 1usize..7,
        cb in 1usize..50,
    ) {
        let arch = sx_aurora();
        let mut arena = Arena::new();
        let mut core = VCore::new(&arch, ExecutionMode::Functional);
        let nchw = ActTensor::alloc(&mut arena, n, c, h, w, ActivationLayout::nchw());
        let blocked = ActTensor::alloc(&mut arena, n, c, h, w, ActivationLayout { cb });
        let back = ActTensor::alloc(&mut arena, n, c, h, w, ActivationLayout::nchw());
        let data: Vec<f32> = (0..nchw.elems()).map(|i| (i as f32) * 0.5 - 3.0).collect();
        nchw.store_nchw(&mut arena, &data);
        reorder_activations(&mut core, &mut arena, &nchw, &blocked);
        prop_assert_eq!(blocked.load_nchw(&arena), data.clone());
        reorder_activations_back(&mut core, &mut arena, &blocked, &back);
        prop_assert_eq!(back.load_nchw(&arena), data);
    }

    #[test]
    fn weight_reorder_matches_host_path(
        oc in 1usize..24,
        ic in 1usize..16,
        k in 1usize..4,
        icb in 1usize..16,
        ocb in 1usize..24,
    ) {
        let arch = sx_aurora();
        let mut arena = Arena::new();
        let mut core = VCore::new(&arch, ExecutionMode::Functional);
        let oihw = WeiTensor::alloc(&mut arena, oc, ic, k, k, WeightLayout::oihw());
        let blocked = WeiTensor::alloc(&mut arena, oc, ic, k, k, WeightLayout { icb, ocb });
        let data: Vec<f32> = (0..oihw.elems()).map(|i| (i as f32).sin()).collect();
        oihw.store_oihw(&mut arena, &data);
        reorder_weights(&mut core, &mut arena, &oihw, &blocked);
        prop_assert_eq!(blocked.load_oihw(&arena), data);
    }

    #[test]
    fn reorder_charges_vector_traffic(
        c in 8usize..64,
        hw in 2usize..8,
    ) {
        let arch = sx_aurora();
        let mut arena = Arena::new();
        let mut core = VCore::new(&arch, ExecutionMode::TimingOnly);
        let nchw = ActTensor::alloc(&mut arena, 1, c, hw, hw, ActivationLayout::nchw());
        let blocked = ActTensor::alloc(&mut arena, 1, c, hw, hw, ActivationLayout { cb: 32 });
        reorder_activations(&mut core, &mut arena, &nchw, &blocked);
        let s = core.drain();
        // one strided load + one store per (block, spatial point)
        let expected = blocked.c_blocks() * hw * hw;
        prop_assert_eq!(s.insts.vloads as usize, expected);
        prop_assert_eq!(s.insts.vstores as usize, expected);
        prop_assert!(s.cycles > 0);
    }
}
