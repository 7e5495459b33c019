//! Property tests for the blocked tensor layouts: every layout is a
//! bijection between logical coordinates and distinct addresses, and the
//! NCHW/OIHW import/export round-trips for arbitrary shapes and block sizes.

use lsv_tensor::{ActTensor, ActivationLayout, WeiTensor, WeightLayout};
use lsv_vengine::Arena;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn activation_roundtrip(
        n in 1usize..3,
        c in 1usize..40,
        h in 1usize..8,
        w in 1usize..8,
        cb in 1usize..40,
    ) {
        let mut arena = Arena::new();
        let t = ActTensor::alloc(&mut arena, n, c, h, w, ActivationLayout { cb });
        let data: Vec<f32> = (0..t.elems()).map(|i| i as f32 + 0.5).collect();
        t.store_nchw(&mut arena, &data);
        prop_assert_eq!(t.load_nchw(&arena), data);
    }

    #[test]
    fn activation_addresses_are_distinct_and_in_bounds(
        c in 1usize..24,
        h in 1usize..6,
        w in 1usize..6,
        cb in 1usize..24,
    ) {
        let mut arena = Arena::new();
        let t = ActTensor::alloc(&mut arena, 1, c, h, w, ActivationLayout { cb });
        let mut seen = std::collections::HashSet::new();
        let end = t.base + (t.elems_padded() * 4) as u64;
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let a = t.at(0, ci, y, x);
                    prop_assert!(a >= t.base && a < end, "address out of allocation");
                    prop_assert!(a.is_multiple_of(4));
                    prop_assert!(seen.insert(a), "aliasing at ({ci},{y},{x})");
                }
            }
        }
    }

    #[test]
    fn weight_roundtrip(
        oc in 1usize..24,
        ic in 1usize..24,
        k in 1usize..4,
        icb in 1usize..24,
        ocb in 1usize..24,
    ) {
        let mut arena = Arena::new();
        let t = WeiTensor::alloc(&mut arena, oc, ic, k, k, WeightLayout { icb, ocb });
        let data: Vec<f32> = (0..t.elems()).map(|i| (i as f32).sin()).collect();
        t.store_oihw(&mut arena, &data);
        prop_assert_eq!(t.load_oihw(&arena), data);
    }

    #[test]
    fn weight_oc_vector_is_contiguous(
        oc in 2usize..33,
        ic in 1usize..9,
        ocb in 2usize..33,
    ) {
        let mut arena = Arena::new();
        let t = WeiTensor::alloc(&mut arena, oc, ic, 1, 1, WeightLayout { icb: 1, ocb });
        // Within one OC block, consecutive output channels are adjacent —
        // the invariant the micro-kernel's weights vector load relies on.
        for blk in 0..t.oc_blocks() {
            let base = t.oc_vector_at(blk, 0, 0, 0);
            let in_block = ocb.min(oc - blk * ocb);
            for j in 0..in_block {
                prop_assert_eq!(t.at(blk * ocb + j, 0, 0, 0), base + (j * 4) as u64);
            }
        }
    }

    #[test]
    fn block_at_matches_first_channel(
        c in 1usize..40,
        cb in 1usize..40,
        h in 1usize..5,
        w in 1usize..5,
    ) {
        let mut arena = Arena::new();
        let t = ActTensor::alloc(&mut arena, 1, c, h, w, ActivationLayout { cb });
        for blk in 0..t.c_blocks() {
            let ch = blk * cb;
            if ch < c {
                prop_assert_eq!(t.block_at(0, blk, h - 1, w - 1), t.at(0, ch, h - 1, w - 1));
            }
        }
    }
}

/// The per-element oracle of [`ActTensor::store_nchw`]: one `at()` address
/// per logical element.
fn oracle_store_nchw(t: &ActTensor, arena: &mut Arena, data: &[f32]) {
    for n in 0..t.n {
        for c in 0..t.c {
            for h in 0..t.h {
                for w in 0..t.w {
                    arena.write(t.at(n, c, h, w), data[((n * t.c + c) * t.h + h) * t.w + w]);
                }
            }
        }
    }
}

/// The per-element oracle of [`ActTensor::load_nchw`].
fn oracle_load_nchw(t: &ActTensor, arena: &Arena) -> Vec<f32> {
    let mut out = vec![0.0; t.elems()];
    for n in 0..t.n {
        for c in 0..t.c {
            for h in 0..t.h {
                for w in 0..t.w {
                    out[((n * t.c + c) * t.h + h) * t.w + w] = arena.read(t.at(n, c, h, w));
                }
            }
        }
    }
    out
}

/// Host index of the tensor's element `(oc, ic, kh, kw)`: OIHW, or IOHW in
/// the tensor's terms when the weights are role-swapped.
fn host_index(
    t: &WeiTensor,
    swapped: bool,
    (oc, ic, kh, kw): (usize, usize, usize, usize),
) -> usize {
    let rows = if swapped {
        ic * t.oc + oc
    } else {
        oc * t.ic + ic
    };
    (rows * t.kh + kh) * t.kw + kw
}

/// Every logical element of a weight tensor.
fn weight_points(t: &WeiTensor) -> Vec<(usize, usize, usize, usize)> {
    let mut pts = Vec::with_capacity(t.elems());
    for oc in 0..t.oc {
        for ic in 0..t.ic {
            for kh in 0..t.kh {
                for kw in 0..t.kw {
                    pts.push((oc, ic, kh, kw));
                }
            }
        }
    }
    pts
}

/// Every stored element's bits, padding included.
fn stored_bits(arena: &Arena, base: u64, elems: usize) -> Vec<u32> {
    arena
        .slice(base, elems)
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Distinct values for every stored element, padding included, so a load
/// that read a padding slot would show.
fn fill_stored(arena: &mut Arena, base: u64, elems: usize) {
    let vals: Vec<f32> = (0..elems).map(|i| i as f32 * 0.5 + 1.0).collect();
    arena.store_slice(base, &vals);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The run-wise copies agree with the per-element `at()` oracle in both
    // directions: an import leaves the same stored elements (tail-block
    // padding still zero) and an export reads the same logical buffer, for
    // `cb` of 1, odd, `N_cline` and `N_vlen`.
    #[test]
    fn activation_copies_match_the_at_oracle(
        n in 1usize..3,
        c in 1usize..70,
        h in 1usize..7,
        w in 1usize..7,
        cb_sel in 0usize..4,
        odd in 0usize..8,
    ) {
        let cb = [1, 2 * odd + 1, 32, 512][cb_sel];
        let mut fast = Arena::new();
        let mut slow = Arena::new();
        let t = ActTensor::alloc(&mut fast, n, c, h, w, ActivationLayout { cb });
        let o = ActTensor::alloc(&mut slow, n, c, h, w, ActivationLayout { cb });
        let data: Vec<f32> = (0..t.elems()).map(|i| (i as f32).sin() + 2.0).collect();
        t.store_nchw(&mut fast, &data);
        oracle_store_nchw(&o, &mut slow, &data);
        prop_assert_eq!(
            stored_bits(&fast, t.base, t.elems_padded()),
            stored_bits(&slow, o.base, o.elems_padded())
        );
        fill_stored(&mut fast, t.base, t.elems_padded());
        prop_assert_eq!(t.load_nchw(&fast), oracle_load_nchw(&t, &fast));
    }

    // The same for weights: `icb`/`ocb` with tail blocks, stored plain
    // (OIHW) or role-swapped (IOHW in the tensor's terms), against the
    // oracle that transposes element by element.
    #[test]
    fn weight_copies_match_the_at_oracle(
        oc in 1usize..70,
        ic in 1usize..70,
        kh in 1usize..4,
        kw in 1usize..4,
        icb_sel in 0usize..3,
        ocb_sel in 0usize..4,
        odd in 0usize..8,
        swapped in 0usize..2,
    ) {
        let icb = [1, 2 * odd + 1, 32][icb_sel];
        let ocb = [1, 2 * odd + 3, 32, 512][ocb_sel];
        let swapped = swapped == 1;
        let layout = WeightLayout { icb, ocb };
        let mut fast = Arena::new();
        let mut slow = Arena::new();
        let t = WeiTensor::alloc(&mut fast, oc, ic, kh, kw, layout);
        let o = WeiTensor::alloc(&mut slow, oc, ic, kh, kw, layout);
        let data: Vec<f32> = (0..t.elems()).map(|i| (i as f32).cos() - 2.0).collect();
        let pts = weight_points(&t);
        if swapped {
            t.store_iohw(&mut fast, &data);
        } else {
            t.store_oihw(&mut fast, &data);
        }
        for &pt in &pts {
            slow.write(o.at(pt.0, pt.1, pt.2, pt.3), data[host_index(&o, swapped, pt)]);
        }
        prop_assert_eq!(
            stored_bits(&fast, t.base, t.elems_padded()),
            stored_bits(&slow, o.base, o.elems_padded())
        );
        fill_stored(&mut fast, t.base, t.elems_padded());
        let got = if swapped { t.load_iohw(&fast) } else { t.load_oihw(&fast) };
        let mut want = vec![0.0; t.elems()];
        for &pt in &pts {
            want[host_index(&t, swapped, pt)] = fast.read(t.at(pt.0, pt.1, pt.2, pt.3));
        }
        prop_assert_eq!(got, want);
    }
}
