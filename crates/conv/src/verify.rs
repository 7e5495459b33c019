//! Correctness validation of the generated kernels against the naive
//! reference (the artifact's `validate.sh` role), on any execution backend.
//!
//! [`validate`] runs the kernel on the untimed functional simulator
//! ([`SimBackend::untimed`]): a report reads only outputs, so no cycle is
//! simulated, as benchdnn's correctness mode runs a kernel without timing
//! it. Outputs are bit-identical to the timed functional core's.

use crate::backend::{ExecBackend, SimBackend};
use crate::naive;
use crate::primitive::ConvDesc;
use crate::problem::{Algorithm, ConvProblem, Direction};
use lsv_arch::ArchParams;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Result of validating one (problem, direction, algorithm) triple.
#[derive(Debug, Clone, Copy)]
pub struct ValidationReport {
    /// Largest absolute element difference against the reference.
    pub max_abs_err: f32,
    /// Largest per-element `|got - ref| / max(|ref|, 1)` (benchdnn's
    /// criterion) — a small-magnitude output with a large error is no
    /// longer masked by the largest reference element.
    pub rel_err: f32,
    /// Whether the error is within the f32 reassociation tolerance.
    pub passed: bool,
}

/// Relative tolerance for f32 accumulation-order differences, scaled by the
/// reduction length (`benchdnn` uses a comparable criterion).
pub(crate) fn tolerance(reduction_len: usize) -> f32 {
    1e-6 * (reduction_len as f32).sqrt().max(1.0) * 8.0
}

/// Validate one kernel configuration functionally on the untimed simulator
/// backend: random operands, run the simulated kernel, compare against
/// [`crate::naive`]. Served from the layer store when a previous run
/// validated the same point (f32 results round-trip bit-exactly); paranoid
/// mode re-validates a sampled fraction of hits.
pub fn validate(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
) -> ValidationReport {
    let key = crate::store::validation_key(arch, problem, direction, algorithm.short_name());
    crate::store::store().memo(&key, || {
        validate_with_backend(arch, problem, direction, algorithm, &SimBackend::untimed())
    })
}

/// [`validate`] on an arbitrary execution backend (the native backend runs
/// the same check at host speed).
pub fn validate_with_backend(
    arch: &ArchParams,
    problem: &ConvProblem,
    direction: Direction,
    algorithm: Algorithm,
    backend: &dyn ExecBackend,
) -> ValidationReport {
    let prim = ConvDesc::new(*problem, direction, algorithm)
        .create(arch, 1)
        .expect("primitive creation");
    validate_output(problem, direction, |src, wei, dst| {
        prim.run_with_backend(backend, src, wei, dst).0
    })
}

/// Validate any kernel of (`problem`, `direction`): `run` computes the
/// logical output from the logical `(src, wei, dst)` operands. Every kernel
/// — the direct algorithms on either backend and the vednn baseline — sees
/// the same operands, drawn from the problem alone (once per run of
/// consecutive calls on one problem and thread), and is compared with the
/// same memoized naive reference under the same per-element criterion
/// ([`compare`]).
pub fn validate_output(
    problem: &ConvProblem,
    direction: Direction,
    run: impl FnOnce(&[f32], &[f32], &[f32]) -> Vec<f32>,
) -> ValidationReport {
    let p = *problem;
    let ops = Operands::of(&p);
    let (src, wei, dst) = (&ops.src[..], &ops.wei[..], &ops.dst[..]);

    let got = run(src, wei, dst);

    // The reference is a pure function of (problem, direction): the operands
    // above are seeded from the problem alone. The validate sweep runs the
    // same (problem, direction) for every kernel, so the naive reference is
    // shared through the store's in-process memo instead of being
    // recomputed per kernel.
    let ref_tag = format!(
        "naive|{}x{}x{}x{}x{}k{}x{}s{}x{}p{}x{}|{}",
        p.n,
        p.ic,
        p.oc,
        p.ih,
        p.iw,
        p.kh,
        p.kw,
        p.stride_h,
        p.stride_w,
        p.pad_h,
        p.pad_w,
        direction.short_name()
    );
    let reference = crate::store::store().naive_ref(&ref_tag, || {
        naive::reference(&p, direction, src, wei, dst).0
    });
    compare(&got, &reference, naive::reduction_len(&p, direction))
}

/// The logical `(src, wei, dst)` operands every kernel of a problem is
/// validated on, drawn from the problem alone.
struct Operands {
    src: Vec<f32>,
    wei: Vec<f32>,
    dst: Vec<f32>,
}

thread_local! {
    /// The operands of the last problem this thread validated: a sweep
    /// checks every direction and kernel of a problem back to back. One
    /// entry only, so a thread never holds two problems' operands.
    static OPERANDS: RefCell<Option<(ConvProblem, Rc<Operands>)>> = const { RefCell::new(None) };
}

impl Operands {
    /// `p`'s operands, drawn once per run of consecutive validations of it.
    fn of(p: &ConvProblem) -> Rc<Self> {
        OPERANDS.with(|last| {
            let mut last = last.borrow_mut();
            if let Some((q, ops)) = last.as_ref() {
                if q == p {
                    return Rc::clone(ops);
                }
            }
            // Free the previous problem's operands before drawing these.
            *last = None;
            let ops = Rc::new(Self::draw(p));
            *last = Some((*p, Rc::clone(&ops)));
            ops
        })
    }

    fn draw(p: &ConvProblem) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed ^ p.macs());
        let mut uniform =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let src = uniform(p.n * p.ic * p.ih * p.iw);
        let wei = uniform(p.oc * p.ic * p.kh * p.kw);
        let dst = uniform(p.n * p.oc * p.oh() * p.ow());
        Self { src, wei, dst }
    }
}

/// Hold an output to its reference under the per-element criterion, with the
/// tolerance scaled to `reduction_len`. A NaN anywhere is an infinite error,
/// so it fails.
///
/// # Panics
/// Panics when lengths differ.
pub fn compare(got: &[f32], reference: &[f32], reduction_len: usize) -> ValidationReport {
    let rel_err = naive::max_rel_err(got, reference);
    ValidationReport {
        max_abs_err: naive::max_abs_diff(got, reference),
        rel_err,
        passed: rel_err <= tolerance(reduction_len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;

    fn small(ic: usize, oc: usize, hw: usize, k: usize, s: usize, pad: usize) -> ConvProblem {
        ConvProblem::new(2, ic, oc, hw, hw, k, k, s, pad)
    }

    #[test]
    fn all_algorithms_fwd_small() {
        let arch = sx_aurora();
        for alg in Algorithm::ALL {
            let r = validate(&arch, &small(8, 16, 6, 3, 1, 1), Direction::Fwd, alg);
            assert!(r.passed, "{alg}: rel_err {}", r.rel_err);
        }
    }

    #[test]
    fn all_algorithms_bwd_data_small() {
        let arch = sx_aurora();
        for alg in Algorithm::ALL {
            let r = validate(&arch, &small(16, 8, 6, 3, 1, 1), Direction::BwdData, alg);
            assert!(r.passed, "{alg}: rel_err {}", r.rel_err);
        }
    }

    #[test]
    fn all_algorithms_bwd_weights_small() {
        let arch = sx_aurora();
        for alg in Algorithm::ALL {
            let r = validate(&arch, &small(8, 16, 6, 3, 1, 1), Direction::BwdWeights, alg);
            assert!(r.passed, "{alg}: rel_err {}", r.rel_err);
        }
    }

    #[test]
    fn native_backend_validates_all_directions() {
        let arch = sx_aurora();
        for alg in Algorithm::ALL {
            for dir in Direction::ALL {
                let r = validate_with_backend(
                    &arch,
                    &small(8, 16, 6, 3, 1, 1),
                    dir,
                    alg,
                    &crate::backend::NativeBackend,
                );
                assert!(r.passed, "{alg} {dir} native: rel_err {}", r.rel_err);
            }
        }
    }

    #[test]
    fn strided_and_unpadded_variants() {
        let arch = sx_aurora();
        for alg in Algorithm::ALL {
            for dir in Direction::ALL {
                let r = validate(&arch, &small(8, 8, 8, 1, 2, 0), dir, alg);
                assert!(r.passed, "{alg} {dir} strided: rel_err {}", r.rel_err);
            }
        }
    }

    #[test]
    fn channels_larger_than_vlen() {
        // Forces multiple vector blocks even at the full 512-element vlen:
        // use a narrow custom arch instead (keeps the test fast).
        let arch = sx_aurora().with_max_vlen_bits(512); // 16 lanes
        for alg in Algorithm::ALL {
            for dir in Direction::ALL {
                let r = validate(&arch, &small(48, 32, 5, 3, 1, 1), dir, alg);
                assert!(r.passed, "{alg} {dir}: rel_err {}", r.rel_err);
            }
        }
    }

    #[test]
    fn vec_over_ic_bwdw() {
        // IC > OC triggers the swapped vectorization path.
        let arch = sx_aurora();
        for alg in Algorithm::ALL {
            let r = validate(&arch, &small(32, 8, 6, 3, 1, 1), Direction::BwdWeights, alg);
            assert!(r.passed, "{alg}: rel_err {}", r.rel_err);
        }
    }

    #[test]
    fn rectangular_kernels_and_inputs() {
        // 1x7 / 7x1 kernels on a rectangular image (libxsmm/SConv-style
        // shapes the symmetric constructor cannot express).
        let arch = sx_aurora();
        let shapes = [
            ConvProblem::new_asym(2, 8, 8, 9, 14, 1, 7, 1, 1, 0, 3),
            ConvProblem::new_asym(2, 8, 8, 14, 9, 7, 1, 1, 1, 3, 0),
            ConvProblem::new_asym(2, 8, 16, 5, 11, 3, 2, 1, 1, 1, 0),
        ];
        for p in &shapes {
            for alg in Algorithm::ALL {
                for dir in Direction::ALL {
                    let r = validate(&arch, p, dir, alg);
                    assert!(r.passed, "{p} {alg} {dir}: rel_err {}", r.rel_err);
                }
            }
        }
    }

    #[test]
    fn asymmetric_stride_and_pad() {
        let arch = sx_aurora();
        let shapes = [
            // stride 2x1 and 1x2 on a square image.
            ConvProblem::new_asym(2, 8, 8, 8, 8, 3, 3, 2, 1, 1, 1),
            ConvProblem::new_asym(2, 8, 8, 8, 8, 3, 3, 1, 2, 1, 1),
            // pad on one axis only, stride > kernel on the other.
            ConvProblem::new_asym(2, 8, 8, 9, 9, 1, 3, 3, 1, 0, 1),
            // pad >= kernel.
            ConvProblem::new_asym(2, 8, 8, 6, 6, 2, 2, 1, 1, 2, 3),
        ];
        for p in &shapes {
            for alg in Algorithm::ALL {
                for dir in Direction::ALL {
                    let r = validate(&arch, p, dir, alg);
                    assert!(r.passed, "{p} {alg} {dir}: rel_err {}", r.rel_err);
                }
            }
        }
    }
}
