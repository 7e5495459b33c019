//! Differential fuzzing of the generated kernels against [`crate::naive`].
//!
//! The driver proptest-generates (problem, arch-with-swept-`N_vlen`,
//! direction, algorithm) cases over a geometry domain deliberately wider
//! than the paper's experiments — per-axis stride and padding, stride
//! larger than the kernel, padding at least the kernel, rectangular
//! kernels (`1x7`, `7x1`) and images, feature-map counts of 1 and of
//! non-multiples of `N_cline`/`N_vlen` — and holds every case to three
//! properties:
//!
//! 1. **Functional agreement**: the simulated kernel's output matches the
//!    naive reference under the per-element benchdnn criterion of
//!    [`crate::verify`].
//! 2. **Mode agreement**: [`ExecutionMode::Functional`] and
//!    [`ExecutionMode::TimingOnly`] replay the identical instruction
//!    stream, so their cycle counts must be equal.
//! 3. **Lint cleanliness**: an injected validator (the `lsv-analyze`
//!    deny-linter, kept behind a closure so the dependency arrow still
//!    points one way) accepts the tuned configuration.
//! 4. **Oracle agreement** (optional): an injected oracle of the same
//!    closure shape must accept the configuration of every case the library
//!    supports. `lsv-analyze`'s test suite plugs in its traced-replay
//!    oracle here, so the static analyzer is fuzzed alongside the kernels
//!    it verifies.
//! 5. **Backend agreement** (simulator runs only): the
//!    [`crate::backend::NativeBackend`] host lowering of the same frozen
//!    plan must reproduce the simulator's functional output *bit for bit*
//!    and its data-movement instruction counters exactly.
//!
//! The harness runs property 1 on a selectable [`BackendKind`]: with
//! `BackendKind::Native` the functional check executes on the host lowering
//! (~20× faster than simulation on the corpus shapes — the timing-dependent
//! properties 2 and 5 are skipped because no simulated stream exists), which
//! makes large randomized sweeps essentially free.
//!
//! Failures are shrunk with the strategy's greedy shrinker before being
//! reported, so counterexamples arrive minimal. [`seed_corpus`] pins the
//! irregular geometries this harness is designed around (plus any
//! counterexamples it ever surfaces) as a deterministic regression suite —
//! `tests/fuzz_corpus.rs` replays it in tier-1.

use crate::backend::{BackendKind, ExecBackend, NativeBackend, SimBackend};
use crate::naive;
use crate::primitive::{ConvDesc, UnsupportedReason};
use crate::problem::{Algorithm, ConvProblem, Direction};
use crate::tuning::KernelConfig;
use crate::verify::{compare, tolerance};
use lsv_arch::{aurora_with_vlen_bits, ArchParams};
use lsv_vengine::{Arena, ExecutionMode, InstCounters, VCore};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::Instant;

/// Vector lengths (bits) the generator sweeps: 16 f32 lanes up to the full
/// SX-Aurora 512.
pub const VLEN_SWEEP_BITS: [usize; 5] = [512, 1024, 2048, 4096, 16384];

/// External lint hook, same shape as the `ConvDesc::create_validated`
/// validator so `lsv_analyze::deny_validator` plugs in directly.
pub type CaseValidator<'a> =
    &'a dyn Fn(&ArchParams, &ConvProblem, &KernelConfig) -> Result<(), String>;

/// One generated case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzCase {
    /// The convolution geometry.
    pub problem: ConvProblem,
    /// Vector length of the swept Aurora variant, in bits.
    pub vlen_bits: usize,
    /// Pass direction.
    pub direction: Direction,
    /// Algorithm under test.
    pub algorithm: Algorithm,
}

impl fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} vl{}b",
            self.problem, self.direction, self.algorithm, self.vlen_bits
        )
    }
}

/// A case that violated one of the three properties, after shrinking.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The minimized case.
    pub case: FuzzCase,
    /// Which property failed and how.
    pub why: String,
}

/// Aggregate result of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Cases generated and checked (including skips).
    pub cases_run: usize,
    /// Cases the library legitimately declined (register pressure on a
    /// narrow arch) — checked, not failed.
    pub skipped: usize,
    /// Minimized property violations (empty on a clean run).
    pub failures: Vec<FuzzFailure>,
    /// Wall time spent inside the property-1 *kernel executions* on the
    /// backend under test only — case generation, operand import/readback,
    /// naive references and the other properties are all excluded — for
    /// sim-vs-native speedup reporting on identical work.
    pub exec_secs: f64,
}

impl FuzzOutcome {
    /// True when every checked case satisfied all properties.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Raw sample: `(n, ic, oc, ih, iw)`, `(kh, kw, stride_h, stride_w)`,
/// `(pad_h, pad_w, vlen_idx, dir_alg)`.
type RawCase = (
    (usize, usize, usize, usize, usize),
    (usize, usize, usize, usize),
    (usize, usize, usize, usize),
);

/// The generation domain. Channel counts cover 1, non-multiples of
/// `N_cline` (32) and of the smallest swept `N_vlen` (16 lanes at 512
/// bits), and exact multiples of both; strides reach past the largest
/// kernel and paddings past the smallest.
fn strategy() -> impl Strategy<Value = RawCase> {
    (
        (1usize..3, 1usize..40, 1usize..40, 1usize..13, 1usize..13),
        (1usize..6, 1usize..6, 1usize..5, 1usize..5),
        (
            0usize..5,
            0usize..5,
            0usize..VLEN_SWEEP_BITS.len(),
            0usize..9,
        ),
    )
}

/// Interpret a raw sample; `None` when [`ConvProblem::try_new`] rejects the
/// geometry.
fn build_case(raw: &RawCase) -> Option<FuzzCase> {
    let ((n, ic, oc, ih, iw), (kh, kw, sh, sw), (ph, pw, vlen_idx, dir_alg)) = *raw;
    Some(FuzzCase {
        problem: ConvProblem::try_new(n, ic, oc, ih, iw, kh, kw, sh, sw, ph, pw).ok()?,
        vlen_bits: VLEN_SWEEP_BITS[vlen_idx],
        direction: Direction::ALL[dir_alg / 3],
        algorithm: Algorithm::ALL[dir_alg % 3],
    })
}

/// How a checked case resolved (when it did not fail).
enum CaseStatus {
    Pass,
    Skip(#[allow(dead_code)] String),
}

/// The data-movement counter subset both backends must agree on (the
/// simulator additionally counts `scalar_ops` frontend filler, which the
/// native lowering deliberately does not model).
fn data_ops(c: &InstCounters) -> [u64; 7] {
    [
        c.scalar_loads,
        c.vloads,
        c.vstores,
        c.gathers,
        c.scatters,
        c.vfmas,
        c.fma_elems,
    ]
}

/// Check one case against every property; `exec_secs` accumulates the
/// property-1 kernel execution time.
fn check_case(
    case: &FuzzCase,
    validator: CaseValidator,
    oracle: Option<CaseValidator>,
    backend: BackendKind,
    exec_secs: &mut f64,
) -> Result<CaseStatus, String> {
    let p = case.problem;
    let arch = aurora_with_vlen_bits(case.vlen_bits);
    let desc = ConvDesc::new(p, case.direction, case.algorithm);
    // Property 3: the linter must accept the tuned configuration.
    let prim = match desc.create_validated(&arch, 1, validator) {
        Ok(prim) => prim,
        Err(UnsupportedReason::Rejected { why }) => return Err(format!("lint deny: {why}")),
        Err(other) => return Ok(CaseStatus::Skip(other.to_string())),
    };

    // Property 4: the injected oracle, on the exact configuration the
    // primitive froze.
    if let Some(oracle) = oracle {
        if let Err(why) = oracle(&arch, &p, prim.cfg()) {
            return Err(format!("oracle: {why}"));
        }
    }

    // Deterministic operands, derived from the case so shrinking re-checks
    // candidates reproducibly.
    let mut rng =
        rand::rngs::StdRng::seed_from_u64(0xFA22 ^ p.macs() ^ ((case.vlen_bits as u64) << 32));
    let src: Vec<f32> = (0..p.n * p.ic * p.ih * p.iw)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let wei: Vec<f32> = (0..p.oc * p.ic * p.kh * p.kw)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let dst: Vec<f32> = (0..p.n * p.oc * p.oh() * p.ow())
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();

    // Property 1: functional output vs the naive reference, per-element,
    // executed on the selected backend. Only the kernel execution itself is
    // timed into `exec_secs` — operand import/readback are
    // backend-independent host conversions and would dilute the
    // sim-vs-native ratio on small cases.
    let sim_functional;
    let backend_impl: &dyn ExecBackend = match backend {
        BackendKind::Sim => {
            sim_functional = SimBackend::functional();
            &sim_functional
        }
        BackendKind::Native => &NativeBackend,
    };
    let mut arena = Arena::new();
    let t = prim.alloc_tensors(&mut arena);
    prim.import_operands(&mut arena, &t, &src, &wei, &dst);
    let t0 = Instant::now();
    let func_report = backend_impl.execute_slice(&prim, &mut arena, &t, 0..prim.work_items());
    *exec_secs += t0.elapsed().as_secs_f64();
    let got = prim.read_output(&arena, &t);
    let (reference, reduction_len) = naive::reference(&p, case.direction, &src, &wei, &dst);
    if got.len() != reference.len() {
        return Err(format!(
            "output length {} != reference length {}",
            got.len(),
            reference.len()
        ));
    }
    let report = compare(&got, &reference, reduction_len);
    if !report.passed {
        return Err(format!(
            "functional mismatch vs naive: rel_err {:.3e} > tolerance {:.3e}",
            report.rel_err,
            tolerance(reduction_len)
        ));
    }

    // The remaining properties compare against the simulated stream; with
    // the native backend under test there is none, so the check ends here
    // (that asymmetry is what makes `--backend native` sweeps cheap).
    if backend == BackendKind::Native {
        return Ok(CaseStatus::Pass);
    }

    // Property 5: the native lowering of the same frozen plan must
    // reproduce the simulator's functional output bit for bit (identical
    // accumulation order, unfused FMA) and mirror its data-movement
    // instruction counters.
    let (native_out, native_report) = prim.run_with_backend(&NativeBackend, &src, &wei, &dst);
    if let Some(i) = (0..got.len()).find(|&i| native_out[i] != got[i]) {
        return Err(format!(
            "native-vs-sim mismatch at element {i}: sim {:?} native {:?}",
            got[i], native_out[i]
        ));
    }
    if data_ops(&native_report.insts) != data_ops(&func_report.insts) {
        return Err(format!(
            "native-vs-sim instruction drift: sim {:?} native {:?}",
            func_report.insts, native_report.insts
        ));
    }

    // Property 2: TimingOnly must replay the identical instruction stream.
    let mut arena = Arena::for_mode(ExecutionMode::TimingOnly);
    let t = prim.alloc_tensors(&mut arena);
    let mut core = VCore::new(&arch, ExecutionMode::TimingOnly);
    prim.execute_core(&mut core, &mut arena, &t, 0..prim.work_items());
    let timing_cycles = core.drain().cycles;
    if timing_cycles != func_report.cycles {
        return Err(format!(
            "mode disagreement: Functional {} cycles, TimingOnly {} cycles",
            func_report.cycles, timing_cycles
        ));
    }
    Ok(CaseStatus::Pass)
}

/// Greedily shrink a failing raw sample with the strategy's shrinker; a
/// candidate is adopted only if it builds a valid case that still fails.
fn shrink_failure<S: Strategy<Value = RawCase>>(
    strat: &S,
    mut raw: RawCase,
    mut why: String,
    validator: CaseValidator,
    oracle: Option<CaseValidator>,
    backend: BackendKind,
) -> (FuzzCase, String) {
    let mut evals = 0usize;
    let mut progress = true;
    while progress && evals < 512 {
        progress = false;
        for cand in strat.shrink(&raw) {
            evals += 1;
            let Some(case) = build_case(&cand) else {
                continue;
            };
            if let Err(w) = check_case(&case, validator, oracle, backend, &mut 0.0) {
                raw = cand;
                why = w;
                progress = true;
                break;
            }
        }
    }
    (build_case(&raw).expect("shrunk case stays valid"), why)
}

/// Run `cases` randomized cases from `seed`, property 1 on `backend`
/// ([`BackendKind::Native`] for fast host-only sweeps) and property 4 only
/// with an `oracle`. Every failure is shrunk to a minimal counterexample
/// before being recorded.
pub fn run_fuzz_backend(
    cases: usize,
    seed: u64,
    validator: CaseValidator,
    oracle: Option<CaseValidator>,
    backend: BackendKind,
) -> FuzzOutcome {
    let strat = strategy();
    let mut rng = TestRng::from_seed(seed);
    let mut out = FuzzOutcome::default();
    let mut degenerate = 0usize;
    while out.cases_run < cases {
        let Some(sample) = strat.sample(&mut rng) else {
            continue;
        };
        let Some(case) = build_case(&sample) else {
            degenerate += 1;
            assert!(
                degenerate < (1 << 20),
                "fuzz generator: too many degenerate geometries"
            );
            continue;
        };
        out.cases_run += 1;
        match check_case(&case, validator, oracle, backend, &mut out.exec_secs) {
            Ok(CaseStatus::Pass) => {}
            Ok(CaseStatus::Skip(_)) => out.skipped += 1,
            Err(why) => {
                let (min_case, min_why) =
                    shrink_failure(&strat, sample, why, validator, oracle, backend);
                out.failures.push(FuzzFailure {
                    case: min_case,
                    why: min_why,
                });
            }
        }
    }
    out
}

/// The deterministic regression corpus: the irregular geometries this
/// harness targets, pinned per (direction, algorithm) pair, plus minimized
/// entries for every counterexample the fuzzer ever surfaced. Replayed by
/// `tests/fuzz_corpus.rs` in tier-1.
pub fn seed_corpus() -> Vec<FuzzCase> {
    let geometries = [
        // SConv-style rectangular kernels with per-axis stride/pad.
        ConvProblem::new_asym(2, 8, 8, 9, 14, 1, 7, 1, 2, 0, 3),
        ConvProblem::new_asym(2, 8, 8, 14, 9, 7, 1, 2, 1, 3, 0),
        // Stride larger than the kernel.
        ConvProblem::new_asym(1, 8, 8, 9, 9, 1, 3, 3, 4, 0, 1),
        // Padding at least the kernel on both axes.
        ConvProblem::new_asym(1, 8, 8, 6, 6, 2, 2, 1, 1, 2, 3),
        // Single feature maps.
        ConvProblem::new_asym(2, 1, 1, 7, 5, 3, 3, 1, 1, 1, 1),
        // Channels off the N_cline (32) and 16-lane N_vlen grids.
        ConvProblem::new_asym(1, 33, 17, 5, 5, 3, 3, 1, 1, 1, 1),
        ConvProblem::new_asym(1, 31, 1, 4, 6, 2, 3, 2, 1, 0, 1),
    ];
    let mut corpus = vec![
        // Counterexample (minimized): MBDC's line-grain layout blocks
        // channels by N_cline = 32, wider than the 16 f32 lanes of a
        // 512-bit machine — the NCHW reorder kernels used to issue a
        // single vector op per block (vl > VLEN) instead of strip-mining,
        // tripping the deny-linter's layout round-trip probe.
        FuzzCase {
            problem: ConvProblem::new_asym(1, 17, 1, 2, 2, 1, 1, 1, 1, 0, 0),
            vlen_bits: 512,
            direction: Direction::Fwd,
            algorithm: Algorithm::Mbdc,
        },
    ];
    for (i, p) in geometries.iter().enumerate() {
        for (j, &direction) in Direction::ALL.iter().enumerate() {
            for (k, &algorithm) in Algorithm::ALL.iter().enumerate() {
                // Rotate through the vlen sweep so every width stays covered
                // without replaying the full cross product.
                let vlen_bits = VLEN_SWEEP_BITS[(i + 3 * j + k) % VLEN_SWEEP_BITS.len()];
                corpus.push(FuzzCase {
                    problem: *p,
                    vlen_bits,
                    direction,
                    algorithm,
                });
            }
        }
    }
    corpus
}

/// Replay the [`seed_corpus`] deterministically, with the backend and oracle
/// of [`run_fuzz_backend`].
pub fn run_corpus_backend(
    validator: CaseValidator,
    oracle: Option<CaseValidator>,
    backend: BackendKind,
) -> FuzzOutcome {
    let mut out = FuzzOutcome::default();
    for case in seed_corpus() {
        out.cases_run += 1;
        match check_case(&case, validator, oracle, backend, &mut out.exec_secs) {
            Ok(CaseStatus::Pass) => {}
            Ok(CaseStatus::Skip(_)) => out.skipped += 1,
            Err(why) => out.failures.push(FuzzFailure { case, why }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_covers_the_irregular_domain() {
        // One modest batch must already exercise the headline irregular
        // geometries — if sampling drifts, the fuzzer silently loses
        // coverage, so pin it.
        let strat = strategy();
        let mut rng = TestRng::from_seed(7);
        let mut asym_stride = 0usize;
        let mut rect_kernel = 0usize;
        let mut pad_ge_kernel = 0usize;
        let mut stride_gt_kernel = 0usize;
        let mut unit_channels = 0usize;
        for _ in 0..2000 {
            let Some(case) = strat.sample(&mut rng).as_ref().and_then(build_case) else {
                continue;
            };
            let p = case.problem;
            asym_stride += usize::from(!p.is_symmetric());
            rect_kernel += usize::from(p.kh != p.kw);
            pad_ge_kernel += usize::from(p.pad_h >= p.kh || p.pad_w >= p.kw);
            stride_gt_kernel += usize::from(p.stride_h > p.kh || p.stride_w > p.kw);
            unit_channels += usize::from(p.ic == 1 || p.oc == 1);
        }
        for (name, n) in [
            ("asymmetric stride/pad", asym_stride),
            ("rectangular kernel", rect_kernel),
            ("pad >= kernel", pad_ge_kernel),
            ("stride > kernel", stride_gt_kernel),
            ("IC or OC of 1", unit_channels),
        ] {
            assert!(n >= 20, "{name}: only {n} of 2000 samples");
        }
    }

    fn no_lint(_: &ArchParams, _: &ConvProblem, _: &KernelConfig) -> Result<(), String> {
        Ok(())
    }

    #[test]
    fn smoke_run_is_clean_and_deterministic() {
        let a = run_fuzz_backend(24, 42, &no_lint, None, BackendKind::Sim);
        assert!(a.clean(), "failures: {:?}", a.failures);
        assert_eq!(a.cases_run, 24);
        let b = run_fuzz_backend(24, 42, &no_lint, None, BackendKind::Sim);
        assert_eq!(a.skipped, b.skipped, "same seed must replay identically");
    }

    #[test]
    fn corpus_replays_clean() {
        let out = run_corpus_backend(&no_lint, None, BackendKind::Sim);
        assert!(out.clean(), "failures: {:?}", out.failures);
        assert_eq!(out.cases_run, seed_corpus().len());
        assert_eq!(out.skipped, 0, "corpus entries must all be supported");
    }

    #[test]
    fn corpus_replays_clean_on_native_backend() {
        // The same corpus with property 1 executed on the host lowering:
        // native must agree with the naive reference on its own, not just
        // via the sim cross-check.
        let out = run_corpus_backend(&no_lint, None, BackendKind::Native);
        assert!(out.clean(), "failures: {:?}", out.failures);
        assert_eq!(out.cases_run, seed_corpus().len());
        assert_eq!(out.skipped, 0, "corpus entries must all be supported");
    }
}
