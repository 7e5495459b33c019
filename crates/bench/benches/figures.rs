//! Criterion wrappers around reduced-size versions of every paper
//! experiment, so `cargo bench` exercises each table/figure pipeline.
//! The full-size runs are the `lsv-bench` experiments (`lsvconv-cli run`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsv_arch::formula2_rb_min;
use lsv_arch::presets::{aurora_with_vlen_bits, sx_aurora};
use lsv_bench::{bench_engine, Engine};
use lsv_conv::footprint::microkernel_footprint;
use lsv_conv::tuning::{
    autotune_microkernel, kernel_config, split_register_block, RegisterBlocking,
};
use lsv_conv::{Algorithm, ConvProblem, Direction, ExecutionMode};
use lsv_models::resnet_layer;

/// Table 1/2 path: kernel configuration ("code generation") for every
/// algorithm on a representative layer.
fn bench_table2_codegen(c: &mut Criterion) {
    let arch = sx_aurora();
    let p = resnet_layer(16, 256);
    c.bench_function("table2/kernel_config_all_algorithms", |b| {
        b.iter(|| {
            for alg in Algorithm::ALL {
                for dir in Direction::ALL {
                    std::hint::black_box(kernel_config(&arch, &p, dir, alg, 8));
                }
            }
        })
    });
}

/// Figure 2 path: the footprint model across the vector-length sweep.
fn bench_figure2_footprint(c: &mut Criterion) {
    c.bench_function("figure2/footprint_sweep", |b| {
        b.iter(|| {
            for bits in [512usize, 2048, 4096, 8192, 16384] {
                let arch = aurora_with_vlen_bits(bits);
                let p = ConvProblem::new(256, 512, 512, 7, 7, 3, 3, 1, 1);
                let rb = split_register_block(formula2_rb_min(&arch), p.ow(), p.oh());
                std::hint::black_box(microkernel_footprint(&arch, &p, rb));
            }
        })
    });
}

/// Figure 4 path: one reduced layer through the full multi-core performance
/// model, per engine.
fn bench_figure4_layer(c: &mut Criterion) {
    let arch = sx_aurora();
    let p = ConvProblem::new(8, 128, 128, 14, 14, 3, 3, 1, 1);
    let mut g = c.benchmark_group("figure4/layer6_reduced");
    g.sample_size(10);
    for engine in Engine::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(engine.name()),
            &engine,
            |b, &e| {
                b.iter(|| {
                    std::hint::black_box(bench_engine(
                        &arch,
                        &p,
                        Direction::Fwd,
                        e,
                        ExecutionMode::TimingOnly,
                    ))
                })
            },
        );
    }
    g.finish();
}

/// Figure 5 path: kernel regeneration + one reduced layer across vector
/// lengths.
fn bench_figure5_vlen_sweep(c: &mut Criterion) {
    let p = ConvProblem::new(8, 256, 256, 14, 14, 1, 1, 1, 0);
    let mut g = c.benchmark_group("figure5/vlen_sweep_reduced");
    g.sample_size(10);
    for bits in [512usize, 2048, 8192, 16384] {
        let arch = aurora_with_vlen_bits(bits);
        g.bench_with_input(BenchmarkId::from_parameter(bits), &arch, |b, a| {
            b.iter(|| {
                std::hint::black_box(bench_engine(
                    a,
                    &p,
                    Direction::Fwd,
                    Engine::Direct(Algorithm::Bdc),
                    ExecutionMode::TimingOnly,
                ))
            })
        });
    }
    g.finish();
}

/// Figure 6 path: minibatch scaling of the multi-core model on one layer.
fn bench_figure6_minibatch(c: &mut Criterion) {
    let arch = sx_aurora();
    let mut g = c.benchmark_group("figure6/minibatch_reduced");
    g.sample_size(10);
    for mb in [8usize, 64] {
        let p = ConvProblem::new(mb, 128, 128, 14, 14, 3, 3, 1, 1);
        g.bench_with_input(BenchmarkId::from_parameter(mb), &p, |b, p| {
            b.iter(|| {
                std::hint::black_box(bench_engine(
                    &arch,
                    p,
                    Direction::Fwd,
                    Engine::Direct(Algorithm::Bdc),
                    ExecutionMode::TimingOnly,
                ))
            })
        });
    }
    g.finish();
}

/// MPKI-study path: the tuner + the simulated counters on a conflicted
/// versus a clean layer.
fn bench_mpki_study(c: &mut Criterion) {
    let arch = sx_aurora();
    let conflicted = ConvProblem::new(8, 512, 128, 14, 14, 1, 1, 1, 0);
    let mut g = c.benchmark_group("mpki/conflicted_layer");
    g.sample_size(10);
    for alg in [Algorithm::Dc, Algorithm::Bdc] {
        g.bench_with_input(
            BenchmarkId::from_parameter(alg.short_name()),
            &alg,
            |b, &a| {
                b.iter(|| {
                    std::hint::black_box(bench_engine(
                        &arch,
                        &conflicted,
                        Direction::Fwd,
                        Engine::Direct(a),
                        ExecutionMode::TimingOnly,
                    ))
                })
            },
        );
    }
    g.finish();
}

/// Algorithm 3 auto-tuner micro-benchmark.
fn bench_autotuner(c: &mut Criterion) {
    let arch = sx_aurora();
    c.bench_function("tuner/autotune_microkernel", |b| {
        b.iter(|| {
            std::hint::black_box(autotune_microkernel(
                &arch,
                3,
                3,
                2048,
                2048,
                56,
                56,
                RegisterBlocking { rb_w: 24, rb_h: 1 },
                8,
            ))
        })
    });
}

criterion_group!(
    figures,
    bench_table2_codegen,
    bench_figure2_footprint,
    bench_figure4_layer,
    bench_figure5_vlen_sweep,
    bench_figure6_minibatch,
    bench_mpki_study,
    bench_autotuner,
);
criterion_main!(figures);
