//! Criterion micro-benchmarks of the simulator substrate itself: cache
//! accesses, scoreboard throughput, functional kernels and layout
//! conversions. These track the *host-side* cost of the simulation
//! infrastructure (useful when extending the engine).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lsv_arch::presets::sx_aurora;
use lsv_arch::CacheGeometry;
use lsv_cache::{Hierarchy, SetAssocCache, ShadowLru};
use lsv_conv::{naive, Algorithm, ConvDesc, ConvProblem, Direction, NativeBackend};
use lsv_tensor::{ActTensor, ActivationLayout};
use lsv_vengine::{Arena, ExecutionMode, ScalarValue, VCore};

fn bench_cache_hierarchy(c: &mut Criterion) {
    let arch = sx_aurora();
    let mut g = c.benchmark_group("substrate/cache_access");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("sequential_10k", |b| {
        b.iter_batched(
            || Hierarchy::for_core(&arch),
            |mut h| {
                for i in 0..10_000u64 {
                    std::hint::black_box(h.access_line(i * 128, false));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("thrashing_10k", |b| {
        b.iter_batched(
            || Hierarchy::for_core(&arch),
            |mut h| {
                for i in 0..10_000u64 {
                    std::hint::black_box(h.access_line((i % 24) * 2048 + (i / 24) * 4, false));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_set_assoc(c: &mut Criterion) {
    // LLC-shaped single cache, exercised directly (no hierarchy walk):
    // tracks the cost of `SetAssocCache::access_line` itself, including the
    // MRU fast path (sequential re-touches) and the LRU shifting slow path.
    let geom = CacheGeometry {
        size: 16 << 20,
        line: 128,
        ways: 16,
    };
    let mut g = c.benchmark_group("substrate/set_assoc_access");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("mru_repeat_100k", |b| {
        b.iter_batched(
            || SetAssocCache::new(geom, false),
            |mut cache| {
                for i in 0..100_000u64 {
                    std::hint::black_box(cache.access_line((i % 8) * 128, false));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("streaming_100k", |b| {
        b.iter_batched(
            || SetAssocCache::new(geom, false),
            |mut cache| {
                for i in 0..100_000u64 {
                    std::hint::black_box(cache.access_line(i * 128, true));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_shadow_lru(c: &mut Criterion) {
    // Fully-associative shadow at LLC capacity (131072 lines), the structure
    // the O(1) open-addressing rewrite targets. The mixed stream alternates
    // re-touches (head moves) with cold lines (evictions + node recycling).
    let capacity = (16 << 20) / 128;
    let mut g = c.benchmark_group("substrate/shadow_lru");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("mixed_stream_100k", |b| {
        b.iter_batched(
            || ShadowLru::new(capacity),
            |mut shadow| {
                let mut x = 0x2545_f491_4f6c_dd1du64;
                for i in 0..100_000u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let line = if i % 3 == 0 {
                        x % 1024
                    } else {
                        x % (capacity as u64 * 2)
                    };
                    std::hint::black_box(shadow.access(line));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_scoreboard(c: &mut Criterion) {
    let arch = sx_aurora();
    let mut g = c.benchmark_group("substrate/vfma_issue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("timing_only_10k", |b| {
        b.iter_batched(
            || VCore::new(&arch, ExecutionMode::TimingOnly),
            |mut core| {
                for i in 0..10_000usize {
                    core.vfma_bcast(i % 16, 30, ScalarValue::constant(1.0), 512);
                }
                std::hint::black_box(core.drain())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("functional_10k", |b| {
        b.iter_batched(
            || VCore::new(&arch, ExecutionMode::Functional),
            |mut core| {
                for i in 0..10_000usize {
                    core.vfma_bcast(i % 16, 30, ScalarValue::constant(1.0), 512);
                }
                std::hint::black_box(core.drain())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_fma_group_timed(c: &mut Criterion) {
    // A timed core's grouped B_seq triples: 1000 groups of 16 broadcast
    // FMAs whose scalars lie 4 lines apart. `fresh` moves the group one
    // line on every time, so each round walks the hierarchy line by line;
    // `repeated` moves it one channel (4 bytes) on inside the same lines,
    // so every round after the first pure-hit one repeats its predecessor
    // and the cache only counts its hits.
    let arch = sx_aurora();
    let group: Vec<(usize, u64)> = (0..16).map(|j| (j, j as u64 * 512)).collect();
    let mut g = c.benchmark_group("substrate/fma_group_timed");
    g.throughput(Throughput::Elements(16_000));
    for (name, step) in [("fresh", 128u64), ("repeated", 4)] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut arena = Arena::for_mode(ExecutionMode::TimingOnly);
                    let base = arena.alloc(32 * 1024);
                    (VCore::new(&arch, ExecutionMode::TimingOnly), arena, base)
                },
                |(mut core, arena, base)| {
                    for i in 0..1000u64 {
                        let at = base + (i % 32) * step;
                        core.fma_bcast_group(&arena, 30, 512, at, &group);
                    }
                    std::hint::black_box(core.drain())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_functional_kernels(c: &mut Criterion) {
    let arch = sx_aurora();
    let p = ConvProblem::new(1, 32, 32, 12, 12, 3, 3, 1, 1);
    let src: Vec<f32> = (0..p.n * p.ic * p.ih * p.iw)
        .map(|i| i as f32 * 1e-3)
        .collect();
    let wei: Vec<f32> = (0..p.oc * p.ic * p.kh * p.kw)
        .map(|i| i as f32 * 1e-4)
        .collect();
    let mut g = c.benchmark_group("substrate/functional_fwd");
    g.sample_size(10);
    for alg in Algorithm::ALL {
        let prim = ConvDesc::new(p, Direction::Fwd, alg)
            .create(&arch, 1)
            .unwrap();
        g.bench_with_input(
            BenchmarkId::from_parameter(alg.short_name()),
            &prim,
            |b, prim| b.iter(|| std::hint::black_box(prim.run_functional(&src, &wei, &[]))),
        );
    }
    g.finish();
}

fn bench_native_vs_naive(c: &mut Criterion) {
    // The native backend runs the frozen blocked plan as host loops; the
    // naive reference is Algorithm 1 reordered so a channel dimension runs
    // innermost (bit-identical to the literal nest). Identical FLOPs,
    // results equal within reassociation, for each training direction.
    let arch = sx_aurora();
    let p = ConvProblem::new(1, 64, 64, 28, 28, 3, 3, 1, 1);
    let src: Vec<f32> = (0..p.n * p.ic * p.ih * p.iw)
        .map(|i| (i % 251) as f32 * 1e-3)
        .collect();
    let wei: Vec<f32> = (0..p.oc * p.ic * p.kh * p.kw)
        .map(|i| (i % 127) as f32 * 1e-4)
        .collect();
    let dst: Vec<f32> = (0..p.n * p.oc * p.oh() * p.ow())
        .map(|i| (i % 193) as f32 * 1e-3)
        .collect();
    let mut g = c.benchmark_group("backend/native_vs_naive");
    g.sample_size(10);
    g.throughput(Throughput::Elements(2 * p.macs()));
    for dir in Direction::ALL {
        g.bench_function(&format!("naive/{dir}"), |b| {
            b.iter(|| std::hint::black_box(naive::reference(&p, dir, &src, &wei, &dst)))
        });
        for alg in Algorithm::ALL {
            let prim = ConvDesc::new(p, dir, alg).create(&arch, 1).unwrap();
            g.bench_with_input(
                BenchmarkId::new(&format!("native/{alg}"), dir),
                &prim,
                |b, prim| {
                    b.iter(|| {
                        std::hint::black_box(prim.run_with_backend(
                            &NativeBackend,
                            &src,
                            &wei,
                            &dst,
                        ))
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_layout_conversion(c: &mut Criterion) {
    let mut arena = Arena::new();
    let t = ActTensor::alloc(&mut arena, 1, 256, 28, 28, ActivationLayout { cb: 32 });
    let data: Vec<f32> = (0..t.elems()).map(|i| i as f32).collect();
    let mut g = c.benchmark_group("substrate/layout");
    g.throughput(Throughput::Elements(t.elems() as u64));
    g.bench_function("store_nchw_256x28x28", |b| {
        b.iter(|| t.store_nchw(&mut arena, std::hint::black_box(&data)))
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_cache_hierarchy,
    bench_set_assoc,
    bench_shadow_lru,
    bench_scoreboard,
    bench_fma_group_timed,
    bench_functional_kernels,
    bench_native_vs_naive,
    bench_layout_conversion,
);
criterion_main!(kernels);
