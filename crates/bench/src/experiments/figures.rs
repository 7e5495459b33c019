//! Figures 2-6 of the paper.

use super::{Ctx, Outcome};
use crate::{geomean, run_suite, Engine, Row};
use lsv_arch::formula2_rb_min;
use lsv_arch::presets::{aurora_with_vlen_bits, sx_aurora};
use lsv_arch::ArchParams;
use lsv_conv::analysis::{scalar_stream_profile, set_pressure_histogram};
use lsv_conv::footprint::microkernel_footprint;
use lsv_conv::par::par_map;
use lsv_conv::tuning::{kernel_config, split_register_block};
use lsv_conv::{Algorithm, ConvProblem, Direction, ExecutionMode, Pass};
use lsv_models::{resnet_layer, ResNetModel};
use lsv_serve::{resnet_specs, ServeEngine};
use std::fmt::Write as _;

/// The paper's minibatch for the per-layer and vlen sweeps.
const MINIBATCH: usize = 256;

/// Figure 2: micro-kernel memory footprint of the state-of-the-art SIMD
/// direct convolution for 3x3 layers (VGG/ResNet shapes) across vector
/// lengths. The paper's observation: the weights sub-tensor grows
/// quadratically with `N_vlen`, reaching ~9 MB at 16,384-bit vectors.
pub fn figure2(_: &Ctx) -> Outcome {
    // 3x3 layers of VGG and ResNet, labelled by spatial size x channels as
    // in the figure's x-axis.
    let shapes: &[(usize, usize)] = &[
        (224, 64),
        (112, 128),
        (56, 64),
        (56, 256),
        (28, 128),
        (28, 512),
        (14, 256),
        (14, 512),
        (7, 512),
    ];
    let vlens = [512usize, 2048, 4096, 8192, 16384];
    let jobs: Vec<(usize, usize)> = (0..shapes.len())
        .flat_map(|s| (0..vlens.len()).map(move |v| (s, v)))
        .collect();
    let cells = par_map(jobs, |(s, v)| {
        let (hw, c) = shapes[s];
        let arch = aurora_with_vlen_bits(vlens[v]);
        let p = ConvProblem::new(256, c, c, hw, hw, 3, 3, 1, 1);
        let rb = split_register_block(formula2_rb_min(&arch), p.ow(), p.oh());
        let fp = microkernel_footprint(&arch, &p, rb);
        format!(",{:.3}", fp.total_mib())
    });
    let mut out = String::from("layer");
    for v in vlens {
        write!(out, ",{v}b_MiB")?;
    }
    out.push('\n');
    for (s, &(hw, c)) in shapes.iter().enumerate() {
        write!(out, "{hw}x{hw}_{c}ch")?;
        out.extend(
            cells[s * vlens.len()..(s + 1) * vlens.len()]
                .iter()
                .map(String::as_str),
        );
        out.push('\n');
    }
    out.push_str(
        "\n# Paper Figure 2: footprints reach ~9 MiB at 16384-bit vectors for 512-channel layers.\n",
    );
    Ok(vec![out])
}

/// Figure 3: the SIMD direct convolution's scalar memory access pattern on
/// the source tensor — rendered as an ASCII L1 set-pressure heat map per
/// algorithm, from the static stream profile (`lsv_conv::analysis`), on
/// layer 8 (a conflict-predicted layer).
///
/// The paper's figure shows the `N_vlen`-strided walk "stressing a small
/// number of cache sets"; here each column is one of the 128 L1 sets and
/// the bar height is how many lines of one register-block sweep land there.
pub fn figure3(_: &Ctx) -> Outcome {
    const LAYER: usize = 8;
    let arch = sx_aurora();
    let p = resnet_layer(LAYER, MINIBATCH);
    let mut out = String::new();
    writeln!(
        out,
        "layer {LAYER} ({p}) forward-pass scalar stream over S, on {}:",
        arch.name
    )?;
    writeln!(
        out,
        "L1: {} KB, {}-way, {} sets of {}-byte lines\n",
        arch.l1d.size / 1024,
        arch.l1d.ways,
        arch.l1d.sets(),
        arch.l1d.line
    )?;
    for alg in Algorithm::ALL {
        let cfg = kernel_config(&arch, &p, Direction::Fwd, alg, arch.cores);
        let prof = scalar_stream_profile(&arch, &cfg, &p);
        let hist = set_pressure_histogram(&arch, &cfg, &p);
        writeln!(
            out,
            "{:5}: stride {:>5} B, sweep {:>2} points -> {:>3} lines over {:>3} sets (capacity {} lines){}",
            alg.short_name(),
            prof.stride_bytes,
            prof.sweep_len,
            prof.footprint_lines,
            prof.distinct_sets,
            prof.capacity_lines,
            if prof.thrashes { "  ** THRASHES **" } else { "" }
        )?;
        // Eight sets per character cell; height = max lines in the cell.
        let cells: Vec<u32> = hist
            .chunks(8)
            .map(|c| c.iter().copied().max().unwrap_or(0))
            .collect();
        let peak = cells.iter().copied().max().unwrap_or(0).max(1);
        for level in (1..=peak).rev() {
            let row: String = cells
                .iter()
                .map(|&c| if c >= level { '#' } else { ' ' })
                .collect();
            let marker = if level as usize == arch.l1d.ways {
                "  <- associativity limit"
            } else {
                ""
            };
            writeln!(out, "  {:>2} |{row}|{marker}", level)?;
        }
        writeln!(
            out,
            "     +{}+ sets 0..{}\n",
            "-".repeat(cells.len()),
            arch.l1d.sets()
        )?;
    }
    out.push_str(
        "# A bar above the associativity limit means the sweep's lines cannot\n\
         # coexist in those sets: the next channel iteration conflict-misses\n\
         # (Formula 3). MBDC's cache-line blocks place one line per set.\n",
    );
    Ok(vec![out])
}

/// Figure 4: per-layer performance (GFLOP/s and % of peak) of vednn, DC,
/// BDC and MBDC on the Table 3 suite, for all three training directions at
/// minibatch 256, on the 8-core SX-Aurora model. The trailing "geomean"
/// lines aggregate each engine across layers, as in the paper.
pub fn figure4(_: &Ctx) -> Outcome {
    let arch = sx_aurora();
    let rows = run_suite(
        &arch,
        MINIBATCH,
        &Engine::ALL,
        &Direction::ALL,
        ExecutionMode::TimingOnly,
    );
    let mut out = format!("{}\n", Row::csv_header());
    for r in &rows {
        writeln!(out, "{}", r.to_csv())?;
    }
    // Figure 4's aggregate columns: geometric-mean GFLOP/s per engine and
    // direction.
    out.push_str("\n# geomean GFLOP/s (and % of peak) per engine, per direction\n");
    for dir in Direction::ALL {
        for engine in Engine::ALL {
            let g = geomean(
                rows.iter()
                    .filter(|r| r.direction == dir && r.engine == engine)
                    .map(|r| r.perf.gflops),
            );
            let eff = g * 1e9 / arch.peak_flops() * 100.0;
            writeln!(
                out,
                "# {:5} {:6}: {:8.1} GFLOP/s  ({:4.1}% peak)",
                dir,
                engine.name(),
                g,
                eff
            )?;
        }
    }
    Ok(vec![out])
}

/// Figure 5: speed-ups of DC, BDC and MBDC on ResNet-50/101/152 training
/// steps across maximum SIMD length settings (512, 2048, 8192, 16384 bits),
/// normalized to DC at 512-bit, at minibatch 256.
///
/// Paper headline (at 16,384-bit): BDC 1.41/1.44/1.46x over DC on
/// ResNet-50/101/152; MBDC 1.28/1.26x on ResNet-101/152 and ~1x on
/// ResNet-50 (dragged down by the bwdw bank serialization on early layers).
pub fn figure5(_: &Ctx) -> Outcome {
    let vlens = [512usize, 2048, 8192, 16384];
    let engines = [Algorithm::Dc, Algorithm::Bdc, Algorithm::Mbdc].map(ServeEngine::Fixed);
    // Step time (ms) of every (model, vlen, engine): one training-step plan
    // each, run one after another (the first model's plans simulate, the
    // other two replay the same layers from the store).
    let times: Vec<Vec<Vec<f64>>> = ResNetModel::ALL
        .iter()
        .map(|&m| {
            vlens
                .iter()
                .map(|&bits| {
                    let arch = aurora_with_vlen_bits(bits);
                    engines
                        .iter()
                        .map(|&e| step_ms(&arch, m, MINIBATCH, e))
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut out = String::from("model,vlen_bits,algorithm,step_ms,speedup_vs_dc512\n");
    for (m, t) in ResNetModel::ALL.iter().zip(&times) {
        let base = t[0][0];
        for (v, bits) in vlens.iter().enumerate() {
            for (e, engine) in engines.iter().enumerate() {
                let ms = t[v][e];
                let name = engine.name();
                writeln!(out, "{},{bits},{name},{ms:.2},{:.3}", m.name(), base / ms)?;
            }
        }
    }
    out.push_str(
        "\n# Paper Figure 5 (16384-bit): BDC/DC = 1.41 (R50), 1.44 (R101), 1.46 (R152);\n\
         # MBDC/DC = ~1.0 (R50), 1.28 (R101), 1.26 (R152); all ~equal below 8192-bit.\n",
    );
    for (m, t) in ResNetModel::ALL.iter().zip(&times) {
        let (dc, bdc, mbdc) = (t[3][0], t[3][1], t[3][2]);
        let (r_bdc, r_mbdc) = (dc / bdc, dc / mbdc);
        writeln!(
            out,
            "# measured {}: BDC/DC = {r_bdc:.2}x, MBDC/DC = {r_mbdc:.2}x",
            m.name()
        )?;
    }
    Ok(vec![out])
}

/// Figure 6: ResNet-101 training-step throughput (GFLOP/s over all three
/// passes) for vednn, DC, BDC and MBDC across minibatch sizes 8..256.
///
/// Paper behaviour: BDC is best at every minibatch; vednn is slightly
/// faster than DC below minibatch 32 and faster than MBDC at 8, but fails
/// to scale as the problem grows.
pub fn figure6(_: &Ctx) -> Outcome {
    let arch = sx_aurora();
    let model = ResNetModel::R101;
    let engines = [
        ServeEngine::Vednn,
        ServeEngine::Fixed(Algorithm::Dc),
        ServeEngine::Fixed(Algorithm::Bdc),
        ServeEngine::Fixed(Algorithm::Mbdc),
    ];
    let mut out = String::from("minibatch,algorithm,step_ms,gflops\n");
    for mb in [8usize, 16, 32, 64, 128, 256] {
        let flops = model.training_flops(mb) as f64;
        for e in engines {
            let ms = step_ms(&arch, model, mb, e);
            let gflops = flops / (ms / 1e3) / 1e9;
            writeln!(out, "{},{},{:.2},{:.1}", mb, e.name(), ms, gflops)?;
        }
    }
    out.push_str(
        "\n# Paper Figure 6: BDC best everywhere; vednn competitive at small minibatch,\n\
         # does not scale; all direct algorithms scale with problem size.\n",
    );
    Ok(vec![out])
}

/// Milliseconds of one training step of `model` at `minibatch` on `engine`:
/// the total of its `ModelRunner` plan.
fn step_ms(arch: &ArchParams, model: ResNetModel, minibatch: usize, engine: ServeEngine) -> f64 {
    engine
        .plan(
            arch,
            resnet_specs(model, minibatch),
            Pass::TrainingStep,
            ExecutionMode::TimingOnly,
        )
        .total_time_ms()
}
