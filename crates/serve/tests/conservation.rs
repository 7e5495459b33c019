//! Conservation: a `ModelRunner` plan's total must be bit-identical to the
//! hand-summed per-layer `time_ms x count` product — one cycles-to-ms
//! conversion, one summation order (layers outer, directions inner), no
//! hidden overheads, no double counting, same store-served slices either
//! way — for the direct engines and the vednn baseline alike.

use lsv_arch::presets::sx_aurora;
use lsv_conv::{
    bench_layer, ConvProblem, Direction, ExecutionMode, Kernel, LayerSpec, ModelPlan, Pass,
};
use lsv_models::ResNetModel;
use lsv_serve::{resnet_specs, ServeEngine};
use lsv_vednn::bench_layer_vednn;

const MODE: ExecutionMode = ExecutionMode::TimingOnly;

/// Σ `time_ms(layer, direction) x count`, layers outer, directions inner;
/// `time_ms` also receives the plan entry's kernel.
fn hand_sum(
    plan: &ModelPlan,
    layers: &[LayerSpec],
    pass: Pass,
    time_ms: impl Fn(&ConvProblem, Direction, Kernel) -> f64,
) -> f64 {
    let mut hand = 0.0;
    for (id, spec) in layers.iter().enumerate() {
        for &d in pass.directions() {
            let e = plan.entry(id, d).expect("entry per (layer, dir)");
            hand += time_ms(&spec.problem, d, e.kernel) * spec.count as f64;
        }
    }
    hand
}

/// The per-layer time of a plan entry, re-measured outside the runner.
fn layer_ms(p: &ConvProblem, d: Direction, kernel: Kernel) -> f64 {
    let arch = sx_aurora();
    match kernel {
        Kernel::Direct(alg) => bench_layer(&arch, p, d, alg, MODE).time_ms,
        Kernel::Library("vednn") => bench_layer_vednn(&arch, p, d, MODE).time_ms,
        Kernel::Library(other) => panic!("unexpected kernel {other}"),
    }
}

fn assert_conserved(engine: ServeEngine, layers: Vec<LayerSpec>, pass: Pass) -> ModelPlan {
    let plan = engine.plan(&sx_aurora(), layers.clone(), pass, MODE);
    assert_eq!(plan.entries.len(), layers.len() * pass.directions().len());
    let hand = hand_sum(&plan, &layers, pass, layer_ms);
    let total = plan.total_time_ms();
    assert_eq!(
        total.to_bits(),
        hand.to_bits(),
        "{} runner total {total} ms != hand-summed {hand} ms",
        engine.name()
    );
    plan
}

#[test]
fn inference_schedule_equals_hand_summed_layer_times() {
    let model = ResNetModel::R50;
    let mb = 8; // one image per core: the cheapest real sweep point
    for engine in [
        ServeEngine::Fixed(lsv_conv::Algorithm::Bdc),
        ServeEngine::Vednn,
    ] {
        let plan = assert_conserved(engine, resnet_specs(model, mb), Pass::Inference);
        assert_eq!(
            plan.entries.iter().map(|e| e.count).sum::<usize>(),
            model.total_conv_layers(),
            "plan covers every conv occurrence exactly once"
        );
    }
}

#[test]
fn training_schedule_equals_hand_summed_layer_times() {
    // Small synthetic model: the same conservation law over all three
    // directions without a debug-build 19-layer bwdw sweep.
    let layers = vec![
        LayerSpec::new(ConvProblem::new(8, 32, 32, 10, 10, 3, 3, 1, 1), 3),
        LayerSpec::new(ConvProblem::new(8, 64, 16, 8, 8, 1, 1, 1, 0), 2),
    ];
    for engine in [
        ServeEngine::Fixed(lsv_conv::Algorithm::Mbdc),
        ServeEngine::Vednn,
    ] {
        assert_conserved(engine, layers.clone(), Pass::TrainingStep);
    }
}
