#!/usr/bin/env bash
# CI gate: formatting, lints, build, tests, and the kernel-verifier sweep.
# Any step failing fails the run.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release --workspace

echo "== lsvbench golden ledger (smoke: a few items of every workload)"
# Exits 1 on any mismatch against the golden ledger, a results/ row or a
# replay checksum.
./target/release/lsvbench --workload all --smoke

echo "== lsvbench golden ledger (full: one pass of every sweep_cold, tune_cold and validate_functional item)"
# The smoke subset skips most layers: a one-cycle drift on a skipped layer
# passes every test and artifact gate and only the full sweep_cold ledger
# catches it. tune_cold runs every tuner candidate through the timed
# grouped B_seq path (the smoke subset covers one group) and pins each
# tuned result. validate_functional pins every validated rel_err bit.
./target/release/lsvbench --workload sweep_cold --seconds 1
./target/release/lsvbench --workload tune_cold --seconds 1
./target/release/lsvbench --workload validate_functional --seconds 1

echo "== cargo test"
cargo test --workspace -q

echo "== lint-kernels (full arch family, static-only; deny findings are errors; lint.json must equal results/lint.json)"
# The experiment sweeps every 512..16384-bit family member and fails on any
# deny finding. The analyzer never simulates; `cargo test` above already ran
# lsv-analyze's agreement tests, which hold its verdicts against a traced
# replay over the seed corpus and the smoke's 50 randomized cases. The
# report's `instruction #N` messages pin every kernel's recorded instruction
# stream, so the committed file is compared, never rewritten.
mkdir -p results/logs
./target/release/lsvconv-cli run lint-kernels --out results/logs/ci-lint
cmp results/logs/ci-lint/lint.json results/lint.json

echo "== differential fuzz (smoke: seed corpus + bounded randomized sweep)"
cargo run --release -p lsv-bench --bin lsvconv-cli -- fuzz --smoke

echo "== differential fuzz, native backend (smoke: host-speed functional path)"
cargo run --release -p lsv-bench --bin lsvconv-cli -- fuzz --smoke --backend native

echo "== profile smoke (reconciliation + profile.json schema are hard errors)"
cargo run --release -p lsv-bench --bin lsvconv-cli -- profile --smoke --out results/ci-profile

echo "== layer-store smoke (cold == results/mpki.csv; cold -> warm >= 5x + byte-identical; store-off equality)"
STORE_SMOKE_DIR=results/.ci-store
STORE_SMOKE_OUT=results/logs
mkdir -p "$STORE_SMOKE_OUT"
rm -rf "$STORE_SMOKE_DIR"
t0=$(date +%s%N)
./target/release/lsvconv-cli run mpki --store-dir "$STORE_SMOKE_DIR" \
    --out "$STORE_SMOKE_OUT/ci-store-cold" >/dev/null 2>&1
t1=$(date +%s%N)
./target/release/lsvconv-cli run mpki --store-dir "$STORE_SMOKE_DIR" \
    --out "$STORE_SMOKE_OUT/ci-store-warm" >/dev/null 2>&1
t2=$(date +%s%N)
cmp "$STORE_SMOKE_OUT/ci-store-cold/mpki.csv" "$STORE_SMOKE_OUT/ci-store-warm/mpki.csv"
cmp "$STORE_SMOKE_OUT/ci-store-cold/mpki.csv" results/mpki.csv
cold_ms=$(((t1 - t0) / 1000000))
warm_ms=$(((t2 - t1) / 1000000))
echo "   cold ${cold_ms}ms, warm ${warm_ms}ms"
if [ $((warm_ms * 5)) -gt "$cold_ms" ]; then
    echo "store smoke: warm pass (${warm_ms}ms) not >=5x faster than cold (${cold_ms}ms)" >&2
    exit 1
fi
./target/release/lsvconv-cli run mpki --no-store \
    --out "$STORE_SMOKE_OUT/ci-store-off" >/dev/null 2>&1
cmp "$STORE_SMOKE_OUT/ci-store-cold/mpki.csv" "$STORE_SMOKE_OUT/ci-store-off/mpki.csv"
rm -rf "$STORE_SMOKE_DIR"

echo "== validate artifact gate (cold store; validate.csv must equal results/validate.csv)"
VALIDATE_STORE_DIR=results/.ci-validate-store
rm -rf "$VALIDATE_STORE_DIR"
./target/release/lsvconv-cli run validate --store-dir "$VALIDATE_STORE_DIR" \
    --out "$STORE_SMOKE_OUT/ci-validate" >/dev/null 2>&1
cmp "$STORE_SMOKE_OUT/ci-validate/validate.csv" results/validate.csv
rm -rf "$VALIDATE_STORE_DIR"

echo "== layer meter gate (cold store; figure4.csv, ablation.csv and crossisa.csv must equal results/)"
# Direct kernels, the vednn baseline and the ablation's overridden configs
# are all measured by one representative-core slice through one store memo:
# the committed per-layer artifacts pin that meter, crossisa on the
# non-Aurora presets too.
METER_STORE_DIR=results/.ci-meter-store
for name in figure4 ablation crossisa; do
    rm -rf "$METER_STORE_DIR"
    ./target/release/lsvconv-cli run "$name" --store-dir "$METER_STORE_DIR" \
        --out "$STORE_SMOKE_OUT/ci-$name" >/dev/null 2>&1
    cmp "$STORE_SMOKE_OUT/ci-$name/$name.csv" "results/$name.csv"
done
rm -rf "$METER_STORE_DIR"

echo "== model roll-up gate (cold store; figure6.csv must equal results/figure6.csv)"
# Every engine, vednn included, prices ResNet-101 through one ModelRunner
# plan per minibatch: the committed totals pin the roll-up's one
# cycles-to-ms conversion and its one summation order.
FIGURE6_STORE_DIR=results/.ci-figure6-store
rm -rf "$FIGURE6_STORE_DIR"
./target/release/lsvconv-cli run figure6 --store-dir "$FIGURE6_STORE_DIR" \
    --out "$STORE_SMOKE_OUT/ci-figure6" >/dev/null 2>&1
cmp "$STORE_SMOKE_OUT/ci-figure6/figure6.csv" results/figure6.csv
rm -rf "$FIGURE6_STORE_DIR"

echo "== serving smoke (queue sweep + trace; warm replay must be byte-identical)"
SERVE_STORE_DIR=results/.ci-serve-store
SERVE_TRACE_COLD=results/.ci-serve-trace-cold
SERVE_TRACE_WARM=results/.ci-serve-trace-warm
rm -rf "$SERVE_STORE_DIR" "$SERVE_TRACE_COLD" "$SERVE_TRACE_WARM"
./target/release/lsvconv-cli serve --smoke --store-dir "$SERVE_STORE_DIR" \
    --trace "$SERVE_TRACE_COLD" \
    >"$STORE_SMOKE_OUT/ci-serve-cold.txt" 2>/dev/null
./target/release/lsvconv-cli serve --smoke --store-dir "$SERVE_STORE_DIR" \
    --trace "$SERVE_TRACE_WARM" \
    >"$STORE_SMOKE_OUT/ci-serve-warm.txt" 2>/dev/null
# The `wrote <path>` lines name the (different) cold/warm trace dirs;
# everything else on stdout must replay byte-identically.
grep -v '^wrote ' "$STORE_SMOKE_OUT/ci-serve-cold.txt" >"$STORE_SMOKE_OUT/ci-serve-cold.cmp"
grep -v '^wrote ' "$STORE_SMOKE_OUT/ci-serve-warm.txt" >"$STORE_SMOKE_OUT/ci-serve-warm.cmp"
cmp "$STORE_SMOKE_OUT/ci-serve-cold.cmp" "$STORE_SMOKE_OUT/ci-serve-warm.cmp"
# The trace must reconcile bit-for-bit (the CLI exits 1 otherwise, but the
# explicit grep keeps the contract visible in the CI transcript) and the
# warm-store replay must reproduce every trace artifact byte-identically.
# metrics.json is excluded on purpose: cold and warm runs legitimately
# differ in store hit/miss counters.
grep -q "trace reconciliation: exact" "$STORE_SMOKE_OUT/ci-serve-cold.txt"
cmp "$SERVE_TRACE_COLD/serving_trace.json" "$SERVE_TRACE_WARM/serving_trace.json"
cmp "$SERVE_TRACE_COLD/serving_trace.perfetto.json" "$SERVE_TRACE_WARM/serving_trace.perfetto.json"
cmp "$SERVE_TRACE_COLD/serving_timeseries.csv" "$SERVE_TRACE_WARM/serving_timeseries.csv"
rm -rf "$SERVE_TRACE_COLD" "$SERVE_TRACE_WARM"

echo "== tuned-engine serving (cold store, then warm: identical stdout, 0 warm misses)"
# The only CI step that runs the empirical tuner end to end: a cold run
# searches and stores every decision, the warm run must replay them
# without a single store miss and print the same report.
TUNED_STORE_DIR=results/.ci-tuned-store
rm -rf "$TUNED_STORE_DIR"
for pass in cold warm; do
    ./target/release/lsvconv-cli serve --smoke --engine tuned --metrics \
        --store-dir "$TUNED_STORE_DIR" \
        >"$STORE_SMOKE_OUT/ci-tuned-$pass.txt" 2>/dev/null
    grep -v 'store\.' "$STORE_SMOKE_OUT/ci-tuned-$pass.txt" >"$STORE_SMOKE_OUT/ci-tuned-$pass.cmp"
done
cmp "$STORE_SMOKE_OUT/ci-tuned-cold.cmp" "$STORE_SMOKE_OUT/ci-tuned-warm.cmp"
grep -Eq 'store\.misses += 0$' "$STORE_SMOKE_OUT/ci-tuned-warm.txt"
rm -rf "$TUNED_STORE_DIR"

echo "== bench-serving (smoke; BENCH_serving.json schema validation is a hard error)"
./target/release/lsvconv-cli run bench-serving --smoke --store-dir "$SERVE_STORE_DIR" \
    --out "$STORE_SMOKE_OUT/ci-serving" >/dev/null 2>&1
rm -rf "$SERVE_STORE_DIR"

echo "== bench-native (smoke: layer GFLOP/s + sim-vs-native corpus speedup)"
./target/release/lsvconv-cli run bench-native --smoke --out results/logs/ci-bench-native

echo "== cargo bench (smoke mode: 1 sample per benchmark)"
LSV_BENCH_SMOKE=1 cargo bench --workspace -q

echo "CI OK"
