#!/bin/sh
# Regenerate every artifact under results/ with one harness process:
# `lsvconv-cli run --all` runs the experiments in order over one shared
# layer store (cross-experiment dedup), writes each artifact atomically
# (validated, then renamed into place; a failing experiment writes nothing
# and stops the run), and logs per-experiment wall times to
# results/logs/regen_times.txt and store counters to
# results/logs/<name>.store.json. Harness stderr goes to
# results/logs/regen.log.
#
# The store ($LSV_STORE_DIR, default results/.layer-store) is wiped first so
# committed artifacts always come from a cold, fully re-simulated pass; set
# KEEP_STORE=1 to replay a previous run's store instead (warm regen).
set -eu
cd "$(dirname "$0")"

LSV_STORE_DIR=${LSV_STORE_DIR:-results/.layer-store}
export LSV_STORE_DIR
if [ "${KEEP_STORE:-0}" != "1" ]; then
    rm -rf "$LSV_STORE_DIR"
fi
mkdir -p results/logs
./target/release/lsvconv-cli run --all --out results 2>results/logs/regen.log
