#!/usr/bin/env bash
# Console-script smoke test: runs the installed `crowdtcn` entry point end to
# end on small synthetic sets, every file under the scratch directory given as
# the only argument. Run it outside the checkout, without PYTHONPATH, after
# `pip install -e .`:
#
#   cd "$(mktemp -d)" && bash /path/to/repo/tests/console_smoke.sh "$PWD"
set -euo pipefail
tmp=$1

crowdtcn synth --out "$tmp/smoke"
crowdtcn synth --geometry corner --out "$tmp/smoke-corner"
crowdtcn synth --geometry t-junction --out "$tmp/smoke-t-junction"
# the Python builder's defaults are the flags' defaults: one default corner set
python -c 'import sys; from crowdtcn.synth import corner_dataset, write_dataset; write_dataset(corner_dataset(), sys.argv[1])' \
  "$tmp/smoke-corner-api"
for name in train.txt test.txt scenario.json; do
  cmp "$tmp/smoke-corner/$name" "$tmp/smoke-corner-api/$name"
done
crowdtcn train -c "$tmp/smoke/run.json" --iterations 2
crowdtcn simulate -c "$tmp/smoke/run.json" \
  --artifact "$tmp/smoke/out/model.bin"
crowdtcn evaluate --scenario "$tmp/smoke/scenario.json" \
  --experiment "$tmp/smoke/test.txt" \
  --simulation "$tmp/smoke/out/test.sim.txt" \
  --output-dir "$tmp/smoke/eval"
crowdtcn features -c "$tmp/smoke/run.json" --which all
# windows.npy is written a block of windows at a time: it must load as
# (N, window, feature_dim), N the row count of targets.npy
python -c 'import json, sys; import numpy as np; from crowdtcn.scenario import load_scenario; d = sys.argv[1]; w = np.load(d + "/out/features/windows.npy"); n = len(np.load(d + "/out/features/targets.npy")); shape = (n, json.load(open(d + "/run.json"))["window"], load_scenario(d + "/scenario.json").feature_dim); sys.exit(w.shape != shape)' \
  "$tmp/smoke"
# a comma-separated copy takes the line loop, the original the one-call
# read: both must train to the same model bytes
sed 's/ /,/g' "$tmp/smoke/train.txt" > "$tmp/smoke/train-comma.txt"
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["training_files"] = ["train-comma.txt"]; d["output_dir"] = "out-comma"; json.dump(d, open(sys.argv[2], "w"))' \
  "$tmp/smoke/run.json" "$tmp/smoke/run-comma.json"
crowdtcn train -c "$tmp/smoke/run-comma.json" --iterations 2
cmp "$tmp/smoke/out/model.bin" "$tmp/smoke/out-comma/model.bin"
# the entry runs one BLAS thread unless the user sets a count, which wins: the
# model's bits must not depend on the thread count
(
  export OPENBLAS_NUM_THREADS=2
  crowdtcn train -c "$tmp/smoke/run.json" --iterations 2 --output-dir "$tmp/smoke/out-blas2"
)
cmp "$tmp/smoke/out/model.bin" "$tmp/smoke/out-blas2/model.bin"
# the corner run makes boundary corrections in closed loop
crowdtcn train -c "$tmp/smoke-corner/run.json" --iterations 2
crowdtcn simulate -c "$tmp/smoke-corner/run.json" \
  --artifact "$tmp/smoke-corner/out/model.bin"
crowdtcn train -c "$tmp/smoke-t-junction/run.json" --iterations 2
# a second t-junction train writes the same model: determinism with a
# validation set of three batch-size chunks
crowdtcn train -c "$tmp/smoke-t-junction/run.json" --iterations 2 \
  --output-dir "$tmp/smoke-t-junction/out-train-again"
cmp "$tmp/smoke-t-junction/out/model.bin" "$tmp/smoke-t-junction/out-train-again/model.bin"
crowdtcn simulate -c "$tmp/smoke-t-junction/run.json" \
  --artifact "$tmp/smoke-t-junction/out/model.bin"
# a second t-junction simulate writes the same paths: determinism on the
# boundary-correction path, which this set takes about 1,700 times
crowdtcn simulate -c "$tmp/smoke-t-junction/run.json" \
  --artifact "$tmp/smoke-t-junction/out/model.bin" --output-dir "$tmp/smoke-t-junction/out-again"
cmp "$tmp/smoke-t-junction/out/test.sim.txt" "$tmp/smoke-t-junction/out-again/test.sim.txt"
# Voronoi profiles on a non-convex walkable region
crowdtcn evaluate --scenario "$tmp/smoke-t-junction/scenario.json" \
  --experiment "$tmp/smoke-t-junction/test.txt" \
  --simulation "$tmp/smoke-t-junction/out/test.sim.txt" \
  --output-dir "$tmp/smoke-t-junction/eval"
# a second evaluate of the same files writes the same tables
crowdtcn evaluate --scenario "$tmp/smoke-t-junction/scenario.json" \
  --experiment "$tmp/smoke-t-junction/test.txt" \
  --simulation "$tmp/smoke-t-junction/out/test.sim.txt" \
  --output-dir "$tmp/smoke-t-junction/eval-again"
for table in metrics.json profiles.csv fd.csv; do
  cmp "$tmp/smoke-t-junction/eval/$table" "$tmp/smoke-t-junction/eval-again/$table"
done
crowdtcn sweep -c "$tmp/smoke/run.json" --iterations 2 \
  --exit-distances 100 --step-degs 18
# one cell from the run config's own sweep section, without axis flags
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["sweep"] = {"exit_distances": [100], "step_degs": [18], "jobs": 1}; d["output_dir"] = "out-sweep"; json.dump(d, open(sys.argv[2], "w"))' \
  "$tmp/smoke/run.json" "$tmp/smoke/run-sweep.json"
crowdtcn sweep -c "$tmp/smoke/run-sweep.json" --iterations 2
# a two-cell grid gives the same table and cell outputs in series and in a
# two-worker pool
for jobs in 1 2; do
  crowdtcn sweep -c "$tmp/smoke/run.json" --iterations 2 \
    --exit-distances 20,100 --step-degs 18 --jobs "$jobs" \
    --output-dir "$tmp/smoke/sweep-jobs-$jobs"
done
cmp "$tmp/smoke/sweep-jobs-1/sweep.csv" "$tmp/smoke/sweep-jobs-2/sweep.csv"
for cell in 20-18 100-18; do
  for name in model.bin test.sim.txt; do
    cmp "$tmp/smoke/sweep-jobs-1/$cell/$name" "$tmp/smoke/sweep-jobs-2/$cell/$name"
  done
done
# the ray flags are a rays override: 5 degree steps give 156 features
crowdtcn synth --geometry t-junction --step-deg 5 --exit-distance 30 \
  --out "$tmp/smoke-rays"
crowdtcn train -c "$tmp/smoke-rays/run.json" --iterations 2
# its direction tensors hold only the taps a window of 8 reaches: 8/4/2
python -c 'import sys; from crowdtcn.tcn import load_model; m = load_model(sys.argv[1]); taps = [m.params[f"b{b}c{j}_v"].shape[2] for b in range(3) for j in (1, 2)]; sys.exit(m.arch.feature_dim != 156 or taps != [8, 8, 4, 4, 2, 2])' \
  "$tmp/smoke-rays/out/model.bin"
# a negative walker count is a configuration error
rc=0
crowdtcn synth --n-train -1 --out "$tmp/smoke-negative" || rc=$?
test "$rc" -eq 2
