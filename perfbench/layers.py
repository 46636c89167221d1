"""Time single layers on one workload's inputs, outside the pipeline.

    python3 perfbench/layers.py SPEC.json OUT.json

SPEC.json names the run config, the raw testing file, the trained model and
the training batch size. Each timing is the median of a few repeats after one
warm-up call. The conv operation count is computed from the Architecture, not
measured.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def _median_s(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def conv_flop_per_iter(arch, batch: int) -> int:
    """Multiply-adds x 2 of every convolution in one training iteration.

    Forward: each kernel tap g with shift s = dilation * g < T multiplies a
    (Cout, Cin) matrix into T - s positions; a 1x1 skip conv covers all T.
    Backward costs twice the forward (input and weight gradients).
    """
    T = arch.window
    forward = 0
    for m in range(arch.n_blocks):
        cin, cout = arch.block_channels(m)
        h = arch.dilations[m]
        positions = sum(T - h * g for g in range(arch.kernel_size) if h * g < T)
        forward += 2 * batch * cout * (cin + cout) * positions
        if cin != cout:
            forward += 2 * batch * cout * cin * T
    return 3 * forward


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    t0 = time.perf_counter()
    from crowdtcn import cli

    import_s = time.perf_counter() - t0
    import numpy as np

    from crowdtcn import geometry, ingest, tcn

    cfg = cli.load_run_config(spec["run_config"])
    scenario = cfg.scenario
    out: dict = {"import_s": import_s}

    raw = ingest.parse_trajectories(spec["testing_file"])
    points = np.concatenate([t.positions for t in raw.values()])[:2000]
    polygon = scenario.clipping_polygon

    def clip_all():
        for p in points:
            geometry.point_in_polygon(p, polygon)

    out["geometry.point_in_polygon_us"] = _median_s(clip_all, 3) / len(points) * 1e6

    expt = ingest.load_trajectories(spec["testing_file"], scenario)
    by_step = defaultdict(list)
    for tr in expt.values():
        for k, p in enumerate(tr.positions):
            by_step[tr.enter_step + k].append(p)
    sites = np.array(max(by_step.values(), key=len))
    out["geometry.voronoi_sites"] = len(sites)
    out["geometry.bounded_voronoi_ms"] = (
        _median_s(lambda: geometry.bounded_voronoi(sites, scenario.walkable_polygon), 5) * 1e3
    )

    arch = cfg.architecture()
    batch = spec["batch_size"]
    dtype = np.dtype(cfg.dtype)
    params = tcn.init_params(arch, seed=0, dtype=dtype)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, arch.window, arch.feature_dim)).astype(dtype)
    y = rng.standard_normal((batch, 2)).astype(dtype)
    out["tcn.forward_ms"] = (
        _median_s(lambda: tcn.forward(params, arch, x, training=True, rng=rng), 7) * 1e3
    )
    out["tcn.backward_ms"] = (
        _median_s(lambda: tcn.backward(params, arch, x, y, training=True, rng=rng), 7) * 1e3
    )
    _, grads = tcn.backward(params, arch, x, y, training=True, rng=rng)
    state = tcn.adam_init(params, lr=cfg.learning_rate)
    out["tcn.adam_ms"] = _median_s(lambda: tcn.adam_step(params, grads, state), 7) * 1e3
    z = np.ascontiguousarray(x.transpose(0, 2, 1))
    for m in range(arch.n_blocks):

        def block(z=z, m=m):
            return tcn.residual_block_forward(z, params, arch, m, training=True, rng=rng)

        out[f"tcn.block{m}.forward_ms"] = _median_s(block, 7) * 1e3
        z = tcn.residual_block_forward(z, params, arch, m)
    out["tcn.conv_gflop_per_iter"] = conv_flop_per_iter(arch, batch) / 1e9

    model = tcn.load_model(spec["model"])
    window = np.tile(model.stats.mean, (arch.window, 1))
    out["tcn.predict1_ms"] = _median_s(lambda: model.predict(window), 30) * 1e3

    Path(argv[1]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
