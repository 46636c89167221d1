"""Run one crowdtcn CLI command in this process with per-layer tracing.

    python3 perfbench/traced.py SPANS.json -- train -c run.json ...

The package is not modified: the wrappers below replace module attributes at
the places the pipeline looks them up (for example `cli.build_samples`, which
`cli` imported by name, and `tcn.forward`, which `tcn.backward` looks up as a
module global). Each wrapper records a span around the call; spans nest, so
every name gets a call count, a total time and a self time (total minus the
time of its direct child spans). Counters are recorded at the same places.
Spans stay in memory and are written to SPANS.json when the command ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Aggregated nested spans plus named counters and per-step durations."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.step_ms: list[float] = []
        self._children: list[float] = []  # child time of each open span

    def call(self, name, fn, *args, **kwargs):
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            child = self._children.pop()
            if self._children:
                self._children[-1] += elapsed
            self.calls[name] += 1
            self.total[name] += elapsed
            self.self_time[name] += elapsed - child

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(result, args) records counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def to_dict(self) -> dict:
        return {
            "spans": {
                k: {"calls": self.calls[k], "total_s": self.total[k], "self_s": self.self_time[k]}
                for k in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "step_ms": self.step_ms,
        }


def _max_present(trajectories) -> int:
    occupancy = defaultdict(int)
    for tr in trajectories.values():
        for step in range(tr.enter_step, tr.last_step + 1):
            occupancy[step] += 1
    return max(occupancy.values(), default=0)


class _CountingModel:
    """The Model handed to simulate.run, with predict counted and timed."""

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self._tracer = tracer
        self.arch = model.arch

    def predict(self, windows):
        self._tracer.counts["simulate.predict_calls"] += 1
        return self._tracer.call("simulate.predict", self._model.predict, windows)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer that the CLI commands reach."""
    from crowdtcn import cli, evaluate, features, ingest, simulate, tcn

    counts = tracer.counts

    def after_parse(tracks, _args):
        counts["ingest.raw_rows"] += sum(len(t.frames) for t in tracks.values())

    resample = ingest.resample

    @functools.wraps(resample)
    def counted_resample(*args, **kwargs):
        try:
            return resample(*args, **kwargs)
        except ingest.TooShort:
            counts["ingest.tracks_dropped"] += 1
            raise

    ingest.parse_trajectories = tracer.wrap(
        "ingest.parse_trajectories", ingest.parse_trajectories, after_parse
    )
    ingest.resample = tracer.wrap("ingest.resample", counted_resample)

    def after_samples(samples, args):
        trajectories = args[0]
        counts["features.samples"] += len(samples)
        counts["features.frames"] += sum(tr.n_steps for tr in trajectories.values())
        counts["features.max_present"] = max(
            counts["features.max_present"], _max_present(trajectories)
        )

    cli.build_samples = tracer.wrap("features.build_samples", cli.build_samples, after_samples)
    features.FeatureExtractor.frame = tracer.wrap("features.frame", features.FeatureExtractor.frame)

    def after_train(_result, args):
        counts["tcn.iterations"] += args[1].iterations

    cli.train = tracer.wrap("tcn.train", cli.train, after_train)
    tcn.forward = tracer.wrap("tcn.forward", tcn.forward)
    tcn.backward = tracer.wrap("tcn.backward", tcn.backward)
    tcn.adam_step = tracer.wrap("tcn.adam_step", tcn.adam_step)
    block_forward = tcn.residual_block_forward

    @functools.wraps(block_forward)
    def residual_block_forward(z, params, arch, m, *args, **kwargs):
        return tracer.call(
            f"tcn.block{m}.forward", block_forward, z, params, arch, m, *args, **kwargs
        )

    tcn.residual_block_forward = residual_block_forward

    simulate_run = cli.run

    @functools.wraps(simulate_run)
    def run(scenario, seeds, model, *args, **kwargs):
        frame_s = tracer.total["features.frame"]
        result = tracer.call(
            "simulate.run", simulate_run, scenario, seeds, _CountingModel(model, tracer),
            *args, **kwargs,
        )
        report = result.report
        counts["simulate.steps"] += report["steps_run"]
        counts["simulate.ped_steps"] += sum(
            p["travel_steps"] for p in report["pedestrians"].values()
        )
        counts["simulate.corrections"] += report["total_corrections"]
        counts["simulate.features_s"] += tracer.total["features.frame"] - frame_s
        return result

    cli.run = run
    world_step = simulate.SimWorld.step

    @functools.wraps(world_step)
    def step(self):
        t0 = time.perf_counter()
        tracer.call("simulate.step", world_step, self)
        tracer.step_ms.append((time.perf_counter() - t0) * 1e3)

    simulate.SimWorld.step = step

    for name in ("ete_pete", "tte_ptte", "tde", "fde"):
        setattr(cli, name, tracer.wrap("evaluate.errors", getattr(cli, name)))
    cli.profiles = tracer.wrap("evaluate.profiles", cli.profiles)
    evaluate.bounded_voronoi = tracer.wrap("geometry.bounded_voronoi", evaluate.bounded_voronoi)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- <crowdtcn arguments>", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    from crowdtcn import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv[2:])
    finally:
        doc = tracer.to_dict()
        doc["import_s"] = import_s
        Path(argv[0]).write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
