"""End-to-end and per-layer benchmark of the crowdtcn pipeline.

    python3 perfbench/run.py --workload corridor --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout with numpy and scipy installed;
nothing is built. Each workload generates its inputs from --seed in set-up,
then runs the real CLI commands train, simulate and evaluate one after
another, each in a fresh interpreter: a closed loop with one client. Passes
repeat while the next one fits in --seconds, and at least MIN_PASSES times;
their outputs must match byte for byte. BLAS threading is left at the user's
default and recorded.

With --trace 0 the last line of stdout holds the end-to-end metrics. With
--trace 1 it holds the per-layer metrics of one untraced and one traced pass,
single-layer timings and a process-pool probe (see perfbench/README.md). The
line before it is an environment record. Inputs and outputs live under
.perfbench_work/ and are removed after a run whose checks all pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 170
MIN_PASSES = 3
SETUP_REPEATS_PER_PASS = 3

CORRIDOR_ITERATIONS = 200
DENSE_WALKERS = 56  # per file; all are present at once after the last entry
DENSE_PER_STEP = 4
DENSE_ITERATIONS = 100
# the pool probe: `crowdtcn sweep` over a 2x2 grid on a small t-junction
POOL_TRAIN, POOL_TEST = 12, 4
POOL_ITERATIONS = 20
POOL_EXIT_DISTANCES = (20.0, 50.0)
POOL_STEP_DEGS = (5.0, 18.0)


def _run(argv: list[str], log: Path) -> tuple[int, float]:
    """Run one command to completion; returns (exit code, wall seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "ab") as sink:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=sink, stderr=sink, start_new_session=True
        )
        try:
            rc = proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            rc = proc.wait()
        elapsed = time.perf_counter() - t0
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)  # pool workers left behind, if any
    return rc, elapsed


def _crowdtcn(*args) -> list[str]:
    return [sys.executable, "-m", "crowdtcn", *map(str, args)]


def _sha(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _walkers(path: Path) -> int:
    lines = path.read_text().splitlines()
    return len({line.split()[0] for line in lines if not line.startswith("#")})


def _val_loss_ratio(log: Path) -> float:
    val = [float(line.split(",")[2]) for line in log.read_text().splitlines()[1:]]
    return min(val) / val[0]


def _synth(argv: list) -> None:
    from crowdtcn import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["synth", *map(str, argv)])
    if rc:
        raise RuntimeError(f"crowdtcn synth exited with {rc}")


class Checks:
    """Operations attempted, each failing if any of its checks misses."""

    def __init__(self):
        self.attempted = 0
        self.misses: list[str] = []
        self.reference: dict[str, str] = {}

    def op(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.misses.append(f"{name}: {'; '.join(problems)}")

    def same_bytes(self, key: str, path: Path, problems: list[str]) -> None:
        """path must hold the same bytes every time key is checked."""
        digest = _sha(path)
        if digest is None:
            problems.append(f"{path.name} missing")
        elif self.reference.setdefault(key, digest) != digest:
            problems.append(f"{path.name} differs from the first pass")


class Corridor:
    """The bundled smoke dataset exactly as `crowdtcn synth` writes it."""

    name = "corridor"
    iterations = CORRIDOR_ITERATIONS
    batch_size = 64

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.data = work / "data"
        self.seed = seed

    def setup(self) -> None:
        _synth(["--geometry", "corridor", "--seed", self.seed, "--out", self.data])

    def generate(self) -> None:
        """The dataset builder alone, without writing files."""
        from crowdtcn import synth

        synth.corridor_dataset(seed=self.seed)

    def commands(self, out: Path) -> dict[str, list[str]]:
        d = self.data
        return {
            "train": _crowdtcn(
                "train", "-c", d / "run.json", "--iterations", self.iterations,
                "--output-dir", out,
            ),
            "simulate": _crowdtcn(
                "simulate", "-c", d / "run.json", "--output-dir", out,
                "--artifact", out / "model.bin",
            ),
            "evaluate": _crowdtcn(
                "evaluate", "--scenario", d / "scenario.json", "--experiment", d / "test.txt",
                "--simulation", out / "test.sim.txt", "--output-dir", out / "eval",
            ),
        }

    def check(self, out: Path, codes: dict[str, int], checks: Checks) -> dict:
        """Check one pass's outputs; returns its quality figures."""
        n_test = _walkers(self.data / "test.txt")
        quality = {}
        problems = [f"exit code {codes['train']}"] if codes["train"] else []
        checks.same_bytes("model.bin", out / "model.bin", problems)
        if not problems:
            quality["val_loss_ratio"] = _val_loss_ratio(out / "training_log.csv")
        checks.op("train", problems)

        problems = [f"exit code {codes['simulate']}"] if codes["simulate"] else []
        checks.same_bytes("test.sim.txt", out / "test.sim.txt", problems)
        report_path = out / "test.report.json"
        if report_path.exists():
            report = json.loads(report_path.read_text())
            if report["step_cap_exceeded"]:
                problems.append("step cap exceeded")
            exited = sum(p["exited"] for p in report["pedestrians"].values())
            quality["exited_fraction"] = exited / n_test
        checks.op("simulate", problems)

        problems = [f"exit code {codes['evaluate']}"] if codes["evaluate"] else []
        metrics_path = out / "eval" / "metrics.json"
        if metrics_path.exists():
            doc = json.loads(metrics_path.read_text())
            if doc["n_pedestrians"] != n_test:
                problems.append(f"{doc['n_pedestrians']} pedestrians scored, {n_test} walked")
            quality["tde_m"] = doc["tde_m"]["mean"]
        else:
            problems.append("metrics.json missing")
        checks.op("evaluate", problems)
        return quality


def dense_dataset(seed: int):
    """Corridor walkers re-entered DENSE_PER_STEP per step on stride-multiple
    frames, so that more than 50 are present at once in each file."""
    import numpy as np

    from crowdtcn import synth
    from crowdtcn.ingest import RawTrack

    base = synth.corridor_dataset(n_train=DENSE_WALKERS, n_test=DENSE_WALKERS, seed=seed)
    stride = base.scenario.frame_stride

    def restagger(tracks):
        out = [
            RawTrack(
                id=tr.id,
                frames=stride * (j // DENSE_PER_STEP) + np.arange(len(tr.frames)),
                positions=tr.positions,
            )
            for j, tr in enumerate(tracks)
        ]
        occupancy: dict[int, int] = {}
        for tr in out:
            for f in tr.frames[::stride]:
                occupancy[int(f)] = occupancy.get(int(f), 0) + 1
        peak = max(occupancy.values())
        if peak < 50:
            raise RuntimeError(f"dense workload reaches only {peak} walkers at once")
        return out

    return synth.SyntheticDataset(
        scenario=base.scenario, training=restagger(base.training), testing=restagger(base.testing)
    )


class Dense(Corridor):
    """The corridor with walkers restaggered so that over 50 are present at once."""

    name = "dense"
    iterations = DENSE_ITERATIONS

    def setup(self):
        from crowdtcn import synth

        paths = synth.write_dataset(dense_dataset(self.seed), self.data)
        run_doc = {  # the keys and values `crowdtcn synth` writes
            "scenario": paths["scenario"].name,
            "training_files": [paths["training"].name],
            "testing_files": [paths["testing"].name],
            "output_dir": "out",
            "seed": self.seed,
            "window": 8,
            "iterations": 800,
            "batch_size": self.batch_size,
            "learning_rate": 1e-3,
            "eval_every": 50,
        }
        (self.data / "run.json").write_text(json.dumps(run_doc, indent=2, sort_keys=True) + "\n")

    def generate(self):
        dense_dataset(self.seed)


WORKLOADS = {w.name: w for w in (Corridor, Dense)}


def _run_pass(wl: Corridor, out: Path, checks: Checks, spans: Path | None = None):
    """One closed-loop pass; returns (per-command seconds, quality)."""
    out.mkdir(parents=True)
    codes, times = {}, {}
    for name, argv in wl.commands(out).items():
        if spans is not None:
            trace_file = spans / f"{name}.json"
            argv = [sys.executable, str(BENCH / "traced.py"), str(trace_file), "--", *argv[3:]]
        codes[name], times[name] = _run(argv, wl.work / "commands.log")
    return times, wl.check(out, codes, checks)


def _setup(wl: Corridor, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def _pool_probe(work: Path, seed: int, checks: Checks) -> dict[int, float]:
    """Wall seconds of one `crowdtcn sweep` at --jobs nproc and at --jobs 1."""
    data = work / "pool"
    _synth(["--geometry", "t-junction", "--seed", seed, "--n-train", POOL_TRAIN,
            "--n-test", POOL_TEST, "--out", data])
    labels = [f"{de:g}-{beta:g}" for de in POOL_EXIT_DISTANCES for beta in POOL_STEP_DEGS]
    times = {}
    for jobs in sorted({os.cpu_count() or 1, 1}, reverse=True):
        out = data / f"jobs-{jobs}"
        rc, times[jobs] = _run(
            _crowdtcn(
                "sweep", "-c", data / "run.json", "--iterations", POOL_ITERATIONS,
                "--exit-distances", ",".join(f"{v:g}" for v in POOL_EXIT_DISTANCES),
                "--step-degs", ",".join(f"{v:g}" for v in POOL_STEP_DEGS),
                "--jobs", jobs, "--output-dir", out,
            ),
            work / "commands.log",
        )
        problems = [f"exit code {rc}"] if rc else []
        table = out / "sweep.csv"
        lines = table.read_text().splitlines()[1:] if table.exists() else []
        status = {ln.split(",")[0]: ln.split(",")[-1] for ln in lines}
        for label in labels:
            if status.get(label) != "ok":
                problems.append(f"cell {label}: {status.get(label, 'missing')}")
            for name in ("model.bin", "test.sim.txt"):
                checks.same_bytes(f"pool/{label}/{name}", out / label / name, problems)
        checks.op(f"sweep --jobs {jobs}", problems)
    return times


def _environment(wl: Corridor) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "workload": wl.name,
        "seed": wl.seed,
    }


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _tail(step_ms: list[float]) -> tuple[float, float]:
    """The highest of p50/p90/p99/p99.9 with at least ten steps beyond it."""
    n = len(step_ms)
    q = max([p for p in (90.0, 99.0, 99.9) if n * (100 - p) / 100 >= 10], default=50.0)
    return q, _percentile(step_ms, q)


def _merge(paths: list[Path]) -> dict:
    """Sum the spans and counters of the traced commands of one pass."""
    spans: dict = {}
    counts: dict = {}
    step_ms: list[float] = []
    imports = []
    for path in paths:
        doc = json.loads(path.read_text())
        for name, s in doc["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in agg:
                agg[k] += s[k]
        for name, v in doc["counts"].items():
            merge = max if name == "features.max_present" else lambda a, b: a + b
            counts[name] = merge(counts.get(name, 0), v)
        step_ms += doc["step_ms"]
        imports.append(doc["import_s"])
    return {"spans": spans, "counts": counts, "step_ms": step_ms, "imports": imports}


def _layer_metrics(wl, traced, layers, quality, times, traced_s, pool) -> dict:
    """Per-layer figures; times are the untraced pass's command wall times."""
    spans, counts = traced["spans"], traced["counts"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def count(name):
        return counts.get(name, 0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    generate = []
    for _ in range(3):
        t0 = time.perf_counter()
        wl.generate()
        generate.append(time.perf_counter() - t0)
    iter_ms = total("tcn.train") / count("tcn.iterations") * 1e3
    profile_steps = calls("geometry.bounded_voronoi")
    tail_q, tail = _tail(traced["step_ms"])
    jobs = max(pool)
    speedup = pool[1] / pool[jobs]
    return {
        "cli.import_s": (statistics.median(traced["imports"] + [layers["import_s"]]), "s"),
        "cli.train_s": (times["train"], "s"),
        "cli.simulate_s": (times["simulate"], "s"),
        "cli.evaluate_s": (times["evaluate"], "s"),
        "synth.generate_s": (statistics.median(generate), "s"),
        "ingest.parse_s": (total("ingest.parse_trajectories"), "s"),
        "ingest.resample_s": (total("ingest.resample"), "s"),
        "ingest.raw_rows": (count("ingest.raw_rows"), "count"),
        "ingest.tracks_dropped": (count("ingest.tracks_dropped"), "count"),
        "features.build_samples_s": (total("features.build_samples"), "s"),
        "features.frames": (count("features.frames"), "count"),
        "features.us_per_frame": (
            total("features.build_samples") / max(1, count("features.frames")) * 1e6, "us"
        ),
        "features.samples": (count("features.samples"), "count"),
        "features.max_present": (count("features.max_present"), "count"),
        "features.frame_calls": (calls("features.frame"), "count"),
        "features.frame_us": (
            total("features.frame") / max(1, calls("features.frame")) * 1e6, "us"
        ),
        "geometry.point_in_polygon_us": (layers["geometry.point_in_polygon_us"], "us"),
        "geometry.voronoi_sites": (layers["geometry.voronoi_sites"], "count"),
        "geometry.bounded_voronoi_ms": (layers["geometry.bounded_voronoi_ms"], "ms"),
        "tcn.train_s": (total("tcn.train"), "s"),
        "tcn.iter_ms": (iter_ms, "ms"),
        "tcn.forward_ms": (layers["tcn.forward_ms"], "ms"),
        "tcn.backward_ms": (layers["tcn.backward_ms"], "ms"),
        "tcn.adam_ms": (layers["tcn.adam_ms"], "ms"),
        "tcn.block0.forward_ms": (layers["tcn.block0.forward_ms"], "ms"),
        "tcn.block1.forward_ms": (layers["tcn.block1.forward_ms"], "ms"),
        "tcn.block2.forward_ms": (layers["tcn.block2.forward_ms"], "ms"),
        "tcn.conv_gflop_per_iter": (layers["tcn.conv_gflop_per_iter"], "GFLOP"),
        "tcn.train_gflops": (layers["tcn.conv_gflop_per_iter"] / (iter_ms / 1e3), "GFLOP/s"),
        "tcn.predict1_ms": (layers["tcn.predict1_ms"], "ms"),
        "tcn.val_loss_ratio": (quality["val_loss_ratio"], "1"),
        "simulate.steps": (count("simulate.steps"), "count"),
        "simulate.ped_steps": (count("simulate.ped_steps"), "count"),
        "simulate.step_ms.p50": (_percentile(traced["step_ms"], 50.0), "ms"),
        "simulate.step_ms.tail": (tail, "ms"),
        "simulate.step_ms.tail_pct": (tail_q, "%"),
        "simulate.predict_calls": (count("simulate.predict_calls"), "count"),
        "simulate.predict_s": (total("simulate.predict"), "s"),
        "simulate.non_predict_s": (total("simulate.run") - total("simulate.predict"), "s"),
        "simulate.features_s": (count("simulate.features_s"), "s"),
        "simulate.corrections": (count("simulate.corrections"), "count"),
        "evaluate.errors_s": (total("evaluate.errors"), "s"),
        "evaluate.profiles_s": (total("evaluate.profiles"), "s"),
        "evaluate.profile_steps": (profile_steps, "count"),
        "evaluate.voronoi_ms_per_step": (
            total("geometry.bounded_voronoi") / max(1, profile_steps) * 1e3, "ms"
        ),
        "evaluate.tde_m": (quality["tde_m"], "m"),
        "sweep.pool_s": (pool[jobs], "s"),
        "sweep.serial_s": (pool[1], "s"),
        "sweep.speedup": (speedup, "x"),
        "sweep.efficiency": (speedup / jobs, "1"),
        "trace.overhead_s": (traced_s - sum(times.values()), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crowdtcn" / "cli.py").is_file():
        print(f"error: no crowdtcn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crowdtcn.cli  # noqa: F401  imported once, outside the set-up timings

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work, args.seed)
    env = _environment(wl)
    checks = Checks()
    setup_times = _setup(wl, 1)

    if args.trace:
        times, quality = _run_pass(wl, work / "pass-0", checks)
        spans = work / "spans"
        spans.mkdir()
        traced_times, _ = _run_pass(wl, work / "pass-1", checks, spans=spans)
        pool = _pool_probe(work, args.seed, checks)
        spec = work / "layers-spec.json"
        spec.write_text(json.dumps({
            "run_config": str(wl.data / "run.json"),
            "testing_file": str(wl.data / "test.txt"),
            "model": str(work / "pass-0" / "model.bin"),
            "batch_size": wl.batch_size,
        }))
        layer_out = work / "layers.json"
        rc, _ = _run([sys.executable, str(BENCH / "layers.py"), str(spec), str(layer_out)],
                     work / "commands.log")
        checks.op("layers", [f"exit code {rc}"] if rc else [])
        metrics = {}
        if not checks.misses:
            traced = _merge(sorted(spans.glob("*.json")))
            metrics = _layer_metrics(
                wl, traced, json.loads(layer_out.read_text()),
                quality, times, sum(traced_times.values()), pool,
            )
            env["spans"] = traced["spans"]
        env.update(untraced_s=times, traced_s=traced_times, sweep_s=pool)
    else:
        passes: list[dict[str, float]] = []
        quality = {}
        started = time.perf_counter()
        while len(passes) < MIN_PASSES or (
            time.perf_counter() - started + sum(passes[-1].values()) <= args.seconds
        ):
            times, q = _run_pass(wl, work / f"pass-{len(passes)}", checks)
            passes.append(times)
            quality = quality or q
            # spread set-up samples over the run; set-up rewrites identical inputs
            setup_times += _setup(wl, SETUP_REPEATS_PER_PASS)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pipeline_s": (statistics.median(sum(p.values()) for p in passes), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "exited_fraction": (quality.get("exited_fraction", 0.0), "1"),
            "ok_fraction": (1.0 - len(checks.misses) / checks.attempted, "1"),
        }
        env.update(passes=passes, tde_m=quality.get("tde_m"),
                   val_loss_ratio=quality.get("val_loss_ratio"))
    env["setup_s"] = setup_times

    for miss in checks.misses:
        print(f"check failed: {miss}", file=sys.stderr)
    if checks.misses:
        print(f"outputs kept in {work}", file=sys.stderr)
    else:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not checks.misses,
        "attempted": checks.attempted,
        "failed": len(checks.misses),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
