"""Command-line entry point wiring the whole pipeline into reproducible runs.

Subcommands: train, simulate, evaluate, features, sweep, and synth. A single
JSON run-config document carries the scenario path, dataset file lists, model
hyperparameters, and output directory; command-line flags override individual
fields. Identical config + seed yields byte-identical primary outputs (model
artifacts, trajectory files, metric tables); only wall-time fields in logs
and reports may differ between runs.

A sweep cell is the run config loaded with the cell's ``rays`` and
``output_dir`` overrides, so it is checked by the same reader as any run.

Exit codes: 0 success, 1 runtime failure, 2 configuration or IO error.
Set CROWDTCN_LOG=debug|info|warning to control log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .evaluate import (
    EmptySet,
    TrajectoryPair,
    UnmatchedId,
    ete_pete,
    fde,
    fundamental_diagram,
    profiles,
    tde,
    tte_ptte,
)
from .ingest import (
    NonMonotonicFrames,
    ParseError,
    Samples,
    TooFewSamples,
    build_samples,
    load_step_trajectories,
    load_trajectories,
    split,
    write_trajectory_file,
)
from .scenario import BadConfig, Scenario, load_scenario, merge, read_document, read_section, typed
from .simulate import MissingSeedData, ModelShapeMismatch, SimConfig, run
from .synth import GEOMETRIES, write_dataset
from .tcn import (
    Architecture,
    EmptyDataset,
    ShapeMismatch,
    TrainConfig,
    load_model,
    save_model,
    train,
    write_training_log,
)

__all__ = ["RunConfig", "SweepConfig", "load_run_config", "main"]

log = logging.getLogger("crowdtcn")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

# anything here means the user's config, flags, or input files need fixing
_CONFIG_ERRORS = (
    BadConfig,
    ParseError,
    NonMonotonicFrames,
    TooFewSamples,
    EmptyDataset,
    EmptySet,
    ShapeMismatch,
    ModelShapeMismatch,
    MissingSeedData,
    OSError,
)


@dataclass(frozen=True)
class SweepConfig:
    """The sweep grid of ray exit distances and step angles; jobs cells run at once."""

    exit_distances: tuple = ()
    step_degs: tuple = ()
    jobs: int = 1

    def __post_init__(self):
        for name in ("exit_distances", "step_degs"):
            values = getattr(self, name)
            if not all(type(v) in (int, float) and math.isfinite(v) for v in values):
                raise ValueError(f"{name!r} must be finite numbers, got {list(values)}")
        if self.jobs < 1:
            raise ValueError(f"'jobs' must be at least 1, got {self.jobs}")


@dataclass
class RunConfig:
    """One validated run document; all paths are resolved absolute.

    Training and network settings left out of the document take the
    defaults of TrainConfig and Architecture.
    """

    scenario: Scenario
    training_files: list[Path]
    testing_files: list[Path]
    output_dir: Path
    sim: SimConfig
    sweep: SweepConfig
    split_ratio: tuple = (4, 1)
    seed: int = TrainConfig.seed
    window: int = Architecture.window
    iterations: int = TrainConfig.iterations
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    eval_every: int = TrainConfig.eval_every
    dropout: float = Architecture.dropout
    dtype: str = TrainConfig.dtype
    channels: tuple = Architecture.channels
    kernel_size: int = Architecture.kernel_size
    dilations: tuple = Architecture.dilations

    def __post_init__(self):
        ratio = self.split_ratio
        if len(ratio) != 2 or not all(type(v) is int and v > 0 for v in ratio):
            raise ValueError(f"split_ratio must be two positive integers, got {ratio}")
        self.train_config()
        self.architecture()

    def _settings(self, cls) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(cls) if f.default is not MISSING}

    def architecture(self) -> Architecture:
        return Architecture(feature_dim=self.scenario.feature_dim, **self._settings(Architecture))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._settings(TrainConfig))


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a run-config JSON file.

    overrides maps top-level keys to replacement values (CLI flags, a sweep
    cell's output_dir), and a section name ("sweep", "rays") to values merged
    into that section; None is skipped at every depth. Referenced files must exist.
    """
    path = Path(path)
    # RunConfig's fields, and the radar and rays sections that override the scenario's
    known = {f.name for f in fields(RunConfig)} | {"radar", "rays"}
    doc = read_document(path, "run config", known, overrides)
    base = path.parent.resolve()
    if "scenario" not in doc:
        raise BadConfig(f"run config {path} is missing the 'scenario' path")
    doc["scenario"] = load_scenario(
        (base / typed(doc["scenario"], str, "scenario")).resolve(),
        {section: doc.pop(section) for section in ("radar", "rays") if section in doc},
    )

    def file_list(key):
        names = doc.get(key, [])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise BadConfig(f"{key!r} must be a list of path strings, got {names!r}")
        paths = [(base / name).resolve() for name in names]
        for p in paths:
            if not p.exists():
                raise BadConfig(f"{key} entry not found: {p}")
        return paths

    doc.update(
        training_files=file_list("training_files"),
        testing_files=file_list("testing_files"),
        output_dir=(base / typed(doc.get("output_dir", "out"), str, "output_dir")).resolve(),
        sim=read_section(SimConfig, doc.get("sim", {}), "sim"),
        sweep=read_section(SweepConfig, doc.get("sweep", {}), "sweep"),
    )
    return read_section(RunConfig, doc, "run config")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _collect_samples(cfg: RunConfig, files) -> Samples:
    """Window samples of each file in turn; pedestrians in different files never interact."""
    extractor = cfg.scenario.extractor()
    tables = []
    for f in files:
        trajs = load_trajectories(f, cfg.scenario)
        tables.append(build_samples(trajs, extractor, cfg.window))
        log.info("%s: %d pedestrians, %d samples", f.name, len(trajs), len(tables[-1]))
    return Samples.concat(tables)


def _metric_doc(pair: TrajectoryPair) -> dict:
    ete, pete = ete_pete(pair)
    tte_t, ptte_t = tte_ptte(pair)
    tde_t = tde(pair)
    fde_t = fde(pair)

    def table(t):
        return {
            "mean": t.mean,
            "p95": t.p95,
            "per_pedestrian": {str(k): v for k, v in sorted(t.values.items())},
        }

    return {
        "n_pedestrians": len(pair.matched_ids),
        "ete_s": ete,
        "pete": pete,
        "tte_s": table(tte_t),
        "ptte": table(ptte_t),
        "tde_m": table(tde_t),
        "fde_m": table(fde_t),
    }


def _print_metrics(doc: dict) -> None:
    print(f"pedestrians matched: {doc['n_pedestrians']}")
    print(f"egress time error: {doc['ete_s']:.6g} s ({doc['pete'] * 100:.4g} %)")
    for key, unit, label in (
        ("tte_s", "s", "travel time error"),
        ("ptte", "%", "travel time error fraction"),
        ("tde_m", "m", "trajectory displacement error"),
        ("fde_m", "m", "final displacement error"),
    ):
        t = doc[key]
        scale = 100.0 if unit == "%" else 1.0
        print(
            f"{label}: mean {t['mean'] * scale:.6g} {unit}, "
            f"95th percentile {t['p95'] * scale:.6g} {unit}"
        )


def _write_profile_tables(out_dir: Path, series_list) -> None:
    prof_lines = ["label,step,density,velocity,flow"]
    for s in series_list:
        for i in range(len(s)):
            prof_lines.append(
                f"{s.label},{int(s.steps[i])},{float(s.density[i])!r},"
                f"{float(s.velocity[i])!r},{float(s.flow[i])!r}"
            )
    (out_dir / "profiles.csv").write_text("\n".join(prof_lines) + "\n")
    fd_lines = ["label,step,density,velocity,specific_flow"]
    for label, step, rho, vel, js in fundamental_diagram(series_list):
        fd_lines.append(f"{label},{step},{rho!r},{vel!r},{js!r}")
    (out_dir / "fd.csv").write_text("\n".join(fd_lines) + "\n")


def _train_stage(cfg: RunConfig) -> tuple:
    """Train on the training files; writes model.bin and training_log.csv.
    Returns (model, log rows, dataset split)."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    if not cfg.training_files:
        raise BadConfig("no training_files configured")
    samples = _collect_samples(cfg, cfg.training_files)
    dataset = split(samples, seed=cfg.seed, ratio=cfg.split_ratio)
    model, rows = train(dataset, cfg.train_config(), cfg.architecture())
    save_model(cfg.output_dir / "model.bin", model)
    write_training_log(cfg.output_dir / "training_log.csv", rows)
    return model, rows, dataset


def _simulate_stage(cfg: RunConfig, model, report_extra: dict) -> list[tuple[str, dict, object]]:
    """Simulate every testing file; writes <stem>.sim.txt and <stem>.report.json
    (the run's report plus report_extra). Returns (stem, seeds, result) per file."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    if not cfg.testing_files:
        raise BadConfig("no testing_files configured")
    outputs = []
    for f in cfg.testing_files:
        seeds = load_trajectories(f, cfg.scenario)
        result = run(cfg.scenario, seeds, model, cfg.sim)
        write_trajectory_file(cfg.output_dir / f"{f.stem}.sim.txt", result.trajectories)
        _write_json(cfg.output_dir / f"{f.stem}.report.json", {**result.report, **report_extra})
        outputs.append((f.stem, seeds, result))
    return outputs


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    model, rows, dataset = _train_stage(cfg)
    meta = model.meta
    n_train, n_val = len(dataset.training), len(dataset.validation)
    print(f"samples: {n_train + n_val} ({n_train} training, {n_val} validation)")
    print(f"final train loss: {rows[-1][1]:.6g}")
    print(
        f"validation loss: initial {meta['initial_val_loss']:.6g}, "
        f"best {meta['best_val_loss']:.6g}, final {meta['final_val_loss']:.6g}"
    )
    print(f"model: {cfg.output_dir / 'model.bin'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    try:
        model = load_model(args.artifact)
    except FileNotFoundError:
        raise BadConfig(f"model artifact not found: {args.artifact}")
    except ValueError as exc:
        raise BadConfig(f"cannot load model artifact {args.artifact}: {exc}")
    status = EXIT_OK
    for stem, _seeds, result in _simulate_stage(cfg, model, {"artifact": str(args.artifact)}):
        report = result.report
        flag = " (step cap exceeded)" if result.step_cap_exceeded else ""
        print(
            f"{stem}: {len(result.trajectories)} pedestrians, "
            f"{report['steps_run']} steps, {report['total_corrections']} "
            f"boundary corrections{flag} -> {cfg.output_dir / f'{stem}.sim.txt'}"
        )
        if result.step_cap_exceeded:
            status = EXIT_RUNTIME
    return status


def cmd_evaluate(args) -> int:
    scenario = load_scenario(args.scenario)
    expt = load_trajectories(args.experiment, scenario)
    sim = load_step_trajectories(args.simulation, dt=scenario.dt)
    doc = _metric_doc(TrajectoryPair(expt, sim))
    series = [
        profiles(
            trajectories.values(),
            scenario.walkable_polygon,
            scenario.measurement_area,
            scenario.measurement_width,
            label=label,
        )
        for label, trajectories in (("experiment", expt), ("simulation", sim))
    ]
    # written only once everything is computed, so a failed run leaves no table
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "metrics.json", doc)
    _write_profile_tables(out, series)
    _print_metrics(doc)
    print(f"tables: {out / 'metrics.json'}, {out / 'profiles.csv'}, {out / 'fd.csv'}")
    return EXIT_OK


def cmd_features(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    files = {
        "training": cfg.training_files,
        "testing": cfg.testing_files,
        "all": cfg.training_files + cfg.testing_files,
    }[args.which]
    if not files:
        raise BadConfig(f"no {args.which} files configured")
    samples = _collect_samples(cfg, files)
    if not samples:
        raise EmptyDataset("no window samples could be built from the input files")
    out = cfg.output_dir / "features"
    out.mkdir(parents=True, exist_ok=True)
    for name in ("windows", "targets", "ped_ids", "steps"):
        np.save(out / f"{name}.npy", getattr(samples, name))
    w, f = samples.index.shape[1], samples.frames.shape[1]
    print(f"{len(samples)} samples, window {w}, {f} features -> {out}")
    return EXIT_OK


def _pooled_metrics(per_file: list[dict]) -> dict:
    """Average set-level metrics and pool per-pedestrian ones across files."""
    out = {
        "ete_s": float(np.mean([d["ete_s"] for d in per_file])),
        "pete": float(np.mean([d["pete"] for d in per_file])),
    }
    for key in ("tte_s", "ptte", "tde_m", "fde_m"):
        values = [v for d in per_file for v in d[key]["per_pedestrian"].values()]
        out[key] = float(np.mean(values))
    return out


# the grid's axes: each one's sweep.csv column and the rays key its values set
_SWEEP_AXES = (("exit_distance_m", "exit_distance"), ("ray_step_deg", "step_deg"))
_SWEEP_COLUMNS = [
    "label",
    *(column for column, _ in _SWEEP_AXES),
    *("ete_s", "pete", "tte_s", "ptte", "tde_m", "fde_m", "status"),
]


def _sweep_one(config_path: str, cell: tuple) -> dict:
    """Train, simulate and score one (label, overrides) cell; its sweep.csv row."""
    label, overrides = cell
    row = {"label": label, **{col: overrides["rays"][key] for col, key in _SWEEP_AXES}}
    try:
        cfg = load_run_config(config_path, overrides)
        model, *_ = _train_stage(cfg)
        per_file = []
        for stem, seeds, result in _simulate_stage(cfg, model, {}):
            doc = _metric_doc(TrajectoryPair(seeds, result.trajectories))
            _write_json(cfg.output_dir / f"{stem}.metrics.json", doc)
            per_file.append(doc)
        row.update(_pooled_metrics(per_file), status="ok")
    except Exception as exc:  # per-combination failures must not stop the sweep
        row["status"] = f"failed: {exc}"
    return row


def cmd_sweep(args) -> int:
    overrides = _overrides(args)
    cfg = load_run_config(args.config, overrides)
    grid = cfg.sweep
    if not grid.exit_distances or not grid.step_degs:
        raise BadConfig(
            "sweep needs exit distances and ray step angles "
            "(--exit-distances/--step-degs or a 'sweep' config section)"
        )
    cells = {}
    for de in map(float, grid.exit_distances):
        for beta in map(float, grid.step_degs):
            label = f"{de:g}-{beta:g}"
            if label in cells:
                raise BadConfig(f"two sweep cells share the label {label!r} and its directory")
            rays = {"exit_distance": de, "step_deg": beta}
            cells[label] = {**overrides, "rays": rays, "output_dir": str(cfg.output_dir / label)}
    run_cell = partial(_sweep_one, str(args.config))
    workers = min(grid.jobs, len(cells))
    if workers > 1:
        # imported here: multiprocessing costs every other command about 20 ms at start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_cell, cells.items()))
    else:
        rows = list(map(run_cell, cells.items()))

    cfg.output_dir.mkdir(parents=True, exist_ok=True)

    def text(value):
        return f"{value:.9g}" if isinstance(value, float) else str(value).replace(",", ";")

    lines = [",".join(_SWEEP_COLUMNS)]
    lines += [",".join(text(row.get(col, "")) for col in _SWEEP_COLUMNS) for row in rows]
    table_path = cfg.output_dir / "sweep.csv"
    table_path.write_text("\n".join(lines) + "\n")
    for row in rows:
        if row["status"] == "ok":
            print(
                f"{row['label']}: ETE {row['ete_s']:.4g} s, PETE {row['pete']:.4g}, "
                f"TTE {row['tte_s']:.4g} s, PTTE {row['ptte']:.4g}, "
                f"TDE {row['tde_m']:.4g} m, FDE {row['fde_m']:.4g} m"
            )
        else:
            print(f"{row['label']}: {row['status']}")
    print(f"table: {table_path}")
    return EXIT_OK if all(row["status"] == "ok" for row in rows) else EXIT_RUNTIME


def cmd_synth(args) -> int:
    dataset = GEOMETRIES[args.geometry](seed=args.seed, n_train=args.n_train, n_test=args.n_test)
    # the ray flags are a rays override, checked by the scenario reader
    rays = {k: getattr(args, k) for k in ("step_deg", "exit_distance")}
    dataset.scenario = Scenario.from_dict(merge(dataset.scenario.to_dict(), {"rays": rays}))
    paths = write_dataset(dataset, args.out)
    run_doc = {
        "scenario": paths["scenario"].name,
        "training_files": [paths["training"].name],
        "testing_files": [paths["testing"].name],
        "output_dir": "out",
        "seed": args.seed,
        "window": RunConfig.window,
        "iterations": 800,
        "batch_size": 64,
        "learning_rate": 1e-3,
        "eval_every": RunConfig.eval_every,
    }
    config_path = Path(args.out) / "run.json"
    _write_json(config_path, run_doc)
    print(
        f"{args.geometry}: {len(dataset.training)} training and "
        f"{len(dataset.testing)} testing pedestrians -> {Path(args.out).resolve()}"
    )
    print(f"run config: {config_path}")
    return EXIT_OK


def _overrides(args) -> dict:
    """Flag values by run-config key; the sweep flags merge into its section."""
    keys = ("seed", "iterations", "output_dir", "learning_rate", "batch_size")
    grid = {f.name: getattr(args, f.name, None) for f in fields(SweepConfig)}
    return {**{k: getattr(args, k, None) for k in keys}, "sweep": grid}


def _non_negative_int(text: str) -> int:
    """A non-negative integer flag value."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _float_list(text: str) -> list[float] | None:
    """Comma-separated numbers; None for none, which leaves the config's own."""
    try:
        return [float(v) for v in text.split(",") if v.strip()] or None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {text}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdtcn",
        description="Data-driven crowd simulation: train, simulate, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("-c", "--config", required=True, help="run config JSON path")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--iterations", type=int, help="override training iterations")
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--output-dir", dest="output_dir", help="override the output directory")

    p = sub.add_parser("train", help="train a velocity predictor")
    add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="closed-loop simulation from seed trajectories")
    add_config_flags(p)
    p.add_argument("--artifact", required=True, help="trained model artifact path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="realism metrics for a simulated run")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--experiment", required=True, help="experimental trajectory file")
    p.add_argument("--simulation", required=True, help="simulated trajectory file")
    p.add_argument("--output-dir", dest="output_dir", default="eval-out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("features", help="extract window samples to .npy files")
    add_config_flags(p)
    p.add_argument(
        "--which",
        choices=("training", "testing", "all"),
        default="training",
        help="which file list to featurize",
    )
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("sweep", help="grid over ray exit distance and step angle")
    add_config_flags(p)
    p.add_argument("--exit-distances", type=_float_list, help="comma-separated meters")
    p.add_argument("--step-degs", type=_float_list, help="comma-separated degrees")
    p.add_argument("--jobs", type=int, help="parallel combinations (default 1)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--geometry", choices=sorted(GEOMETRIES), default="corridor")
    p.add_argument("--out", required=True, help="dataset output directory")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--n-train", dest="n_train", type=_non_negative_int, default=50)
    p.add_argument("--n-test", dest="n_test", type=_non_negative_int, default=12)
    p.add_argument("--step-deg", dest="step_deg", type=float)
    p.add_argument("--exit-distance", dest="exit_distance", type=float)
    p.set_defaults(func=cmd_synth)
    return parser


def _setup_logging() -> None:
    name = os.environ.get("CROWDTCN_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnmatchedId as exc:
        # KeyError str() wraps the message in quotes; print it bare
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure
        log.exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
