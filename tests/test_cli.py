"""End-to-end tests for the command-line interface.

All runs use a miniature synthetic corridor and a deliberately small network
so the whole file stays fast; main() is called in-process and exercised
through its argv interface exactly as the console script would.
"""

import io
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crowdtcn import cli
from crowdtcn.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, load_run_config, main
from crowdtcn.ingest import parse_trajectories
from crowdtcn.scenario import BadConfig, Scenario, load_scenario
from crowdtcn.simulate import SimConfig
from crowdtcn.tcn import Architecture, TrainConfig, load_model, save_model


MICRO = {
    "scenario": "scenario.json",
    "training_files": ["train.txt"],
    "testing_files": ["test.txt"],
    "output_dir": "out",
    "seed": 0,
    "window": 8,
    "iterations": 40,
    "batch_size": 32,
    "learning_rate": 1e-3,
    "eval_every": 20,
    "channels": [6, 8],
    "dilations": [1, 2],
    "kernel_size": 4,
}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A small corridor dataset plus a micro run config."""
    root = tmp_path_factory.mktemp("cli-data")
    rc = main(
        [
            "synth",
            "--geometry",
            "corridor",
            "--out",
            str(root),
            "--seed",
            "0",
            "--n-train",
            "12",
            "--n-test",
            "4",
        ]
    )
    assert rc == EXIT_OK
    (root / "micro.json").write_text(json.dumps(MICRO))
    return root


@pytest.fixture(scope="module")
def trained_dir(dataset_dir):
    """dataset_dir after one training run of the micro config."""
    rc = main(["train", "-c", str(dataset_dir / "micro.json")])
    assert rc == EXIT_OK
    assert (dataset_dir / "out" / "model.bin").exists()
    assert (dataset_dir / "out" / "training_log.csv").exists()
    return dataset_dir


@pytest.fixture(scope="module")
def simulated(trained_dir):
    """trained_dir after one simulate run: out/test.sim.txt and its report."""
    artifact = str(trained_dir / "out" / "model.bin")
    rc = main(["simulate", "-c", str(trained_dir / "micro.json"), "--artifact", artifact])
    assert rc == EXIT_OK


def test_synth_writes_complete_dataset(dataset_dir):
    for name in ("scenario.json", "train.txt", "test.txt", "run.json"):
        assert (dataset_dir / name).exists()
    doc = json.loads((dataset_dir / "run.json").read_text())
    assert doc["training_files"] == ["train.txt"]


def test_synth_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        rc = main(
            ["synth", "--out", str(tmp_path / sub), "--seed", "3", "--n-train", "5", "--n-test", "2"]
        )
        assert rc == EXIT_OK
    for name in ("scenario.json", "train.txt", "test.txt", "run.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("flag, value", [("--step-deg", "7"), ("--exit-distance", "5")])
def test_synth_bad_ray_setting_is_exit_2(tmp_path, capsys, flag, value):
    assert main(["synth", "--out", str(tmp_path), flag, value]) == EXIT_CONFIG
    assert flag[2:].replace("-", "_") in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed", "--n-train", "--n-test"])
def test_synth_negative_count_is_exit_2(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exit_:
        main(["synth", "--out", str(tmp_path / "d"), flag, "-1"])
    assert exit_.value.code == EXIT_CONFIG
    assert f"argument {flag}: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_run_config_validation(dataset_dir, tmp_path):
    cfg = load_run_config(dataset_dir / "micro.json")
    assert cfg.scenario.feature_dim == 104
    assert cfg.channels == (6, 8)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**MICRO, "bogus_key": 1}))
    with pytest.raises(BadConfig, match="bogus_key"):
        load_run_config(bad)

    missing = tmp_path / "missing.json"
    missing.write_text(
        json.dumps(
            {
                **MICRO,
                "scenario": str(dataset_dir / "scenario.json"),
                "training_files": ["absent.txt"],
            }
        )
    )
    with pytest.raises(BadConfig, match="absent.txt"):
        load_run_config(missing)


def _run_config(dataset_dir, path, **changes):
    doc = {**MICRO, "scenario": str(dataset_dir / "scenario.json"), **changes}
    doc["training_files"] = [str(dataset_dir / "train.txt")]
    doc["testing_files"] = [str(dataset_dir / "test.txt")]
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "key, value",
    [
        ("iterations", "many"),
        ("seed", "x"),
        ("channels", 5),
        ("split_ratio", [4]),
        ("split_ratio", [4, 0]),
        ("eval_every", 0),
        ("batch_size", 0),
        ("iterations", -1),
        ("learning_rate", -1.0),
        ("dtype", "bogus"),
        ("sim", {"standoff": -1}),
        ("radar", 5),
        ("rays", 5),
        ("channels", [0, 8]),
        ("channels", [6.5, 8]),
        ("dilations", [-1, 2]),
        ("dilations", [0, 2]),
        ("window", 7.5),
        ("iterations", True),
        ("seed", "7"),
        ("batch_size", "64"),
        ("learning_rate", "1e-3"),
        ("dropout", "0.2"),
        ("dtype", 32),
        ("sim", {"drop_short_seeds": "no"}),
        ("sim", {"standoff": True}),
        ("seed", -1),
    ],
)
def test_run_config_bad_value_names_its_key(dataset_dir, tmp_path, key, value):
    path = _run_config(dataset_dir, tmp_path / "bad.json", **{key: value})
    with pytest.raises(BadConfig, match=key):
        load_run_config(path)


def test_output_dir_of_wrong_type_is_exit_2(dataset_dir, tmp_path, capsys):
    path = _run_config(dataset_dir, tmp_path / "run.json", output_dir=5)
    with pytest.raises(BadConfig, match="output_dir"):
        load_run_config(path)
    assert main(["train", "-c", str(path)]) == EXIT_CONFIG
    assert "output_dir" in capsys.readouterr().err


def test_run_config_defaults_are_the_config_classes(dataset_dir, tmp_path):
    doc = {
        "scenario": str(dataset_dir / "scenario.json"),
        "training_files": [str(dataset_dir / "train.txt")],
        "testing_files": [str(dataset_dir / "test.txt")],
    }
    (tmp_path / "bare.json").write_text(json.dumps(doc))
    cfg = load_run_config(tmp_path / "bare.json")
    assert cfg.train_config() == TrainConfig()
    assert cfg.architecture() == Architecture(feature_dim=cfg.scenario.feature_dim)
    assert cfg.sim == SimConfig()
    # an integral number is accepted for an integer key, and kept an int
    path = _run_config(dataset_dir, tmp_path / "integral.json", window=8.0, iterations=40.0)
    cfg = load_run_config(path)
    assert (cfg.window, cfg.iterations) == (8, 40)
    assert type(cfg.window) is int and type(cfg.iterations) is int


def test_bad_run_config_value_is_exit_2(dataset_dir, tmp_path, capsys):
    path = _run_config(dataset_dir, tmp_path / "bad.json", eval_every=0)
    rc = main(["train", "-c", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "eval_every" in capsys.readouterr().err


def test_run_config_ray_overrides(dataset_dir, tmp_path):
    doc = {**MICRO, "scenario": str(dataset_dir / "scenario.json"), "rays": {"step_deg": 5.0}}
    doc["training_files"] = [str(dataset_dir / "train.txt")]
    doc["testing_files"] = [str(dataset_dir / "test.txt")]
    p = tmp_path / "override.json"
    p.write_text(json.dumps(doc))
    cfg = load_run_config(p)
    assert cfg.scenario.feature_dim == 156  # 37 rays instead of 11

    # the sections merge before validation: a run-config exit distance
    # repairs a scenario whose own is too short, and its step angle stays
    scenario = json.loads((dataset_dir / "scenario.json").read_text())
    scenario["rays"]["exit_distance"] = 5.0
    (tmp_path / "short.json").write_text(json.dumps(scenario))
    with pytest.raises(BadConfig, match="exit_distance"):
        load_run_config(_run_config(dataset_dir, p, scenario=str(tmp_path / "short.json")))
    path = _run_config(
        dataset_dir, p, scenario=str(tmp_path / "short.json"), rays={"exit_distance": 50.0}
    )
    rays = load_run_config(path).scenario.rays
    assert (rays.step_deg, rays.exit_distance) == (scenario["rays"]["step_deg"], 50.0)


def test_none_override_keeps_the_file_value_at_every_depth(dataset_dir, tmp_path):
    def seen(cfg):  # a Scenario holds arrays, so compare its document
        return {**vars(cfg), "scenario": cfg.scenario.to_dict()}

    for own in ({}, {"rays": {"step_deg": 9.0}, "sweep": {"jobs": 2}}):
        path = _run_config(dataset_dir, tmp_path / "run.json", **own)
        plain = seen(load_run_config(path))
        assert seen(load_run_config(path, {"rays": {"step_deg": None}})) == plain
        nones = {"seed": None, "sweep": {"jobs": None}, "radar": {"radius": None}}
        assert seen(load_run_config(path, nones)) == plain


def test_train_writes_artifact_and_log(trained_dir, capsys):
    text = (trained_dir / "out" / "training_log.csv").read_text()
    assert text.splitlines()[0] == "iteration,train_loss,val_loss,wall_time_s"
    # iteration 0 and the final iteration are always logged
    rows = [line.split(",") for line in text.splitlines()[1:]]
    iters = [int(row[0]) for row in rows]
    assert iters[0] == 0 and iters[-1] == 40
    for _, train_loss, val_loss, wall_time in rows:
        # losses at 9 significant digits, wall time in seconds to the millisecond
        assert all(f"{float(v):.9g}" == v for v in (train_loss, val_loss))
        assert re.fullmatch(r"\d+\.\d{3}", wall_time)


def test_train_is_reproducible(dataset_dir, tmp_path):
    arts = []
    for sub in ("r1", "r2"):
        rc = main(
            ["train", "-c", str(dataset_dir / "micro.json"), "--output-dir", str(tmp_path / sub)]
        )
        assert rc == EXIT_OK
        arts.append((tmp_path / sub / "model.bin").read_bytes())
    assert arts[0] == arts[1]


def test_seed_flag_changes_artifact(dataset_dir, tmp_path, trained_dir):
    rc = main(
        [
            "train",
            "-c",
            str(dataset_dir / "micro.json"),
            "--seed",
            "9",
            "--output-dir",
            str(tmp_path / "s9"),
        ]
    )
    assert rc == EXIT_OK
    base = (trained_dir / "out" / "model.bin").read_bytes()
    assert (tmp_path / "s9" / "model.bin").read_bytes() != base


def test_simulate_writes_trajectories_and_report(trained_dir):
    rc = main(
        [
            "simulate",
            "-c",
            str(trained_dir / "micro.json"),
            "--artifact",
            str(trained_dir / "out" / "model.bin"),
        ]
    )
    assert rc == EXIT_OK
    sim = trained_dir / "out" / "test.sim.txt"
    report = json.loads((trained_dir / "out" / "test.report.json").read_text())
    assert sim.exists()
    assert report["step_cap_exceeded"] is False
    assert len(report["pedestrians"]) == 4
    # rerun is byte-identical
    before = sim.read_bytes()
    main(
        [
            "simulate",
            "-c",
            str(trained_dir / "micro.json"),
            "--artifact",
            str(trained_dir / "out" / "model.bin"),
        ]
    )
    assert sim.read_bytes() == before


def test_simulate_takes_the_window_from_the_artifact(trained_dir, tmp_path):
    # the run config's window is for training; the artifact (window 8) decides
    artifact = str(trained_dir / "out" / "model.bin")
    for window in (8, 4):
        config = _run_config(
            trained_dir, tmp_path / f"w{window}.json", window=window, output_dir=f"out{window}"
        )
        assert main(["simulate", "-c", str(config), "--artifact", artifact]) == EXIT_OK
    sims = [(tmp_path / f"out{w}" / "test.sim.txt").read_bytes() for w in (8, 4)]
    assert sims[0] == sims[1]


def test_simulate_shape_mismatch_is_config_error(trained_dir, tmp_path):
    # a model trained for 104 features cannot drive a 156-feature scenario
    doc = json.loads((trained_dir / "micro.json").read_text())
    doc["rays"] = {"step_deg": 5.0}
    p = trained_dir / "mismatch.json"
    p.write_text(json.dumps(doc))
    rc = main(
        ["simulate", "-c", str(p), "--artifact", str(trained_dir / "out" / "model.bin")]
    )
    assert rc == EXIT_CONFIG


def test_simulate_non_finite_prediction_is_runtime_error(trained_dir, tmp_path, capsys):
    model = load_model(trained_dir / "out" / "model.bin")
    model.params["out_b"] = np.full_like(model.params["out_b"], np.nan)
    save_model(tmp_path / "nan.bin", model)
    sim = trained_dir / "out" / "test.sim.txt"
    before = sim.read_bytes() if sim.exists() else None
    config = str(trained_dir / "micro.json")
    rc = main(["simulate", "-c", config, "--artifact", str(tmp_path / "nan.bin")])
    assert rc == EXIT_RUNTIME
    assert "non-finite velocity for pedestrians" in capsys.readouterr().err
    assert (sim.read_bytes() if sim.exists() else None) == before


@pytest.mark.usefixtures("simulated")
def test_evaluate_outputs_all_tables(trained_dir, capsys):
    out = trained_dir / "out" / "eval"
    rc = main(
        [
            "evaluate",
            "--scenario",
            str(trained_dir / "scenario.json"),
            "--experiment",
            str(trained_dir / "test.txt"),
            "--simulation",
            str(trained_dir / "out" / "test.sim.txt"),
            "--output-dir",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    doc = json.loads((out / "metrics.json").read_text())
    for key in ("ete_s", "pete", "tte_s", "ptte", "tde_m", "fde_m"):
        assert key in doc
    assert doc["n_pedestrians"] == 4
    header = (out / "fd.csv").read_text().splitlines()[0]
    assert header == "label,step,density,velocity,specific_flow"
    prof = (out / "profiles.csv").read_text()
    assert "experiment," in prof and "simulation," in prof
    assert "np.float64" not in prof


@pytest.mark.usefixtures("simulated")
def test_evaluate_identity_is_all_zero(trained_dir, tmp_path):
    # evaluating a simulation file against itself: parse it as both sides
    sim_file = trained_dir / "out" / "test.sim.txt"
    out = tmp_path / "ev"
    # build an experiment whose resampled form equals the simulation exactly:
    # the sim file is already at step resolution, so reuse it with a
    # step-resolution scenario (frame_rate 2.0 -> stride 1, no smoothing,
    # clipping widened so the final post-exit point survives ingestion)
    doc = json.loads((trained_dir / "scenario.json").read_text())
    doc["frame_rate"] = 2.0
    doc["smoothing"] = {"enabled": False}
    doc["clipping_polygon"] = [[-5.0, -5.0], [25.0, -5.0], [25.0, 5.0], [-5.0, 5.0]]
    doc["rays"]["exit_distance"] = 50.0
    scn2 = tmp_path / "scn2.json"
    scn2.write_text(json.dumps(doc))
    rc = main(
        [
            "evaluate",
            "--scenario",
            str(scn2),
            "--experiment",
            str(sim_file),
            "--simulation",
            str(sim_file),
            "--output-dir",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["ete_s"] == 0.0 and metrics["pete"] == 0.0
    for key in ("tte_s", "ptte", "tde_m", "fde_m"):
        assert metrics[key]["mean"] == 0.0
        assert metrics[key]["p95"] == 0.0


@pytest.mark.usefixtures("simulated")
def test_evaluate_unmatched_id_is_runtime_error(trained_dir, tmp_path, capsys):
    sim = (trained_dir / "out" / "test.sim.txt").read_text()
    bumped = tmp_path / "bumped.txt"
    lines = []
    for line in sim.splitlines():
        if line.startswith("#"):
            lines.append(line)
        else:
            fields = line.split()
            fields[0] = str(int(fields[0]) + 100)
            lines.append(" ".join(fields))
    bumped.write_text("\n".join(lines) + "\n")
    rc = main(
        [
            "evaluate",
            "--scenario",
            str(trained_dir / "scenario.json"),
            "--experiment",
            str(trained_dir / "test.txt"),
            "--simulation",
            str(bumped),
            "--output-dir",
            str(tmp_path / "ev2"),
        ]
    )
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    for pid in (101, 102, 103, 104):
        assert str(pid) in err


def test_evaluate_names_coincident_pedestrians(dataset_dir, tmp_path, capsys):
    # two simulated pedestrians meet at step 1 in the middle of the
    # measurement area; the run fails with their ids, not their sites
    a, b = sorted(parse_trajectories(dataset_dir / "test.txt"))[:2]
    x, y = map(float, load_scenario(dataset_dir / "scenario.json").measurement_area.mean(axis=0))
    sim = tmp_path / "meet.sim.txt"
    rows = [f"{pid} {k} {x + side * (1 - k)!r} {y!r}" for pid, side in ((a, -1), (b, 1)) for k in range(3)]
    sim.write_text("\n".join(rows) + "\n")
    rc = main(
        [
            "evaluate",
            "--scenario",
            str(dataset_dir / "scenario.json"),
            "--experiment",
            str(dataset_dir / "test.txt"),
            "--simulation",
            str(sim),
            "--output-dir",
            str(tmp_path / "ev"),
        ]
    )
    assert rc == EXIT_RUNTIME
    assert f"error: simulation: pedestrians {a} and {b} coincide at step 1\n" in capsys.readouterr().err
    # a failed evaluate writes none of its tables
    for table in ("metrics.json", "profiles.csv", "fd.csv"):
        assert not (tmp_path / "ev" / table).exists()


def _evaluate(dataset_dir, out, scenario=None, experiment=None):
    # the clean testing file stands in for the simulation: same 4-column layout
    return main(
        [
            "evaluate",
            "--scenario",
            str(scenario or dataset_dir / "scenario.json"),
            "--experiment",
            str(experiment or dataset_dir / "test.txt"),
            "--simulation",
            str(dataset_dir / "test.txt"),
            "--output-dir",
            str(out),
        ]
    )


def test_non_convex_measurement_area_is_exit_2(dataset_dir, tmp_path, capsys):
    assert _evaluate(dataset_dir, tmp_path / "ok") == EXIT_OK
    doc = json.loads((dataset_dir / "scenario.json").read_text())
    doc["measurement_area"] = [[2, 2], [8, 2], [8, 4], [4, 4], [4, 8], [2, 8]]
    with pytest.raises(BadConfig, match="measurement_area must be convex"):
        Scenario.from_dict(doc)
    scn = tmp_path / "l_shape.json"
    scn.write_text(json.dumps(doc))
    assert _evaluate(dataset_dir, tmp_path / "ev", scenario=scn) == EXIT_CONFIG
    assert "measurement_area must be convex" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("heading", [None, [1.0]])
def test_malformed_default_heading_is_exit_2(dataset_dir, tmp_path, capsys, heading):
    doc = json.loads((dataset_dir / "scenario.json").read_text())
    doc["default_heading"] = heading
    scn = tmp_path / "heading.json"
    scn.write_text(json.dumps(doc))
    assert _evaluate(dataset_dir, tmp_path / "ev", scenario=scn) == EXIT_CONFIG
    assert "default_heading" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("clipping_polygon", [[0.0, -1.5], [10.0, -1.5]]),
        ("measurement_area", [[4.0, -1.5], [6.0, -1.5], [6.0, -1.5]]),
        ("walkable_polygon", [[0.0, -1.5], [10.0, 1.5], [10.0, -1.5], [0.0, 1.5]]),
        ("static_velocity_mode", "x"),
    ],
)
def test_bad_scenario_value_names_its_key(dataset_dir, tmp_path, capsys, key, value):
    doc = json.loads((dataset_dir / "scenario.json").read_text())
    doc[key] = value
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    path = _run_config(dataset_dir, tmp_path / "run.json", scenario=str(tmp_path / "scenario.json"))
    assert main(["train", "-c", str(path), "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"invalid {key}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("scenario", 5),
        ("training_files", "train.txt"),
        ("training_files", [5]),
        ("testing_files", "test.txt"),
        ("testing_files", None),
    ],
)
def test_run_config_path_of_wrong_type_is_exit_2(dataset_dir, tmp_path, capsys, key, value):
    doc = {
        **MICRO,
        "scenario": str(dataset_dir / "scenario.json"),
        "training_files": [str(dataset_dir / "train.txt")],
        "testing_files": [str(dataset_dir / "test.txt")],
        key: value,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(BadConfig, match=key):
        load_run_config(path)
    assert main(["train", "-c", str(path), "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_non_finite_wall_is_exit_2(dataset_dir, tmp_path, capsys):
    doc = json.loads((dataset_dir / "scenario.json").read_text())
    doc["walls"][0][1][1] = float("nan")
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    run = {
        **MICRO,
        "scenario": str(tmp_path / "scenario.json"),
        "training_files": [str(dataset_dir / "train.txt")],
        "testing_files": [str(dataset_dir / "test.txt")],
        "output_dir": str(tmp_path / "out"),
    }
    (tmp_path / "run.json").write_text(json.dumps(run))
    assert main(["train", "-c", str(tmp_path / "run.json")]) == EXIT_CONFIG
    assert "invalid walls: non-finite coordinate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_config_number_too_large_for_a_float_is_exit_2(dataset_dir, tmp_path, capsys):
    path = _run_config(dataset_dir, tmp_path / "big.json", learning_rate=10**400)
    rc = main(["train", "-c", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "learning_rate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_past_the_parser_digit_limit_is_exit_2(dataset_dir, tmp_path, capsys):
    # json refuses to convert integer literals of more than 4300 digits
    path = _run_config(dataset_dir, tmp_path / "huge.json", learning_rate=0)
    huge = path.read_text().replace('"learning_rate": 0', '"learning_rate": ' + "1" * 5000)
    path.write_text(huge)
    rc = main(["train", "-c", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _set_wall_coordinate(doc, value):
    doc["walls"][0][1][1] = value


@pytest.mark.parametrize(
    "label, change",
    [
        ("frame_rate", lambda doc: doc.update(frame_rate=10**399)),
        ("walls", lambda doc: _set_wall_coordinate(doc, 10**400)),
    ],
)
def test_scenario_number_too_large_for_a_float_is_exit_2(
    dataset_dir, tmp_path, capsys, label, change
):
    doc = json.loads((dataset_dir / "scenario.json").read_text())
    change(doc)
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    path = _run_config(dataset_dir, tmp_path / "run.json", scenario=str(tmp_path / "scenario.json"))
    rc = main(["train", "-c", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert label in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("train", "rays", "exit_distance", float("inf")),
        ("train", "radar", "sector_deg", float("inf")),
        ("train", None, "frame_rate", float("inf")),
        ("simulate", "sim", "step_cap_factor", float("inf")),
        ("simulate", "sim", "standoff", float("nan")),
        ("evaluate", None, "measurement_width", float("nan")),
    ],
)
def test_non_finite_setting_is_exit_2(
    trained_dir, tmp_path, capsys, command, section, key, value
):
    # section None puts the value in the scenario file, otherwise in the run config
    scenario = json.loads((trained_dir / "scenario.json").read_text())
    changes = {"scenario": str(tmp_path / "scenario.json"), "output_dir": str(tmp_path / "out")}
    if section is None:
        scenario[key] = value
    else:
        changes[section] = {key: value}
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    config = _run_config(trained_dir, tmp_path / "run.json", **changes)
    if command == "evaluate":
        rc = _evaluate(trained_dir, tmp_path / "out", scenario=tmp_path / "scenario.json")
    else:
        argv = [command, "-c", str(config)]
        if command == "simulate":
            argv += ["--artifact", str(trained_dir / "out" / "model.bin")]
        rc = main(argv)
    assert rc == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_scenario_that_is_not_an_object_is_exit_2(trained_dir, tmp_path, capsys, command):
    (tmp_path / "scenario.json").write_text(json.dumps([1, 2]))
    changes = {"scenario": str(tmp_path / "scenario.json"), "output_dir": str(tmp_path / "out")}
    config = _run_config(trained_dir, tmp_path / "run.json", **changes)
    if command == "evaluate":
        rc = _evaluate(trained_dir, tmp_path / "out", scenario=tmp_path / "scenario.json")
    else:
        rc = main(["train", "-c", str(config)])
    assert rc == EXIT_CONFIG
    assert "must be a JSON object, got list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, merged",
    [("smoothing", False), ("radar", False), ("rays", False), ("radar", True), ("rays", True)],
)
def test_scenario_section_that_is_not_an_object_is_exit_2(
    trained_dir, tmp_path, capsys, section, merged
):
    # merged: the run config has its own section of that name to merge in
    scenario = json.loads((trained_dir / "scenario.json").read_text())
    scenario[section] = 5
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    changes = {"scenario": str(tmp_path / "scenario.json"), "output_dir": str(tmp_path / "out")}
    if merged:
        changes[section] = {}
    config = _run_config(trained_dir, tmp_path / "run.json", **changes)
    assert main(["train", "-c", str(config)]) == EXIT_CONFIG
    assert f"{section!r} must be a JSON object, got int" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("window", 9.5),
        ("window", "9"),
        ("polyorder", 2.5),
        ("polyorder", True),
        ("enabled", "no"),
        ("enabled", 1),
        ("before_resample", True),
    ],
)
def test_malformed_smoothing_section_is_exit_2(dataset_dir, tmp_path, capsys, key, value):
    doc = json.loads((dataset_dir / "scenario.json").read_text())
    doc["smoothing"][key] = value
    scn = tmp_path / "smoothing.json"
    scn.write_text(json.dumps(doc))
    assert _evaluate(dataset_dir, tmp_path / "ev", scenario=scn) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_integral_float_smoothing_settings_are_accepted(dataset_dir, tmp_path):
    doc = json.loads((dataset_dir / "scenario.json").read_text())
    doc["smoothing"].update(window=9.0, polyorder=3.0)
    smoothing = Scenario.from_dict(doc).smoothing
    assert (smoothing.window, smoothing.polyorder) == (9, 3)
    assert type(smoothing.window) is int and type(smoothing.polyorder) is int
    scn = tmp_path / "smoothing.json"
    scn.write_text(json.dumps(doc))
    assert _evaluate(dataset_dir, tmp_path / "float", scenario=scn) == EXIT_OK
    assert _evaluate(dataset_dir, tmp_path / "int") == EXIT_OK
    for name in ("metrics.json", "profiles.csv", "fd.csv"):
        assert (tmp_path / "float" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()


@pytest.mark.parametrize(
    "key, value, label",
    [
        ("dt", "0.5", "dt"),
        ("frame_rate", True, "frame_rate"),
        ("measurement_width", "4", "measurement_width"),
        ("name", 5, "name"),
        ("radar", {"radius": True}, "radar.radius"),
        ("radar", {"sector_deg": "18"}, "radar.sector_deg"),
        ("rays", {"step_deg": True}, "rays.step_deg"),
        ("rays", {"exit_distance": "100"}, "rays.exit_distance"),
    ],
)
def test_scenario_value_of_the_wrong_type_is_exit_2(
    dataset_dir, tmp_path, capsys, key, value, label
):
    doc = json.loads((dataset_dir / "scenario.json").read_text())
    doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    scn = tmp_path / "typed.json"
    scn.write_text(json.dumps(doc))
    assert _evaluate(dataset_dir, tmp_path / "ev", scenario=scn) == EXIT_CONFIG
    assert f"{label} must be" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_integer_scenario_numbers_load_as_floats(dataset_dir):
    doc = json.loads((dataset_dir / "scenario.json").read_text())
    doc.update(measurement_width=3, radar={"radius": 1, "sector_deg": 18})
    scenario = Scenario.from_dict(doc)
    assert type(scenario.measurement_width) is float and type(scenario.radar.radius) is float
    assert scenario.measurement_width == 3.0 and scenario.radar.radius == 1.0


def test_removed_simple_density_flag_is_exit_2(dataset_dir, tmp_path, capsys):
    argv = [
        "evaluate",
        "--scenario",
        str(dataset_dir / "scenario.json"),
        "--experiment",
        str(dataset_dir / "test.txt"),
        "--simulation",
        str(dataset_dir / "test.txt"),
        "--output-dir",
        str(tmp_path / "ev"),
        "--simple-density",
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "--simple-density" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_truncated_artifact_is_exit_2(trained_dir, tmp_path, capsys):
    for size in (8, 100):
        cut = tmp_path / f"cut{size}.bin"
        cut.write_bytes((trained_dir / "out" / "model.bin").read_bytes()[:size])
        argv = ["simulate", "-c", str(trained_dir / "micro.json"), "--artifact", str(cut)]
        assert main(argv + ["--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "cannot load model artifact" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _with_header(raw: bytes, change) -> bytes:
    """A model artifact whose JSON header change has edited in place, or
    replaced with the header it returns."""
    (head_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + head_len])
    replaced = change(header)
    head = json.dumps(header if replaced is None else replaced).encode("utf-8")
    return raw[:8] + struct.pack("<I", len(head)) + head + raw[12 + head_len :]


@pytest.mark.parametrize("key", ["arch", "tensors", "bogus", "mean"])
def test_artifact_header_that_is_not_a_model_is_exit_2(trained_dir, tmp_path, capsys, key):
    # a header without arch or tensors, with an unknown arch field, or
    # without the stats:mean tensor
    def change(header):
        if key == "bogus":
            header["arch"]["bogus"] = 1
        elif key == "mean":
            header["tensors"] = [t for t in header["tensors"] if t["name"] != "stats:mean"]
        else:
            del header[key]

    bad = tmp_path / "bad.bin"
    bad.write_bytes(_with_header((trained_dir / "out" / "model.bin").read_bytes(), change))
    argv = ["simulate", "-c", str(trained_dir / "micro.json"), "--artifact", str(bad)]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot load model artifact" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


def _without(header, name):
    return {**header, "tensors": [t for t in header["tensors"] if t["name"] != name]}


def _reshaped(header, name, shape):
    tensors = [{**t, "shape": shape} if t["name"] == name else t for t in header["tensors"]]
    return {**header, "tensors": tensors}


@pytest.mark.parametrize(
    "change, named",
    [
        (lambda h: [h], "list"),
        (lambda h: {**h, "arch": 5}, "'arch'"),
        (lambda h: _without(h, "param:b0c1_b"), "'b0c1_b'"),
        (lambda h: _reshaped(h, "param:out_b", [1, 2]), "'out_b'"),
        (lambda h: _reshaped(h, "stats:mean", [2, 52]), "'stats:mean'"),
    ],
    ids=["list", "arch", "missing", "shape", "stats"],
)
def test_artifact_that_is_not_a_model_of_its_arch_is_exit_2(
    trained_dir, tmp_path, capsys, change, named
):
    # a header that is a list, an arch that is a number, a parameter left out,
    # and a parameter or the (104,) feature means declared with the wrong shape
    # (the same element count)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_with_header((trained_dir / "out" / "model.bin").read_bytes(), change))
    argv = ["simulate", "-c", str(trained_dir / "micro.json"), "--artifact", str(bad)]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot load model artifact" in err and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["standoff", "tangent_blend", "inward_blend", "step_cap_factor"])
def test_removed_sim_setting_is_exit_2(trained_dir, tmp_path, capsys, key):
    changes = {"sim": {key: 0.05}, "output_dir": str(tmp_path / "out")}
    config = _run_config(trained_dir, tmp_path / "run.json", **changes)
    argv = ["simulate", "-c", str(config), "--artifact", str(trained_dir / "out" / "model.bin")]
    assert main(argv) == EXIT_CONFIG
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_nan_coordinate_is_exit_2(dataset_dir, tmp_path, capsys):
    lines = (dataset_dir / "test.txt").read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.split()[:1] == ["1"]) + 2
    fields = lines[row].split()
    fields[2] = "nan"
    lines[row] = " ".join(fields)
    bad = tmp_path / "nan.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert _evaluate(dataset_dir, tmp_path / "ev", experiment=bad) == EXIT_CONFIG
    assert f"line {row + 1}: non-finite coordinate" in capsys.readouterr().err


def test_features_writes_arrays(trained_dir):
    rc = main(["features", "-c", str(trained_dir / "micro.json"), "--which", "testing"])
    assert rc == EXIT_OK
    out = trained_dir / "out" / "features"
    windows = np.load(out / "windows.npy")
    targets = np.load(out / "targets.npy")
    ped_ids = np.load(out / "ped_ids.npy")
    steps = np.load(out / "steps.npy")
    assert windows.shape[1:] == (8, 104)
    assert targets.shape == (windows.shape[0], 2)
    assert ped_ids.shape == steps.shape == (windows.shape[0],)
    assert windows.dtype == targets.dtype == np.float64
    assert ped_ids.dtype == steps.dtype == np.int64


def test_features_windows_file_is_np_save_of_the_windows(dataset_dir, tmp_path, monkeypatch):
    # blocks of 7 windows: several full blocks, then a partial one
    monkeypatch.setattr(cli, "_FEATURE_BLOCK", 7)
    config = str(dataset_dir / "micro.json")
    argv = ["features", "-c", config, "--which", "all", "--output-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    cfg = load_run_config(config)
    samples = cli._collect_samples(cfg, cfg.training_files + cfg.testing_files)
    assert len(samples) > 7 and len(samples) % 7
    expected = io.BytesIO()
    np.save(expected, samples.windows)
    assert (tmp_path / "features" / "windows.npy").read_bytes() == expected.getvalue()


def test_one_metric_list_orders_every_table(trained_dir, tmp_path, capsys):
    config = str(trained_dir / "micro.json")
    artifact = str(trained_dir / "out" / "model.bin")
    argv = ["simulate", "-c", config, "--artifact", artifact, "--output-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    rc = main(
        [
            "evaluate",
            "--scenario",
            str(trained_dir / "scenario.json"),
            "--experiment",
            str(trained_dir / "test.txt"),
            "--simulation",
            str(tmp_path / "test.sim.txt"),
            "--output-dir",
            str(tmp_path / "eval"),
        ]
    )
    assert rc == EXIT_OK
    summary = capsys.readouterr().out.splitlines()
    doc = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    tables = [key for key, value in doc.items() if isinstance(value, dict)]
    assert len(tables) == 4
    assert sum("95th percentile" in line for line in summary) == len(tables)
    argv = ["sweep", "-c", config, "--exit-distances", "20", "--step-degs", "18"]
    assert main([*argv, "--output-dir", str(tmp_path / "sweep")]) == EXIT_OK
    cell_line = capsys.readouterr().out.splitlines()[0]
    header = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[0].split(",")
    assert header[:3] == ["label", "exit_distance_m", "ray_step_deg"] and header[-1] == "status"
    columns = header[3:-1]
    cell = json.loads((tmp_path / "sweep" / "20-18" / "test.metrics.json").read_text())
    assert list(cli._pooled_metrics([cell])) == columns
    assert len(cell_line.split(", ")) == len(columns)
    # metrics.json is written with sorted keys
    assert list(cell) == list(doc) == sorted([*columns, "n_pedestrians"])


def test_missing_config_is_exit_2(tmp_path, capsys):
    rc = main(["train", "-c", str(tmp_path / "nothing.json")])
    assert rc == EXIT_CONFIG
    assert "nothing.json" in capsys.readouterr().err


def test_sweep_grid_runs_and_records_failures(dataset_dir, tmp_path):
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "-c",
            str(dataset_dir / "micro.json"),
            "--exit-distances",
            "5,20",
            "--step-degs",
            "36",
            "--output-dir",
            str(out),
        ]
    )
    assert rc == EXIT_RUNTIME  # the 5 m exit distance is below the diameter
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("label,exit_distance_m,ray_step_deg,")
    assert len(lines) == 3
    assert lines[1].startswith("5-36,") and "failed" in lines[1]
    assert lines[2].startswith("20-36,") and lines[2].endswith("ok")
    # the successful combination produced its own artifacts
    assert (out / "20-36" / "model.bin").exists()
    assert (out / "20-36" / "test.sim.txt").exists()
    assert (out / "20-36" / "test.metrics.json").exists()


GRID = {"exit_distances": [20], "step_degs": [18]}


@pytest.mark.parametrize(
    "section, flags, key",
    [
        ({**GRID, "jobs": "x"}, [], "jobs"),
        ({**GRID, "jobs": 0}, [], "jobs"),
        ({**GRID, "jobs": 1.5}, [], "jobs"),
        (GRID, ["--jobs", "0"], "jobs"),
        (5, [], "sweep"),
        ({**GRID, "exit_distances": ["far"]}, [], "exit_distances"),
        ({**GRID, "exit_distances": 20}, [], "exit_distances"),
        ({**GRID, "step_degs": [float("inf")]}, [], "step_degs"),
        (GRID, ["--step-degs", "nan"], "step_degs"),
    ],
)
def test_malformed_sweep_is_exit_2_naming_its_key(
    dataset_dir, tmp_path, capsys, section, flags, key
):
    path = _run_config(dataset_dir, tmp_path / "sweep.json", sweep=section)
    rc = main(["sweep", "-c", str(path), "--output-dir", str(tmp_path / "out"), *flags])
    assert rc == EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section", ["run config", "sim", "sweep", "scenario", "smoothing", "radar", "rays"]
)
def test_unknown_key_in_each_json_object_is_exit_2(dataset_dir, tmp_path, capsys, section):
    # a misspelt key must not fall back to a default without a word
    scenario = json.loads((dataset_dir / "scenario.json").read_text())
    changes = {"scenario": str(tmp_path / "scenario.json"), "sweep": dict(GRID)}
    if section == "run config":
        changes["walkable_polygn"] = 1
    elif section == "scenario":
        scenario["walkable_polygn"] = 1
    elif section in ("sim", "sweep"):
        changes[section] = {**changes.get(section, {}), "walkable_polygn": 1}
    else:
        scenario[section]["walkable_polygn"] = 1
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    path = _run_config(dataset_dir, tmp_path / "run.json", **changes)
    rc = main(["sweep", "-c", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "['walkable_polygn']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_single_combo_matches_pipeline(dataset_dir, tmp_path):
    out = tmp_path / "sweep1"
    rc = main(
        [
            "sweep",
            "-c",
            str(dataset_dir / "micro.json"),
            "--exit-distances",
            "20",
            "--step-degs",
            "18",
            "--output-dir",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    # 20-18 reproduces the plain train + simulate pipeline byte for byte:
    # same seed, same scenario parameters (the defaults are D_e=20, 18 deg)
    rc = main(
        ["train", "-c", str(dataset_dir / "micro.json"), "--output-dir", str(tmp_path / "ref")]
    )
    assert rc == EXIT_OK
    assert (out / "20-18" / "model.bin").read_bytes() == (
        tmp_path / "ref" / "model.bin"
    ).read_bytes()
    rc = main(
        [
            "simulate",
            "-c",
            str(dataset_dir / "micro.json"),
            "--output-dir",
            str(tmp_path / "ref"),
            "--artifact",
            str(tmp_path / "ref" / "model.bin"),
        ]
    )
    assert rc == EXIT_OK
    assert (out / "20-18" / "test.sim.txt").read_bytes() == (
        tmp_path / "ref" / "test.sim.txt"
    ).read_bytes()
    row = (out / "sweep.csv").read_text().splitlines()[1]
    metrics = json.loads((out / "20-18" / "test.metrics.json").read_text())
    assert f"{metrics['tde_m']['mean']:.9g}" in row
    # the cell scores its run in memory the way evaluate scores the written file
    rc = main(
        [
            "evaluate",
            "--scenario",
            str(dataset_dir / "scenario.json"),
            "--experiment",
            str(dataset_dir / "test.txt"),
            "--simulation",
            str(tmp_path / "ref" / "test.sim.txt"),
            "--output-dir",
            str(tmp_path / "eval"),
        ]
    )
    assert rc == EXIT_OK
    assert (tmp_path / "eval" / "metrics.json").read_bytes() == (
        out / "20-18" / "test.metrics.json"
    ).read_bytes()


def test_duplicate_sweep_labels_are_exit_2(dataset_dir, tmp_path, capsys):
    # both exit distances print as 20, so both cells would write 20-18/
    argv = ["sweep", "-c", str(dataset_dir / "micro.json"), "--output-dir", str(tmp_path / "out")]
    rc = main([*argv, "--exit-distances", "20,20.0000001", "--step-degs", "18"])
    assert rc == EXIT_CONFIG
    assert "'20-18'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_pool_has_no_more_workers_than_cells(dataset_dir, tmp_path, monkeypatch):
    import concurrent.futures

    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    argv = ["sweep", "-c", str(dataset_dir / "micro.json"), "--iterations", "2"]
    grid = ["--exit-distances", "20,30", "--step-degs", "18"]
    rc = main([*argv, *grid, "--jobs", "64", "--output-dir", str(tmp_path / "two")])
    assert rc == EXIT_OK and pools == [2]
    assert len((tmp_path / "two" / "sweep.csv").read_text().splitlines()) == 3
    grid = ["--exit-distances", "20", "--step-degs", "18"]
    rc = main([*argv, *grid, "--jobs", "8", "--output-dir", str(tmp_path / "one")])
    assert rc == EXIT_OK and pools == [2]  # one cell runs in this process
    assert (tmp_path / "one" / "20-18" / "model.bin").exists()


def test_sweep_outputs_do_not_depend_on_jobs(dataset_dir, tmp_path):
    # run as a command so that the pool forks a fresh process, not the test runner
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    grid = ["--exit-distances", "20,30", "--step-degs", "18"]
    for jobs in ("1", "2"):
        argv = ["sweep", "-c", str(dataset_dir / "micro.json"), *grid, "--jobs", jobs]
        subprocess.run(
            [sys.executable, "-m", "crowdtcn", *argv, "--output-dir", str(tmp_path / jobs)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            check=True,
        )
    names = ["sweep.csv"] + [
        f"{label}/{name}"
        for label in ("20-18", "30-18")
        for name in ("model.bin", "test.sim.txt", "test.metrics.json")
    ]
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import crowdtcn.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_multiprocessing():
    # only sweep starts a process pool, so only sweep pays for its import
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import crowdtcn.cli, sys; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
