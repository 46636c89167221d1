"""Tests for the synthetic scenario and trajectory generators."""

import hashlib

import numpy as np
import pytest

from crowdtcn.cli import EXIT_OK, main
from crowdtcn.geometry import point_in_polygon, polygon_area
from crowdtcn.ingest import build_samples, load_trajectories, parse_trajectories
from crowdtcn.scenario import Scenario, merge
from crowdtcn.synth import (
    GEOMETRIES,
    _walk_polyline,
    corner_dataset,
    corner_scenario,
    corridor_dataset,
    corridor_scenario,
    t_junction_dataset,
    t_junction_scenario,
    write_dataset,
    write_raw_tracks,
)
from oracles import walk_polyline_loop


def test_scenario_geometry_and_feature_dim():
    c = corridor_scenario()
    assert c.feature_dim == 104  # 2 + 4*20 sectors + 2*11 rays
    assert polygon_area(c.walkable_polygon) == pytest.approx(40.0)
    assert len(c.entrances) == 1 and len(c.exits) == 1
    assert c.frame_stride == 8

    k = corner_scenario()
    assert polygon_area(k.walkable_polygon) == pytest.approx(8 * 2.4 + (8 - 2.4) * 2.4)
    assert len(k.walls) == 4

    t = t_junction_scenario()
    assert polygon_area(t.walkable_polygon) == pytest.approx(12 * 2.4 + 6 * 2.4)
    assert len(t.entrances) == 2 and len(t.virtual_walls) == 2


def test_feature_dim_variants():
    for step_deg, dim in ((5.0, 156), (18.0, 104)):
        doc = merge(corridor_scenario().to_dict(), {"rays": {"step_deg": step_deg}})
        assert Scenario.from_dict(doc).feature_dim == dim


def test_generation_is_deterministic(tmp_path):
    a = write_dataset(corridor_dataset(seed=7, n_train=6, n_test=3), tmp_path / "a")
    b = write_dataset(corridor_dataset(seed=7, n_train=6, n_test=3), tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()
    c = write_dataset(corridor_dataset(seed=8, n_train=6, n_test=3), tmp_path / "c")
    assert a["training"].read_bytes() != c["training"].read_bytes()


# SHA-256 of the scenario.json, train.txt and test.txt that `crowdtcn synth`
# writes with the given extra flags. Every synthetic path segment is
# axis-aligned, so np.hypot is exact and the bytes do not depend on the
# platform's libm.
PINNED_DIGESTS = [
    ("corridor", [], (
        "14efb8123dcaada595c83dfa21e502f8db3ef4b826f0cc207d523f686531e98a",
        "052b4d96b7279e35ca1776d7c3eb79a1298e7223919569aa7ce3583919a5dbc4",
        "e8bb11bad40b1bc6bf59966e613a7c4c309ce42c41f99f5e6b43c6ee842b7d3c",
    )),
    ("corner", [], (
        "f972f0f1c3f7ed49a6948a3267f752ab1be44976240c4097ab83a4f18c853d6f",
        "0a50763e547de78665926bd395ebfcc92ba6e1e8c5229825093a256d1de9132a",
        "2fe19a26a9b1770762fc19de36e8905fd1cfded200a9b47239e2092d843158ee",
    )),
    ("t-junction", [], (
        "3c35b40220ffc6a46901606de4618ef05f0b52d2f4ba33a12dc6c7c887fa9139",
        "8a8e4b6430d6fcf4fd9e64c913f1b63825fc9fc75616c9c5481158e318b9753d",
        "10ce6087adbaa6153e855634b692fed6b88e164d806d32827afbc24242a2b6b0",
    )),
    # the ray flags are a rays override, which the reader stores as floats
    ("t-junction", ["--step-deg", "5", "--exit-distance", "30"], (
        "e2a9589f6e358aa56a3062056340bd8d3f3aba5a3922ba8a2dd8b04e3afbbb1e",
        "8a8e4b6430d6fcf4fd9e64c913f1b63825fc9fc75616c9c5481158e318b9753d",
        "10ce6087adbaa6153e855634b692fed6b88e164d806d32827afbc24242a2b6b0",
    )),
]


@pytest.mark.parametrize("name, extra, digests", PINNED_DIGESTS)
def test_dataset_bytes_are_pinned(tmp_path, name, extra, digests):
    argv = ["synth", "--geometry", name, "--seed", "3", "--n-train", "4", "--n-test", "2"]
    assert main([*argv, *extra, "--out", str(tmp_path)]) == EXIT_OK
    files = ("scenario.json", "train.txt", "test.txt")
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in files)
    assert got == digests


def test_walk_polyline_matches_loop():
    rng = np.random.default_rng(0)
    cases = [([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], 1.0)]  # samples land on a bound
    for _ in range(200):
        pts = rng.uniform(-5.0, 5.0, size=(int(rng.integers(2, 6)), 2))
        cases.append((pts, rng.uniform(0.2, 2.0)))
    for waypoints, speed in cases:
        got = _walk_polyline(waypoints, speed)
        assert np.array_equal(got, walk_polyline_loop(waypoints, speed, frame_rate=16.0))
    with pytest.raises(ValueError, match="zero-length segment"):
        _walk_polyline([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0)], 1.0)


def test_raw_files_round_trip(tmp_path):
    ds = corner_dataset(seed=1, n_train=4, n_test=2)
    path = tmp_path / "raw.txt"
    write_raw_tracks(path, ds.training)
    tracks = parse_trajectories(path)
    assert sorted(tracks) == [tr.id for tr in ds.training]
    for tr in ds.training:
        got = tracks[tr.id]
        assert np.array_equal(got.frames, tr.frames)
        assert np.array_equal(got.positions, tr.positions)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_tracks_resample_inside_walkable(tmp_path, name):
    ds = GEOMETRIES[name](seed=3, n_train=8, n_test=4)
    paths = write_dataset(ds, tmp_path / name)
    trajs = load_trajectories(paths["training"], ds.scenario)
    assert len(trajs) == 8
    for tr in trajs.values():
        assert len(tr.positions) >= 9  # enough to seed a window-8 simulation
        for p in tr.positions:
            assert point_in_polygon(p, ds.scenario.walkable_polygon)


def test_corridor_walkers_keep_constant_speed():
    from crowdtcn import ingest

    ds = corridor_dataset(seed=5, n_train=10, n_test=2)
    for raw in ds.training:
        traj = ingest.resample(
            raw,
            frame_rate=ds.scenario.frame_rate,
            dt=ds.scenario.dt,
            smoothing=ds.scenario.smoothing,
            clip_polygon=ds.scenario.clipping_polygon,
        )
        speeds = np.hypot(traj.velocities[:, 0], traj.velocities[:, 1])
        assert speeds.min() > 1.0 - 1e-6
        assert speeds.max() < 1.4 + 1e-6
        # straight lanes: y never drifts
        assert np.ptp(traj.positions[:, 1]) < 1e-9


def test_corner_walkers_turn_into_upper_arm():
    ds = corner_dataset(seed=2, n_train=6, n_test=2, arm_length=8.0, width=2.4)
    for raw in ds.training:
        assert raw.positions[0][0] == 0.0  # enters on the entrance line
        final = raw.positions[-1]
        assert 8.0 - 2.4 <= final[0] <= 8.0  # ends in the vertical arm
        assert final[1] > 8.0 - 1.0


def test_t_junction_streams_merge():
    ds = t_junction_dataset(seed=4, n_train=8, n_test=2)
    starts = np.array([raw.positions[0][0] for raw in ds.training])
    assert (starts == -6.0).sum() == 4 and (starts == 6.0).sum() == 4
    for raw in ds.training:
        final = raw.positions[-1]
        assert abs(final[0]) <= 1.2  # inside the stem
        assert final[1] > 2.4


def test_entry_steps_are_staggered_and_aligned():
    ds = corridor_dataset(seed=6, n_train=12, n_test=2)
    firsts = [int(raw.frames[0]) for raw in ds.training]
    assert firsts == sorted(firsts)
    stride = ds.scenario.frame_stride
    assert all(f % stride == 0 for f in firsts)
    gaps = np.diff(firsts) // stride
    assert set(gaps.tolist()) <= {1, 2}


def test_samples_build_from_synthetic_corridor(tmp_path):
    ds = corridor_dataset(seed=9, n_train=6, n_test=2, length=8.0)
    paths = write_dataset(ds, tmp_path / "d")
    trajs = load_trajectories(paths["training"], ds.scenario)
    samples = build_samples(trajs, ds.scenario.extractor(), w=8)
    assert len(samples) > 0
    assert samples.windows[0].shape == (8, ds.scenario.feature_dim)
    assert samples.targets[0].shape == (2,)
