"""Synthetic scenarios and trajectories for tests and smoke runs.

Three benchmark geometries ship with the package: a straight corridor, a
right-angle corner, and a T-junction whose two inflows merge into a single
outflow. Pedestrians are constant-speed walkers along lane or L-shaped
polyline paths, sampled at the raw camera frame rate, so generated files
exercise the same parsing, clipping, and resampling code paths as real
recordings. All generation is seeded and byte-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import RayScanConfig
from .ingest import RawTrack
from .scenario import Scenario

__all__ = [
    "SyntheticDataset", "corridor_scenario", "corner_scenario", "t_junction_scenario",
    "corridor_dataset", "corner_dataset", "t_junction_dataset", "write_raw_tracks",
    "write_dataset", "GEOMETRIES",
]

FRAME_RATE = 16.0
SPEED_RANGE = (1.0, 1.4)
# keep walkers off the walls so radar sectors see walls without touching them
LANE_MARGIN = 0.35
# walk this far past the departure line; clipping trims the outside samples
OVERSHOOT = 0.6
CORRIDOR_HALF_WIDTH = 2.0
# T-junction: each arm is 6 m long, the stem 6 m; arms and stem are 2.4 m wide
T_ARM, T_WIDTH, T_STEM = 6.0, 2.4, 6.0
# the rays of every synthetic scenario; `crowdtcn synth` overrides them as a rays section
RAYS = RayScanConfig(step_deg=18.0, exit_distance=20.0)


def _walk_polyline(waypoints, speed: float) -> np.ndarray:
    """Positions along a polyline at constant speed, one row per raw frame."""
    pts = np.asarray(waypoints, dtype=float)
    vecs = np.diff(pts, axis=0)
    lengths = np.hypot(vecs[:, 0], vecs[:, 1])
    if (lengths <= 0).any():
        raise ValueError("polyline has a zero-length segment")
    bounds = np.concatenate([[0.0], np.cumsum(lengths)])
    step = speed / FRAME_RATE
    s = np.arange(int(math.floor(float(bounds[-1]) / step)) + 1) * step
    i = np.minimum(np.searchsorted(bounds, s, side="right") - 1, len(lengths) - 1)
    return pts[i] + ((s - bounds[i]) / lengths[i])[:, None] * vecs[i]


def _scenario(name, walls, entrances, exit_, polygon, area, width, heading) -> Scenario:
    """A 16 fps scenario with RAYS, default dt, radar, smoothing; entrances are virtual walls."""
    return Scenario(
        name=name,
        frame_rate=FRAME_RATE,
        walls=walls,
        entrances=entrances,
        exits=[exit_],
        virtual_walls=entrances,
        clipping_polygon=polygon,
        measurement_area=area,
        measurement_width=width,
        default_heading=np.array(heading),
        rays=RAYS,
    )


def corridor_scenario(*, length: float = 10.0) -> Scenario:
    """Straight corridor: entrance at x=0, exit at x=length, walls at y=±2."""
    hw = CORRIDOR_HALF_WIDTH
    mid, half = length / 2.0, min(1.0, length / 4.0)
    return _scenario(
        "synthetic-corridor",
        [((0.0, -hw), (length, -hw)), ((0.0, hw), (length, hw))],
        [((0.0, -hw), (0.0, hw))],
        ((length, -hw), (length, hw)),
        [[0.0, -hw], [length, -hw], [length, hw], [0.0, hw]],
        [[mid - half, -hw], [mid + half, -hw], [mid + half, hw], [mid - half, hw]],
        2.0 * hw, [1.0, 0.0],
    )


def corner_scenario(*, arm_length: float = 8.0, width: float = 2.4) -> Scenario:
    """Right-angle corner: walk east along the lower arm, turn north, exit at the top."""
    a, b = arm_length, width
    if b >= a:
        raise ValueError("width must be smaller than arm_length")
    return _scenario(
        "synthetic-corner",
        [((0.0, 0.0), (a, 0.0)), ((a, 0.0), (a, a)),
         ((0.0, b), (a - b, b)), ((a - b, b), (a - b, a))],
        [((0.0, 0.0), (0.0, b))],
        ((a - b, a), (a, a)),
        [[0.0, 0.0], [a, 0.0], [a, a], [a - b, a], [a - b, b], [0.0, b]],
        [[a - b, 0.0], [a, 0.0], [a, b], [a - b, b]],
        b, [1.0, 0.0],
    )


def t_junction_scenario() -> Scenario:
    """T-junction: inflows from both arm ends merge and exit through the top stem."""
    l, b, top = T_ARM, T_WIDTH, T_WIDTH + T_STEM
    sw = T_WIDTH / 2.0
    return _scenario(
        "synthetic-t-junction",
        [((-l, 0.0), (l, 0.0)), ((-l, b), (-sw, b)), ((sw, b), (l, b)),
         ((-sw, b), (-sw, top)), ((sw, b), (sw, top))],
        [((-l, 0.0), (-l, b)), ((l, 0.0), (l, b))],
        ((-sw, top), (sw, top)),
        [[-l, 0.0], [l, 0.0], [l, b], [sw, b], [sw, top], [-sw, top], [-sw, b], [-l, b]],
        [[-sw, b], [sw, b], [sw, b + 2.0], [-sw, b + 2.0]],
        T_WIDTH, [0.0, 1.0],
    )


@dataclass
class SyntheticDataset:
    """A scenario plus raw training and testing tracks at the camera frame rate."""

    scenario: Scenario
    training: list[RawTrack]
    testing: list[RawTrack]


def _dataset(scenario, seed, n_train, n_test, path_fn) -> SyntheticDataset:
    """Walkers entering one after another with a random 1-2 step stagger.

    path_fn(rng, j) -> waypoints for walker j. Each walker draws its path,
    then its speed, then its stagger. Entry frames are multiples of the
    resample stride so all pedestrians share step phase.
    """
    rng = np.random.default_rng(seed)

    def walkers(count):
        tracks, frame = [], 0
        for j in range(count):
            waypoints = path_fn(rng, j)
            positions = _walk_polyline(waypoints, rng.uniform(*SPEED_RANGE))
            frames = frame + np.arange(len(positions))
            tracks.append(RawTrack(id=j + 1, frames=frames, positions=positions))
            frame += scenario.frame_stride * int(rng.integers(1, 3))
        return tracks

    return SyntheticDataset(scenario, walkers(n_train), walkers(n_test))


def corridor_dataset(
    *, n_train: int = 50, n_test: int = 12, seed: int = 0, length: float = 10.0
) -> SyntheticDataset:
    """Lane walkers crossing a corridor at constant per-pedestrian speed."""
    hw = CORRIDOR_HALF_WIDTH

    def path(rng, _j):
        y = rng.uniform(-hw + LANE_MARGIN, hw - LANE_MARGIN)
        return [(0.0, y), (length + OVERSHOOT, y)]

    return _dataset(corridor_scenario(length=length), seed, n_train, n_test, path)


def corner_dataset(
    *, n_train: int = 40, n_test: int = 10, seed: int = 0, arm_length: float = 8.0,
    width: float = 2.4,
) -> SyntheticDataset:
    """Walkers entering the lower arm, turning the corner, leaving at the top."""

    def path(rng, _j):
        y = rng.uniform(LANE_MARGIN, width - LANE_MARGIN)
        xt = rng.uniform(arm_length - width + LANE_MARGIN, arm_length - LANE_MARGIN)
        return [(0.0, y), (xt, y), (xt, arm_length + OVERSHOOT)]

    scenario = corner_scenario(arm_length=arm_length, width=width)
    return _dataset(scenario, seed, n_train, n_test, path)


def t_junction_dataset(
    *, n_train: int = 40, n_test: int = 10, seed: int = 0
) -> SyntheticDataset:
    """Two opposing streams merging into the stem; walkers alternate sides."""
    sw = T_WIDTH / 2.0

    def path(rng, j):
        y = rng.uniform(LANE_MARGIN, T_WIDTH - LANE_MARGIN)
        xt = rng.uniform(-sw + LANE_MARGIN, sw - LANE_MARGIN)
        x0 = -T_ARM if j % 2 == 0 else T_ARM
        return [(x0, y), (xt, y), (xt, T_WIDTH + T_STEM + OVERSHOOT)]

    return _dataset(t_junction_scenario(), seed, n_train, n_test, path)


GEOMETRIES = {
    "corridor": corridor_dataset,
    "corner": corner_dataset,
    "t-junction": t_junction_dataset,
}


def write_raw_tracks(path, tracks) -> None:
    """Write raw tracks as 'id frame x y' rows; floats round-trip bit-exactly."""
    lines = ["# id frame x y"]
    for tr in tracks:
        for f, p in zip(tr.frames, tr.positions):
            lines.append(f"{int(tr.id)} {int(f)} {float(p[0])!r} {float(p[1])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_dataset(dataset: SyntheticDataset, out_dir) -> dict[str, Path]:
    """Write scenario.json, train.txt, and test.txt into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "scenario": out / "scenario.json",
        "training": out / "train.txt",
        "testing": out / "test.txt",
    }
    dataset.scenario.save(paths["scenario"])
    write_raw_tracks(paths["training"], dataset.training)
    write_raw_tracks(paths["testing"], dataset.testing)
    return paths
