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

from .features import RadarConfig, RayScanConfig
from .ingest import RawTrack
from .scenario import Scenario, SmoothingConfig

__all__ = [
    "SyntheticDataset",
    "corridor_scenario",
    "corner_scenario",
    "t_junction_scenario",
    "corridor_dataset",
    "corner_dataset",
    "t_junction_dataset",
    "write_raw_tracks",
    "write_dataset",
    "GEOMETRIES",
]

# keep walkers off the walls so radar sectors see walls without touching them
LANE_MARGIN = 0.35
# walk this far past the departure line; clipping trims the outside samples
OVERSHOOT = 0.6


def _walk_polyline(waypoints, speed: float, frame_rate: float) -> np.ndarray:
    """Positions along a polyline at constant speed, one row per raw frame."""
    pts = np.asarray(waypoints, dtype=float)
    vecs = np.diff(pts, axis=0)
    lengths = np.hypot(vecs[:, 0], vecs[:, 1])
    if (lengths <= 0).any():
        raise ValueError("polyline has a zero-length segment")
    bounds = np.concatenate([[0.0], np.cumsum(lengths)])
    total = float(bounds[-1])
    step = speed / frame_rate
    n = int(math.floor(total / step)) + 1
    out = np.empty((n, 2))
    for k in range(n):
        s = k * step
        i = min(int(np.searchsorted(bounds, s, side="right")) - 1, len(lengths) - 1)
        out[k] = pts[i] + (s - bounds[i]) / lengths[i] * vecs[i]
    return out


def corridor_scenario(
    *,
    name: str = "synthetic-corridor",
    length: float = 10.0,
    half_width: float = 2.0,
    frame_rate: float = 16.0,
    dt: float = 0.5,
    sector_deg: float = 18.0,
    step_deg: float = 18.0,
    exit_distance: float = 20.0,
    radar_radius: float = 1.2,
    smoothing: SmoothingConfig | None = None,
) -> Scenario:
    """Straight corridor: entrance at x=0, exit at x=length, walls at y=±half_width."""
    hw = half_width
    rect = np.array([[0.0, -hw], [length, -hw], [length, hw], [0.0, hw]])
    mid = length / 2.0
    half_span = min(1.0, length / 4.0)
    meas = np.array(
        [[mid - half_span, -hw], [mid + half_span, -hw], [mid + half_span, hw], [mid - half_span, hw]]
    )
    entrance = ((0.0, -hw), (0.0, hw))
    return Scenario(
        name=name,
        frame_rate=frame_rate,
        dt=dt,
        walls=[((0.0, -hw), (length, -hw)), ((0.0, hw), (length, hw))],
        entrances=[entrance],
        exits=[((length, -hw), (length, hw))],
        virtual_walls=[entrance],
        clipping_polygon=rect,
        measurement_area=meas,
        measurement_width=2.0 * hw,
        default_heading=np.array([1.0, 0.0]),
        smoothing=smoothing if smoothing is not None else SmoothingConfig(),
        radar=RadarConfig(radius=radar_radius, sector_deg=sector_deg),
        rays=RayScanConfig(step_deg=step_deg, exit_distance=exit_distance),
    )


def corner_scenario(
    *,
    name: str = "synthetic-corner",
    arm_length: float = 8.0,
    width: float = 2.4,
    frame_rate: float = 16.0,
    dt: float = 0.5,
    sector_deg: float = 18.0,
    step_deg: float = 18.0,
    exit_distance: float = 20.0,
    radar_radius: float = 1.2,
    smoothing: SmoothingConfig | None = None,
) -> Scenario:
    """Right-angle corner: walk east along the lower arm, turn north, exit at the top."""
    lx = ly = arm_length
    b = width
    if b >= lx:
        raise ValueError("width must be smaller than arm_length")
    poly = np.array(
        [[0.0, 0.0], [lx, 0.0], [lx, ly], [lx - b, ly], [lx - b, b], [0.0, b]]
    )
    meas = np.array([[lx - b, 0.0], [lx, 0.0], [lx, b], [lx - b, b]])
    entrance = ((0.0, 0.0), (0.0, b))
    return Scenario(
        name=name,
        frame_rate=frame_rate,
        dt=dt,
        walls=[
            ((0.0, 0.0), (lx, 0.0)),
            ((lx, 0.0), (lx, ly)),
            ((0.0, b), (lx - b, b)),
            ((lx - b, b), (lx - b, ly)),
        ],
        entrances=[entrance],
        exits=[((lx - b, ly), (lx, ly))],
        virtual_walls=[entrance],
        clipping_polygon=poly,
        measurement_area=meas,
        measurement_width=b,
        default_heading=np.array([1.0, 0.0]),
        smoothing=smoothing if smoothing is not None else SmoothingConfig(),
        radar=RadarConfig(radius=radar_radius, sector_deg=sector_deg),
        rays=RayScanConfig(step_deg=step_deg, exit_distance=exit_distance),
    )


def t_junction_scenario(
    *,
    name: str = "synthetic-t-junction",
    arm_length: float = 6.0,
    width: float = 2.4,
    stem_length: float = 6.0,
    stem_width: float = 2.4,
    frame_rate: float = 16.0,
    dt: float = 0.5,
    sector_deg: float = 18.0,
    step_deg: float = 18.0,
    exit_distance: float = 20.0,
    radar_radius: float = 1.2,
    smoothing: SmoothingConfig | None = None,
) -> Scenario:
    """T-junction: inflows from both arm ends merge and exit through the top stem."""
    l, b, ly = arm_length, width, stem_length
    sw = stem_width / 2.0
    if sw >= l:
        raise ValueError("stem_width must be smaller than 2 * arm_length")
    poly = np.array(
        [
            [-l, 0.0], [l, 0.0], [l, b], [sw, b],
            [sw, b + ly], [-sw, b + ly], [-sw, b], [-l, b],
        ]
    )
    meas = np.array(
        [[-sw, b], [sw, b], [sw, b + min(2.0, ly)], [-sw, b + min(2.0, ly)]]
    )
    left = ((-l, 0.0), (-l, b))
    right = ((l, 0.0), (l, b))
    return Scenario(
        name=name,
        frame_rate=frame_rate,
        dt=dt,
        walls=[
            ((-l, 0.0), (l, 0.0)),
            ((-l, b), (-sw, b)),
            ((sw, b), (l, b)),
            ((-sw, b), (-sw, b + ly)),
            ((sw, b), (sw, b + ly)),
        ],
        entrances=[left, right],
        exits=[((-sw, b + ly), (sw, b + ly))],
        virtual_walls=[left, right],
        clipping_polygon=poly,
        measurement_area=meas,
        measurement_width=stem_width,
        default_heading=np.array([0.0, 1.0]),
        smoothing=smoothing if smoothing is not None else SmoothingConfig(),
        radar=RadarConfig(radius=radar_radius, sector_deg=sector_deg),
        rays=RayScanConfig(step_deg=step_deg, exit_distance=exit_distance),
    )


@dataclass
class SyntheticDataset:
    """A scenario plus raw training and testing tracks at the camera frame rate."""

    scenario: Scenario
    training: list[RawTrack]
    testing: list[RawTrack]


def _generate(rng, scenario, count: int, path_fn, gap_steps=(1, 2)) -> list[RawTrack]:
    """Walkers entering one after another with a random 1-2 step stagger.

    path_fn(rng, j) -> (waypoints, speed) for walker j. Entry frames are
    multiples of the resample stride so all pedestrians share step phase.
    """
    stride = scenario.frame_stride
    tracks = []
    frame = 0
    for j in range(count):
        waypoints, speed = path_fn(rng, j)
        positions = _walk_polyline(waypoints, speed, scenario.frame_rate)
        frames = frame + np.arange(len(positions))
        tracks.append(RawTrack(id=j + 1, frames=frames, positions=positions))
        frame += stride * int(rng.integers(gap_steps[0], gap_steps[1] + 1))
    return tracks


def corridor_dataset(
    *,
    n_train: int = 50,
    n_test: int = 12,
    seed: int = 0,
    speed_range: tuple[float, float] = (1.0, 1.4),
    length: float = 10.0,
    half_width: float = 2.0,
    **scenario_kw,
) -> SyntheticDataset:
    """Lane walkers crossing a corridor at constant per-pedestrian speed."""
    scenario = corridor_scenario(length=length, half_width=half_width, **scenario_kw)
    rng = np.random.default_rng(seed)

    def path(rng, _j):
        y = rng.uniform(-half_width + LANE_MARGIN, half_width - LANE_MARGIN)
        speed = rng.uniform(*speed_range)
        return [(0.0, y), (length + OVERSHOOT, y)], speed

    return SyntheticDataset(
        scenario=scenario,
        training=_generate(rng, scenario, n_train, path),
        testing=_generate(rng, scenario, n_test, path),
    )


def corner_dataset(
    *,
    n_train: int = 40,
    n_test: int = 10,
    seed: int = 0,
    speed_range: tuple[float, float] = (1.0, 1.4),
    arm_length: float = 8.0,
    width: float = 2.4,
    **scenario_kw,
) -> SyntheticDataset:
    """Walkers entering the lower arm, turning the corner, leaving at the top."""
    scenario = corner_scenario(arm_length=arm_length, width=width, **scenario_kw)
    rng = np.random.default_rng(seed)

    def path(rng, _j):
        y = rng.uniform(LANE_MARGIN, width - LANE_MARGIN)
        xt = rng.uniform(arm_length - width + LANE_MARGIN, arm_length - LANE_MARGIN)
        speed = rng.uniform(*speed_range)
        return [(0.0, y), (xt, y), (xt, arm_length + OVERSHOOT)], speed

    return SyntheticDataset(
        scenario=scenario,
        training=_generate(rng, scenario, n_train, path),
        testing=_generate(rng, scenario, n_test, path),
    )


def t_junction_dataset(
    *,
    n_train: int = 40,
    n_test: int = 10,
    seed: int = 0,
    speed_range: tuple[float, float] = (1.0, 1.4),
    arm_length: float = 6.0,
    width: float = 2.4,
    stem_length: float = 6.0,
    stem_width: float = 2.4,
    **scenario_kw,
) -> SyntheticDataset:
    """Two opposing streams merging into the stem; walkers alternate sides."""
    scenario = t_junction_scenario(
        arm_length=arm_length,
        width=width,
        stem_length=stem_length,
        stem_width=stem_width,
        **scenario_kw,
    )
    rng = np.random.default_rng(seed)
    sw = stem_width / 2.0

    def path(rng, j):
        x0 = -arm_length if j % 2 == 0 else arm_length
        y = rng.uniform(LANE_MARGIN, width - LANE_MARGIN)
        xt = rng.uniform(-sw + LANE_MARGIN, sw - LANE_MARGIN)
        speed = rng.uniform(*speed_range)
        return [(x0, y), (xt, y), (xt, width + stem_length + OVERSHOOT)], speed

    return SyntheticDataset(
        scenario=scenario,
        training=_generate(rng, scenario, n_train, path),
        testing=_generate(rng, scenario, n_test, path),
    )


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
