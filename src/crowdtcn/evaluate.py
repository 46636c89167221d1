"""Realism metrics comparing simulated trajectories against experiments.

Trajectory-level metrics (all reported in seconds or meters, with step
arithmetic converted via the trajectories' own dt):

- egress-time error: absolute difference of the two sets' total egress
  durations, plus its fraction of the experimental egress time;
- travel-time error per pedestrian, plus the fraction of that pedestrian's
  experimental travel time;
- travel-displacement error: for each experimental point, the distance to the
  nearest simulated point of the same pedestrian, averaged over the
  experimental trajectory;
- final-displacement error: distance between the two final positions.

Crowd-level measures use area-weighted Voronoi statistics: every pedestrian's
cell is bounded by the walkable region, intersected with the measurement
area M, and contributes its area fraction to density and its speed (weighted
by intersection area) to velocity. M must be convex, because cells are cut
by its edges one half-plane at a time (Sutherland-Hodgman). Flow is defined
as density * velocity * measurement width, so that identity holds at every
sample by construction. profiles measures a whole series as one table
(one bounded_voronoi group per step) and sums each step's rows as
voronoi_measures sums its one step, so the samples agree bitwise.

Pedestrians participate in a time step's measurement only from one step after
entry, when their arrival velocity is defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DegenerateSites,
    bounded_voronoi,
    ensure_simple_polygon,
    is_convex,
    polygon_area,
    polygon_clip_areas,
)
from .ingest import presence, world_at

__all__ = [
    "EmptySet",
    "UnmatchedId",
    "TrajectoryPair",
    "MetricTable",
    "MeasurementSeries",
    "ete_pete",
    "tte_ptte",
    "tde",
    "fde",
    "nearest_rank_percentile",
    "voronoi_measures",
    "profiles",
    "fundamental_diagram",
]


class EmptySet(ValueError):
    pass


class UnmatchedId(KeyError):
    pass


def _as_map(trajectories) -> dict:
    if isinstance(trajectories, dict):
        return dict(trajectories)
    return {tr.id: tr for tr in trajectories}


@dataclass(frozen=True)
class TrajectoryPair:
    """Experimental and simulated trajectory sets matched by pedestrian id.

    Accepts dicts keyed by id or iterables of ingest.Trajectory, recorded
    or simulated alike. Every simulated id must exist in the experiment set
    (the reverse need not hold: pedestrians can be dropped from a simulation).
    Both sets are sampled at one step, dt.
    """

    experiment: dict
    simulation: dict

    def __init__(self, experiment, simulation):
        object.__setattr__(self, "experiment", _as_map(experiment))
        object.__setattr__(self, "simulation", _as_map(simulation))
        missing = sorted(set(self.simulation) - set(self.experiment))
        if missing:
            raise UnmatchedId(f"simulated ids missing from experiment: {missing}")

    @property
    def matched_ids(self) -> list:
        return sorted(self.simulation)

    @property
    def dt(self) -> float:
        """The step of every trajectory; ValueError when the sets disagree."""
        expt = {tr.dt for tr in self.experiment.values()}
        sim = {tr.dt for tr in self.simulation.values()}
        steps = expt | sim
        if not steps:
            raise EmptySet("no trajectories to take the step from")
        if len(steps) > 1:
            raise ValueError(
                f"experiment dt {sorted(expt)} and simulation dt {sorted(sim)} disagree"
            )
        return steps.pop()


def nearest_rank_percentile(values, q: float) -> float:
    """Empirical percentile by the nearest-rank rule (q in (0, 100])."""
    data = sorted(float(v) for v in values)
    if not data:
        raise EmptySet("percentile of an empty sample")
    # multiply before dividing: q * n is exact for any realistic n, whereas
    # q / 100 rounds and can push ceil over an integer boundary
    rank = max(1, math.ceil(q * len(data) / 100.0))
    return data[min(rank, len(data)) - 1]


@dataclass(frozen=True)
class MetricTable:
    """Per-pedestrian metric values with distribution summaries."""

    values: dict
    mean: float
    p95: float

    @classmethod
    def from_values(cls, values: dict) -> "MetricTable":
        if not values:
            raise EmptySet("no pedestrians to summarize")
        data = list(values.values())
        return cls(
            values=values,
            mean=float(np.mean(np.asarray(data, dtype=np.float64))),
            p95=nearest_rank_percentile(data, 95.0),
        )


def _ratio(numerator: float, denominator: float) -> float:
    if denominator == 0.0:
        return 0.0 if numerator == 0.0 else float("inf")
    return numerator / denominator


def ete_pete(pair: TrajectoryPair) -> tuple[float, float]:
    """Egress-time error in seconds and as a fraction of the experimental one.

    A set's egress duration runs from the first pedestrian's entry step to
    the last pedestrian's final step.
    """
    if not pair.experiment or not pair.simulation:
        raise EmptySet("egress-time error needs both trajectory sets nonempty")

    def egress_steps(trs) -> int:
        return max(t.last_step for t in trs.values()) - min(
            t.enter_step for t in trs.values()
        )

    dt = pair.dt
    expt = egress_steps(pair.experiment)
    sim = egress_steps(pair.simulation)
    ete = abs(sim - expt) * dt
    return ete, _ratio(ete, expt * dt)


def tte_ptte(pair: TrajectoryPair) -> tuple[MetricTable, MetricTable]:
    """Per-pedestrian travel-time error (seconds) and its fractional form."""
    dt = pair.dt
    tte_values: dict = {}
    ptte_values: dict = {}
    for ped in pair.matched_ids:
        expt_steps = pair.experiment[ped].n_steps
        sim_steps = pair.simulation[ped].n_steps
        err = abs(sim_steps - expt_steps) * dt
        tte_values[ped] = err
        ptte_values[ped] = _ratio(err, expt_steps * dt)
    return MetricTable.from_values(tte_values), MetricTable.from_values(ptte_values)


def tde(pair: TrajectoryPair) -> MetricTable:
    """Mean distance from each experimental point to the nearest simulated one."""
    values: dict = {}
    for ped in pair.matched_ids:
        expt = np.asarray(pair.experiment[ped].positions, dtype=np.float64)
        sim = np.asarray(pair.simulation[ped].positions, dtype=np.float64)
        if len(expt) == 0 or len(sim) == 0:
            raise EmptySet(f"pedestrian {ped} has an empty trajectory")
        diff = expt[:, None, :] - sim[None, :, :]
        dists = np.sqrt((diff * diff).sum(axis=2))
        values[ped] = float(dists.min(axis=1).mean())
    return MetricTable.from_values(values)


def fde(pair: TrajectoryPair) -> MetricTable:
    """Distance between the final experimental and simulated positions."""
    values: dict = {}
    for ped in pair.matched_ids:
        pe = np.asarray(pair.experiment[ped].positions[-1], dtype=np.float64)
        ps = np.asarray(pair.simulation[ped].positions[-1], dtype=np.float64)
        values[ped] = float(np.hypot(*(pe - ps)))
    return MetricTable.from_values(values)


def voronoi_measures(
    positions,
    speeds,
    walkable,
    measurement_area,
    width: float,
):
    """Crowd density, velocity, and flow for one time step, or None when no
    pedestrian's cell touches the measurement area.

    Density integrates each pedestrian's cell-area reciprocal over its
    intersection with M: rho = sum_i area(cell_i in M)/area(cell_i) / area(M).
    Velocity weights each speed by the same intersection area (Steffen &
    Seyfried 2010).

    The measurement area must be convex (ValueError otherwise); all cells are
    clipped by it at once. The walkable region must not cross itself
    (SelfIntersecting).
    """
    area_m = _checked_area(walkable, measurement_area)
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    speeds = np.asarray(speeds, dtype=float).reshape(-1)
    if len(positions) != len(speeds):
        raise ValueError("need one speed per position")
    if len(positions) == 0:
        return None
    return _series_measures(
        positions, speeds, [len(positions)], walkable, measurement_area, area_m, width
    )[0]


def _checked_area(walkable, measurement_area) -> float:
    """The area of M, once the walkable region and M pass their checks."""
    ensure_simple_polygon(walkable)
    if not is_convex(measurement_area):
        raise ValueError("measurement_area must be convex")
    return polygon_area(measurement_area)


def _series_measures(positions, speeds, sizes, walkable, measurement_area, area_m, width):
    """voronoi_measures of each step, for regions already checked and M of
    area area_m; the steps' pedestrians are consecutive groups of sizes rows."""
    polygons, counts, areas = bounded_voronoi(positions, walkable, sizes)
    inter = polygon_clip_areas(polygons, counts, measurement_area)
    samples = []
    for cut, cell, speed in zip(
        *(np.split(x, np.cumsum(sizes)[:-1]) for x in (inter, areas, speeds))
    ):
        hit = cut > 0.0
        if not hit.any():
            samples.append(None)
            continue
        cut = cut[hit]
        rho = float((cut / cell[hit]).sum()) / area_m
        vel = float((speed[hit] * cut).sum() / cut.sum())
        samples.append((rho, vel, rho * vel * width))
    return samples


@dataclass(frozen=True)
class MeasurementSeries:
    """Per-step crowd measures inside one measurement area."""

    label: str
    width: float
    steps: np.ndarray
    density: np.ndarray
    velocity: np.ndarray
    flow: np.ndarray

    def __len__(self) -> int:
        return len(self.steps)


def profiles(
    trajectories,
    walkable,
    measurement_area,
    width: float,
    label: str = "",
) -> MeasurementSeries:
    """Evaluate voronoi_measures at every step spanned by the trajectories.

    Steps where no pedestrian (with a defined arrival velocity) intersects the
    measurement area are absent from the series rather than zero-filled. The
    walkable region is checked for self-crossing, and the measurement area
    for convexity, once rather than at every step. One bounded_voronoi call,
    with a group of sites per step, and one polygon_clip_areas call serve
    every step.
    """
    area_m = _checked_area(walkable, measurement_area)
    steps, sizes, keys, positions, velocities = [], [], [], [], []
    for t, present in presence(_as_map(trajectories).values()):
        present, pos, vel = world_at(present, t)
        # entry-step pedestrians have no arrival velocity yet
        moving = [i for i, tr in enumerate(present) if tr.enter_step < t]
        if moving:
            steps.append(t)
            sizes.append(len(moving))
            keys.extend((t, present[i].id) for i in moving)
            positions.append(pos[moving])
            velocities.append(vel[moving])
    samples = []
    if steps:
        try:
            samples = _series_measures(
                np.concatenate(positions),
                np.hypot(*np.concatenate(velocities).T),
                sizes,
                walkable,
                measurement_area,
                area_m,
                width,
            )
        except DegenerateSites as exc:
            (t, a), (_, b) = (keys[k] for k in exc.pair)
            msg = f"pedestrians {a} and {b} coincide at step {t}"
            raise DegenerateSites(f"{label}: {msg}" if label else msg, (a, b)) from exc
    rows = [(t, *sample) for t, sample in zip(steps, samples) if sample is not None]
    steps, rho, vel, flow = np.array(rows, dtype=float).reshape(-1, 4).T
    return MeasurementSeries(label, width, steps.astype(int), rho, vel, flow)


def fundamental_diagram(series_list) -> list[tuple]:
    """Flatten measurement series into (label, step, density, velocity,
    specific_flow) rows; specific flow is flow per unit width."""
    return [
        (s.label, int(t), float(rho), float(vel), float(flow) / s.width)
        for s in series_list
        for t, rho, vel, flow in zip(s.steps, s.density, s.velocity, s.flow)
    ]
