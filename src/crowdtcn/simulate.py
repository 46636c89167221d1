"""Rolling-forecast crowd simulation.

Pedestrians are seeded from experimental trajectories: each one enters at its
recorded entry step and position, follows its recorded velocities while its
history is shorter than the model lookback window, and is then advanced by
model predictions until it crosses a departure segment (an exit or an
entrance). SimWorld.peds is the one roster of pedestrians, sorted by id, and
who is present at step t is ingest.world_at(peds, t): a pedestrian has no
positions before its entry step, and an exited one's last step is the one
before its exit step. All pedestrians advance synchronously: every decision
within a time step is computed from the pedestrians' start-of-step histories,
which ingest.world_at reads as it reads recorded tracks in training, so the
iteration order over pedestrians cannot change the outcome. The run stops
when everyone has exited or after STEP_CAP_FACTOR = 10 times the
experimental duration.

Predictions are batched per step: the lookback windows of every pedestrian
past its seed phase go to one model.predict call as a (B, window, F) array,
rows in sorted-id order. A window's prediction may differ from a
single-window call by float32 rounding, because the batch shapes differ.
A non-finite prediction raises NonFinitePrediction naming the pedestrians.

Each step finds every pedestrian's first wall crossing and first departure
crossing, by motion parameter and then lowest segment index, with one
geometry.crossing_params call on the scenario's wall array and one on its
departure array. A step that would carry a pedestrian through a wall is
intercepted (a departure reached no later than the wall wins): the
pedestrian is placed STANDOFF = 0.05 m inside the wall at the crossing point,
its recent velocities are rewritten to the direction of TANGENT_BLEND = 0.7
times the wall tangent plus INWARD_BLEND = 0.3 times the inward normal, at
its recent mean speed, and its stored feature frames over that span are
recomputed so later predictions see the corrected history. Every stored frame
comes from ingest.frames_at, the call build_samples makes in training.

Positions integrate as p[t+1] = p[t] + dt * v[t+1]. The internal velocity
history, which drives the features, is re-derived from each committed
displacement, except over the span a boundary correction rewrites. Returned
paths are plain ingest.Trajectory objects whose velocities are the
displacement rates np.diff(positions) / dt, exactly what
ingest.load_step_trajectories rebuilds from the written file; exit steps and
corrected steps are in the run report only.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .geometry import crossing_params, point_in_polygon
from .ingest import Trajectory, frames_at, world_at
from .scenario import Scenario

__all__ = [
    "MissingSeedData",
    "ModelShapeMismatch",
    "NoInwardDirection",
    "NonFinitePrediction",
    "SimConfig",
    "SimResult",
    "SimWorld",
    "run",
]


class MissingSeedData(ValueError):
    """A seed trajectory is too short to cover the lookback window."""


class ModelShapeMismatch(ValueError):
    """Model architecture disagrees with the scenario."""


class NoInwardDirection(RuntimeError):
    """Boundary correction could not place the pedestrian back inside."""


class NonFinitePrediction(RuntimeError):
    """The model predicted a NaN or infinite velocity."""


STANDOFF = 0.05  # metres
TANGENT_BLEND, INWARD_BLEND = 0.7, 0.3
STEP_CAP_FACTOR = 10


@dataclass(frozen=True)
class SimConfig:
    """Seed policy. The time step is the scenario's dt and the lookback window
    is the model's arch.window."""

    drop_short_seeds: bool = False


@dataclass(eq=False)
class _PedState:
    ped_id: int
    enter_step: int
    seed: Trajectory
    positions: list = field(default_factory=list)
    velocities: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    corrected_steps: list = field(default_factory=list)
    exit_step: int | None = None

    @property
    def steps_since_entry(self) -> int:
        return len(self.positions) - 1

    @property
    def last_step(self) -> int:
        """The last world step the pedestrian is part of: before its
        enter_step until it enters, and exit_step - 1 once it has exited,
        because its final position lies past its departure segment."""
        return self.enter_step + self.steps_since_entry - (self.exit_step is not None)


class SimWorld:
    """Mutable simulation state advanced one synchronous step at a time.

    peds is the one roster, every seeded pedestrian sorted by id; who is in
    the world at step t is ingest.world_at(peds, t). Each step computes the
    new feature frames of the pedestrians present past their entry step with
    one ingest.frames_at call over the roster, and the frames its boundary
    corrections rewrite with one frames_at call per rewritten world step.
    """

    def __init__(self, scenario: Scenario, model, seeds):
        if model.arch.feature_dim != scenario.feature_dim:
            raise ModelShapeMismatch(
                f"model expects {model.arch.feature_dim} features, "
                f"scenario produces {scenario.feature_dim}"
            )
        self.scenario = scenario
        self.model = model
        self.dt = scenario.dt
        self.window = model.arch.window
        self.extractor = scenario.extractor()
        self.peds: list[_PedState] = sorted(
            (_PedState(ped_id=tr.id, enter_step=tr.enter_step, seed=tr) for tr in seeds),
            key=lambda st: st.ped_id,
        )
        if any(a.ped_id == b.ped_id for a, b in zip(self.peds, self.peds[1:])):
            raise ValueError("duplicate pedestrian ids in seed data")
        self.clock: int = min((st.enter_step for st in self.peds), default=0)

    @property
    def finished(self) -> bool:
        """Whether every pedestrian has exited."""
        return all(st.exit_step is not None for st in self.peds)

    def _correct(self, st: _PedState, p_cur, v_hat, tentative, wall, t_hit, t: int):
        """The corrected position STANDOFF inside the crossed (2, 2) ``wall``,
        which the step crosses at motion parameter ``t_hit``, and the
        pedestrian's velocity history with its last window velocities
        rewritten. Mutates nothing: step reframes the rewritten span and
        commits both once every decision of the step is made."""
        a, b = wall
        e = b - a
        # inward normal: the pedestrian came from the walkable side, so point
        # the wall's perpendicular back toward the pre-step position
        side = e[0] * (p_cur[1] - a[1]) - e[1] * (p_cur[0] - a[0])
        inward = np.array([-e[1], e[0]]) / np.hypot(e[0], e[1])
        if side < 0:
            inward = -inward
        hit_point = p_cur + t_hit * (tentative - p_cur)
        corrected = hit_point + STANDOFF * inward
        if not point_in_polygon(corrected, self.scenario.walkable_polygon, include_boundary=False):
            raise NoInwardDirection(
                f"pedestrian {st.ped_id} at step {t + 1}: corrected position "
                f"({corrected[0]:.3f}, {corrected[1]:.3f}) is not strictly inside "
                "the walkable region"
            )
        speed = float(np.hypot(v_hat[0], v_hat[1]))
        prior_dir = v_hat / speed if speed > 1e-12 else self.extractor.heading(st.velocities)
        tangent = e / np.hypot(e[0], e[1])
        if float(tangent @ prior_dir) < 0:
            tangent = -tangent
        direction = TANGENT_BLEND * tangent + INWARD_BLEND * inward
        direction = direction / np.hypot(direction[0], direction[1])

        velocities = [*st.velocities, (tentative - p_cur) / self.dt]
        k = min(self.window, len(velocities))
        mean_speed = float(
            np.mean([np.hypot(v[0], v[1]) for v in velocities[-k:]], dtype=np.float64)
        )
        velocities[-k:] = [direction * mean_speed for _ in range(k)]
        return corrected, velocities

    def step(self) -> None:
        """Advance the world from its clock t to t + 1."""
        t = self.clock
        for st in self.peds:
            if st.enter_step == t:
                st.positions.append(np.asarray(st.seed.positions[0], dtype=float).copy())

        states, pos, _ = world_at(self.peds, t)
        for st, frame in zip(*frames_at(states, t, self.extractor)):
            st.frames.append(frame)

        # seed velocities until the history covers the window, then one
        # predict call for everyone past that point
        decisions = np.empty((len(states), 2))
        ready = []
        for i, st in enumerate(states):
            s = st.steps_since_entry
            if s >= self.window:
                ready.append(i)
            else:
                decisions[i] = st.seed.velocities[s]
        if ready:
            windows = np.array([states[i].frames[-self.window :] for i in ready])
            predicted = np.asarray(self.model.predict(windows), dtype=float)
            finite = np.isfinite(predicted).all(axis=1)
            if not finite.all():
                bad = [states[i].ped_id for i, ok in zip(ready, finite) if not ok]
                raise NonFinitePrediction(
                    f"model predicted a non-finite velocity for pedestrians {bad} "
                    f"at step {t + 1}"
                )
            decisions[ready] = predicted

        tentatives = pos + self.dt * decisions
        inside = point_in_polygon(
            tentatives, self.scenario.walkable_polygon, include_boundary=True
        )
        # each step's first crossing by (t, lowest index); inf where none
        walls, departures = self.scenario.walls, self.scenario.departure_segments
        wall_t = crossing_params(pos, tentatives, walls[:, 0], walls[:, 1])
        dep_t = crossing_params(pos, tentatives, departures[:, 0], departures[:, 1])
        dep_t = dep_t.min(axis=1, initial=np.inf)
        hit_t = wall_t.min(axis=1, initial=np.inf)
        exits = (dep_t < np.inf) & (dep_t <= hit_t)
        rewrites: dict[_PedState, list] = {}
        for i, st in enumerate(states):
            if not exits[i] and hit_t[i] < np.inf:
                wall = walls[np.argmin(wall_t[i])]
                tentatives[i], rewrites[st] = self._correct(
                    st, pos[i], decisions[i], tentatives[i], wall, hit_t[i], t
                )
            elif not exits[i] and not inside[i]:
                raise NoInwardDirection(
                    f"pedestrian {st.ped_id} left the walkable region at step {t + 1} "
                    f"at ({tentatives[i][0]:.3f}, {tentatives[i][1]:.3f}) without "
                    "crossing a wall or departure segment"
                )

        # reframe each rewritten span (the last window - 1 steps, none before
        # entry) with one frames_at call per world step against the world
        # before this step's commits: its own rewritten history sets each
        # subject's velocity and heading, and nobody sees another's
        spans: dict[int, dict] = {}
        for st, velocities in rewrites.items():
            for g in range(max(st.enter_step + 1, t + 2 - self.window), t + 1):
                spans.setdefault(g, {})[st] = velocities
        for g, histories in sorted(spans.items()):
            for st, frame in zip(*frames_at(self.peds, g, self.extractor, histories)):
                st.frames[g - st.enter_step - 1] = frame

        # commits come last, so world_at still finds an exiting walker at step t
        for i, st in enumerate(states):
            st.positions.append(tentatives[i])
            if st in rewrites:
                st.velocities = rewrites[st]
                st.corrected_steps.append(t + 1)
            else:
                st.velocities.append((tentatives[i] - pos[i]) / self.dt)
            if exits[i]:
                st.exit_step = t + 1
        self.clock = t + 1


@dataclass
class SimResult:
    trajectories: list[Trajectory]  # sorted by id
    report: dict

    @property
    def step_cap_exceeded(self) -> bool:
        return self.report["step_cap_exceeded"]


def run(scenario: Scenario, seeds, model, config: SimConfig = SimConfig()) -> SimResult:
    """Simulate until everyone has departed or the step cap trips.

    The cap is STEP_CAP_FACTOR times the experimental duration; when it
    trips, the partial trajectories are still returned and the report says so
    (step_cap_exceeded) rather than raising.
    """
    t_start = time.monotonic()
    seeds = list(seeds.values()) if isinstance(seeds, Mapping) else list(seeds)
    window = model.arch.window
    short = [tr.id for tr in seeds if len(tr.positions) < window + 1]
    if short and not config.drop_short_seeds:
        raise MissingSeedData(
            f"seed trajectories must cover window + 1 = {window + 1} "
            f"positions; too short: {short}"
        )
    usable = [tr for tr in seeds if len(tr.positions) >= window + 1]

    world = SimWorld(scenario, model, usable)
    # every seed enters within the experimental duration, so before the cap
    duration = max((tr.last_step + 1 for tr in usable), default=world.clock) - world.clock
    cap = STEP_CAP_FACTOR * duration
    steps = 0
    while not world.finished and steps < cap:
        world.step()
        steps += 1

    report: dict = {
        "scenario": scenario.name,
        "dropped_short_seeds": sorted(short),
        "pedestrians": {
            str(st.ped_id): {
                "enter_step": int(st.enter_step),
                "exit_step": None if st.exit_step is None else int(st.exit_step),
                "exited": st.exit_step is not None,
                "travel_steps": int(st.steps_since_entry),
                "corrections": len(st.corrected_steps),
                "corrected_steps": [int(s) for s in st.corrected_steps],
            }
            for st in world.peds
        },
        "total_corrections": sum(len(st.corrected_steps) for st in world.peds),
        "steps_run": steps,
        "step_cap": cap,
        "step_cap_exceeded": not world.finished,
    }
    trajectories = [
        Trajectory.from_positions(st.ped_id, st.enter_step, st.positions, scenario.dt)
        for st in world.peds
    ]
    report["wall_time_s"] = time.monotonic() - t_start
    return SimResult(trajectories, report)
