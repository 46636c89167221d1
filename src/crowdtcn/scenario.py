"""Scenario configuration: geometry, sampling, and feature parameters.

A scenario is described by a single JSON document shared by ingestion,
feature extraction, simulation, and evaluation:

{
  "name": "corridor",
  "frame_rate": 16.0,
  "dt": 0.5,
  "walls": [[[0.0, -1.5], [10.0, -1.5]], ...],
  "virtual_walls": [[[0.0, -1.5], [0.0, 1.5]]],
  "entrances": [[[0.0, -1.5], [0.0, 1.5]]],
  "exits": [[[10.0, -1.5], [10.0, 1.5]]],
  "clipping_polygon": [[0.0, -1.5], [10.0, -1.5], [10.0, 1.5], [0.0, 1.5]],
  "walkable_polygon": null,
  "measurement_area": [[4.0, -1.5], [6.0, -1.5], [6.0, 1.5], [4.0, 1.5]],
  "measurement_width": 3.0,
  "default_heading": [1.0, 0.0],
  "smoothing": {"enabled": true, "window": 9, "polyorder": 3, "before_resample": true},
  "radar": {"radius": 1.2, "sector_deg": 18.0},
  "rays": {"step_deg": 5.0, "exit_distance": 100.0},
  "static_velocity_mode": "minus_own_velocity"
}

Wall segments are physical boundaries; virtual walls close entrances for the
forward ray scan only (they never block motion and are not sector-neighbor
candidates). The walkable polygon defaults to the clipping polygon. The
measurement area must be convex. All lengths are meters, angles degrees,
times seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import (
    FeatureExtractor,
    RadarConfig,
    RayScanConfig,
    StaticVelocityMode,
    feature_dim,
)
from .geometry import Segment, ensure_simple_polygon, is_convex

__all__ = ["BadConfig", "SmoothingConfig", "Scenario", "load_scenario"]


class BadConfig(ValueError):
    """Raised when a scenario or run configuration is invalid."""


@dataclass(frozen=True)
class SmoothingConfig:
    enabled: bool = True
    window: int = 9
    polyorder: int = 3
    before_resample: bool = True

    def __post_init__(self):
        if self.window % 2 == 0 or self.window <= self.polyorder or self.polyorder < 0:
            raise BadConfig(
                f"smoothing window must be odd and greater than polyorder, "
                f"got window={self.window} polyorder={self.polyorder}"
            )


def _segments(raw, label: str) -> list[Segment]:
    try:
        return [Segment(a, b) for a, b in raw]
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"invalid {label}: {exc}") from exc


@dataclass
class Scenario:
    """Validated scenario shared by the whole pipeline."""

    name: str
    frame_rate: float
    walls: list[Segment]
    entrances: list[Segment]
    exits: list[Segment]
    clipping_polygon: np.ndarray
    measurement_area: np.ndarray
    measurement_width: float
    dt: float = 0.5
    virtual_walls: list[Segment] = field(default_factory=list)
    walkable_polygon: np.ndarray | None = None
    default_heading: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0]))
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    radar: RadarConfig = field(default_factory=RadarConfig)
    rays: RayScanConfig = field(default_factory=RayScanConfig)
    static_velocity_mode: StaticVelocityMode = StaticVelocityMode.MINUS_OWN

    def __post_init__(self):
        if self.frame_rate <= 0:
            raise BadConfig(f"frame_rate must be positive, got {self.frame_rate}")
        if self.dt <= 0:
            raise BadConfig(f"dt must be positive, got {self.dt}")
        stride = self.frame_rate * self.dt
        if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
            raise BadConfig(
                f"frame_rate * dt must be a positive integer frame stride, got {stride}"
            )
        if not self.exits:
            raise BadConfig("at least one exit segment is required")
        self.clipping_polygon = ensure_simple_polygon(self.clipping_polygon)
        self.measurement_area = ensure_simple_polygon(self.measurement_area)
        if not is_convex(self.measurement_area):
            raise BadConfig("measurement_area must be convex")
        if self.walkable_polygon is None:
            self.walkable_polygon = self.clipping_polygon.copy()
        else:
            self.walkable_polygon = ensure_simple_polygon(self.walkable_polygon)
        if self.measurement_width <= 0:
            raise BadConfig("measurement_width must be positive")
        head = np.asarray(self.default_heading, dtype=float)
        norm = float(np.hypot(head[0], head[1]))
        if norm == 0.0:
            raise BadConfig("default_heading must be nonzero")
        self.default_heading = head / norm
        diameter = self.diameter()
        if self.rays.exit_distance <= diameter:
            raise BadConfig(
                f"rays.exit_distance ({self.rays.exit_distance} m) must exceed the "
                f"scenario diameter ({diameter:.3f} m)"
            )
        # Dimension identity of the flattened feature vector, checked at load.
        expected = 2 + 4 * self.radar.n_sectors + 2 * self.rays.n_rays
        assert self.feature_dim == expected

    @property
    def frame_stride(self) -> int:
        """Raw frames per resampled step."""
        return round(self.frame_rate * self.dt)

    @property
    def feature_dim(self) -> int:
        return feature_dim(self.radar, self.rays)

    @property
    def ray_walls(self) -> list[Segment]:
        """Walls seen by the forward ray scan (physical + virtual)."""
        return list(self.walls) + list(self.virtual_walls)

    @property
    def radar_walls(self) -> list[Segment]:
        """Walls that can become sector neighbors (physical only)."""
        return list(self.walls)

    @property
    def departure_segments(self) -> list[Segment]:
        """Crossing any of these ends a pedestrian's run (exits, then entrances)."""
        return list(self.exits) + list(self.entrances)

    def diameter(self) -> float:
        pts = [self.clipping_polygon]
        for seg in self.walls + self.virtual_walls + self.entrances + self.exits:
            pts.append(np.array([seg.a, seg.b]))
        allpts = np.vstack(pts)
        hi = allpts.max(axis=0)
        lo = allpts.min(axis=0)
        return float(np.hypot(*(hi - lo)))

    def extractor(self) -> FeatureExtractor:
        return FeatureExtractor(
            radar=self.radar,
            rays=self.rays,
            radar_walls=self.radar_walls,
            ray_walls=self.ray_walls,
            static_mode=self.static_velocity_mode,
        )

    def to_dict(self) -> dict:
        def segs(items):
            return [[list(map(float, s.a)), list(map(float, s.b))] for s in items]

        return {
            "name": self.name,
            "frame_rate": self.frame_rate,
            "dt": self.dt,
            "walls": segs(self.walls),
            "virtual_walls": segs(self.virtual_walls),
            "entrances": segs(self.entrances),
            "exits": segs(self.exits),
            "clipping_polygon": self.clipping_polygon.tolist(),
            "walkable_polygon": self.walkable_polygon.tolist(),
            "measurement_area": self.measurement_area.tolist(),
            "measurement_width": self.measurement_width,
            "default_heading": self.default_heading.tolist(),
            "smoothing": {
                "enabled": self.smoothing.enabled,
                "window": self.smoothing.window,
                "polyorder": self.smoothing.polyorder,
                "before_resample": self.smoothing.before_resample,
            },
            "radar": {"radius": self.radar.radius, "sector_deg": self.radar.sector_deg},
            "rays": {
                "step_deg": self.rays.step_deg,
                "exit_distance": self.rays.exit_distance,
            },
            "static_velocity_mode": self.static_velocity_mode.value,
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        try:
            smoothing = SmoothingConfig(**doc.get("smoothing", {}))
            radar = RadarConfig(**doc.get("radar", {}))
            rays = RayScanConfig(**doc.get("rays", {}))
            mode = StaticVelocityMode(doc.get("static_velocity_mode", "minus_own_velocity"))
            return cls(
                name=str(doc.get("name", "scenario")),
                frame_rate=float(doc["frame_rate"]),
                dt=float(doc.get("dt", 0.5)),
                walls=_segments(doc.get("walls", []), "walls"),
                virtual_walls=_segments(doc.get("virtual_walls", []), "virtual_walls"),
                entrances=_segments(doc.get("entrances", []), "entrances"),
                exits=_segments(doc.get("exits", []), "exits"),
                clipping_polygon=np.asarray(doc["clipping_polygon"], dtype=float),
                walkable_polygon=(
                    np.asarray(doc["walkable_polygon"], dtype=float)
                    if doc.get("walkable_polygon") is not None
                    else None
                ),
                measurement_area=np.asarray(doc["measurement_area"], dtype=float),
                measurement_width=float(doc["measurement_width"]),
                default_heading=np.asarray(doc.get("default_heading", [1.0, 0.0]), dtype=float),
                smoothing=smoothing,
                radar=radar,
                rays=rays,
                static_velocity_mode=mode,
            )
        except KeyError as exc:
            raise BadConfig(f"missing required scenario field {exc}") from exc
        except (TypeError, ValueError) as exc:
            if isinstance(exc, BadConfig):
                raise
            raise BadConfig(str(exc)) from exc


def load_scenario(path) -> Scenario:
    p = Path(path)
    if not p.exists():
        raise BadConfig(f"scenario file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise BadConfig(f"scenario file {p} is not valid JSON: {exc}") from exc
    return Scenario.from_dict(doc)
