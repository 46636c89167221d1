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
  "smoothing": {"enabled": true, "window": 9, "polyorder": 3},
  "radar": {"radius": 1.2, "sector_deg": 18.0},
  "rays": {"step_deg": 5.0, "exit_distance": 100.0},
  "static_velocity_mode": "minus_own_velocity"
}

Wall segments are physical boundaries; virtual walls close entrances for the
forward ray scan only (they never block motion and are not sector-neighbor
candidates). Each segment list is validated once, at load, and stored as a
(W, 2, 2) float array of endpoint pairs; a wrong shape, a non-finite
coordinate or a zero-length segment is a BadConfig naming the field. The
derived ray_walls (walls, then virtual walls) and departure_segments (exits,
then entrances) are built from them at the same time. The walkable polygon
defaults to the clipping polygon. The measurement area must be convex. All
lengths are meters, angles degrees, times seconds.

The run config is read by the same two functions: read_document reads a
file's object, and read_section builds a dataclass from an object.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .features import (
    FeatureExtractor,
    RadarConfig,
    RayScanConfig,
    StaticVelocityMode,
    feature_dim,
)
from .geometry import ensure_simple_polygon, is_convex

__all__ = [
    "BadConfig",
    "SmoothingConfig",
    "Scenario",
    "load_scenario",
    "merge",
    "read_document",
    "read_section",
    "typed",
]


class BadConfig(ValueError):
    """Raised when a scenario or run configuration is invalid."""


_KINDS = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    tuple: "a list",
}


def typed(value, kind: type, label: str):
    """A JSON value as bool, int, float, str or tuple. An int takes an
    integral number (8.0 passes), a float any number and a tuple a list;
    booleans and strings pass only as themselves. Anything else is a
    BadConfig naming ``label``."""
    if kind is int and type(value) is float and value.is_integer():
        value = int(value)
    elif kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError as exc:
            raise BadConfig(f"{label} must be a number a float can hold: {exc}") from exc
    elif kind is tuple and type(value) is list:
        value = tuple(value)
    if type(value) is not kind:
        raise BadConfig(f"{label} must be {_KINDS[kind]}, got {value!r}")
    return value


def _object(value, label: str, known=None) -> dict:
    """value, if it is a JSON object whose keys are all in known (when given)."""
    if not isinstance(value, dict):
        raise BadConfig(f"{label} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(value if known is None else known))
    if unknown:
        raise BadConfig(f"{label} has unknown keys: {unknown}")
    return value


def read_document(path, what: str, known=None, overrides: dict | None = None) -> dict:
    """The JSON object in the file at path, with overrides applied by merge.

    A missing file, one that is not JSON, one that holds anything but an
    object and, when known is given, one with a key outside it are each a
    BadConfig naming ``what`` and the path.
    """
    p = Path(path)
    if not p.exists():
        raise BadConfig(f"{what} not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise BadConfig(f"{what} {p} is not valid JSON: {exc}") from exc
    return merge(_object(doc, f"{what} {p}", known), overrides)


def merge(doc: dict, overrides: dict | None) -> dict:
    """doc with overrides applied in place: at every depth None is skipped, an
    object merges into the object of its name, any other value replaces doc's."""
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            value = merge(dict(_object(doc.get(key, {}), repr(key))), value)
        if value is not None:
            doc[key] = value
    return doc


def read_section(cls, value, label: str):
    """cls built from value, the JSON object of the section named label.

    Each key must be a field of cls. A field whose default is a bool, int,
    float, str or tuple takes only a value of that JSON type (see typed);
    any other field takes its value as given, for cls to check. Every error
    is a BadConfig naming the section, and a mistyped value names its key.
    """
    section = _object(value, repr(label), [f.name for f in fields(cls)])
    kinds = {f.name: type(f.default) for f in fields(cls)}
    values = {}
    for key, v in section.items():
        try:
            values[key] = typed(v, kinds[key], f"{label}.{key}") if kinds[key] in _KINDS else v
        except BadConfig as exc:
            raise BadConfig(f"bad {key!r}: {exc}") from None
    try:
        return cls(**values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadConfig(f"bad {label!r}: {exc}") from exc


@dataclass(frozen=True)
class SmoothingConfig:
    """Savitzky-Golay smoothing of raw positions, applied before resampling."""

    enabled: bool = True
    window: int = 9
    polyorder: int = 3

    def __post_init__(self):
        if self.window % 2 == 0 or self.window <= self.polyorder or self.polyorder < 0:
            raise BadConfig(
                f"smoothing window must be odd and greater than polyorder, "
                f"got window={self.window} polyorder={self.polyorder}"
            )


def _named(label: str, make, value, **kwargs):
    """make(value, **kwargs), with any error it raises a BadConfig naming label."""
    try:
        return make(value, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadConfig(f"invalid {label}: {exc}") from exc


def _segments(raw, label: str) -> np.ndarray:
    """Validate a segment list as a (W, 2, 2) float array of endpoint pairs."""
    segs = _named(label, np.array, raw, dtype=float)
    if segs.shape == (0,):
        segs = segs.reshape(0, 2, 2)
    if segs.ndim != 3 or segs.shape[1:] != (2, 2):
        raise BadConfig(
            f"invalid {label}: expected a list of [[x, y], [x, y]] segments, "
            f"got shape {segs.shape}"
        )
    if not np.isfinite(segs).all():
        raise BadConfig(f"invalid {label}: non-finite coordinate")
    short = np.flatnonzero(np.hypot(*(segs[:, 1] - segs[:, 0]).T) <= 0.0)
    if len(short):
        raise BadConfig(f"invalid {label}: segment {short[0]} has zero length")
    return segs


@dataclass
class Scenario:
    """Validated scenario shared by the whole pipeline.

    Besides the fields, it holds ray_walls and departure_segments, the
    (W, 2, 2) segment sets derived from them at construction.
    """

    name: str
    frame_rate: float
    walls: np.ndarray  # segment sets are (W, 2, 2) endpoint pairs
    entrances: np.ndarray
    exits: np.ndarray
    clipping_polygon: np.ndarray
    measurement_area: np.ndarray
    measurement_width: float
    dt: float = 0.5
    virtual_walls: np.ndarray = field(default_factory=lambda: np.zeros((0, 2, 2)))
    walkable_polygon: np.ndarray | None = None
    default_heading: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0]))
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    radar: RadarConfig = field(default_factory=RadarConfig)
    rays: RayScanConfig = field(default_factory=RayScanConfig)
    static_velocity_mode: StaticVelocityMode = StaticVelocityMode.MINUS_OWN

    def __post_init__(self):
        for label in ("frame_rate", "dt", "measurement_width"):
            value = getattr(self, label)
            if not 0 < value < math.inf:
                raise BadConfig(f"{label} must be positive and finite, got {value}")
        stride = self.frame_rate * self.dt
        if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
            raise BadConfig(
                f"frame_rate * dt must be a positive integer frame stride, got {stride}"
            )
        for label in ("walls", "virtual_walls", "entrances", "exits"):
            setattr(self, label, _segments(getattr(self, label), label))
        if len(self.exits) == 0:
            raise BadConfig("at least one exit segment is required")
        self.ray_walls = np.concatenate([self.walls, self.virtual_walls])
        self.departure_segments = np.concatenate([self.exits, self.entrances])
        for label in ("clipping_polygon", "measurement_area", "walkable_polygon"):
            if getattr(self, label) is not None:
                setattr(self, label, _named(label, ensure_simple_polygon, getattr(self, label)))
        if not is_convex(self.measurement_area):
            raise BadConfig("measurement_area must be convex")
        if self.walkable_polygon is None:
            self.walkable_polygon = self.clipping_polygon.copy()
        head = _named("default_heading", np.asarray, self.default_heading, dtype=float)
        if head.shape != (2,) or not np.isfinite(head).all():
            raise BadConfig(
                f"default_heading must be two finite numbers [x, y], got {self.default_heading!r}"
            )
        norm = float(np.hypot(head[0], head[1]))
        if norm == 0.0:
            raise BadConfig("default_heading must be nonzero")
        self.default_heading = head / norm
        self.static_velocity_mode = _named(
            "static_velocity_mode", StaticVelocityMode, self.static_velocity_mode
        )
        diameter = self.diameter()
        if self.rays.exit_distance <= diameter:
            raise BadConfig(
                f"rays.exit_distance ({self.rays.exit_distance} m) must exceed the "
                f"scenario diameter ({diameter:.3f} m)"
            )

    @property
    def frame_stride(self) -> int:
        """Raw frames per resampled step."""
        return round(self.frame_rate * self.dt)

    @property
    def feature_dim(self) -> int:
        return feature_dim(self.radar, self.rays)

    def diameter(self) -> float:
        segs = (self.walls, self.virtual_walls, self.entrances, self.exits)
        allpts = np.vstack([self.clipping_polygon] + [s.reshape(-1, 2) for s in segs])
        hi = allpts.max(axis=0)
        lo = allpts.min(axis=0)
        return float(np.hypot(*(hi - lo)))

    def extractor(self) -> FeatureExtractor:
        return FeatureExtractor(
            radar=self.radar,
            rays=self.rays,
            radar_walls=self.walls,
            ray_walls=self.ray_walls,
            static_mode=self.static_velocity_mode,
            default_heading=self.default_heading,
        )

    def to_dict(self) -> dict:
        """The document from_dict reads back: one JSON value per field."""
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        """Validate a scenario document: one key per field. An absent key
        takes the field's default, and an absent segment list is empty."""
        given = {"name": "scenario", **_NO_SEGMENTS, **_object(doc, "scenario")}
        for key, kind in _REQUIRED.items():
            if key in given:
                given[key] = typed(given[key], kind, key)
        for key, make in _SECTIONS.items():
            given[key] = read_section(make, given.get(key, {}), key)
        return read_section(cls, given, "scenario")


# the JSON types of the fields without a default, which read_section cannot see
_REQUIRED = {"name": str, "frame_rate": float, "measurement_width": float}
_SECTIONS = {"smoothing": SmoothingConfig, "radar": RadarConfig, "rays": RayScanConfig}
_NO_SEGMENTS = {"walls": [], "entrances": [], "exits": []}


def _to_json(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, StaticVelocityMode):
        return value.value
    return asdict(value) if is_dataclass(value) else value


def load_scenario(path, sections: dict | None = None) -> Scenario:
    """Read and validate a scenario file.

    ``sections`` maps section names (such as "radar" or "rays") to values
    that override the file's own, merged in before validation, so an
    override can repair a value the file alone would fail on.
    """
    return Scenario.from_dict(read_document(path, "scenario file", overrides=sections))
