"""Social and visual feature extraction for pedestrian states.

Each pedestrian's surroundings are summarized by two constructions anchored to
its heading:

* angular-sector neighbors: the interaction disc of radius ``radius`` is split
  into ``360 / sector_deg`` equal sectors; each sector contributes the nearest
  entity (another pedestrian's center or the closest point of a wall) within
  the disc, or a virtual stand-in on the disc boundary when the sector is
  empty;
* forward ray scan: rays are cast across the half-plane ahead of the
  pedestrian, from 90 degrees anticlockwise of the heading sweeping clockwise
  to 90 degrees clockwise, returning the first wall intersection per ray or a
  far virtual point at ``exit_distance`` when nothing is hit.

The per-step feature vector concatenates the pedestrian's own velocity with
the relative velocities and relative positions of the sector neighbors and the
relative ray points, all expressed in world-frame offsets from the pedestrian.

Every function here works on one subject, given as (2,) position, velocity
and heading, or on S subjects at once, given as (S, 2) arrays; batched
results carry a leading S axis. The subjects of one call share a single
others_pos/others_vel array, and self_index names each subject's own row in
it, which that subject (and only it) skips.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import closest_points, first_hits, ray_segment_params

__all__ = [
    "SPEED_EPS",
    "StaticVelocityMode",
    "RadarConfig",
    "RayScanConfig",
    "NeighborKind",
    "SectorNeighbors",
    "RayScan",
    "heading",
    "radar_neighbors",
    "forward_wall_rays",
    "assemble_frame",
    "feature_dim",
    "FeatureExtractor",
]

# Speeds below this are treated as standing still when deriving a heading.
SPEED_EPS = 1e-3

TWO_PI = 2.0 * math.pi


class StaticVelocityMode(enum.Enum):
    """Relative-velocity convention for walls and virtual neighbors.

    MINUS_OWN stores -v (the entity is at absolute rest); ZERO stores a zero
    relative velocity (the entity co-moves with the pedestrian).
    """

    MINUS_OWN = "minus_own_velocity"
    ZERO = "zero"


def _positive(value: float, name: str) -> float:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


@dataclass(frozen=True)
class RadarConfig:
    """Sector-neighbor extraction parameters."""

    radius: float = 1.2
    sector_deg: float = 18.0

    def __post_init__(self):
        _positive(self.radius, "radius")
        _positive(self.sector_deg, "sector_deg")
        n = 360.0 / self.sector_deg
        if abs(n - round(n)) > 1e-9:
            raise ValueError(f"sector_deg must divide 360, got {self.sector_deg}")

    @property
    def n_sectors(self) -> int:
        return round(360.0 / self.sector_deg)


@dataclass(frozen=True)
class RayScanConfig:
    """Forward ray-scan parameters."""

    step_deg: float = 5.0
    exit_distance: float = 100.0

    def __post_init__(self):
        _positive(self.step_deg, "step_deg")
        _positive(self.exit_distance, "exit_distance")
        n = 180.0 / self.step_deg
        if abs(n - round(n)) > 1e-9:
            raise ValueError(f"step_deg must divide 180, got {self.step_deg}")

    @property
    def n_rays(self) -> int:
        return round(180.0 / self.step_deg) + 1


class NeighborKind(enum.IntEnum):
    VIRTUAL = 0
    PEDESTRIAN = 1
    WALL = 2


@dataclass
class SectorNeighbors:
    """Per-sector nearest entities; arrays are indexed by sector (anticlockwise)."""

    rel_positions: np.ndarray  # (n_sectors, 2)
    rel_velocities: np.ndarray  # (n_sectors, 2)
    kinds: np.ndarray  # (n_sectors,) NeighborKind values
    indices: np.ndarray  # (n_sectors,) candidate index, -1 for virtual


@dataclass
class RayScan:
    """Per-ray first wall hits relative to the pedestrian."""

    rel_points: np.ndarray  # (n_rays, 2)
    wall_indices: np.ndarray  # (n_rays,) wall index, -1 when no hit


def heading(velocity_history, default) -> np.ndarray:
    """Most recent moving direction, or the scenario default when never moving.

    velocity_history is a sequence of (2,) velocities, scanned from the
    latest entry backwards; the first velocity with speed > SPEED_EPS
    defines the heading. Only the entries scanned are read: the history is
    never converted as a whole.
    """
    for k in range(len(velocity_history) - 1, -1, -1):
        v = np.asarray(velocity_history[k], dtype=float)
        speed = float(np.hypot(v[0], v[1]))
        if speed > SPEED_EPS:
            return v / speed
    d = np.asarray(default, dtype=float)
    norm = float(np.hypot(d[0], d[1]))
    if norm == 0.0:
        raise ValueError("default heading must be nonzero")
    return d / norm


def _sector_index(angles: np.ndarray, base: np.ndarray, sector_rad: float, n: int) -> np.ndarray:
    rel = np.mod(angles - base, TWO_PI)
    idx = np.floor(rel / sector_rad).astype(int)
    return np.minimum(idx, n - 1)  # guard the mod-boundary rounding case


def _in_wedge(rel: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # Closed membership with slack: candidates on either boundary ray are kept
    # so that sector minima agree with the infimum over the open wedge. The
    # mod can fold a boundary angle to either side of the 0 / 2*pi seam, so
    # both shifted values are tested as well.
    ok = False
    for r in (rel - TWO_PI, rel, rel + TWO_PI):
        ok = ok | ((lo - 1e-9 <= r) & (r <= hi + 1e-9))
    return ok


def radar_neighbors(
    position,
    velocity,
    heading_vec,
    others_pos,
    others_vel,
    walls,
    cfg: RadarConfig,
    static_mode: StaticVelocityMode = StaticVelocityMode.MINUS_OWN,
    self_index=None,
) -> SectorNeighbors:
    """Nearest entity per angular sector of the interaction disc.

    Sector 0 starts at the reverse of the heading and sectors advance
    anticlockwise; membership is half-open [start, start + sector). Empty
    sectors get a virtual neighbor on the disc at the sector bisector.

    position, velocity and heading_vec are (2,) for one subject or (S, 2) for
    S subjects, whose results then carry a leading S axis. All subjects share
    others_pos/others_vel; self_index (one row per subject, or None) names
    each subject's own row there, which only that subject skips. walls is a
    (W, 2, 2) array of segment endpoint pairs.

    Ties go to the lowest (distance, kind, index). Within a wall the
    candidates are its closest point, its endpoints and its hits by the two
    sector boundary rays, in that order, and the first nearest one is kept.
    """
    single = np.ndim(position) == 1
    p, v, h = (
        np.asarray(x, dtype=float).reshape(-1, 2) for x in (position, velocity, heading_vec)
    )
    S, n = len(p), cfg.n_sectors
    sector_rad = math.radians(cfg.sector_deg)
    base = np.arctan2(-h[:, 1], -h[:, 0])
    bounds = np.arange(n + 1) * sector_rad
    lo, hi = bounds[:-1, None, None], bounds[1:, None, None]

    others_pos = np.asarray(others_pos, dtype=float).reshape(-1, 2)
    others_vel = np.asarray(others_vel, dtype=float).reshape(-1, 2)
    N = len(others_pos)
    rel = others_pos - p[:, None]
    dists = np.hypot(rel[..., 0], rel[..., 1])
    sectors = _sector_index(np.arctan2(rel[..., 1], rel[..., 0]), base[:, None], sector_rad, n)
    seen = dists <= cfg.radius
    if self_index is not None:
        seen[np.arange(S), np.reshape(self_index, -1)] = False
    in_sector = seen[:, None] & (sectors[:, None] == np.arange(n)[:, None])
    ped_d = np.where(in_sector, dists[:, None], np.inf)  # (S, n, N)

    walls = np.asarray(walls, dtype=float).reshape(-1, 2, 2)
    a, b = walls[:, 0], walls[:, 1]
    W = len(a)
    _, closest = closest_points(p[:, None], a, b)
    ang = base[:, None] + bounds
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)[:, :, None]
    t, hit = ray_segment_params(p[:, None, None], dirs, a, b)
    bnd = p[:, None, None] + t[..., None] * dirs  # (S, n + 1, W, 2)
    pts = np.stack(np.broadcast_arrays(closest[:, None], a, b, bnd[:, :-1], bnd[:, 1:]), axis=3)
    off = pts - p[:, None, None, None]  # (S, n, W, 5, 2)
    d = np.hypot(off[..., 0], off[..., 1])
    # a coincident point lies in the sector of angle 0, as atan2(0, 0) does
    cand_ang = np.where(d < 1e-12, 0.0, np.arctan2(off[..., 1], off[..., 0]))
    found = np.ones(d.shape, dtype=bool)
    found[..., 3], found[..., 4] = hit[:, :-1], hit[:, 1:]
    cand_rel = np.mod(cand_ang - base[:, None, None, None], TWO_PI)
    found &= _in_wedge(cand_rel, lo, hi)
    found &= (d <= cfg.radius) & (d[..., :1] <= cfg.radius)
    wall_d = np.where(found, d, np.inf).reshape(S, n, 5 * W)

    # candidates: pedestrians, then walls, then a virtual stand-in beyond the
    # radius; argmin keeps the first minimum
    virtual_d = np.full((S, n, 1), 2.0 * cfg.radius)
    k = np.argmin(np.concatenate([ped_d, wall_d, virtual_d], axis=2), axis=2)
    kinds = np.where(
        k < N,
        NeighborKind.PEDESTRIAN,
        np.where(k < N + 5 * W, NeighborKind.WALL, NeighborKind.VIRTUAL),
    )
    # gather each sector's winner; a zero row appended to each candidate
    # list stands in where the winner is of another kind
    rows, cols = np.arange(S)[:, None], np.arange(n)
    ped = np.minimum(k, N)
    ped_rel = np.concatenate([rel, np.zeros((S, 1, 2))], axis=1)[rows, ped]
    ped_vel = np.concatenate([others_vel, np.zeros((1, 2))])[ped] - v[:, None]
    wall_off = np.concatenate([off.reshape(S, n, 5 * W, 2), np.zeros((S, n, 1, 2))], axis=2)
    wall_rel = wall_off[rows, cols, np.clip(k - N, 0, 5 * W)]
    virt_ang = base[:, None] + (cols + 0.5) * sector_rad
    virtual = cfg.radius * np.stack([np.cos(virt_ang), np.sin(virt_ang)], axis=-1)
    is_ped = (kinds == NeighborKind.PEDESTRIAN)[..., None]
    is_wall = (kinds == NeighborKind.WALL)[..., None]
    rel_pos = np.where(is_ped, ped_rel, np.where(is_wall, wall_rel, virtual))
    static_rv = -v if static_mode is StaticVelocityMode.MINUS_OWN else np.zeros_like(v)
    rel_vel = np.where(is_ped, ped_vel, static_rv[:, None])
    indices = np.where(is_ped[..., 0], k, np.where(is_wall[..., 0], (k - N) // 5, -1))
    if single:
        rel_pos, rel_vel, kinds, indices = rel_pos[0], rel_vel[0], kinds[0], indices[0]
    return SectorNeighbors(rel_pos, rel_vel, kinds, indices)


def forward_wall_rays(
    position,
    heading_vec,
    walls,
    cfg: RayScanConfig,
) -> RayScan:
    """First wall hit per forward ray, relative to the pedestrian.

    Ray 0 points 90 degrees anticlockwise of the heading; successive rays step
    clockwise by step_deg down to 90 degrees clockwise. Rays that miss every
    wall report a virtual point at exit_distance. walls is a (W, 2, 2) array
    of segment endpoint pairs. An (S, 2) position and heading give results
    with a leading S axis.
    """
    single = np.ndim(position) == 1
    p = np.asarray(position, dtype=float).reshape(-1, 2)
    h = np.asarray(heading_vec, dtype=float).reshape(-1, 2)
    step = math.radians(cfg.step_deg)
    ang = np.arctan2(h[:, 1], h[:, 0])[:, None] + 0.5 * math.pi - np.arange(cfg.n_rays) * step
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    walls = np.asarray(walls, dtype=float).reshape(-1, 2, 2)
    pts, idx = first_hits(p[:, None], dirs, walls[:, 0], walls[:, 1])
    rel = np.where(idx[..., None] < 0, cfg.exit_distance * dirs, pts - p[:, None])
    return RayScan(rel[0], idx[0]) if single else RayScan(rel, idx)


def assemble_frame(velocity, neighbors: SectorNeighbors, rays: RayScan) -> np.ndarray:
    """Flatten one step's features: [v, neighbor rel velocities, neighbor rel
    positions, ray rel points], each block row-major. A (S, 2) velocity with
    batched neighbors and rays gives (S, F) frames."""
    v = np.asarray(velocity, dtype=float)
    lead = v.shape[:-1]
    blocks = (neighbors.rel_velocities, neighbors.rel_positions, rays.rel_points)
    return np.concatenate([v] + [x.reshape(*lead, -1) for x in blocks], axis=-1)


def feature_dim(radar: RadarConfig, rays: RayScanConfig) -> int:
    return 2 + 4 * radar.n_sectors + 2 * rays.n_rays


@dataclass
class FeatureExtractor:
    """Bundles the extraction configuration for one scenario.

    radar_walls are the physical walls considered as sector neighbors;
    ray_walls additionally include virtual entrance walls so forward rays
    cannot escape through the inflow boundary. Both are (W, 2, 2) arrays of
    segment endpoint pairs. default_heading heads a subject that has not moved.
    """

    radar: RadarConfig
    rays: RayScanConfig
    radar_walls: np.ndarray = field(default_factory=lambda: np.zeros((0, 2, 2)))
    ray_walls: np.ndarray = field(default_factory=lambda: np.zeros((0, 2, 2)))
    static_mode: StaticVelocityMode = StaticVelocityMode.MINUS_OWN
    default_heading: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0]))

    @property
    def feature_dim(self) -> int:
        return feature_dim(self.radar, self.rays)

    def heading(self, velocity_history) -> np.ndarray:
        """The heading after velocity_history, falling back to default_heading."""
        return heading(velocity_history, self.default_heading)

    def frame(
        self, position, velocity, heading_vec, others_pos, others_vel, self_index=None
    ) -> np.ndarray:
        """Feature frame of one subject ((2,) inputs) or of S subjects ((S, 2)
        inputs, (S, F) result) against shared others; see radar_neighbors."""
        neighbors = radar_neighbors(
            position,
            velocity,
            heading_vec,
            others_pos,
            others_vel,
            self.radar_walls,
            self.radar,
            self.static_mode,
            self_index,
        )
        scan = forward_wall_rays(position, heading_vec, self.ray_walls, self.rays)
        return assemble_frame(velocity, neighbors, scan)
