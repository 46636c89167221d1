"""2D geometry kernel: segments, rays, polygon clipping, bounded Voronoi cells.

All functions are pure and operate on plain numpy arrays (shape (2,) points,
metres). closest_points, ray_segment_params and first_hits broadcast over
(..., 2) arrays; the Segment and Ray forms are one-item calls of them.
Coordinates are double precision; predicates use an absolute tolerance
EPS_GEO, far below the centimetre resolution of trajectory data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS_GEO = 1e-9

__all__ = [
    "EPS_GEO",
    "Segment",
    "Ray",
    "VoronoiCell",
    "DegenerateSites",
    "SelfIntersecting",
    "segment_endpoints",
    "closest_points",
    "ray_segment_params",
    "first_hits",
    "point_segment_distance",
    "ray_segment_intersection",
    "first_hit",
    "polygon_area",
    "ensure_simple_polygon",
    "polygon_clip",
    "point_in_polygon",
    "bounded_voronoi",
]


class DegenerateSites(ValueError):
    """Two Voronoi sites coincide within tolerance."""


class SelfIntersecting(ValueError):
    """Polygon has a proper self-intersection."""


def _as_point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.shape != (2,):
        raise ValueError(f"expected a 2D point, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Segment:
    """Line segment from ``a`` to ``b``; must have positive length."""

    a: np.ndarray
    b: np.ndarray

    def __init__(self, a, b):
        object.__setattr__(self, "a", _as_point(a))
        object.__setattr__(self, "b", _as_point(b))
        if float(np.hypot(*(self.a - self.b))) <= 0.0:
            raise ValueError("segment endpoints coincide")

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.b - self.a))


@dataclass(frozen=True)
class Ray:
    """Half-line from ``origin`` along unit vector ``direction``."""

    origin: np.ndarray
    direction: np.ndarray

    def __init__(self, origin, direction):
        object.__setattr__(self, "origin", _as_point(origin))
        d = _as_point(direction)
        n = float(np.linalg.norm(d))
        if abs(n - 1.0) > 1e-9:
            if n == 0.0:
                raise ValueError("ray direction is zero")
            d = d / n
        object.__setattr__(self, "direction", d)


@dataclass(frozen=True)
class VoronoiCell:
    """Convex cell of one site, clipped to the bounding area."""

    site: np.ndarray
    polygon: np.ndarray  # (n, 2) ordered vertices
    area: float
    site_index: int


def _cross(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def segment_endpoints(segments) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points of a list of segments as two (W, 2) arrays."""
    ends = np.array([(s.a, s.b) for s in segments], dtype=float).reshape(-1, 2, 2)
    return ends[:, 0], ends[:, 1]


def closest_points(p, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Distances from points ``p`` to segments ``a``-``b`` and the closest points.

    All inputs are (..., 2) arrays that broadcast against each other.
    """
    d = b - a
    r = p - a
    dd = d[..., 0] ** 2 + d[..., 1] ** 2
    t = np.clip((r[..., 0] * d[..., 0] + r[..., 1] * d[..., 1]) / dd, 0.0, 1.0)
    closest = a + t[..., None] * d
    return np.hypot(p[..., 0] - closest[..., 0], p[..., 1] - closest[..., 1]), closest


def ray_segment_params(origin, direction, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Ray parameters t >= 0 of ray-segment intersections, and whether each hits.

    Broadcasts (..., 2) ray origins and unit directions against (..., 2)
    segment endpoints. Endpoints are inclusive. When a ray is collinear with
    its segment, t is that of the overlap point nearest the ray origin.
    """
    dx, dy = direction[..., 0], direction[..., 1]
    ex, ey = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1]
    rx, ry = a[..., 0] - origin[..., 0], a[..., 1] - origin[..., 1]
    denom = dx * ey - dy * ex
    parallel = np.abs(denom) <= EPS_GEO * np.hypot(ex, ey)
    # parallel: collinear iff the segment start lies on the ray's line
    collinear = np.abs(dx * ry - dy * rx) <= EPS_GEO * np.maximum(1.0, np.hypot(rx, ry))
    ta = rx * dx + ry * dy
    tb = (b[..., 0] - origin[..., 0]) * dx + (b[..., 1] - origin[..., 1]) * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rx * ey - ry * ex) / denom
        u = (rx * dy - ry * dx) / denom
    crosses = (t >= -EPS_GEO) & (u >= -EPS_GEO) & (u <= 1.0 + EPS_GEO)
    hits = np.where(parallel, collinear & (np.maximum(ta, tb) >= -EPS_GEO), crosses)
    return np.maximum(np.where(parallel, np.minimum(ta, tb), t), 0.0), hits


def first_hits(origin, direction, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Nearest intersection of each ray with the (W, 2) segments ``a``-``b``.

    ``origin`` and ``direction`` are (..., 2). Returns the hit points
    (..., 2) and wall indices (...,), -1 where a ray hits nothing. Walls are
    scanned in index order and a later one wins only when it is nearer by
    more than EPS_GEO, so ties break toward the lowest wall index.
    """
    t, hits = ray_segment_params(origin[..., None, :], direction[..., None, :], a, b)
    best_t = np.full(t.shape[:-1], np.inf)
    best = np.full(t.shape[:-1], -1)
    for w in range(t.shape[-1]):
        take = hits[..., w] & (t[..., w] < best_t - EPS_GEO)
        best_t = np.where(take, t[..., w], best_t)
        best = np.where(take, w, best)
    return origin + np.where(best < 0, 0.0, best_t)[..., None] * direction, best


def point_segment_distance(p, s: Segment) -> tuple[float, np.ndarray]:
    """Distance from point ``p`` to segment ``s`` and the closest point on it."""
    d, closest = closest_points(_as_point(p), s.a, s.b)
    return float(d), closest


def ray_segment_intersection(r: Ray, s: Segment) -> np.ndarray | None:
    """Intersection point of ray and segment, or None (see ray_segment_params)."""
    t, hit = ray_segment_params(r.origin, r.direction, s.a, s.b)
    return r.origin + t * r.direction if hit else None


def first_hit(r: Ray, walls: list[Segment]) -> tuple[np.ndarray, int] | None:
    """Nearest ray-wall intersection over ``walls`` (with its wall index).

    Ties break toward the lowest wall index.
    """
    pt, idx = first_hits(r.origin, r.direction, *segment_endpoints(walls))
    return None if idx < 0 else (pt, int(idx))


def polygon_area(polygon) -> float:
    """Unsigned shoelace area of a polygon given as (n, 2) vertices."""
    pts = np.asarray(polygon, dtype=float)
    if len(pts) < 3:
        return 0.0
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _signed_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _segments_properly_intersect(a, b, c, d) -> bool:
    # Proper crossing: interiors intersect at a single point.
    d1 = _cross(d - c, a - c)
    d2 = _cross(d - c, b - c)
    d3 = _cross(b - a, c - a)
    d4 = _cross(b - a, d - a)
    return ((d1 > EPS_GEO and d2 < -EPS_GEO) or (d1 < -EPS_GEO and d2 > EPS_GEO)) and (
        (d3 > EPS_GEO and d4 < -EPS_GEO) or (d3 < -EPS_GEO and d4 > EPS_GEO)
    )


def _check_simple(pts: np.ndarray) -> None:
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = pts[j], pts[(j + 1) % n]
            if _segments_properly_intersect(a, b, c, d):
                raise SelfIntersecting(f"edges {i} and {j} cross")


def ensure_simple_polygon(polygon) -> np.ndarray:
    """Validate a polygon (>= 3 vertices, no self-crossing) and return it as an array."""
    pts = np.asarray(polygon, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise ValueError("polygon must be an (n >= 3, 2) vertex array")
    _check_simple(pts)
    if polygon_area(pts) <= EPS_GEO:
        raise ValueError("polygon has zero area")
    return pts


def _clip_halfplane(pts: np.ndarray, point: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Keep the part of the polygon with (x - point) . normal <= 0."""
    if len(pts) == 0:
        return pts
    dist = (pts - point) @ normal
    out = []
    n = len(pts)
    for i in range(n):
        j = (i + 1) % n
        di, dj = dist[i], dist[j]
        inside_i = di <= EPS_GEO
        inside_j = dj <= EPS_GEO
        if inside_i:
            out.append(pts[i])
            if not inside_j and di < -EPS_GEO:
                t = di / (di - dj)
                out.append(pts[i] + t * (pts[j] - pts[i]))
        elif inside_j:
            if dj < -EPS_GEO:
                t = di / (di - dj)
                out.append(pts[i] + t * (pts[j] - pts[i]))
    if not out:
        return np.zeros((0, 2))
    return np.asarray(out)


def polygon_clip(subject, clip) -> np.ndarray:
    """Clip a simple polygon by a convex polygon (Sutherland-Hodgman).

    Returns the intersection as an (m, 2) vertex array; empty array when the
    polygons do not overlap. Raises SelfIntersecting for an invalid subject.
    """
    subj = np.asarray(subject, dtype=float)
    clp = np.asarray(clip, dtype=float)
    if len(subj) < 3 or len(clp) < 3:
        return np.zeros((0, 2))
    _check_simple(subj)
    if _signed_area(clp) < 0:
        clp = clp[::-1]
    pts = subj
    n = len(clp)
    for i in range(n):
        a, b = clp[i], clp[(i + 1) % n]
        edge = b - a
        normal = np.array([edge[1], -edge[0]])  # outward for CCW clip
        pts = _clip_halfplane(pts, a, normal)
        if len(pts) == 0:
            break
    return pts


def point_in_polygon(p, polygon, include_boundary: bool = True):
    """Even-odd membership test; points on an edge count per ``include_boundary``.

    ``p`` is one (2,) point, giving a bool, or an (N, 2) array of points,
    giving an (N,) bool array. Zero-length edges are ignored.
    """
    q = np.asarray(p, dtype=float)
    if q.shape != (2,) and (q.ndim != 2 or q.shape[1] != 2):
        raise ValueError(f"expected a 2D point or an (N, 2) array, got shape {q.shape}")
    a = np.asarray(polygon, dtype=float).reshape(-1, 2)
    b = np.concatenate([a[1:], a[:1]])
    ax, ay, bx, by = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    sx, sy = bx - ax, by - ay
    # points along axis 0, edges along axis 1
    x, y = q.reshape(-1, 2)[:, :1], q.reshape(-1, 2)[:, 1:]
    rx, ry = x - ax, y - ay
    # a zero-length edge gives t = NaN and never straddles, so it drops out
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rx * sx + ry * sy) / (sx * sx + sy * sy)
        x_cross = ax + ry / sy * sx
    dx = x - (ax + t * sx)
    dy = y - (ay + t * sy)
    on_edge = ((t >= 0.0) & (t <= 1.0) & (np.sqrt(dx * dx + dy * dy) <= EPS_GEO)).any(axis=1)
    inside = np.logical_xor.reduce(((ay > y) != (by > y)) & (x < x_cross), axis=1)
    result = (inside | on_edge) if include_boundary else (inside & ~on_edge)
    return bool(result[0]) if q.ndim == 1 else result


def bounded_voronoi(sites, area) -> list[VoronoiCell]:
    """Voronoi cells of ``sites`` clipped to the ``area`` polygon.

    Each cell is obtained by half-plane clipping of the area polygon against
    the perpendicular bisectors with every other site (O(n^2), exact enough
    at crowd scale). Sites may lie outside the area; cells that end up empty
    are dropped, so the returned cells partition the area.

    Raises DegenerateSites when two sites are closer than 1e-6 m.
    """
    pts = np.asarray(sites, dtype=float).reshape(-1, 2)
    poly = np.asarray(area, dtype=float)
    n = len(pts)
    if n == 0:
        raise ValueError("at least one site required")
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(pts[i] - pts[j]) < 1e-6:
                raise DegenerateSites(f"sites {i} and {j} coincide")
    cells = []
    for i in range(n):
        cell = poly.copy()
        for j in range(n):
            if j == i or len(cell) == 0:
                continue
            mid = 0.5 * (pts[i] + pts[j])
            normal = pts[j] - pts[i]  # keep the side nearer to site i
            cell = _clip_halfplane(cell, mid, normal)
        a = polygon_area(cell) if len(cell) >= 3 else 0.0
        if a > 0.0:
            cells.append(VoronoiCell(site=pts[i], polygon=cell, area=a, site_index=i))
    return cells
