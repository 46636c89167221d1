"""2D geometry kernel: segments, rays, polygon clipping, bounded Voronoi cells.

All functions are pure and operate on plain numpy arrays (shape (2,) points,
metres). A segment set is a (W, 2, 2) array of endpoint pairs, passed as its
start and end points ``a`` and ``b`` ((W, 2) each); a ray is an origin and a
unit direction. closest_points, ray_segment_params, first_hits and
crossing_params broadcast over (..., 2) arrays, so one call serves one point
or ray and many alike.
Coordinates are double precision; predicates use an absolute tolerance
EPS_GEO, far below the centimetre resolution of trajectory data.

Every area is one row of _shoelace, which adds a polygon's cross terms
x_k y_{k+1} - y_k x_{k+1} by a running sum in vertex order (k = 0 .. n - 1,
the closing term last), so it has the same bits alone and in any table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

EPS_GEO = 1e-9

__all__ = [
    "EPS_GEO",
    "VoronoiCells",
    "DegenerateSites",
    "SelfIntersecting",
    "closest_points",
    "ray_segment_params",
    "first_hits",
    "crossing_params",
    "polygon_area",
    "ensure_simple_polygon",
    "is_convex",
    "polygon_clip",
    "polygon_clip_areas",
    "point_in_polygon",
    "bounded_voronoi",
]


class DegenerateSites(ValueError):
    """Two Voronoi sites coincide within tolerance; ``pair`` holds the two named."""

    def __init__(self, message: str, pair: tuple = ()):
        super().__init__(message)
        self.pair = pair


class SelfIntersecting(ValueError):
    """Polygon has a proper self-intersection."""


class VoronoiCells(NamedTuple):
    """The cells of n sites as one padded table; row i is site i's cell.

    Row i of ``polygons`` (n, K, 2) holds ``counts[i]`` ordered vertices and
    ``areas[i]`` is their area. A dropped cell has count 0 and area 0.
    """

    polygons: np.ndarray
    counts: np.ndarray
    areas: np.ndarray


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


def crossing_params(p0, p1, a, b) -> np.ndarray:
    """Motion parameters where the steps ``p0``->``p1`` cross segments ``a``-``b``.

    ``p0`` and ``p1`` are (N, 2) step starts and ends, ``a`` and ``b`` (W, 2)
    segment ends; the result is (N, W), t = inf where a step does not cross.
    A step crosses when it changes side of the segment's line and meets the
    segment within u in [-1e-9, 1 + 1e-9]. Side values within 1e-9 |b - a|
    of the line count as on it: a step that lands on the line (t = 1)
    crosses, so nothing comes to rest on a line and slips over it unseen
    next step, while a step that starts on the line does not, which covers
    entry positions on an entrance, motion along a boundary and smoothing
    noise on seed points that sit on one. Motion parallel to a segment
    (zero denominator) never crosses it.
    """
    p0, p1 = p0[:, None], p1[:, None]
    ex, ey = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    side0 = ex * (p0[..., 1] - a[:, 1]) - ey * (p0[..., 0] - a[:, 0])
    side1 = ex * (p1[..., 1] - a[:, 1]) - ey * (p1[..., 0] - a[:, 0])
    tol = 1e-9 * np.hypot(ex, ey)
    on1 = np.abs(side1) <= tol
    dx, dy = p1[..., 0] - p0[..., 0], p1[..., 1] - p0[..., 1]
    rx, ry = a[:, 0] - p0[..., 0], a[:, 1] - p0[..., 1]
    denom = dx * ey - dy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rx * ey - ry * ex) / denom
        u = (rx * dy - ry * dx) / denom
    crosses = (
        (np.abs(side0) > tol)
        & (on1 | ((side0 > 0) != (side1 > 0)))
        & (denom != 0.0)
        & (u >= -1e-9)
        & (u <= 1.0 + 1e-9)
    )
    return np.where(crosses, t, np.inf)


def polygon_area(polygon) -> float:
    """Unsigned shoelace area of a polygon given as (n, 2) vertices."""
    pts = np.asarray(polygon, dtype=float)
    return abs(float(_shoelace(pts[None], np.array([len(pts)]))[0]))


def _shoelace(cells: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Signed areas of padded polygons, positive counter-clockwise; rows with
    fewer than 3 vertices get 0. Each row is summed in vertex order."""
    m, k = cells.shape[:2]
    if k == 0:
        return np.zeros(m)
    slot = np.arange(k)
    nxt = cells[np.arange(m)[:, None], np.where(slot + 1 < counts[:, None], slot + 1, 0)]
    twice = cells[..., 0] * nxt[..., 1] - cells[..., 1] * nxt[..., 0]
    total = np.cumsum(np.where(slot < counts[:, None], twice, 0.0), axis=1)[:, -1]
    return np.where(counts >= 3, 0.5 * total, 0.0)


def _check_simple(pts: np.ndarray) -> None:
    """Raise SelfIntersecting for the first non-adjacent edge pair (i, j), i < j,
    whose interiors cross at a single point: each edge's endpoints lie strictly
    (beyond EPS_GEO) on opposite sides of the other edge's line. All pairs are
    tested at once."""
    n = len(pts)
    idx = np.arange(n)
    nxt = (idx + 1) % n
    e = pts[nxt] - pts
    # side[k, p]: cross product placing vertex p against edge k's line
    rel = pts[None] - pts[:, None]
    side = e[:, None, 0] * rel[..., 1] - e[:, None, 1] * rel[..., 0]
    # straddle[k, p]: edge p's endpoints lie on opposite sides of edge k's line
    after = side[:, nxt]
    straddle = (np.minimum(side, after) < -EPS_GEO) & (np.maximum(side, after) > EPS_GEO)
    pairs = idx[:, None] + 2 <= idx[None]
    pairs[0, n - 1] = False  # the closing edge meets edge 0
    hits = np.argwhere(pairs & straddle & straddle.T)
    if len(hits):
        i, j = hits[0]
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


def is_convex(polygon) -> bool:
    """Whether a closed polygon is convex.

    Every turn must bend the same way (within EPS_GEO, so collinear and
    repeated vertices pass) and the turns must add up to one revolution,
    which rules out star polygons and fewer than three distinct vertices.
    """
    pts = np.asarray(polygon, dtype=float).reshape(-1, 2)
    e = np.roll(pts, -1, axis=0) - pts
    length = np.hypot(e[:, 0], e[:, 1])
    e, length = e[length > 0.0], length[length > 0.0]  # repeated vertices make no turn
    f = np.roll(e, -1, axis=0)
    cross = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
    tol = EPS_GEO * length * np.roll(length, -1)
    turning = float(np.arctan2(cross, (e * f).sum(axis=1)).sum())
    one_way = bool((cross >= -tol).all() or (cross <= tol).all())
    return one_way and abs(abs(turning) - 2.0 * np.pi) < 1e-6


def _clip_halfplanes(cells: np.ndarray, counts: np.ndarray, point, normal):
    """Clip padded polygons, each by one half-plane (one Sutherland-Hodgman step).

    Row r of ``cells`` (m, K, 2) holds a polygon of ``counts[r]`` vertices;
    ``point`` and ``normal`` are (m, 2) or one shared (2,) pair, and each row
    keeps the part with (x - point) . normal <= EPS_GEO. Every edge slot
    emits its start vertex when kept, then the crossing point when the edge
    leaves or enters the half-plane; the emitted points are packed, in that
    order, to the front of each row of a zero-padded table. Returns the
    clipped (m, K', 2) cells and their counts.
    """
    m, k = cells.shape[:2]
    live = np.arange(k) < counts[:, None]
    # each (K, 2) @ (2, 1) slice is the same BLAS matrix-vector product as a
    # one-polygon (k, 2) @ (2,) call, so the distances agree bitwise
    dist = ((cells - point[..., None, :]) @ normal[..., :, None])[..., 0]
    # the next vertex of each slot; a row's last vertex closes on slot 0
    closing = (np.arange(m), counts - 1)
    dist_next = np.roll(dist, -1, axis=1)
    dist_next[closing] = dist[:, 0]
    cells_next = np.roll(cells, -1, axis=1)
    cells_next[closing] = cells[:, 0]
    inside = dist <= EPS_GEO
    inside_next = dist_next <= EPS_GEO
    cross = live & np.where(
        inside, ~inside_next & (dist < -EPS_GEO), inside_next & (dist_next < -EPS_GEO)
    )
    t = dist / np.where(cross, dist - dist_next, 1.0)
    hit = cells + t[..., None] * (cells_next - cells)
    emit = np.stack([live & inside, cross], axis=2).reshape(m, 2 * k)
    new_counts = emit.sum(axis=1)
    row = np.repeat(np.arange(m), new_counts)
    slot = np.arange(len(row)) - np.repeat(np.cumsum(new_counts) - new_counts, new_counts)
    clipped = np.zeros((m, new_counts.max(initial=0), 2))
    clipped[row, slot] = np.stack([cells, hit], axis=2).reshape(m, 2 * k, 2)[emit]
    return clipped, new_counts


def _clip_convex(cells: np.ndarray, counts: np.ndarray, clip) -> tuple[np.ndarray, np.ndarray]:
    """Clip padded polygons by a convex polygon, one half-plane pass per edge."""
    clp = np.asarray(clip, dtype=float)
    if not is_convex(clp):
        raise ValueError("clip polygon must be convex")
    if _shoelace(clp[None], np.array([len(clp)]))[0] < 0:
        clp = clp[::-1]
    for a, b in zip(clp, np.roll(clp, -1, axis=0)):
        if not counts.any():
            break
        edge = b - a
        cells, counts = _clip_halfplanes(cells, counts, a, np.array([edge[1], -edge[0]]))
    return cells, counts


def polygon_clip(subject, clip) -> np.ndarray:
    """Clip a simple polygon by a convex polygon (Sutherland-Hodgman).

    Returns the intersection as an (m, 2) vertex array; empty array when the
    polygons do not overlap. Raises SelfIntersecting for an invalid subject
    and ValueError for a clip polygon that is not convex.
    """
    subj = np.asarray(subject, dtype=float)
    clp = np.asarray(clip, dtype=float)
    if len(subj) < 3 or len(clp) < 3:
        return np.zeros((0, 2))
    _check_simple(subj)
    cells, counts = _clip_convex(subj[None], np.array([len(subj)]), clp)
    return cells[0, : counts[0]]


def polygon_clip_areas(polygons, counts, clip) -> np.ndarray:
    """Area of each padded polygon's intersection with a convex clip polygon.

    Row r of ``polygons`` (m, K, 2) holds a polygon of ``counts[r]``
    vertices, as in a VoronoiCells table; a row of count 0 has area 0. All
    rows are clipped at once; unlike polygon_clip, the subjects are not
    checked for self-crossing, so callers validate them (for Voronoi cells
    it is enough to validate the area they partition). Raises ValueError
    for a clip polygon that is not convex.
    """
    return np.abs(_shoelace(*_clip_convex(np.asarray(polygons, float), np.asarray(counts), clip)))


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


def _farthest(cells: np.ndarray, counts: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Distance from each site to the farthest vertex of its padded cell (0 if empty)."""
    d = cells - sites[:, None, :]
    dist = np.hypot(d[..., 0], d[..., 1])
    return np.where(np.arange(cells.shape[1]) < counts[:, None], dist, 0.0).max(axis=1, initial=0.0)


def bounded_voronoi(sites, area, sizes=None) -> VoronoiCells:
    """Voronoi cells of ``sites`` clipped to the ``area`` polygon, row i for site i.

    ``sizes`` splits the sites into consecutive groups (say one per time
    step), each tessellated on its own; None is one group. A cell is the area
    polygon clipped by the bisectors with every other site of its group
    (O(n^2) per group). Sites may lie outside the area; cells that end up
    empty, or of area at most EPS_GEO times the area's extent (the rounding
    noise a site outside a non-convex area can leave), are dropped (count 0,
    area 0), so each group's live cells partition the area.

    All cells are clipped as one padded table, in as many rounds as the
    largest group has sites: round j clips every live cell i by the bisector
    with site j of its own group, so each cell meets the bisectors in
    site-index order. A cell skips site j when |p_j - p_i| > 2 R_i + EPS_GEO,
    R_i being the distance from site i to its cell's farthest vertex: every
    vertex v then has (v - mid) . (p_j - p_i) <= |p_j - p_i| (R_i - |p_j -
    p_i| / 2) < 0, so the clip would change nothing. Rows never interact, so
    the cells are bitwise those of clipping one cell at a time in the same
    order, and those of one call per group. Each round computes only the
    distances to its sites j, so no pairwise table is held.

    Raises DegenerateSites when two sites of one group are closer than
    1e-6 m, naming the first such pair (i < j), as rows of ``sites``, of the
    earliest group in row-major order; ValueError for an empty group or sizes
    that do not add up to the sites.
    """
    pts = np.asarray(sites, dtype=float).reshape(-1, 2)
    poly = np.asarray(area, dtype=float).reshape(-1, 2)
    n = len(pts)
    sizes = np.array([n]) if sizes is None else np.asarray(sizes, dtype=int).reshape(-1)
    if n == 0 or (sizes < 1).any():
        raise ValueError("at least one site required")
    if sizes.sum() != n:
        raise ValueError(f"group sizes add up to {sizes.sum()}, not to the {n} sites")
    # each row's group: its first row and its size
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    group_size = np.repeat(sizes, sizes)
    cells = np.broadcast_to(poly, (n,) + poly.shape).copy()
    counts = np.full(n, len(poly))
    reach = 2.0 * _farthest(cells, counts, pts) + EPS_GEO
    close = []
    for j in range(sizes.max()):
        rows = np.flatnonzero(group_size > j)
        site = first[rows] + j
        offset = pts[site] - pts[rows]
        gap = np.hypot(offset[:, 0], offset[:, 1])
        pair = (rows < site) & (gap < 1e-6)
        if pair.any():
            close.append((rows[pair][0], site[pair][0]))
        clip = (counts[rows] > 0) & (gap <= reach[rows]) & (rows != site)
        rows, site = rows[clip], site[clip]
        if len(rows) == 0:
            continue
        width = counts[rows].max()
        clipped, kept = _clip_halfplanes(
            cells[rows, :width], counts[rows], 0.5 * (pts[rows] + pts[site]), pts[site] - pts[rows]
        )
        if clipped.shape[1] > cells.shape[1]:
            grow = np.zeros((n, clipped.shape[1] - cells.shape[1], 2))
            cells = np.concatenate([cells, grow], axis=1)
        cells[rows, : clipped.shape[1]] = clipped
        counts[rows] = kept
        reach[rows] = 2.0 * _farthest(clipped, kept, pts[rows]) + EPS_GEO
    if close:
        i, j = (int(k) for k in min(close))
        raise DegenerateSites(f"sites {i} and {j} coincide", (i, j))
    areas = np.abs(_shoelace(cells, counts))
    live = areas > EPS_GEO * np.ptp(poly, axis=0).max()
    return VoronoiCells(cells, np.where(live, counts, 0), np.where(live, areas, 0.0))
