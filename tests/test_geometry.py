import numpy as np
import pytest

from crowdtcn.geometry import (
    EPS_GEO,
    DegenerateSites,
    SelfIntersecting,
    bounded_voronoi,
    closest_points,
    crossing_params,
    first_hits,
    is_convex,
    point_in_polygon,
    polygon_area,
    polygon_clip,
    polygon_clip_areas,
    ray_segment_params,
)
from crowdtcn import geometry
from crowdtcn.synth import t_junction_scenario
from oracles import (
    bounded_voronoi_loop,
    convex_clip_loop,
    crossing_param,
    first_crossing,
    first_self_crossing_loop,
    point_in_polygon_loop,
    shoelace_loop,
    solve_ray_segment,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
L_SHAPE = np.array([[0.0, 0.0], [8.0, 0.0], [8.0, 3.0], [3.0, 3.0], [3.0, 6.0], [0.0, 6.0]])
X_AXIS = np.array([[-1.0, 0.0], [1.0, 0.0]])


def random_segment(rng, span=10.0):
    """A (2, 2) endpoint pair at least 1e-3 long."""
    while True:
        a = rng.uniform(-span, span, 2)
        b = rng.uniform(-span, span, 2)
        if np.linalg.norm(a - b) > 1e-3:
            return np.array([a, b])


def ray_hit(origin, direction, seg):
    """Intersection point of one ray and one segment, or None."""
    origin, direction = np.asarray(origin, dtype=float), np.asarray(direction, dtype=float)
    t, hit = ray_segment_params(origin, direction, seg[0], seg[1])
    return origin + t * direction if hit else None


def nearest_wall(origin, direction, walls):
    """(point, wall index) of the first wall a ray hits, or None."""
    walls = np.asarray(walls, dtype=float).reshape(-1, 2, 2)
    pt, idx = first_hits(np.asarray(origin, dtype=float), np.asarray(direction, dtype=float),
                         walls[:, 0], walls[:, 1])
    return None if idx < 0 else (pt, int(idx))


class TestPointSegmentDistance:
    def test_perpendicular_foot(self):
        d, c = closest_points(np.array([0.0, 1.0]), *X_AXIS)
        assert d == pytest.approx(1.0)
        assert np.allclose(c, [0, 0])

    def test_endpoint_clamp(self):
        d, c = closest_points(np.array([2.0, 0.0]), *X_AXIS)
        assert d == pytest.approx(1.0)
        assert np.allclose(c, [1, 0])

    def test_matches_dense_sampling(self):
        # oracle: minimum over 1e5 points sampled along the segment
        rng = np.random.default_rng(7)
        ts = np.linspace(0.0, 1.0, 100_000)[:, None]
        for _ in range(50):
            a, b = random_segment(rng)
            p = rng.uniform(-12, 12, 2)
            samples = a + ts * (b - a)
            oracle = np.linalg.norm(samples - p, axis=1).min()
            d, c = closest_points(p, a, b)
            assert abs(d - oracle) < 1e-4
            assert np.linalg.norm(p - c) == pytest.approx(d)

    def test_triangle_inequality_vs_endpoints(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a, b = random_segment(rng)
            p = rng.uniform(-12, 12, 2)
            d, _ = closest_points(p, a, b)
            da = np.linalg.norm(p - a)
            db = np.linalg.norm(p - b)
            length = np.linalg.norm(b - a)
            assert d <= da + 1e-12 and d <= db + 1e-12
            assert da <= d + length + 1e-9
            assert db <= d + length + 1e-9


class TestRaySegmentIntersection:
    def test_straight_hit(self):
        pt = ray_hit((0, 0), (1, 0), np.array([[2, -1], [2, 1]]))
        assert np.allclose(pt, [2, 0])

    def test_behind_origin(self):
        pt = ray_hit((0, 0), (1, 0), np.array([[-2, -1], [-2, 1]]))
        assert pt is None

    def test_matches_linear_solve_oracle(self):
        rng = np.random.default_rng(11)
        checked_hits = 0
        for _ in range(2000):
            s = random_segment(rng)
            ang = rng.uniform(0, 2 * np.pi)
            origin, direction = rng.uniform(-10, 10, 2), np.array([np.cos(ang), np.sin(ang)])
            expect = solve_ray_segment(origin, direction, s[0], s[1])
            got = ray_hit(origin, direction, s)
            if expect is None:
                # implementation may legitimately report grazing/collinear hits
                # that the strict solver rejects; only check agreement when the
                # solver is well-conditioned
                if got is not None:
                    d = got - origin
                    assert np.dot(d, direction) >= -1e-9
                    dd, _ = closest_points(got, s[0], s[1])
                    assert dd < 1e-6
                continue
            assert got is not None
            assert np.allclose(got, expect, atol=1e-9)
            checked_hits += 1
        assert checked_hits > 200

    def test_collinear_overlap_returns_nearest(self):
        seg = np.array([[2, 0], [5, 0]])
        pt = ray_hit((0, 0), (1, 0), seg)
        assert np.allclose(pt, [2, 0])
        # origin inside the overlap
        pt = ray_hit((3, 0), (1, 0), seg)
        assert np.allclose(pt, [3, 0])

    def test_rigid_transform_equivariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            s = random_segment(rng)
            ang = rng.uniform(0, 2 * np.pi)
            origin, direction = rng.uniform(-5, 5, 2), np.array([np.cos(ang), np.sin(ang)])
            pt = ray_hit(origin, direction, s)
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            shift = rng.uniform(-3, 3, 2)
            s2 = np.array([rot @ s[0] + shift, rot @ s[1] + shift])
            pt2 = ray_hit(rot @ origin + shift, rot @ direction, s2)
            if pt is None:
                assert pt2 is None
            else:
                assert pt2 is not None
                assert np.allclose(rot @ pt + shift, pt2, atol=1e-9)


class TestFirstHit:
    def test_two_parallel_walls(self):
        walls = np.array([[[2, -1], [2, 1]], [[3, -1], [3, 1]]])
        hit = nearest_wall((0, 0), (1, 0), walls)
        assert hit is not None
        pt, idx = hit
        assert np.allclose(pt, [2, 0])
        assert idx == 0

    def test_no_walls(self):
        assert nearest_wall((0, 0), (1, 0), np.zeros((0, 2, 2))) is None

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            walls = [random_segment(rng, span=6.0) for _ in range(50)]
            ang = rng.uniform(0, 2 * np.pi)
            origin, direction = rng.uniform(-2, 2, 2), np.array([np.cos(ang), np.sin(ang)])
            # oracle: score all walls independently, keep the nearest
            best_t, best_idx = np.inf, None
            for i, w in enumerate(walls):
                pt = ray_hit(origin, direction, w)
                if pt is None:
                    continue
                t = float(np.dot(pt - origin, direction))
                if t < best_t - 1e-9:
                    best_t, best_idx = t, i
            hit = nearest_wall(origin, direction, walls)
            if best_idx is None:
                assert hit is None
            else:
                assert hit is not None
                assert hit[1] == best_idx

    def test_adding_wall_never_increases_distance(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            walls = [random_segment(rng, span=5.0) for _ in range(8)]
            ang = rng.uniform(0, 2 * np.pi)
            origin, direction = rng.uniform(-1, 1, 2), np.array([np.cos(ang), np.sin(ang)])
            hit = nearest_wall(origin, direction, walls)
            d0 = np.inf if hit is None else np.linalg.norm(hit[0] - origin)
            more = walls + [random_segment(rng, span=5.0)]
            hit2 = nearest_wall(origin, direction, more)
            d1 = np.inf if hit2 is None else np.linalg.norm(hit2[0] - origin)
            assert d1 <= d0 + 1e-9


def crossing_scene(rng, n_segments=8, n_steps=500):
    """Segments and steps that exercise every crossing rule.

    Half the segments have integer ends, so steps along them are exactly
    parallel; segment 1 repeats segment 0, so their crossings tie. Steps come
    in five kinds: free, starting on or within 2e-9 m of a segment's line
    (either side of the 1e-9 tolerance), landing on or near it, parallel to
    it, and passing through one of its ends (u near 0 or 1).
    """
    segs = [random_segment(rng, span=3.0) for _ in range(n_segments - n_segments // 2)]
    while len(segs) < n_segments:
        a, b = rng.integers(-3, 4, (2, 2)).astype(float)
        if (a != b).any():
            segs.append(np.array([a, b]))
    segs[1] = segs[0].copy()
    segs = np.array(segs)
    p0 = rng.uniform(-4, 4, (n_steps, 2))
    p1 = p0 + rng.uniform(-3, 3, (n_steps, 2))
    kind = np.arange(n_steps) % 5
    w = rng.integers(0, n_segments, n_steps)
    e = segs[w, 1] - segs[w, 0]
    normal = np.stack([-e[:, 1], e[:, 0]], axis=1) / np.linalg.norm(e, axis=1, keepdims=True)
    off = np.where(rng.random((n_steps, 1)) < 0.5, 0.0, rng.uniform(-2e-9, 2e-9, (n_steps, 1)))
    near = segs[w, 0] + rng.uniform(-0.5, 1.5, (n_steps, 1)) * e + off * normal
    p0[kind == 1] = near[kind == 1]
    p1[kind == 2] = near[kind == 2]
    para = kind == 3
    w[para] = rng.integers(n_segments - n_segments // 2, n_segments, para.sum())
    p0[para] = np.round(p0[para])
    p1[para] = p0[para] + 0.5 * (segs[w[para], 1] - segs[w[para], 0])
    end = segs[w, rng.integers(0, 2, n_steps)]
    p1[kind == 4] = p0[kind == 4] + 2.0 * (end[kind == 4] - p0[kind == 4])
    return segs, p0, p1


class TestCrossingParams:
    def test_hand_cases(self):
        seg = np.array([[[0.0, 0.0], [2.0, 0.0]]])
        steps = {
            "plain": ([1.0, -1.0], [1.0, 1.0], 0.5),
            "start on the line": ([1.0, 0.0], [1.0, 1.0], np.inf),
            "landing on the line": ([1.0, -1.0], [1.0, 0.0], 1.0),
            "parallel": ([0.0, -1.0], [2.0, -1.0], np.inf),
            "along the line": ([0.0, 0.0], [2.0, 0.0], np.inf),
            "past the end": ([3.0, -1.0], [3.0, 1.0], np.inf),
            "within the end slack": ([-1e-9, -1.0], [-1e-9, 1.0], 0.5),
            "beyond the end slack": ([-1e-8, -1.0], [-1e-8, 1.0], np.inf),
            "start within the tolerance": ([1.0, 1e-9], [1.0, -1.0], np.inf),
            "start beyond the tolerance": ([1.0, 4e-9], [1.0, -4e-9], 0.5),
            "same side": ([1.0, 1.0], [1.0, 2.0], np.inf),
        }
        p0 = np.array([v[0] for v in steps.values()])
        p1 = np.array([v[1] for v in steps.values()])
        got = crossing_params(p0, p1, seg[:, 0], seg[:, 1])
        assert got[:, 0].tolist() == [v[2] for v in steps.values()]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_oracle_bitwise(self, seed):
        rng = np.random.default_rng(4000 + seed)
        segs, p0, p1 = crossing_scene(rng)
        got = crossing_params(p0, p1, segs[:, 0], segs[:, 1])
        want = np.array(
            [[np.inf if (t := crossing_param(q0, q1, s)) is None else t for s in segs]
             for q0, q1 in zip(p0, p1)]
        )
        assert got.shape == (len(p0), len(segs))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # the scene reaches every rule: landings, and crossings of both copies
        assert (got == 1.0).any()
        assert (np.isfinite(got[:, 0]) & (got[:, 0] == got[:, 1])).any()

    @pytest.mark.parametrize("seed", range(8))
    def test_first_crossing_is_lowest_index_argmin(self, seed):
        rng = np.random.default_rng(5000 + seed)
        segs, p0, p1 = crossing_scene(rng)
        got = crossing_params(p0, p1, segs[:, 0], segs[:, 1])
        t, k = got.min(axis=1), got.argmin(axis=1)
        for i in range(len(p0)):
            want = first_crossing(p0[i], p1[i], segs)
            assert (None if t[i] == np.inf else (t[i], k[i])) == want

    def test_empty_segment_set(self):
        p0, p1 = np.zeros((3, 2)), np.ones((3, 2))
        got = crossing_params(p0, p1, np.zeros((0, 2)), np.zeros((0, 2)))
        assert got.shape == (3, 0)
        assert got.min(axis=1, initial=np.inf).tolist() == [np.inf] * 3
        walls = np.zeros((0, 2, 2))
        assert crossing_params(p0[:0], p1[:0], walls[:, 0], walls[:, 1]).shape == (0, 0)


class TestPolygonOps:
    def test_unit_square_area(self):
        assert polygon_area(UNIT_SQUARE) == pytest.approx(1.0)

    def test_clip_identity(self):
        out = polygon_clip(UNIT_SQUARE, UNIT_SQUARE)
        assert polygon_area(out) == pytest.approx(1.0, abs=1e-12)

    def test_self_intersecting_rejected(self):
        bowtie = [[0, 0], [1, 1], [1, 0], [0, 1]]
        with pytest.raises(SelfIntersecting):
            polygon_clip(bowtie, UNIT_SQUARE)

    def test_self_crossing_check_matches_loop(self):
        """The array check names the same first edge pair as the pairwise loop,
        on random, integer-grid and near-tolerance polygons."""
        rng = np.random.default_rng(11)
        big = 100.0 * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        verdicts = {"simple": 0, "crossing": 0}
        for trial in range(600):
            n = 4 + trial % 6
            if trial % 3 == 0:
                poly = rng.integers(0, 4, (n, 2)).astype(float)  # exact collinear touches
            else:
                # a convex polygon, then one vertex moved onto a non-adjacent
                # edge's line, off it by a few EPS_GEO (or anywhere at random)
                angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
                poly = np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.5, 5.0)
                k, i = rng.choice(n, 2, replace=False)
                a, b = poly[i], poly[(i + 1) % n]
                if k not in (i, (i + 1) % n):
                    e = b - a
                    normal = np.array([-e[1], e[0]]) / np.hypot(e[0], e[1]) ** 2
                    offset = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) * EPS_GEO
                    poly[k] = a + rng.uniform(-0.5, 1.5) * e + offset * normal
                if trial % 3 == 2:
                    poly[k] = rng.uniform(-5.0, 5.0, 2)
            want = first_self_crossing_loop(poly)
            if want is None:
                polygon_clip(poly, big)
                verdicts["simple"] += 1
            else:
                with pytest.raises(SelfIntersecting, match=rf"^edges {want[0]} and {want[1]} cross$"):
                    polygon_clip(poly, big)
                verdicts["crossing"] += 1
        assert min(verdicts.values()) > 50

    def test_non_convex_clip_rejected(self):
        with pytest.raises(ValueError, match="convex"):
            polygon_clip(UNIT_SQUARE, L_SHAPE)
        with pytest.raises(ValueError, match="convex"):
            polygon_clip_areas(UNIT_SQUARE[None], [4], L_SHAPE)

    @pytest.mark.parametrize(
        "poly, convex",
        [
            (UNIT_SQUARE, True),
            (UNIT_SQUARE[::-1], True),
            ([[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]], True),  # collinear vertex
            ([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]], True),  # repeated vertex
            ([[2, 2], [8, 2], [8, 4], [4, 4], [4, 8], [2, 8]], False),  # L shape
            ([[0, 0], [2, 1], [4, 0], [2, 4]], False),  # arrowhead
            ([[0, 0], [2, 6], [4, 0], [-1, 4], [5, 4]], False),  # pentagram
        ],
    )
    def test_is_convex(self, poly, convex):
        assert is_convex(poly) is convex

    def test_clip_matches_loop_bitwise(self):
        # convex pairs, plus a non-convex (L-shaped) subject cut by a box
        rng = np.random.default_rng(19)
        pairs = [(L_SHAPE, UNIT_SQUARE * 4.0 + 1.0), (L_SHAPE, UNIT_SQUARE[::-1] * 5.0 - 0.5)]
        pairs += [(_convex_hull(rng.uniform(-2, 2, (12, 2))), _convex_hull(rng.uniform(-2, 2, (12, 2))))
                  for _ in range(200)]
        for subject, clip in pairs:
            got = polygon_clip(subject, clip)
            want = convex_clip_loop(subject, clip)
            assert np.array_equal(got, want.reshape(-1, 2))
            area = polygon_clip_areas(np.asarray(subject, dtype=float)[None], [len(subject)], clip)[0]
            assert area == pytest.approx(polygon_area(want) if len(want) >= 3 else 0.0, rel=1e-12, abs=1e-15)

    def test_clip_areas_of_a_padded_table(self):
        # a zero-count row has area 0, the padding after a row's vertices is
        # never read, and every row has the bits of clipping it alone: its
        # cross terms are added in vertex order whatever the table's width,
        # including 12-gon tables wide enough for numpy's sum to go pairwise
        rng = np.random.default_rng(21)
        for sides in (4, 12):
            for _ in range(50):
                clip = _convex_hull(rng.uniform(-2, 2, (sides, 2)))
                polys = [_convex_hull(rng.uniform(-2, 2, (sides, 2))) for _ in range(6)]
                counts = np.array([len(p) for p in polys])
                table = rng.uniform(-9, 9, (len(polys), counts.max() + 3, 2))
                for row, p in enumerate(polys):
                    table[row, : len(p)] = p
                dead = rng.integers(len(polys))
                counts[dead] = 0
                got = polygon_clip_areas(table, counts, clip)
                assert got[dead] == 0.0
                for row, p in enumerate(polys):
                    if row == dead:
                        continue
                    alone = polygon_clip_areas(p[None], [len(p)], clip)[0]
                    assert got[row].tobytes() == alone.tobytes()

    def test_shoelace_matches_loop(self):
        # polygons star-shaped about a centre with every angular gap below pi
        # are simple and counter-clockwise; half are walked clockwise, which
        # the signed kernel must report negative. Rows share a padded table
        # whose padding is junk
        rng = np.random.default_rng(22)
        polys = []
        for trial in range(300):
            n = 3 + trial % 14
            angles = 2.0 * np.pi * (np.arange(n) + rng.uniform(0.0, 0.45, n)) / n
            radii = rng.uniform(0.1, 5.0, (n, 1))
            poly = rng.uniform(-50, 50, 2) + radii * np.column_stack([np.cos(angles), np.sin(angles)])
            polys.append(poly[::-1] if trial % 2 else poly)
        counts = np.array([len(p) for p in polys])
        table = rng.uniform(-9, 9, (len(polys), counts.max() + 2, 2))
        for row, p in enumerate(polys):
            table[row, : len(p)] = p
        got = geometry._shoelace(table, counts)
        for row, p in enumerate(polys):
            want = shoelace_loop(p)
            assert np.sign(want) == (-1.0 if row % 2 else 1.0)
            assert got[row] == pytest.approx(want, rel=1e-12, abs=0)
            assert polygon_area(p) == pytest.approx(abs(want), rel=1e-12, abs=0)
        assert polygon_area(UNIT_SQUARE[:2]) == 0.0 and polygon_area(np.zeros((0, 2))) == 0.0

    def test_random_convex_pairs_membership(self):
        # oracle: point sampling agreement between clip result and the two inputs
        rng = np.random.default_rng(15)
        for _ in range(20):
            polys = []
            for _k in range(2):
                pts = rng.uniform(-2, 2, (12, 2))
                hull = _convex_hull(pts)
                polys.append(hull)
            inter = polygon_clip(polys[0], polys[1])
            samples = rng.uniform(-2, 2, (4000, 2))
            both = point_in_polygon(samples, polys[0], include_boundary=False)
            both &= point_in_polygon(samples, polys[1], include_boundary=False)
            if len(inter) < 3:
                assert both.mean() < 1e-3
                continue
            in_clip = point_in_polygon(samples, inter)
            agree = (both == in_clip).mean()
            assert agree >= 0.999


def _convex_hull(pts):
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2:
                u = out[-1] - out[-2]
                v = p - out[-2]
                if u[0] * v[1] - u[1] * v[0] > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


NON_CONVEX = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [2.0, 1.0], [0.0, 3.0]])
REPEATED_VERTEX = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])


def _membership_probes(rng, poly):
    """Random points plus points on, near and level with the polygon's edges."""
    a, b = poly, np.roll(poly, -1, axis=0)
    seg = b - a
    length = np.hypot(seg[:, 0], seg[:, 1])
    keep = length > 0
    a, seg, length = a[keep], seg[keep], length[keep]
    normal = np.column_stack([-seg[:, 1], seg[:, 0]]) / length[:, None]
    k = rng.integers(0, len(a), 2000)
    along = a[k] + rng.uniform(0.0, 1.0, (2000, 1)) * seg[k]
    off = rng.choice([0.0, 3e-10, -3e-10, 6e-10, -6e-10, 2e-9, -2e-9], size=(2000, 1))
    near = along + off * normal[k]
    lo, hi = poly.min(axis=0) - 1.0, poly.max(axis=0) + 1.0
    level = np.column_stack(
        [rng.uniform(lo[0], hi[0], 500), rng.choice(np.unique(poly[:, 1]), 500)]
    )
    return np.concatenate([rng.uniform(lo, hi, (2000, 2)), near, poly, level])


class TestPointInPolygonArray:
    @pytest.mark.parametrize(
        "poly", [UNIT_SQUARE, NON_CONVEX, REPEATED_VERTEX], ids=["convex", "non_convex", "repeated"]
    )
    @pytest.mark.parametrize("include_boundary", [True, False])
    def test_matches_scalar_loop_exactly(self, poly, include_boundary):
        pts = _membership_probes(np.random.default_rng(21), poly)
        got = point_in_polygon(pts, poly, include_boundary=include_boundary)
        want = np.array([point_in_polygon_loop(p, poly, include_boundary) for p in pts])
        assert got.dtype == bool and got.shape == (len(pts),)
        np.testing.assert_array_equal(got, want)
        # both outcomes and boundary hits occur among the probes
        assert got.any() and not got.all()
        on_edge = point_in_polygon(pts, poly, True) & ~point_in_polygon(pts, poly, False)
        assert on_edge.sum() >= len(poly)

    def test_point_form_returns_python_bool(self):
        assert point_in_polygon(np.array([0.5, 0.5]), UNIT_SQUARE) is True
        assert point_in_polygon([2.0, 0.5], UNIT_SQUARE) is False
        assert point_in_polygon([1.0, 0.5], UNIT_SQUARE, include_boundary=False) is False

    def test_empty_array(self):
        out = point_in_polygon(np.zeros((0, 2)), UNIT_SQUARE)
        assert out.shape == (0,) and out.dtype == bool

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2), (0,)])
    def test_bad_shape_raises(self, shape):
        with pytest.raises(ValueError):
            point_in_polygon(np.zeros(shape), UNIT_SQUARE)


class TestBoundedVoronoi:
    def test_single_site_covers_area(self):
        cells = bounded_voronoi([[0.5, 0.5]], UNIT_SQUARE)
        assert cells.counts.tolist() == [4]
        assert cells.areas[0] == pytest.approx(1.0)

    def test_two_symmetric_sites(self):
        cells = bounded_voronoi([[0.25, 0.5], [0.75, 0.5]], UNIT_SQUARE)
        assert len(cells.counts) == 2 and (cells.counts > 0).all()
        assert cells.areas[0] == pytest.approx(0.5)
        assert cells.areas[1] == pytest.approx(0.5)

    def test_degenerate_sites_rejected(self):
        with pytest.raises(DegenerateSites, match="^sites 1 and 2 coincide$") as err:
            bounded_voronoi([[0.1, 0.1], [0.5, 0.5], [0.5, 0.5 + 1e-8]], UNIT_SQUARE)
        assert err.value.pair == (1, 2)

    def test_partition_of_area(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = rng.integers(2, 25)
            sites = rng.uniform(0.05, 0.95, (n, 2))
            cells = bounded_voronoi(sites, UNIT_SQUARE)
            total = cells.areas.sum()
            assert total == pytest.approx(1.0, rel=1e-6)

    def test_monte_carlo_cell_areas(self):
        # oracle: nearest-site classification of 1e6 uniform samples
        rng = np.random.default_rng(17)
        sites = rng.uniform(0.08, 0.92, (20, 2))
        cells = bounded_voronoi(sites, UNIT_SQUARE)
        samples = rng.uniform(0, 1, (1_000_000, 2))
        d2 = ((samples[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
        owner = d2.argmin(axis=1)
        counts = np.bincount(owner, minlength=len(sites))
        for i in np.flatnonzero(cells.counts):
            mc_area = counts[i] / len(samples)
            # binomial std error is at most 5e-4 per cell; 2e-3 is > 4 sigma
            assert mc_area == pytest.approx(cells.areas[i], abs=2e-3)

    def test_cells_are_nearest_site_regions(self):
        rng = np.random.default_rng(18)
        sites = rng.uniform(0.1, 0.9, (8, 2))
        cells = bounded_voronoi(sites, UNIT_SQUARE)
        for i in np.flatnonzero(cells.counts):
            polygon = cells.polygons[i, : cells.counts[i]]
            # sample inside the cell polygon via rejection from its bbox
            lo = polygon.min(axis=0)
            hi = polygon.max(axis=0)
            pts = rng.uniform(lo, hi, (400, 2))
            inside = [p for p in pts if point_in_polygon(p, polygon, include_boundary=False)]
            for p in inside:
                d = np.linalg.norm(sites - p, axis=1)
                assert d.argmin() == i


def _oracle_scenes():
    """Random scenes of 1-60 sites over a rectangle and an L shape, with sites
    up to 1 m outside the area (so some cells empty), plus fixed edge cases."""
    rng = np.random.default_rng(20)
    rect = np.array([[0.0, -1.5], [10.0, -1.5], [10.0, 1.5], [0.0, 1.5]])
    scenes = [
        (np.array([[0.5, 0.5], [3.0, 0.5]]), UNIT_SQUARE),  # site 1's cell empties
        (np.array([[0.5, 0.5], [0.5, 0.5 + 2e-6]]), UNIT_SQUARE),  # just above tolerance
        (np.array([[4.0, 1.0]]), L_SHAPE),
    ]
    for trial in range(120):
        area = rect if trial % 2 else L_SHAPE
        n = 1 + trial % 60
        sites = rng.uniform(area.min(axis=0) - 1.0, area.max(axis=0) + 1.0, (n, 2))
        scenes.append((sites, area))
    return scenes


class TestBoundedVoronoiMatchesLoop:
    def test_cells_bitwise_equal(self):
        emptied = 0
        for sites, area in _oracle_scenes():
            got = bounded_voronoi(sites, area)
            want = bounded_voronoi_loop(sites, area)
            live = np.flatnonzero(got.counts)
            assert live.tolist() == [c.site_index for c in want]
            assert len(got.polygons) == len(got.counts) == len(got.areas) == len(sites)
            assert (got.areas[got.counts == 0] == 0.0).all()
            for i, w in zip(live, want):
                assert np.array_equal(got.polygons[i, : got.counts[i]], w.polygon)
                assert got.areas[i] == pytest.approx(w.area, rel=1e-12, abs=0)
            emptied += len(sites) - len(live)
        assert emptied > 0

    def test_cell_areas_are_those_of_each_cell_alone(self):
        for sites, area in _oracle_scenes():
            cells = bounded_voronoi(sites, area)
            for i, count in enumerate(cells.counts):
                alone = polygon_area(cells.polygons[i, :count])
                assert cells.areas[i].tobytes() == np.float64(alone).tobytes()

    @pytest.mark.parametrize(
        "sites",
        [
            [[0.1, 0.1], [0.7, 0.7], [0.1, 0.1 + 1e-8], [0.7 + 1e-8, 0.7]],  # (0, 2) before (1, 3)
            [[0.1, 0.1], [0.7, 0.7], [0.7, 0.7 + 1e-8], [0.1 + 1e-8, 0.1]],  # (0, 3) before (1, 2)
            [[0.3, 0.3], [0.5, 0.5], [0.9, 0.9], [0.5, 0.5]],
        ],
    )
    def test_degenerate_pair_named_like_loop(self, sites):
        with pytest.raises(DegenerateSites) as want:
            bounded_voronoi_loop(sites, UNIT_SQUARE)
        with pytest.raises(DegenerateSites) as got:
            bounded_voronoi(sites, UNIT_SQUARE)
        assert str(got.value) == str(want.value)

    def test_zero_sites_rejected(self):
        with pytest.raises(ValueError, match="at least one site"):
            bounded_voronoi(np.zeros((0, 2)), UNIT_SQUARE)


def _grouped_scenes():
    """Random series of 2-12 groups of 1-40 sites over a rectangle, the L
    shape and the non-convex t-junction walkable, with sites up to 1 m
    outside the area (so some cells drop); every series holds a one-site
    group."""
    rng = np.random.default_rng(27)
    rect = np.array([[0.0, -1.5], [10.0, -1.5], [10.0, 1.5], [0.0, 1.5]])
    areas = (rect, L_SHAPE, t_junction_scenario().walkable_polygon)
    for trial in range(30):
        area = areas[trial % 3]
        sizes = rng.integers(1, 41, size=rng.integers(2, 13))
        sizes[rng.integers(len(sizes))] = 1
        sites = rng.uniform(area.min(axis=0) - 1.0, area.max(axis=0) + 1.0, (sizes.sum(), 2))
        yield sites, area, sizes


class TestGroupedVoronoi:
    def test_groups_equal_one_call_each_bitwise(self):
        dropped, widths = 0, set()
        for sites, area, sizes in _grouped_scenes():
            got = bounded_voronoi(sites, area, sizes)
            assert len(got.polygons) == len(got.counts) == len(got.areas) == len(sites)
            bounds = np.cumsum([0, *sizes])
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                want = bounded_voronoi(sites[lo:hi], area)
                assert got.counts[lo:hi].tolist() == want.counts.tolist()
                assert got.areas[lo:hi].tobytes() == want.areas.tobytes()
                for i, count in enumerate(want.counts):
                    cell = got.polygons[lo + i, :count]
                    assert cell.tobytes() == want.polygons[i, :count].tobytes()
                dropped += int((want.counts == 0).sum())
                widths.add(want.polygons.shape[1])
        # the scenes cover dropped cells and groups of different padded widths
        assert dropped > 0 and len(widths) > 1

    def test_one_group_is_the_ungrouped_call(self):
        sites, area, _ = next(_grouped_scenes())
        got = bounded_voronoi(sites, area, [len(sites)])
        want = bounded_voronoi(sites, area)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_earliest_group_names_its_coincident_pair(self):
        # group 0 meets its pair in round 2, group 1 in round 1: the earlier
        # group is named all the same, by rows of the concatenated sites
        sites = [
            [0.1, 0.1], [0.5, 0.5], [0.1, 0.1 + 1e-8],
            [0.7, 0.7], [0.7 + 1e-8, 0.7], [0.2, 0.9], [0.9, 0.2],
        ]
        with pytest.raises(DegenerateSites, match="^sites 0 and 2 coincide$") as err:
            bounded_voronoi(sites, UNIT_SQUARE, [3, 4])
        assert err.value.pair == (0, 2)
        # sites 0 and 2 in different groups do not clash
        with pytest.raises(DegenerateSites, match="^sites 3 and 4 coincide$"):
            bounded_voronoi(sites, UNIT_SQUARE, [2, 1, 4])

    @pytest.mark.parametrize(
        "sizes, message",
        [([2, 0, 1], "at least one site"), ([2, 2], "add up to 4, not to the 3 sites")],
    )
    def test_bad_group_sizes_rejected(self, sizes, message):
        with pytest.raises(ValueError, match=message):
            bounded_voronoi([[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]], UNIT_SQUARE, sizes)
