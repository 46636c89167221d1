import numpy as np
import pytest

from crowdtcn.geometry import (
    DegenerateSites,
    Ray,
    Segment,
    SelfIntersecting,
    bounded_voronoi,
    first_hit,
    is_convex,
    point_in_polygon,
    point_segment_distance,
    polygon_area,
    polygon_clip,
    polygon_clip_areas,
    ray_segment_intersection,
)
from oracles import bounded_voronoi_loop, convex_clip_loop, point_in_polygon_loop

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
L_SHAPE = np.array([[0.0, 0.0], [8.0, 0.0], [8.0, 3.0], [3.0, 3.0], [3.0, 6.0], [0.0, 6.0]])


def random_segment(rng, span=10.0):
    while True:
        a = rng.uniform(-span, span, 2)
        b = rng.uniform(-span, span, 2)
        if np.linalg.norm(a - b) > 1e-3:
            return Segment(a, b)


class TestPointSegmentDistance:
    def test_perpendicular_foot(self):
        d, c = point_segment_distance((0, 1), Segment((-1, 0), (1, 0)))
        assert d == pytest.approx(1.0)
        assert np.allclose(c, [0, 0])

    def test_endpoint_clamp(self):
        d, c = point_segment_distance((2, 0), Segment((-1, 0), (1, 0)))
        assert d == pytest.approx(1.0)
        assert np.allclose(c, [1, 0])

    def test_matches_dense_sampling(self):
        # oracle: minimum over 1e5 points sampled along the segment
        rng = np.random.default_rng(7)
        ts = np.linspace(0.0, 1.0, 100_000)[:, None]
        for _ in range(50):
            s = random_segment(rng)
            p = rng.uniform(-12, 12, 2)
            samples = s.a + ts * (s.b - s.a)
            oracle = np.linalg.norm(samples - p, axis=1).min()
            d, c = point_segment_distance(p, s)
            assert abs(d - oracle) < 1e-4
            assert np.linalg.norm(p - c) == pytest.approx(d)

    def test_triangle_inequality_vs_endpoints(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s = random_segment(rng)
            p = rng.uniform(-12, 12, 2)
            d, _ = point_segment_distance(p, s)
            da = np.linalg.norm(p - s.a)
            db = np.linalg.norm(p - s.b)
            assert d <= da + 1e-12 and d <= db + 1e-12
            assert da <= d + s.length + 1e-9
            assert db <= d + s.length + 1e-9


def solve_ray_segment(r: Ray, s: Segment):
    """Independent oracle: direct 2x2 linear solve of origin + t d = a + u (b - a)."""
    mat = np.column_stack([r.direction, s.a - s.b])
    if abs(np.linalg.det(mat)) < 1e-12:
        return None
    t, u = np.linalg.solve(mat, s.a - r.origin)
    if t < 0 or u < 0 or u > 1:
        return None
    return r.origin + t * r.direction


class TestRaySegmentIntersection:
    def test_straight_hit(self):
        pt = ray_segment_intersection(Ray((0, 0), (1, 0)), Segment((2, -1), (2, 1)))
        assert np.allclose(pt, [2, 0])

    def test_behind_origin(self):
        pt = ray_segment_intersection(Ray((0, 0), (1, 0)), Segment((-2, -1), (-2, 1)))
        assert pt is None

    def test_matches_linear_solve_oracle(self):
        rng = np.random.default_rng(11)
        checked_hits = 0
        for _ in range(2000):
            s = random_segment(rng)
            ang = rng.uniform(0, 2 * np.pi)
            r = Ray(rng.uniform(-10, 10, 2), (np.cos(ang), np.sin(ang)))
            expect = solve_ray_segment(r, s)
            got = ray_segment_intersection(r, s)
            if expect is None:
                # implementation may legitimately report grazing/collinear hits
                # that the strict solver rejects; only check agreement when the
                # solver is well-conditioned
                if got is not None:
                    d = got - r.origin
                    assert np.dot(d, r.direction) >= -1e-9
                    dd, _ = point_segment_distance(got, s)
                    assert dd < 1e-6
                continue
            assert got is not None
            assert np.allclose(got, expect, atol=1e-9)
            checked_hits += 1
        assert checked_hits > 200

    def test_collinear_overlap_returns_nearest(self):
        pt = ray_segment_intersection(Ray((0, 0), (1, 0)), Segment((2, 0), (5, 0)))
        assert np.allclose(pt, [2, 0])
        # origin inside the overlap
        pt = ray_segment_intersection(Ray((3, 0), (1, 0)), Segment((2, 0), (5, 0)))
        assert np.allclose(pt, [3, 0])

    def test_rigid_transform_equivariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            s = random_segment(rng)
            ang = rng.uniform(0, 2 * np.pi)
            r = Ray(rng.uniform(-5, 5, 2), (np.cos(ang), np.sin(ang)))
            pt = ray_segment_intersection(r, s)
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            shift = rng.uniform(-3, 3, 2)
            r2 = Ray(rot @ r.origin + shift, rot @ r.direction)
            s2 = Segment(rot @ s.a + shift, rot @ s.b + shift)
            pt2 = ray_segment_intersection(r2, s2)
            if pt is None:
                assert pt2 is None
            else:
                assert pt2 is not None
                assert np.allclose(rot @ pt + shift, pt2, atol=1e-9)


class TestFirstHit:
    def test_two_parallel_walls(self):
        walls = [Segment((2, -1), (2, 1)), Segment((3, -1), (3, 1))]
        hit = first_hit(Ray((0, 0), (1, 0)), walls)
        assert hit is not None
        pt, idx = hit
        assert np.allclose(pt, [2, 0])
        assert idx == 0

    def test_no_walls(self):
        assert first_hit(Ray((0, 0), (1, 0)), []) is None

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            walls = [random_segment(rng, span=6.0) for _ in range(50)]
            ang = rng.uniform(0, 2 * np.pi)
            r = Ray(rng.uniform(-2, 2, 2), (np.cos(ang), np.sin(ang)))
            # oracle: score all walls independently, keep the nearest
            best_t, best_idx = np.inf, None
            for i, w in enumerate(walls):
                pt = ray_segment_intersection(r, w)
                if pt is None:
                    continue
                t = float(np.dot(pt - r.origin, r.direction))
                if t < best_t - 1e-9:
                    best_t, best_idx = t, i
            hit = first_hit(r, walls)
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
            r = Ray(rng.uniform(-1, 1, 2), (np.cos(ang), np.sin(ang)))
            hit = first_hit(r, walls)
            d0 = np.inf if hit is None else np.linalg.norm(hit[0] - r.origin)
            more = walls + [random_segment(rng, span=5.0)]
            hit2 = first_hit(r, more)
            d1 = np.inf if hit2 is None else np.linalg.norm(hit2[0] - r.origin)
            assert d1 <= d0 + 1e-9


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

    def test_non_convex_clip_rejected(self):
        with pytest.raises(ValueError, match="convex"):
            polygon_clip(UNIT_SQUARE, L_SHAPE)
        with pytest.raises(ValueError, match="convex"):
            polygon_clip_areas([UNIT_SQUARE], L_SHAPE)

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
            area = polygon_clip_areas([subject], clip)[0]
            assert area == pytest.approx(polygon_area(want) if len(want) >= 3 else 0.0, rel=1e-12, abs=1e-15)

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
            both = np.array(
                [
                    point_in_polygon(p, polys[0], include_boundary=False)
                    and point_in_polygon(p, polys[1], include_boundary=False)
                    for p in samples
                ]
            )
            if len(inter) < 3:
                assert both.mean() < 1e-3
                continue
            in_clip = np.array([point_in_polygon(p, inter) for p in samples])
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
        assert len(cells) == 1
        assert cells[0].area == pytest.approx(1.0)

    def test_two_symmetric_sites(self):
        cells = bounded_voronoi([[0.25, 0.5], [0.75, 0.5]], UNIT_SQUARE)
        assert len(cells) == 2
        assert cells[0].area == pytest.approx(0.5)
        assert cells[1].area == pytest.approx(0.5)

    def test_degenerate_sites_rejected(self):
        with pytest.raises(DegenerateSites):
            bounded_voronoi([[0.5, 0.5], [0.5, 0.5 + 1e-8]], UNIT_SQUARE)

    def test_partition_of_area(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = rng.integers(2, 25)
            sites = rng.uniform(0.05, 0.95, (n, 2))
            cells = bounded_voronoi(sites, UNIT_SQUARE)
            total = sum(c.area for c in cells)
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
        for cell in cells:
            mc_area = counts[cell.site_index] / len(samples)
            # binomial std error is at most 5e-4 per cell; 2e-3 is > 4 sigma
            assert mc_area == pytest.approx(cell.area, abs=2e-3)

    def test_cells_are_nearest_site_regions(self):
        rng = np.random.default_rng(18)
        sites = rng.uniform(0.1, 0.9, (8, 2))
        cells = bounded_voronoi(sites, UNIT_SQUARE)
        for cell in cells:
            # sample inside the cell polygon via rejection from its bbox
            lo = cell.polygon.min(axis=0)
            hi = cell.polygon.max(axis=0)
            pts = rng.uniform(lo, hi, (400, 2))
            inside = [p for p in pts if point_in_polygon(p, cell.polygon, include_boundary=False)]
            for p in inside:
                d = np.linalg.norm(sites - p, axis=1)
                assert d.argmin() == cell.site_index


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
            assert [c.site_index for c in got] == [c.site_index for c in want]
            for g, w in zip(got, want):
                assert np.array_equal(g.polygon, w.polygon)
                assert np.array_equal(g.site, w.site)
                assert g.area == pytest.approx(w.area, rel=1e-12, abs=0)
            emptied += len(sites) - len(got)
        assert emptied > 0

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
