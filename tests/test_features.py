import math

import numpy as np
import pytest
from oracles import nearest_ray_hit, sampled_sector_neighbors

from crowdtcn.features import (
    FeatureExtractor,
    NeighborKind,
    RadarConfig,
    RayScanConfig,
    StaticVelocityMode,
    assemble_frame,
    feature_dim,
    forward_wall_rays,
    heading,
    radar_neighbors,
)


class TestHeading:
    def test_current_velocity(self):
        assert np.allclose(heading([[1, 0]], [0, 1]), [1, 0])

    def test_falls_back_to_last_moving(self):
        h = heading([[0, 2], [0, 0]], [1, 0])
        assert np.allclose(h, [0, 1])

    def test_default_when_never_moving(self):
        h = heading([[0, 0], [1e-4, 0]], [0, -3])
        assert np.allclose(h, [0, -1])

    def test_empty_history(self):
        assert np.allclose(heading(np.zeros((0, 2)), [1, 0]), [1, 0])


class TestConfigs:
    def test_sector_count(self):
        assert RadarConfig(sector_deg=18).n_sectors == 20
        assert RadarConfig(sector_deg=90).n_sectors == 4

    def test_ray_count(self):
        assert RayScanConfig(step_deg=5).n_rays == 37
        assert RayScanConfig(step_deg=18).n_rays == 11
        assert RayScanConfig(step_deg=90).n_rays == 3

    def test_bad_divisors(self):
        with pytest.raises(ValueError):
            RadarConfig(sector_deg=17)
        with pytest.raises(ValueError):
            RayScanConfig(step_deg=7)

    def test_feature_dims(self):
        assert feature_dim(RadarConfig(sector_deg=18), RayScanConfig(step_deg=5)) == 156
        assert feature_dim(RadarConfig(sector_deg=18), RayScanConfig(step_deg=18)) == 104


class TestRadarNeighbors:
    def test_empty_scene_virtual_neighbors(self):
        cfg = RadarConfig(radius=1.2, sector_deg=90)
        v = np.array([1.0, 0.0])
        res = radar_neighbors([0, 0], v, [1, 0], [], [], [], cfg)
        assert (res.kinds == NeighborKind.VIRTUAL).all()
        # sector 0 starts at the reverse heading (180 deg) and runs
        # anticlockwise: bisectors at 225, 315, 45, 135 degrees
        expected = 1.2 * np.array(
            [
                [math.cos(math.radians(a)), math.sin(math.radians(a))]
                for a in (225, 315, 45, 135)
            ]
        )
        assert np.allclose(res.rel_positions, expected, atol=1e-12)
        assert np.allclose(res.rel_velocities, -v)

    def test_default_config_has_twenty_records(self):
        res = radar_neighbors([0, 0], [1, 0], [1, 0], [], [], [], RadarConfig())
        assert res.rel_positions.shape == (20, 2)

    def test_single_neighbor_ahead(self):
        cfg = RadarConfig(radius=1.2, sector_deg=90)
        res = radar_neighbors(
            [0, 0], [1, 0], [1, 0], [[0.5, 0.1]], [[0.3, 0.0]], [], cfg
        )
        # angle of (0.5, 0.1) is ~11.3 deg; sector 2 covers [0, 90) around +x
        assert res.kinds[2] == NeighborKind.PEDESTRIAN
        assert np.allclose(res.rel_positions[2], [0.5, 0.1])
        assert np.allclose(res.rel_velocities[2], [-0.7, 0.0])

    def test_neighbor_outside_radius_ignored(self):
        cfg = RadarConfig(radius=1.2, sector_deg=90)
        res = radar_neighbors([0, 0], [1, 0], [1, 0], [[2.0, 0.0]], [[0, 0]], [], cfg)
        assert (res.kinds == NeighborKind.VIRTUAL).all()

    def test_wall_neighbor_closest_point(self):
        cfg = RadarConfig(radius=1.2, sector_deg=90)
        wall = np.array([[-5, 1.0], [5, 1.0]])
        res = radar_neighbors([0, 0], [1, 0], [1, 0], [], [], [wall], cfg)
        # sector 3 covers [90, 180): straight up; closest wall point is (0, 1)
        assert res.kinds[3] == NeighborKind.WALL
        assert np.allclose(res.rel_positions[3], [0, 1.0], atol=1e-9)
        assert np.allclose(res.rel_velocities[3], [-1.0, 0.0])

    def test_pedestrian_preferred_over_farther_wall(self):
        cfg = RadarConfig(radius=1.2, sector_deg=90)
        wall = np.array([[-5, 1.0], [5, 1.0]])
        res = radar_neighbors(
            [0, 0], [1, 0], [1, 0], [[0.0, 0.5]], [[0, 0]], [wall], cfg
        )
        assert res.kinds[3] == NeighborKind.PEDESTRIAN

    def test_static_mode_zero(self):
        cfg = RadarConfig(radius=1.2, sector_deg=90)
        res = radar_neighbors(
            [0, 0], [1, 0], [1, 0], [], [], [], cfg, StaticVelocityMode.ZERO
        )
        assert np.allclose(res.rel_velocities, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_brute_force_oracle(self, seed):
        self._oracle_scenes(seed, scenes=60)

    @staticmethod
    def _oracle_scenes(seed, scenes):
        rng = np.random.default_rng(1000 + seed)
        cfg = RadarConfig(radius=1.2, sector_deg=18.0)
        tol = 3e-3  # wall oracle samples at 4096 points per segment
        for _ in range(scenes):
            n_ped = int(rng.integers(0, 31))
            n_wall = int(rng.integers(0, 11))
            center = rng.uniform(-1, 1, 2)
            ang = rng.uniform(0, 2 * np.pi)
            head = np.array([np.cos(ang), np.sin(ang)])
            v = head * rng.uniform(0.5, 2.0)
            others = center + rng.uniform(-2.0, 2.0, (n_ped, 2))
            others_vel = rng.uniform(-1, 1, (n_ped, 2))
            walls = []
            for _w in range(n_wall):
                a = center + rng.uniform(-3, 3, 2)
                b = a + rng.uniform(-4, 4, 2)
                if np.linalg.norm(b - a) < 1e-2:
                    b = a + np.array([1.0, 0.0])
                walls.append(np.array([a, b]))
            res = radar_neighbors(center, v, head, others, others_vel, walls, cfg)
            oracle = sampled_sector_neighbors(
                center, head, others, walls, cfg.radius, cfg.sector_deg
            )
            for j in range(cfg.n_sectors):
                ped_c = oracle[j]["ped"]
                got_kind = res.kinds[j]
                got_d = float(np.linalg.norm(res.rel_positions[j]))
                # candidate distances; oracle wall distances are upper bounds
                # on the true constrained minima, accurate to tol
                cand = []
                if ped_c is not None:
                    cand.append((ped_c[0], int(NeighborKind.PEDESTRIAN), ped_c[1]))
                for w_idx, dist in oracle[j]["walls"].items():
                    cand.append((dist, int(NeighborKind.WALL), w_idx))
                if not cand:
                    # empty per oracle: implementation may only disagree via a
                    # wall point the sampling missed near the radius
                    if got_kind != NeighborKind.VIRTUAL:
                        assert got_kind == NeighborKind.WALL
                        assert got_d > cfg.radius - tol
                        continue
                    assert got_d == pytest.approx(cfg.radius)
                    continue
                cand.sort()
                best_d, best_kind, best_idx = cand[0]
                if got_kind == NeighborKind.VIRTUAL:
                    # sampling found something the analytic search did not:
                    # only possible within tol of the radius boundary
                    assert best_d > cfg.radius - tol
                    continue
                assert got_d <= best_d + 1e-9
                assert got_d >= best_d - tol
                margin = cand[1][0] - best_d if len(cand) > 1 else np.inf
                if margin > 2 * tol:
                    assert (int(got_kind), int(res.indices[j])) == (best_kind, best_idx)


class TestForwardRays:
    def test_corridor_analytic(self):
        cfg = RayScanConfig(step_deg=90, exit_distance=100.0)
        walls = np.array([[[-50, 1.5], [50, 1.5]], [[-50, -1.5], [50, -1.5]]])
        scan = forward_wall_rays([0, 0], [1, 0], walls, cfg)
        assert np.allclose(scan.rel_points[0], [0, 1.5], atol=1e-9)
        assert np.allclose(scan.rel_points[1], [100.0, 0.0], atol=1e-9)
        assert np.allclose(scan.rel_points[2], [0, -1.5], atol=1e-9)
        assert scan.wall_indices.tolist() == [0, -1, 1]

    def test_sweep_is_clockwise_from_left(self):
        cfg = RayScanConfig(step_deg=45, exit_distance=50.0)
        scan = forward_wall_rays([0, 0], [0, 1], [], cfg)
        # heading +y: first ray points -x (90 deg anticlockwise of heading)
        assert np.allclose(scan.rel_points[0], [-50, 0], atol=1e-9)
        assert np.allclose(scan.rel_points[2], [0, 50], atol=1e-9)
        assert np.allclose(scan.rel_points[4], [50, 0], atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_first_hit_oracle(self, seed):
        rng = np.random.default_rng(2000 + seed)
        cfg = RayScanConfig(step_deg=5, exit_distance=100.0)
        for _ in range(60):
            n_wall = int(rng.integers(0, 11))
            p = rng.uniform(-1, 1, 2)
            ang = rng.uniform(0, 2 * np.pi)
            head = np.array([np.cos(ang), np.sin(ang)])
            walls = []
            for _w in range(n_wall):
                a = rng.uniform(-6, 6, 2)
                b = a + rng.uniform(-5, 5, 2)
                if np.linalg.norm(b - a) < 1e-2:
                    b = a + np.array([0.0, 1.0])
                walls.append(np.array([a, b]))
            scan = forward_wall_rays(p, head, walls, cfg)
            head_ang = math.atan2(head[1], head[0])
            for k in range(cfg.n_rays):
                ray_ang = head_ang + math.pi / 2 - k * math.radians(cfg.step_deg)
                d = np.array([math.cos(ray_ang), math.sin(ray_ang)])
                hit = nearest_ray_hit(p, d, walls)
                if hit is None:
                    assert scan.wall_indices[k] == -1
                    assert np.allclose(scan.rel_points[k], cfg.exit_distance * d, atol=1e-9)
                else:
                    assert scan.wall_indices[k] == hit[1]
                    assert np.allclose(scan.rel_points[k], hit[0] - p, atol=1e-6)


class TestAssembledFrame:
    def make_extractor(self, sector_deg=18.0, step_deg=5.0):
        walls = np.array([[[-50, 1.5], [50, 1.5]], [[-50, -1.5], [50, -1.5]]])
        return FeatureExtractor(
            radar=RadarConfig(sector_deg=sector_deg),
            rays=RayScanConfig(step_deg=step_deg),
            radar_walls=walls,
            ray_walls=walls,
        )

    def test_lengths(self):
        assert self.make_extractor(18, 5).feature_dim == 156
        assert self.make_extractor(18, 18).feature_dim == 104

    def test_flattening_order(self):
        cfgR = RadarConfig(radius=1.2, sector_deg=90)
        cfgV = RayScanConfig(step_deg=90, exit_distance=100.0)
        v = np.array([1.0, 0.0])
        nbrs = radar_neighbors([0, 0], v, [1, 0], [[0.5, 0.1]], [[0.3, 0.0]], [], cfgR)
        scan = forward_wall_rays([0, 0], [1, 0], [], cfgV)
        frame = assemble_frame(v, nbrs, scan)
        assert frame.shape == (2 + 4 * 4 + 2 * 3,)
        assert np.allclose(frame[:2], v)
        assert np.allclose(frame[2:10], nbrs.rel_velocities.ravel())
        assert np.allclose(frame[10:18], nbrs.rel_positions.ravel())
        assert np.allclose(frame[18:], scan.rel_points.ravel())

    def test_determinism(self):
        ex = self.make_extractor()
        rng = np.random.default_rng(11)
        pos = rng.uniform(-1, 1, 2)
        v = rng.uniform(-1, 1, 2)
        others = rng.uniform(-2, 2, (5, 2))
        ovel = rng.uniform(-1, 1, (5, 2))
        h = heading([v], [1, 0])
        a = ex.frame(pos, v, h, others, ovel)
        b = ex.frame(pos.copy(), v.copy(), h.copy(), others.copy(), ovel.copy())
        assert (a == b).all()

    def test_rotational_equivariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            )
            pos = rng.uniform(-1, 1, 2)
            v = rng.uniform(-1.5, 1.5, 2)
            others = pos + rng.uniform(-2, 2, (8, 2))
            ovel = rng.uniform(-1, 1, (8, 2))
            walls = pos + rng.uniform(-4, 4, (3, 2, 2))
            ex = FeatureExtractor(
                radar=RadarConfig(),
                rays=RayScanConfig(),
                radar_walls=walls,
                ray_walls=walls,
            )
            ex_rot = FeatureExtractor(
                radar=RadarConfig(),
                rays=RayScanConfig(),
                radar_walls=walls @ rot.T,
                ray_walls=walls @ rot.T,
            )
            h = heading([v], [1, 0])
            base = ex.frame(pos, v, h, others, ovel)
            rotated = ex_rot.frame(
                rot @ pos, rot @ v, rot @ h, (rot @ others.T).T, (rot @ ovel.T).T
            )
            pairs = base.reshape(-1, 2)
            pairs_rot = rotated.reshape(-1, 2)
            assert np.abs((rot @ pairs.T).T - pairs_rot).max() < 1e-6

    def test_translational_invariance(self):
        rng = np.random.default_rng(13)
        shift = np.array([13.0, -7.0])
        pos = rng.uniform(-1, 1, 2)
        v = rng.uniform(-1.5, 1.5, 2)
        others = pos + rng.uniform(-2, 2, (6, 2))
        ovel = rng.uniform(-1, 1, (6, 2))
        walls = pos + rng.uniform(-4, 4, (3, 2, 2))
        ex = FeatureExtractor(RadarConfig(), RayScanConfig(), walls, walls)
        ex_shift = FeatureExtractor(
            RadarConfig(),
            RayScanConfig(),
            walls + shift,
            walls + shift,
        )
        h = heading([v], [1, 0])
        base = ex.frame(pos, v, h, others, ovel)
        shifted = ex_shift.frame(pos + shift, v, h, others + shift, ovel)
        assert np.abs(base - shifted).max() < 1e-9

    def test_counts_fixed_regardless_of_scene(self):
        ex = self.make_extractor()
        h = np.array([1.0, 0.0])
        empty = ex.frame([0, 0], [1, 0], h, np.zeros((0, 2)), np.zeros((0, 2)))
        rng = np.random.default_rng(14)
        crowded = ex.frame(
            [0, 0], [1, 0], h, rng.uniform(-1, 1, (25, 2)), rng.uniform(-1, 1, (25, 2))
        )
        assert empty.shape == crowded.shape == (156,)


class TestBatchedFrames:
    @staticmethod
    def scene(rng, n_ped, n_wall):
        pos = rng.uniform(-2, 2, (n_ped, 2))
        vel = rng.uniform(-1.5, 1.5, (n_ped, 2))
        walls = []
        for _ in range(n_wall):
            a = rng.uniform(-4, 4, 2)
            b = a + rng.uniform(-5, 5, 2)
            if np.linalg.norm(b - a) < 1e-2:
                b = a + np.array([1.0, 0.0])
            walls.append(np.array([a, b]))
        return pos, vel, vel / np.linalg.norm(vel, axis=1, keepdims=True), walls

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_equals_single_calls(self, seed):
        rng = np.random.default_rng(3000 + seed)
        for scene in range(25):
            n_ped, n_wall = int(rng.integers(1, 40)), int(rng.integers(0, 8))
            pos, vel, heads, walls = self.scene(rng, n_ped, n_wall)
            if scene % 3 == 0 and len(pos) > 1:
                pos[1] = pos[0]
            mode = list(StaticVelocityMode)[scene % 2]
            ex = FeatureExtractor(RadarConfig(), RayScanConfig(), walls, walls, static_mode=mode)
            rows = np.arange(len(pos))
            frames = ex.frame(pos, vel, heads, pos, vel, rows)
            kinds = radar_neighbors(pos, vel, heads, pos, vel, walls, ex.radar, mode, rows).kinds
            assert frames.shape == (len(pos), ex.feature_dim)
            for i in rows:
                others = rows != i
                single = ex.frame(pos[i], vel[i], heads[i], pos[others], vel[others])
                nbrs = radar_neighbors(
                    pos[i], vel[i], heads[i], pos[others], vel[others], walls, ex.radar, mode
                )
                np.testing.assert_array_equal(frames[i], single)
                np.testing.assert_array_equal(kinds[i], nbrs.kinds)

    def test_self_index_skips_only_own_row(self):
        cfg = RadarConfig(radius=1.2, sector_deg=90)
        pos = np.zeros((2, 2))
        vel = np.array([[1.0, 0.0], [0.5, 0.0]])
        res = radar_neighbors(pos, vel, [[1, 0], [1, 0]], pos, vel, [], cfg, self_index=[0, 1])
        # each sees the other at distance 0, in the sector of angle 0
        assert res.kinds.tolist() == [[0, 0, 1, 0], [0, 0, 1, 0]]
        np.testing.assert_array_equal(res.rel_positions[:, 2], 0.0)
        np.testing.assert_array_equal(res.rel_velocities[:, 2], [[-0.5, 0.0], [0.5, 0.0]])
