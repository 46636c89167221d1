"""Tests for the realism metrics."""

import numpy as np
import pytest

from crowdtcn.evaluate import (
    EmptySet,
    MeasurementSeries,
    TrajectoryPair,
    UnmatchedId,
    ete_pete,
    fde,
    fundamental_diagram,
    nearest_rank_percentile,
    profiles,
    tde,
    tte_ptte,
    voronoi_measures,
)
from crowdtcn.ingest import Trajectory, presence, world_at

from crowdtcn.geometry import DegenerateSites, SelfIntersecting, bounded_voronoi, polygon_area
from oracles import tde_double_loop, voronoi_measures_loop

DT = 0.5


def straight(pid, enter, start, velocity, n):
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    positions = np.array([start + k * DT * velocity for k in range(n)])
    return Trajectory(
        id=pid,
        enter_step=enter,
        positions=positions,
        velocities=np.tile(velocity, (max(n - 1, 0), 1)),
        dt=DT,
    )


def test_identity_pair_is_all_zeros():
    trs = [
        straight(1, 0, (0.0, 0.0), (1.0, 0.0), 10),
        straight(2, 3, (0.0, 1.0), (1.0, 0.25), 8),
    ]
    pair = TrajectoryPair(trs, trs)
    assert ete_pete(pair) == (0.0, 0.0)
    t_tab, p_tab = tte_ptte(pair)
    assert all(v == 0.0 for v in t_tab.values.values())
    assert all(v == 0.0 for v in p_tab.values.values())
    assert all(v == 0.0 for v in tde(pair).values.values())
    assert all(v == 0.0 for v in fde(pair).values.values())
    assert tde(pair).mean == 0.0 and fde(pair).p95 == 0.0


def test_egress_error_hand_case():
    # experimental egress spans 100 steps, simulated 90: error 5 s, 10 %
    expt = [straight(1, 0, (0.0, 0.0), (0.1, 0.0), 101)]
    sim = [straight(1, 0, (0.0, 0.0), (0.1, 0.0), 91)]
    ete, pete = ete_pete(TrajectoryPair(expt, sim))
    assert ete == pytest.approx(5.0, abs=1e-12)
    assert pete == pytest.approx(0.1, abs=1e-12)


def test_egress_error_spans_the_whole_set():
    # set duration runs from the earliest entry to the latest final step
    expt = [
        straight(1, 2, (0.0, 0.0), (0.1, 0.0), 5),
        straight(2, 8, (0.0, 1.0), (0.1, 0.0), 7),  # last step 14
    ]
    sim = [
        straight(1, 2, (0.0, 0.0), (0.1, 0.0), 5),
        straight(2, 8, (0.0, 1.0), (0.1, 0.0), 5),  # last step 12
    ]
    ete, pete = ete_pete(TrajectoryPair(expt, sim))
    assert ete == pytest.approx((14 - 12) * DT, abs=1e-12)
    assert pete == pytest.approx(2.0 * DT / ((14 - 2) * DT), rel=1e-12)


def test_travel_time_error_hand_case():
    # 20 vs 24 travel steps: 2 s error, 20 % of the 10 s experimental time
    expt = [straight(5, 0, (0.0, 0.0), (0.1, 0.0), 21)]
    sim = [straight(5, 0, (0.0, 0.0), (0.1, 0.0), 25)]
    t_tab, p_tab = tte_ptte(TrajectoryPair(expt, sim))
    assert t_tab.values[5] == pytest.approx(2.0, abs=1e-12)
    assert p_tab.values[5] == pytest.approx(0.2, abs=1e-12)


def test_summaries_match_sort_oracle():
    rng = np.random.default_rng(0)
    expt, sim = [], []
    for pid in range(20):
        n_e = int(rng.integers(5, 40))
        n_s = int(rng.integers(5, 40))
        expt.append(straight(pid, 0, (0.0, 0.0), (0.1, 0.0), n_e + 1))
        sim.append(straight(pid, 0, (0.0, 0.0), (0.1, 0.0), n_s + 1))
    t_tab, _ = tte_ptte(TrajectoryPair(expt, sim))
    values = list(t_tab.values.values())
    assert t_tab.mean == pytest.approx(np.mean(values), rel=1e-15)
    ranked = sorted(values)
    # nearest rank: ceil(0.95 * 20) = 19, i.e. the 19th smallest
    assert t_tab.p95 == ranked[18]


def test_percentile_nearest_rank_rules():
    assert nearest_rank_percentile(range(1, 101), 95.0) == 95
    assert nearest_rank_percentile([7.0], 95.0) == 7.0
    assert nearest_rank_percentile([1.0, 2.0], 50.0) == 1.0
    with pytest.raises(EmptySet):
        nearest_rank_percentile([], 95.0)


def test_tde_matches_double_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n_e = int(rng.integers(1, 30))
        n_s = int(rng.integers(1, 30))
        pe = rng.normal(size=(n_e, 2)) * 5
        ps = rng.normal(size=(n_s, 2)) * 5
        expt = {1: Trajectory(1, 0, pe, np.diff(pe, axis=0) / DT, DT)}
        sim = {1: Trajectory(1, 0, ps, np.diff(ps, axis=0) / DT, DT)}
        got = tde(TrajectoryPair(expt, sim)).values[1]
        want = tde_double_loop(pe, ps)
        assert got == pytest.approx(want, abs=1e-12)


def test_tde_single_points():
    expt = {1: Trajectory(1, 0, np.array([[0.0, 0.0]]), np.zeros((0, 2)), DT)}
    sim = {1: Trajectory(1, 0, np.array([[3.0, 4.0]]), np.zeros((0, 2)), DT)}
    assert tde(TrajectoryPair(expt, sim)).values[1] == pytest.approx(5.0, abs=0)


def test_tde_rigid_invariance():
    rng = np.random.default_rng(2)
    pe = rng.normal(size=(12, 2))
    ps = rng.normal(size=(9, 2))
    base = tde_pair(pe, ps)
    theta = 1.234
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    shift = np.array([3.7, -1.2])
    moved = tde_pair(pe @ rot.T + shift, ps @ rot.T + shift)
    assert moved == pytest.approx(base, abs=1e-9)


def tde_pair(pe, ps):
    expt = {1: Trajectory(1, 0, pe, np.diff(pe, axis=0) / DT, DT)}
    sim = {1: Trajectory(1, 0, ps, np.diff(ps, axis=0) / DT, DT)}
    return tde(TrajectoryPair(expt, sim)).values[1]


def test_fde_hand_and_batch():
    expt = {
        1: Trajectory(1, 0, np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[-2.0, -2.0]]), DT)
    }
    sim = {1: Trajectory(1, 0, np.array([[1.0, 1.0], [3.0, 4.0]]), np.array([[4.0, 6.0]]), DT)}
    assert fde(TrajectoryPair(expt, sim)).values[1] == pytest.approx(5.0, abs=0)
    rng = np.random.default_rng(3)
    expt_set, sim_set = {}, {}
    for pid in range(10):
        pe = rng.normal(size=(4, 2))
        ps = rng.normal(size=(6, 2))
        expt_set[pid] = Trajectory(pid, 0, pe, np.diff(pe, axis=0) / DT, DT)
        sim_set[pid] = Trajectory(pid, 0, ps, np.diff(ps, axis=0) / DT, DT)
    table = fde(TrajectoryPair(expt_set, sim_set))
    for pid in range(10):
        want = float(np.hypot(*(expt_set[pid].positions[-1] - sim_set[pid].positions[-1])))
        assert table.values[pid] == pytest.approx(want, abs=0)


def test_unmatched_and_empty():
    a = straight(1, 0, (0.0, 0.0), (0.1, 0.0), 5)
    b = straight(2, 0, (0.0, 0.0), (0.1, 0.0), 5)
    with pytest.raises(UnmatchedId):
        TrajectoryPair({1: a}, {2: b})
    with pytest.raises(EmptySet):
        ete_pete(TrajectoryPair({1: a}, {}))
    with pytest.raises(EmptySet):
        tte_ptte(TrajectoryPair({1: a}, {}))


def test_pair_step_comes_from_the_trajectories():
    a = straight(1, 0, (0.0, 0.0), (0.1, 0.0), 5)
    assert TrajectoryPair({1: a}, {1: a}).dt == DT
    p = a.positions
    b = Trajectory(1, 0, p, np.diff(p, axis=0) / 0.25, 0.25)
    mixed = TrajectoryPair({1: a}, {1: b})
    for metric in (ete_pete, tte_ptte):
        with pytest.raises(ValueError, match=r"experiment dt \[0.5\] and simulation dt \[0.25\]"):
            metric(mixed)
    with pytest.raises(EmptySet):
        TrajectoryPair({}, {}).dt


SQUARE = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])


def test_voronoi_single_pedestrian():
    # one pedestrian: its bounded cell is the whole walkable region
    out = voronoi_measures(
        [[5.0, 5.0]], [1.0], SQUARE, SQUARE, width=10.0
    )
    rho, vel, flow = out
    assert rho == pytest.approx(1.0 / 100.0, abs=1e-12)
    assert vel == pytest.approx(1.0, abs=0)
    assert flow == pytest.approx(rho * 10.0, abs=1e-12)


def test_voronoi_absent_samples():
    assert voronoi_measures(np.zeros((0, 2)), [], SQUARE, SQUARE, 10.0) is None
    outside_m = np.array([[20.0, 0.0], [21.0, 0.0], [21.0, 1.0], [20.0, 1.0]])
    assert voronoi_measures([[5.0, 5.0]], [1.0], SQUARE, outside_m, 1.0) is None
    crowd = np.random.default_rng(6).uniform(1, 9, size=(30, 2))
    assert voronoi_measures(crowd, np.ones(30), SQUARE, outside_m, 1.0) is None


CORRIDOR = np.array([[0.0, -1.5], [10.0, -1.5], [10.0, 1.5], [0.0, 1.5]])
CORRIDOR_M = np.array([[4.0, -1.5], [6.0, -1.5], [6.0, 1.5], [4.0, 1.5]])


@pytest.mark.parametrize("seed", range(6))
def test_voronoi_matches_cell_by_cell_oracle(seed):
    rng = np.random.default_rng(seed)
    sites = rng.uniform([0.0, -1.5], [10.0, 1.5], size=(56, 2))
    speeds = rng.uniform(0.2, 1.8, size=56)
    got = voronoi_measures(sites, speeds, CORRIDOR, CORRIDOR_M, width=3.0)
    want = voronoi_measures_loop(sites, speeds, CORRIDOR, CORRIDOR_M, width=3.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_voronoi_drops_rounding_noise_cells_in_a_non_convex_walkable():
    # site 2 lies outside the L; clipping leaves it a cell whose vertices
    # coincide to rounding (shoelace area about 7e-15 m^2), which used to add
    # its rounding-over-rounding share of the box to the density. The sites
    # are kept to the last digit, because rounding them removes that cell
    walkable = np.array([[0, 0], [8, 0], [8, 3], [3, 3], [3, 6], [0, 6]], dtype=float)
    box = np.array([[2, 2], [5, 2], [5, 5], [2, 5]], dtype=float)
    sites = np.array(
        [
            [3.9364997495538425, 2.1212942084909923],
            [0.7960757708764175, -0.19402963759095648],
            [6.8023999469016845, 5.290783031739047],
            [7.710944828510797, 1.5771808294555596],
            [0.18843878123953695, 3.883257091520222],
            [6.336898121774804, 0.762214273472221],
            [6.882767839943181, 1.2290038101350156],
            [-0.45563634942205744, 1.1682947647343314],
        ]
    )
    cells = bounded_voronoi(sites, walkable)
    assert np.flatnonzero(cells.counts).tolist() == [0, 1, 3, 4, 5, 6, 7]
    assert cells.counts[2] == 0 and cells.areas[2] == 0.0
    assert cells.areas.sum() == pytest.approx(polygon_area(walkable), abs=1e-9)
    speeds = np.linspace(0.5, 1.5, 8)
    got = voronoi_measures(sites, speeds, walkable, box, width=3.0)
    want = voronoi_measures_loop(sites, speeds, walkable, box, width=3.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_voronoi_self_crossing_walkable_rejected():
    bowtie = np.array([[0.0, 0.0], [10.0, 10.0], [10.0, 0.0], [0.0, 10.0]])
    with pytest.raises(SelfIntersecting):
        voronoi_measures([[2.0, 5.0], [8.0, 5.0]], [1.0, 1.0], bowtie, SQUARE, 10.0)
    # profiles checks the region once, before its per-step loop
    tr = Trajectory(1, 0, np.array([[2.0, 5.0], [2.0, 5.0]]), np.zeros((1, 2)), DT)
    with pytest.raises(SelfIntersecting):
        profiles([tr], bowtie, SQUARE, width=10.0)


def test_voronoi_non_convex_measurement_area_rejected():
    m = np.array([[2.0, 2.0], [8.0, 2.0], [8.0, 4.0], [4.0, 4.0], [4.0, 8.0], [2.0, 8.0]])
    with pytest.raises(ValueError, match="measurement_area must be convex"):
        voronoi_measures([[5.0, 5.0]], [1.0], SQUARE, m, 10.0)


def test_profiles_check_and_measure_the_measurement_area_once(monkeypatch):
    from crowdtcn import evaluate

    calls = []

    def counted(name):
        real = getattr(evaluate, name)
        return lambda polygon: calls.append(name) or real(polygon)

    for name in ("is_convex", "polygon_area"):
        monkeypatch.setattr(evaluate, name, counted(name))
    trs = [straight(1, 0, (1.0, 5.0), (1.0, 0.0), 10), straight(2, 2, (1.0, 3.0), (1.0, 0.25), 8)]
    series = profiles(trs, SQUARE, SQUARE, width=10.0)
    assert len(series) > 1
    assert sorted(calls) == ["is_convex", "polygon_area"]


def test_voronoi_density_equals_count_when_m_is_walkable():
    rng = np.random.default_rng(4)
    pts = rng.uniform(1, 9, size=(8, 2))
    rho, _, _ = voronoi_measures(pts, np.ones(8), SQUARE, SQUARE, 10.0)
    assert rho == pytest.approx(8 / 100.0, rel=1e-9)


def test_voronoi_monte_carlo_oracle():
    """Nearest-site Monte-Carlo integration reproduces density and velocity."""
    rng = np.random.default_rng(5)
    sites = rng.uniform(0.5, 9.5, size=(12, 2))
    speeds = rng.uniform(0.2, 1.8, size=12)
    m = np.array([[2.0, 2.0], [8.0, 2.0], [8.0, 8.0], [2.0, 8.0]])
    rho, vel, _ = voronoi_measures(sites, speeds, SQUARE, m, width=6.0)

    n_samples = 400_000
    samples = rng.uniform(0, 10, size=(n_samples, 2))
    d2 = ((samples[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.argmin(axis=1)
    in_m = (
        (samples[:, 0] >= 2.0)
        & (samples[:, 0] <= 8.0)
        & (samples[:, 1] >= 2.0)
        & (samples[:, 1] <= 8.0)
    )
    walkable_area = 100.0
    cell_areas = np.bincount(nearest, minlength=12) / n_samples * walkable_area
    inter_areas = np.bincount(nearest[in_m], minlength=12) / n_samples * walkable_area
    rho_mc = float((inter_areas / cell_areas).sum()) / 36.0
    vel_mc = float((speeds * inter_areas).sum() / inter_areas.sum())
    assert rho == pytest.approx(rho_mc, rel=0.02)
    assert vel == pytest.approx(vel_mc, rel=0.02)


def test_profiles_static_crowd():
    pts = np.array([[2.0, 2.0], [5.0, 5.0], [8.0, 3.0]])
    trs = [
        Trajectory(i, 0, np.tile(p, (5, 1)), np.zeros((4, 2)), DT) for i, p in enumerate(pts)
    ]
    series = profiles(trs, SQUARE, SQUARE, width=10.0, label="static")
    # step 0 has no arrival velocities; steps 1..4 are constant
    assert list(series.steps) == [1, 2, 3, 4]
    assert np.all(series.velocity == 0.0)
    assert np.all(series.flow == 0.0)
    assert np.ptp(series.density) == 0.0
    assert series.density[0] == pytest.approx(3 / 100.0, rel=1e-9)


def test_profiles_empty_and_identity():
    empty = profiles([], SQUARE, SQUARE, width=10.0)
    assert len(empty) == 0
    # J = rho * v * b at every emitted sample
    trs = [
        straight(1, 0, (1.0, 5.0), (1.0, 0.0), 10),
        straight(2, 2, (1.0, 3.0), (1.0, 0.25), 8),
    ]
    series = profiles(trs, SQUARE, SQUARE, width=10.0)
    np.testing.assert_allclose(
        series.flow, series.density * series.velocity * 10.0, atol=1e-9
    )


def test_profiles_match_per_step_oracle():
    trs = [
        straight(1, 0, (1.0, 5.0), (1.0, 0.0), 10),
        straight(2, 2, (1.0, 3.0), (1.0, 0.25), 8),
    ]
    series = profiles(trs, SQUARE, SQUARE, width=10.0)
    idx = list(series.steps).index(4)
    positions = [trs[0].positions[4], trs[1].positions[2]]
    speeds = [
        float(np.hypot(*trs[0].velocities[3])),
        float(np.hypot(*trs[1].velocities[1])),
    ]
    rho, vel, flow = voronoi_measures(positions, speeds, SQUARE, SQUARE, 10.0)
    assert series.density[idx] == rho
    assert series.velocity[idx] == vel
    assert series.flow[idx] == flow


def test_profiles_name_coincident_pedestrians_by_id_and_step():
    # pedestrians 7 and 9 meet at step 1, where they are sites 1 and 2 of
    # the moving set: the error names them by id, with the step and label
    trs = [
        straight(3, 0, (1.0, 1.0), (1.0, 0.0), 4),
        straight(7, 0, (4.0, 5.0), (2.0, 0.0), 4),
        straight(9, 0, (6.0, 5.0), (-2.0, 0.0), 4),
    ]
    want = "pedestrians 7 and 9 coincide at step 1"
    with pytest.raises(DegenerateSites, match=f"^simulation: {want}$") as err:
        profiles(trs, SQUARE, SQUARE, width=10.0, label="simulation")
    assert err.value.pair == (7, 9)
    with pytest.raises(DegenerateSites, match=f"^{want}$"):
        profiles(trs, SQUARE, SQUARE, width=10.0)


def test_profiles_equal_voronoi_measures_at_every_step():
    # a random crowd of staggered walkers, some outside the walkable square
    # (dropped cells) and some steps with nobody in M (absent samples)
    rng = np.random.default_rng(27)
    trs = []
    for pid in range(30):
        n = int(rng.integers(2, 12))
        walk = rng.uniform(-0.5, 10.5, 2) + np.cumsum(rng.normal(0.0, 0.4, (n, 2)), axis=0)
        trs.append(Trajectory.from_positions(pid, int(rng.integers(0, 15)), walk, DT))
    m = np.array([[2.0, 2.0], [8.0, 2.0], [8.0, 8.0], [2.0, 8.0]])
    series = profiles(trs, SQUARE, m, width=6.0)
    want = []
    for t, present in presence(trs):
        present, pos, vel = world_at(present, t)
        moving = [i for i, tr in enumerate(present) if tr.enter_step < t]
        sample = voronoi_measures(pos[moving], np.hypot(*vel[moving].T), SQUARE, m, 6.0)
        if sample is not None:
            want.append((t, *sample))
    assert len(want) > 10
    assert series.steps.tolist() == [t for t, *_ in want]
    got = np.stack([series.density, series.velocity, series.flow], axis=1)
    assert got.tobytes() == np.array([sample for _, *sample in want]).tobytes()


def test_profiles_name_the_earlier_step_of_two_coincidences():
    # 7 and 9 meet at step 1 as moving sites 2 and 3; 3 and 5 meet at step 2
    # as sites 0 and 1, a pair the clipping rounds reach first
    trs = [
        straight(3, 0, (1.0, 1.0), (1.0, 0.0), 4),
        straight(5, 0, (2.0, 3.0), (0.0, -2.0), 4),
        straight(7, 0, (4.0, 5.0), (2.0, 0.0), 4),
        straight(9, 0, (6.0, 5.0), (-2.0, 0.0), 4),
    ]
    with pytest.raises(DegenerateSites, match="^pedestrians 7 and 9 coincide at step 1$") as err:
        profiles(trs, SQUARE, SQUARE, width=10.0)
    assert err.value.pair == (7, 9)
    with pytest.raises(DegenerateSites, match="^pedestrians 3 and 5 coincide at step 2$"):
        profiles(trs[:2], SQUARE, SQUARE, width=10.0)


def test_fundamental_diagram_is_pure_reshaping():
    s1 = MeasurementSeries(
        label="a",
        width=2.0,
        steps=np.array([1, 2, 3]),
        density=np.array([0.5, 0.6, 0.7]),
        velocity=np.array([1.0, 1.1, 1.2]),
        flow=np.array([1.0, 1.32, 1.68]),
    )
    s2 = MeasurementSeries(
        label="b",
        width=4.0,
        steps=np.array([5]),
        density=np.array([0.25]),
        velocity=np.array([0.5]),
        flow=np.array([0.5]),
    )
    rows = fundamental_diagram([s1, s2])
    assert len(rows) == 4
    assert rows[0] == ("a", 1, 0.5, 1.0, 0.5)
    assert rows[3] == ("b", 5, 0.25, 0.5, 0.125)
    assert [r[2] for r in rows[:3]] == list(s1.density)
