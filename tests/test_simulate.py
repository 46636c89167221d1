"""Tests for the rolling-forecast simulator."""

from types import SimpleNamespace

import numpy as np
import pytest

from crowdtcn import simulate
from crowdtcn.features import RadarConfig, RayScanConfig, heading
from crowdtcn.geometry import crossing_params
from crowdtcn.ingest import (
    Trajectory,
    build_samples,
    load_step_trajectories,
    load_trajectories,
    parse_trajectories,
    world_at,
    write_trajectory_file,
)
from crowdtcn.scenario import Scenario
from crowdtcn.simulate import (
    MissingSeedData,
    ModelShapeMismatch,
    NoInwardDirection,
    NonFinitePrediction,
    SimConfig,
    SimWorld,
    run,
)
from crowdtcn.synth import corridor_dataset, write_dataset
from crowdtcn.tcn import Architecture, Model, compute_stats, init_params

DT = 0.5


def corridor(half_width=2.0, length=12.0, walls=True):
    """Rectangular corridor: entrance at x=0, exit at x=length."""
    poly = [[0, -half_width], [length, -half_width], [length, half_width], [0, half_width]]
    return Scenario(
        name="corridor",
        frame_rate=2.0,
        walls=(
            [
                ((0, -half_width), (length, -half_width)),
                ((0, half_width), (length, half_width)),
            ]
            if walls
            else []
        ),
        entrances=[((0, -half_width), (0, half_width))],
        exits=[((length, -half_width), (length, half_width))],
        clipping_polygon=np.array(poly, dtype=float),
        measurement_area=np.array(
            [[4, -half_width], [8, -half_width], [8, half_width], [4, half_width]],
            dtype=float,
        ),
        measurement_width=2 * half_width,
        radar=RadarConfig(radius=1.2, sector_deg=90.0),
        rays=RayScanConfig(step_deg=90.0, exit_distance=100.0),
    )


class StubModel:
    """Duck-typed stand-in for a trained model."""

    def __init__(self, fn, feature_dim, window=3):
        self.arch = SimpleNamespace(feature_dim=feature_dim, window=window)
        self.fn = fn

    def predict(self, windows):
        return np.array([np.asarray(self.fn(w), dtype=float) for w in np.asarray(windows)])


def constant_model(v, scenario, window=3):
    return StubModel(lambda _: np.array(v, dtype=float), scenario.feature_dim, window)


def make_seed(pid, enter, start, velocity, n):
    """Straight-line seed trajectory with binary-friendly arithmetic."""
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    positions = np.array([start + k * DT * velocity for k in range(n)])
    return Trajectory(id=pid, enter_step=enter, positions=positions, dt=DT)


CFG = SimConfig()


def active(world):
    """The pedestrians in the world at its clock, by id."""
    return {st.ped_id: st for st in world_at(world.peds, world.clock)[0]}


def exited(world):
    """The pedestrians that have crossed a departure segment, by id."""
    return {st.ped_id: st for st in world.peds if st.exit_step is not None}


def run_world(scenario, seeds, model, max_steps=1000):
    """Step a SimWorld until everyone has left; returns the final states by id.

    Unlike run, this keeps the internal velocity history that feeds the
    features."""
    world = SimWorld(scenario, model, seeds)
    for _ in range(max_steps):
        if world.finished:
            return exited(world)
        world.step()
    raise AssertionError(f"pedestrians still walking after {max_steps} steps")


def test_empty_step_advances_only_clock():
    sc = corridor()
    model = constant_model([0.5, 0.0], sc)
    world = SimWorld(sc, model, [make_seed(1, 5, (1.0, 0.0), (0.5, 0.0), 4)])
    world.clock = 0
    world.step()
    assert world.clock == 1
    pending = [st for st in world.peds if not st.positions]
    assert not active(world) and not exited(world) and len(pending) == 1


def test_seed_phase_reproduces_experiment_exactly():
    sc = corridor()
    seed = make_seed(7, 0, (1.0, 0.25), (0.5, 0.0), 4)
    model = constant_model([0.5, 0.0], sc)
    world = SimWorld(sc, model, [seed])
    for _ in range(3):
        world.step()
    got = np.array(active(world)[7].positions)
    np.testing.assert_array_equal(got, seed.positions)


def test_constant_model_follows_kinematics_exactly():
    sc = corridor()
    v = np.array([0.5, 0.0])
    # the experimental track covers the full crossing so the step cap
    # (10x experimental duration) stays far above the simulated travel
    seed = make_seed(1, 0, (1.0, 0.0), v, 45)
    model = constant_model(v, sc)
    result = run(sc, [seed], model, CFG)
    assert not result.step_cap_exceeded
    (tr,) = result.trajectories
    entry = result.report["pedestrians"]["1"]
    assert entry["exited"] and entry["exit_step"] == 44  # (12 - 1) / (dt * vx)
    expected = np.array([[1.0 + 0.25 * k, 0.0] for k in range(45)])
    np.testing.assert_array_equal(tr.positions, expected)
    # exact kinematic identity p[t+1] - p[t] = dt * v[t+1] in the history
    # that feeds the features
    st = run_world(sc, [seed], model)[1]
    np.testing.assert_array_equal(st.positions, expected)
    np.testing.assert_array_equal(np.diff(st.positions, axis=0), DT * np.array(st.velocities))
    assert entry["corrected_steps"] == []


def test_exit_within_seed_window_matches_experiment():
    sc = corridor()
    seed = make_seed(2, 0, (11.0, 0.0), (1.0, 0.0), 4)
    model = constant_model([1.0, 0.0], sc)
    result = run(sc, [seed], model, CFG)
    (tr,) = result.trajectories
    entry = result.report["pedestrians"]["2"]
    # lands exactly on the exit line at step 2, still inside the seed window
    assert entry["exited"] and entry["exit_step"] == 2
    np.testing.assert_array_equal(tr.positions, seed.positions[:3])


def test_departure_through_entrance():
    sc = corridor()
    seed = make_seed(3, 0, (1.0, 0.0), (0.5, 0.0), 4)
    model = constant_model([-1.0, 0.0], sc)  # turns around after seeding
    result = run(sc, [seed], model, CFG)
    (tr,) = result.trajectories
    assert result.report["pedestrians"]["3"]["exited"]
    # last committed position is past the entrance line, the one before inside
    assert tr.positions[-1][0] < 0.0 < tr.positions[-2][0]


def test_boundary_correction_hand_case():
    sc = corridor(half_width=1.5, length=20.0)
    v = np.array([0.6, 0.8])  # speed exactly 1
    seed = make_seed(4, 0, (1.0, -0.9), v, 4)
    model = constant_model(v, sc)
    world = SimWorld(sc, model, [seed])
    for _ in range(6):
        world.step()
    st = active(world)[4]
    # tentative step 6 lands exactly on y=1.5: corrected 0.05 inside at the hit
    assert st.corrected_steps == [6]
    np.testing.assert_allclose(st.positions[6], [2.8, 1.45], atol=1e-12)
    expected_dir = np.array([0.7, -0.3]) / np.hypot(0.7, 0.3)
    for vel in st.velocities[-3:]:  # last w velocities all rewritten
        np.testing.assert_allclose(vel, expected_dir * 1.0, atol=1e-12)
    # stored frames over the rewritten span carry the corrected velocity
    np.testing.assert_allclose(st.frames[3][:2], expected_dir, atol=1e-12)
    np.testing.assert_allclose(st.frames[4][:2], expected_dir, atol=1e-12)
    # postcondition: strictly inside the walkable region
    assert abs(st.positions[6][1]) < 1.5


def corrected_run():
    """The hand case above run to the end, beside a walker on a straight lane.

    The model repeats the hand case's velocity while the last frame's velocity
    still climbs and walks along x otherwise, so pedestrian 4 is corrected
    once, at step 6, and both pedestrians exit."""
    sc = corridor(half_width=1.5, length=20.0)
    v = np.array([0.6, 0.8])
    seeds = [make_seed(4, 0, (1.0, -0.9), v, 4), make_seed(2, 1, (1.0, 0.0), (1.0, 0.0), 4)]
    model = StubModel(lambda w: v if w[-1, 1] > 0 else [1.0, 0.0], sc.feature_dim)
    result = run(sc, seeds, model, CFG)
    assert result.report["pedestrians"]["4"]["corrected_steps"][0] == 6
    return result


def test_written_file_loads_back_as_the_returned_trajectories(tmp_path):
    result = corrected_run()
    path = tmp_path / "sim.txt"
    write_trajectory_file(path, result.trajectories)
    loaded = load_step_trajectories(path, dt=DT)
    assert sorted(loaded) == [tr.id for tr in result.trajectories]
    for tr in result.trajectories:
        back = loaded[tr.id]
        assert (back.enter_step, back.dt) == (tr.enter_step, tr.dt)
        np.testing.assert_array_equal(back.positions, tr.positions)
        np.testing.assert_array_equal(back.velocities, tr.velocities)


def test_same_step_corrections_see_pre_step_history():
    # two pedestrians 0.5 m apart both land on the top wall at step 6
    sc = corridor(half_width=1.5, length=20.0)
    v = np.array([0.6, 0.8])
    seeds = [make_seed(4, 0, (1.0, -0.9), v, 4), make_seed(5, 0, (1.5, -0.9), v, 4)]
    world = SimWorld(sc, constant_model(v, sc), seeds)
    for _ in range(5):
        world.step()
    pre_step = {pid: np.array(st.velocities) for pid, st in active(world).items()}
    world.step()
    a, b = active(world)[4], active(world)[5]
    assert a.corrected_steps == b.corrected_steps == [6]
    span = (4, 5)  # the recomputed frames
    for st, other in ((a, b), (b, a)):

        def frames(other_velocities):
            return np.array(
                [
                    world.extractor.frame(
                        st.positions[local],
                        st.velocities[local - 1],
                        heading(st.velocities[:local], sc.default_heading),
                        other.positions[local][None],
                        other_velocities[local - 1][None],
                    )
                    for local in span
                ]
            )

        stored = np.array([st.frames[local - 1] for local in span])
        np.testing.assert_array_equal(stored, frames(pre_step[other.ped_id]))
        assert not np.array_equal(stored, frames(np.array(other.velocities)))


def test_later_corrections_see_earlier_rewritten_history():
    # pedestrian 4 is corrected at step 6, pedestrian 5 (0.6 m away) at step 7
    sc = corridor(half_width=1.5, length=20.0)
    v = np.array([0.6, 0.8])
    seeds = [make_seed(4, 0, (1.0, -0.9), v, 4), make_seed(5, 0, (1.5, -1.2), v, 4)]
    model = StubModel(lambda w: v if w[-1, 1] > 0 else [1.0, 0.0], sc.feature_dim)
    world = SimWorld(sc, model, seeds)
    for _ in range(7):
        world.step()
    a, b = active(world)[4], active(world)[5]
    assert (a.corrected_steps, b.corrected_steps) == ([6], [7])
    local = 5  # in both rewritten spans: b's frame there was recomputed at step 7

    def frame(other_velocity):
        return world.extractor.frame(
            b.positions[local],
            b.velocities[local - 1],
            heading(b.velocities[:local], sc.default_heading),
            a.positions[local][None],
            np.asarray(other_velocity)[None],
        )

    rewritten = a.velocities[local - 1]
    assert not np.array_equal(rewritten, v)
    np.testing.assert_array_equal(b.frames[local - 1], frame(rewritten))
    assert not np.array_equal(b.frames[local - 1], frame(v))


def test_correction_sees_a_walker_that_exits_in_the_same_step():
    # at step 6 pedestrian 2 lands on the exit line and pedestrian 1, 0.8 m
    # away, crosses the top wall; both still follow their seeds. 1 is
    # corrected before 2's final position is appended
    sc = corridor(half_width=1.5, length=20.0)
    seeds = [
        make_seed(1, 0, (17.0, -0.9), (0.6, 0.8), 10),
        make_seed(2, 0, (14.0, 0.5), (2.0, 0.0), 10),
    ]
    world = SimWorld(sc, StubModel(lambda w: [0.0, 0.0], sc.feature_dim, window=8), seeds)
    for _ in range(6):
        world.step()
    st, gone = world.peds
    assert gone.exit_step == 6 and st.corrected_steps == [6]
    local = 5  # step 5, in the rewritten span: 2 is still in the world there

    def frame(others, others_velocities):
        return world.extractor.frame(
            st.positions[local],
            st.velocities[local - 1],
            heading(st.velocities[:local], sc.default_heading),
            others,
            others_velocities,
        )

    with_gone = frame(gone.positions[local][None], gone.velocities[local - 1][None])
    np.testing.assert_array_equal(st.frames[local - 1], with_gone)
    assert not np.array_equal(with_gone, frame(np.zeros((0, 2)), np.zeros((0, 2))))


def test_world_drops_an_exited_pedestrian_at_its_exit_step():
    sc = corridor()
    v = np.array([0.5, 0.0])
    seeds = [make_seed(1, 0, (10.25, 0.5), (1.0, 0.0), 4), make_seed(2, 1, (1.0, 0.0), v, 4)]
    world = SimWorld(sc, constant_model([1.0, 0.0], sc), seeds)
    while 1 not in exited(world):
        world.step()
    gone, walker = exited(world)[1], active(world)[2]
    assert gone.exit_step == 4 and gone.positions[-1][0] > 12.0  # past the exit line
    present, pos, vel = world_at([gone, walker], 3)
    assert present == [gone, walker]
    np.testing.assert_array_equal(pos[0], gone.positions[3])
    np.testing.assert_array_equal(vel[1], walker.velocities[1])
    assert world_at([gone, walker], 4)[0] == [walker]
    present, _, vel = world_at([gone, walker], 1)  # the walker's entry step
    assert present == [gone, walker]
    np.testing.assert_array_equal(vel[1], [0.0, 0.0])


def test_replay_matches_training_windows(tmp_path):
    """A model that replays the recorded velocities is fed the training windows."""
    dataset = corridor_dataset(seed=0)
    sc = dataset.scenario
    w = 8
    trajs = load_trajectories(write_dataset(dataset, tmp_path)["testing"], sc)
    trajs = {pid: tr for pid, tr in trajs.items() if tr.n_steps >= w}
    fed = {}

    class Replay:
        arch = SimpleNamespace(feature_dim=sc.feature_dim, window=w)

        def predict(self, windows):
            out = []
            for window in windows:
                pid = self.queue.pop(0)
                fed[(pid, world.clock)] = np.array(window)
                tr, s = trajs[pid], active(world)[pid].steps_since_entry
                out.append(
                    tr.velocities[s] if s < tr.n_steps else np.array([4.0 * sc.diameter(), 0.0])
                )
            return np.array(out)

    model = Replay()
    world = SimWorld(sc, model, trajs.values())
    for _ in range(200):
        if world.finished:
            break
        present = active(world)
        model.queue = [pid for pid in sorted(present) if present[pid].steps_since_entry >= w]
        world.step()
        assert model.queue == []
    assert len(exited(world)) == len(trajs)
    samples = build_samples(trajs, sc.extractor(), w=w)
    assert len(samples)
    for window, ped, step in zip(samples.windows, samples.ped_ids, samples.steps):
        got = fed[(ped, step)]
        np.testing.assert_allclose(got, window, rtol=0, atol=1e-9)


def test_one_predict_call_per_step_in_sorted_id_order():
    sc = corridor()
    v = np.array([0.5, 0.0])
    calls = []

    class Counting:
        arch = SimpleNamespace(feature_dim=sc.feature_dim, window=3)

        def predict(self, windows):
            present = active(world)
            ready = [pid for pid in sorted(present) if present[pid].steps_since_entry >= 3]
            np.testing.assert_array_equal(
                windows, [np.stack(present[pid].frames[-3:]) for pid in ready]
            )
            calls.append((world.clock, ready))
            return np.tile(v, (len(windows), 1))

    # entry order 5, 2, 9, 1; different lanes give different windows
    lanes = ((5, 0, 0.5), (2, 1, -0.5), (9, 1, 1.0), (1, 3, 0.0))
    seeds = [make_seed(pid, enter, (1.0, y), v, 4) for pid, enter, y in lanes]
    world = SimWorld(sc, Counting(), seeds)
    while not world.finished:
        world.step()
    assert len(exited(world)) == 4
    clocks = [clock for clock, _ in calls]
    assert len(clocks) == len(set(clocks))
    assert all(ready for _, ready in calls)
    assert [1, 2, 5, 9] in [ready for _, ready in calls]


def test_two_crossing_kernel_calls_per_step(monkeypatch):
    sc = corridor()
    calls = []

    def counted(p0, p1, a, b):
        calls.append((world.clock, len(a)))
        return crossing_params(p0, p1, a, b)

    monkeypatch.setattr(simulate, "crossing_params", counted)
    v = np.array([0.5, 0.0])
    seeds = [make_seed(pid, pid, (1.0, 0.5 * pid - 1.0), v, 4) for pid in range(4)]
    world = SimWorld(sc, constant_model([0.5, 0.25], sc), seeds)
    steps = 0
    while not world.finished:
        world.step()
        steps += 1
    gone = exited(world)
    assert any(st.corrected_steps for st in gone.values()) and len(gone) == 4
    # each step: the two walls, then the exit and the entrance
    assert calls == [(t, 2) for t in range(steps) for _ in range(2)]


def test_batched_rows_match_single_window_predict():
    """Batching changes a real model's predictions only by float32 rounding."""
    sc = corridor()
    v = np.array([0.5, 0.0])
    batches = []

    class Recording:
        arch = SimpleNamespace(feature_dim=sc.feature_dim, window=3)

        def predict(self, windows):
            batches.append(windows)
            return np.tile(v, (len(windows), 1))

    seeds = [make_seed(pid, pid % 3, (1.0, 0.5 * pid - 1.5), v, 4) for pid in range(1, 7)]
    run(sc, seeds, Recording(), CFG)
    assert max(len(windows) for windows in batches) == 6
    arch = Architecture(
        feature_dim=sc.feature_dim, window=3, channels=(6, 8), kernel_size=2, dilations=(1, 2)
    )
    windows = np.concatenate(batches)
    n = len(windows)
    stats = compute_stats(windows.reshape(n * 3, -1), np.arange(n * 3).reshape(n, 3))
    model = Model(arch, init_params(arch, seed=3), stats)
    for windows in batches:
        predicted = model.predict(windows)
        assert predicted.shape == (len(windows), 2)
        for window, row in zip(windows, predicted):
            np.testing.assert_allclose(row, model.predict(window), rtol=0, atol=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_prediction_names_pedestrians_and_step(bad):
    sc = corridor()
    seeds = [
        make_seed(2, 0, (1.0, 0.5), (0.5, 0.0), 4),
        make_seed(1, 0, (1.0, -0.5), (0.5, 0.0), 4),
        make_seed(3, 1, (1.0, 0.0), (0.5, 0.0), 4),
    ]
    model = constant_model([0.5, bad], sc)
    # 1 and 2 finish their seed phase at step 3; 3 is still seeded then
    with pytest.raises(NonFinitePrediction, match=r"pedestrians \[1, 2\] at step 4"):
        run(sc, seeds, model, CFG)


def test_on_boundary_parallel_motion_is_not_corrected():
    sc = corridor(half_width=1.5, length=20.0)
    seed = make_seed(5, 0, (1.0, 1.5), (1.0, 0.0), 4)  # walks along the top wall
    model = constant_model([1.0, 0.0], sc)
    result = run(sc, [seed], model, CFG)
    (tr,) = result.trajectories
    entry = result.report["pedestrians"]["5"]
    assert entry["exited"] and entry["corrected_steps"] == []
    assert np.all(tr.positions[:, 1] == 1.5)


def test_no_inward_direction_without_walls():
    sc = corridor(walls=False)
    seed = make_seed(6, 0, (3.0, 0.0), (0.0, 0.5), 4)
    model = constant_model([0.0, 0.5], sc)
    with pytest.raises(NoInwardDirection):
        run(sc, [seed], model, CFG)


def test_leaving_the_region_names_the_lowest_id():
    sc = corridor(walls=False)
    seeds = [make_seed(pid, 0, (x, 1.0), (0.0, 0.5), 4) for pid, x in ((8, 3.0), (6, 5.0))]
    model = constant_model([0.0, 0.5], sc)
    # both reach y = 2 (the boundary, still inside) at step 4 and leave at step 5
    with pytest.raises(NoInwardDirection, match="pedestrian 6 left .* at step 5"):
        run(sc, seeds, model, CFG)


def test_missing_seed_data_policy():
    sc = corridor()
    short = make_seed(1, 0, (1.0, 0.0), (0.5, 0.0), 3)  # needs window+1 = 4
    ok = make_seed(2, 0, (1.0, 1.0), (0.5, 0.0), 4)
    model = constant_model([0.5, 0.0], sc)
    with pytest.raises(MissingSeedData):
        run(sc, [short, ok], model, CFG)
    cfg = SimConfig(drop_short_seeds=True)
    result = run(sc, [short, ok], model, cfg)
    assert result.report["dropped_short_seeds"] == [1]
    assert [tr.id for tr in result.trajectories] == [2]


def test_duplicate_seed_ids_are_rejected():
    sc = corridor()
    lanes = ((3, 0, 0.5), (1, 1, 0.0), (3, 2, -0.5))
    seeds = [make_seed(pid, enter, (1.0, y), (0.5, 0.0), 4) for pid, enter, y in lanes]
    with pytest.raises(ValueError, match="duplicate pedestrian ids"):
        SimWorld(sc, constant_model([0.5, 0.0], sc), seeds)


def test_model_shape_mismatch():
    sc = corridor()
    seed = make_seed(1, 0, (1.0, 0.0), (0.5, 0.0), 4)
    with pytest.raises(ModelShapeMismatch):
        run(sc, [seed], StubModel(lambda w: [0, 0], sc.feature_dim + 1, 3), CFG)


def test_conservation_and_report():
    sc = corridor()
    seeds = [
        make_seed(1, 0, (1.0, 0.5), (0.5, 0.0), 4),
        make_seed(2, 2, (1.0, -0.5), (0.5, 0.0), 4),
        make_seed(3, 5, (1.0, 0.0), (0.5, 0.0), 4),
    ]
    model = constant_model([0.5, 0.0], sc)
    result = run(sc, seeds, model, CFG)
    assert len(result.trajectories) == 3
    entries = result.report["pedestrians"]
    assert all(entries[str(tr.id)]["exited"] for tr in result.trajectories)
    for tr in result.trajectories:
        entry = entries[str(tr.id)]
        assert entry["travel_steps"] == tr.n_steps
        assert entry["exit_step"] == tr.last_step


def test_permutation_of_seed_order_is_bit_identical():
    sc = corridor()
    seeds = [
        make_seed(1, 0, (1.0, 0.5), (0.5, 0.0), 4),
        make_seed(2, 0, (1.25, 0.25), (0.5, 0.0), 4),
        make_seed(3, 1, (1.0, -0.75), (0.5, 0.0), 4),
    ]

    def interacting(window):
        # y-velocity depends on the window content, so pedestrians couple
        # through their feature frames and ordering bugs would show up
        return np.array([0.5, 0.001 * np.tanh(float(window.sum()))])

    model = StubModel(interacting, sc.feature_dim, 3)
    a = run(sc, seeds, model, CFG)
    b = run(sc, seeds[::-1], model, CFG)
    assert [tr.id for tr in a.trajectories] == [tr.id for tr in b.trajectories]
    for ta, tb in zip(a.trajectories, b.trajectories):
        np.testing.assert_array_equal(ta.positions, tb.positions)
        np.testing.assert_array_equal(ta.velocities, tb.velocities)


def test_run_twice_writes_identical_files(tmp_path):
    sc = corridor()
    seeds = [
        make_seed(1, 0, (1.0, 0.5), (0.5, 0.0), 4),
        make_seed(2, 1, (1.0, -0.5), (0.5, 0.25), 5),
    ]
    model = constant_model([0.5, 0.125], sc)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_trajectory_file(p1, run(sc, seeds, model, CFG).trajectories)
    write_trajectory_file(p2, run(sc, seeds, model, CFG).trajectories)
    assert p1.read_bytes() == p2.read_bytes()


def test_step_cap_flags_and_returns_partial_results():
    sc = corridor()
    seed = make_seed(9, 0, (1.0, 0.0), (0.5, 0.0), 4)
    model = constant_model([0.0, 0.0], sc)  # freezes after the seed window
    result = run(sc, [seed], model, CFG)
    assert result.step_cap_exceeded
    assert result.report["steps_run"] == result.report["step_cap"]
    (tr,) = result.trajectories
    entry = result.report["pedestrians"]["9"]
    assert entry["exited"] is False and entry["exit_step"] is None
    assert entry["travel_steps"] == tr.n_steps


def test_trajectory_file_round_trip(tmp_path):
    sc = corridor()
    seeds = [make_seed(1, 0, (1.0, 0.5), (0.5, 0.0), 4)]
    model = constant_model([0.5, 0.0], sc)
    result = run(sc, seeds, model, CFG)
    path = tmp_path / "sim.txt"
    write_trajectory_file(path, result.trajectories)
    tracks = parse_trajectories(path)
    (tr,) = result.trajectories
    np.testing.assert_array_equal(tracks[1].positions, tr.positions)
    assert tracks[1].frames[0] == tr.enter_step


def test_simulated_velocities_are_displacement_rates():
    # even with an awkward model velocity the stored history stays consistent
    sc = corridor()
    seed = make_seed(1, 0, (1.0, 0.0), (0.5, 0.0), 4)
    model = constant_model([1.0 / 3.0, 0.01], sc)
    st = run_world(sc, [seed], model)[1]
    assert st.corrected_steps == []
    np.testing.assert_array_equal(np.diff(st.positions, axis=0), DT * np.array(st.velocities))
    # returned trajectories carry displacement rates, across a correction too
    result = corrected_run()
    assert [tr.id for tr in result.trajectories] == [2, 4]
    for tr in result.trajectories:
        assert isinstance(tr, Trajectory)
        np.testing.assert_array_equal(tr.velocities, np.diff(tr.positions, axis=0) / DT)


def test_batched_reframing_matches_single_calls_on_pre_step_histories():
    # three walkers land on the top wall at step 6, three at step 7 and two at
    # step 8; walker 6 is still in its seed phase, so its first span stops at
    # its entry and its seed carries it into the wall again. 8 never hits one
    sc = corridor(half_width=1.5, length=20.0)
    v = np.array([0.6, 0.8])
    starts = {1: (0, (1.0, -0.9)), 2: (0, (1.6, -0.9)), 3: (0, (2.2, -0.9)),
              4: (0, (1.3, -1.3)), 5: (1, (2.5, -0.9)), 6: (5, (3.0, 0.7)),
              7: (2, (1.9, -0.9))}
    seeds = [make_seed(pid, enter, start, v, 4) for pid, (enter, start) in starts.items()]
    seeds.append(make_seed(8, 0, (0.5, 0.0), (1.0, 0.0), 4))
    model = StubModel(lambda w: v if w[-1, 1] > 0 else [1.0, 0.0], sc.feature_dim)
    world = SimWorld(sc, model, seeds)
    corrected: dict[int, list] = {}
    while not world.finished:
        pre = {st: [np.array(u) for u in st.velocities] for st in world.peds}
        t = world.clock
        world.step()
        for st in world.peds:
            if st.corrected_steps[-1:] != [t + 1]:
                continue
            corrected.setdefault(t + 1, []).append(st.ped_id)
            for g in range(max(st.enter_step + 1, t + 2 - world.window), t + 1):
                local = g - st.enter_step
                present = world_at(world.peds, g)[0]
                others = [o for o in present if o is not st]
                k = [g - o.enter_step for o in others]
                single = world.extractor.frame(
                    st.positions[local],
                    st.velocities[local - 1],
                    heading(st.velocities[:local], sc.default_heading),
                    np.array([o.positions[j] for o, j in zip(others, k)]).reshape(-1, 2),
                    np.array([pre[o][j - 1] if j else (0.0, 0.0) for o, j in zip(others, k)]),
                )
                np.testing.assert_array_equal(st.frames[local - 1], single)
    assert corrected == {6: [1, 2, 3], 7: [4, 5, 6], 8: [6, 7]}
