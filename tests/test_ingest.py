from dataclasses import dataclass

import numpy as np
import pytest
from oracles import build_samples_loop

from crowdtcn.features import heading
from crowdtcn.ingest import (
    BadWindow,
    DatasetSplit,
    NonMonotonicFrames,
    ParseError,
    RawTrack,
    Samples,
    TooFewSamples,
    TooShort,
    Trajectory,
    build_samples,
    frames_at,
    load_trajectories,
    parse_trajectories,
    presence,
    resample,
    smooth,
    split,
    world_at,
    write_trajectory_file,
    _read_lines,
    _read_table,
)
from crowdtcn.scenario import SmoothingConfig
from crowdtcn.synth import GEOMETRIES, corridor_dataset, write_dataset


class TestParse:
    def test_groups_by_id(self):
        lines = ["1 0 0.0 0.0", "1 1 0.1 0.0", "2 0 5.0 5.0"]
        tracks = parse_trajectories(lines)
        assert set(tracks) == {1, 2}
        assert len(tracks[1].frames) == 2
        assert len(tracks[2].frames) == 1

    def test_malformed_field_reports_line(self):
        lines = ["1 0 0.0 0.0"] * 6 + ["1 6 oops 0.0"]
        with pytest.raises(ParseError) as err:
            parse_trajectories(lines)
        assert err.value.line_number == 7

    @pytest.mark.parametrize("x, y", [("nan", "0.0"), ("0.1", "inf"), ("-inf", "0.0"), ("NaN", "nan")])
    def test_non_finite_coordinate_reports_line(self, x, y):
        lines = ["1 0 0.0 0.0", "1 1 0.1 0.0", f"1 2 {x} {y}"]
        with pytest.raises(ParseError, match="non-finite coordinate") as err:
            parse_trajectories(lines)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("line", ["inf 0 0.0 0.0", "1 -inf 0.0 0.0", "nan 0 0.0 0.0"])
    def test_non_finite_id_or_frame_reports_line(self, line):
        with pytest.raises(ParseError, match="malformed numeric field") as err:
            parse_trajectories(["1 0 0.0 0.0", line])
        assert err.value.line_number == 2

    @pytest.mark.parametrize("line", ["1.5 1 0.1 0.0", "1 0.7 0.1 0.0", "2, 1.25, 0.1, 0.0"])
    def test_fractional_id_or_frame_reports_line(self, line):
        with pytest.raises(ParseError, match="non-integer id or frame") as err:
            parse_trajectories(["# id frame x y", "1 0 0.0 0.0", line])
        assert err.value.line_number == 3

    @pytest.mark.parametrize(
        "lines, line_number",
        [
            (["9007199254740993 0 0.0 0.0", "9007199254740992 1 1.0 0.0"], 1),  # ids merge as floats
            (["1 0 0.0 0.0", "1 -9007199254740992 1.0 0.0"], 2),
        ],
    )
    def test_id_or_frame_past_2_53_reports_line(self, lines, line_number):
        with pytest.raises(ParseError, match="2\\^53") as err:
            parse_trajectories(lines)
        assert err.value.line_number == line_number

    def test_integral_float_id_and_frame_read_as_integers(self):
        tracks = parse_trajectories(["3.0 0 0.0 0.0", "3 1.0 0.1 0.0", "3.0, 2.0, 0.2, 0.0"])
        assert list(tracks) == [3]
        assert tracks[3].frames.tolist() == [0, 1, 2]

    def test_too_few_columns_reports_line(self):
        with pytest.raises(ParseError, match="at least 4 columns") as err:
            parse_trajectories(["1 0 0.0 0.0", "1 1 0.1"])
        assert err.value.line_number == 2

    def test_comments_and_blanks_skipped(self):
        lines = ["# header", "", "1 0 1.0 2.0"]
        tracks = parse_trajectories(lines)
        assert np.allclose(tracks[1].positions, [[1.0, 2.0]])

    def test_five_column_z_ignored_round_trip(self, tmp_path):
        # round-trip oracle: re-serializing the parsed x/y reproduces the
        # original tokens bit-exact
        rng = np.random.default_rng(21)
        lines = []
        for ped in (1, 2, 3):
            for frame in range(4):
                x, y, z = (float(v) for v in rng.uniform(-5, 5, 3))
                lines.append(f"{ped} {frame} {x!r} {y!r} {z!r}")
        path = tmp_path / "traj.txt"
        path.write_text("\n".join(lines) + "\n")
        tracks = parse_trajectories(path)
        out = []
        for ped in (1, 2, 3):
            for i, frame in enumerate(tracks[ped].frames):
                x, y = tracks[ped].positions[i]
                out.append((ped, int(frame), repr(float(x)), repr(float(y))))
        expected = []
        for line in lines:
            f = line.split()
            expected.append((int(f[0]), int(f[1]), f[2], f[3]))
        assert sorted(out) == sorted(expected)

    def test_comma_delimited(self):
        tracks = parse_trajectories(["7, 0, 1.5, 2.5"])
        assert np.allclose(tracks[7].positions, [[1.5, 2.5]])

    def test_duplicate_frames_rejected(self):
        with pytest.raises(NonMonotonicFrames):
            parse_trajectories(["1 0 0 0", "1 0 1 1"])

    def test_unsorted_frames_are_sorted(self):
        tracks = parse_trajectories(["1 3 3.0 0", "1 1 1.0 0", "1 2 2.0 0"])
        assert tracks[1].frames.tolist() == [1, 2, 3]
        assert tracks[1].positions[:, 0].tolist() == [1.0, 2.0, 3.0]


# (file text, whether the one-call read takes it rather than the line loop)
PARSE_CORPUS = {
    "comments-blanks-crlf": (
        "# id frame x y\r\n\r\n2 5 1.0 2.0\r\n   \r\n# mid\r\n1 1 0.3 0.4\r\n1 0 0.1 0.2\r\n",
        True,
    ),
    "tabs-signs-no-final-newline": ("1\t0\t.5\t5.\n+1 1 -0.0 1e-3\n-4 -2 1 2", True),
    "extra-columns": ("1 0 0.1 0.2 9.9\n1 1 0.3 0.4 z\n2 0 1 2 3 4 5\n", True),
    "integral-float-ids": ("3.0 0 0.0 0.0\n3 1.0 0.1 0.0\n-0.0 2e0 1 1\n", True),
    "empty": ("", True),
    "comments-only": ("# a\n# b\n", True),
    "commas": ("1, 0, 0.5, 1.0\n1 1 0.6 1.1\n2,0,3,4,extra\n", False),
    "comma-fractional-frame": ("2, 1.25, 0.1, 0.0\n", False),
    "underscore": ("1_0 0 0.0 0.0\n1_0 1 0.5 0.0\n", False),
    "hex": ("1 0 0.0 0.0\n0x10 1 0.0 0.0\n", False),
    "full-width-digits": ("\uff11 0 0.0 0.0\n1 \uff11 0.5 0.0\n", False),
    "nan": ("1 0 0.0 0.0\n1 1 nan 0.0\n", False),
    "inf-id": ("1 0 0.0 0.0\ninf 0 0.0 0.0\n", False),
    "overflow": ("1 0 0.0 0.0\n1 1 1e400 0.0\n", False),
    "fractional-id": ("1 0 0.0 0.0\n1.5 1 0.0 0.0\n", False),
    "id-past-2**63": (f"{2**63} 0 0.0 0.0\n{2**63 + 4096} 1 1.0 1.0\n", False),
    "id-past-2**53": (f"{2**53 + 1} 0 0.0 0.0\n", False),
    "duplicate-frame": ("1 0 0.0 0.0\n2 0 1 1\n1 0 1.0 1.0\n", False),
    "inline-hash": ("1 0 0.0 0.0\n4#x 1 0.0 0.0\n", False),
    "hash-after-fields": ("1 0 0.0 0.0 # first\n1 1 0.5 0.5\n", False),
    "indented-comment": ("  # c\n1 0 0.0 0.0\n", False),
    "too-few-columns": ("1 0 0.0 0.0\n1 1 0.5\n", False),
    "vertical-tab": ("1 0 0.0 0.0\x0b2 1 1.0 1.0\n", False),
    "lone-cr": ("1 0 0.0 0.0\r1 1 1.0 1.0\r", False),
    "nul": ("1 0 0.0 0.0\x00\n", False),
    "d-exponent": ("1 0 1d5 0.0\n", False),
}


def _parse_outcome(read, *args):
    """The tracks a reader returns, bit for bit, or the error it raises."""
    try:
        tracks = read(*args)
    except (ParseError, NonMonotonicFrames) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return [
        (key, type(key), tr.id, type(tr.id), tr.frames.dtype, tr.frames.tolist(),
         tr.positions.dtype, tr.positions.shape, tr.positions.tobytes())
        for key, tr in tracks.items()
    ]


class TestParsePaths:
    """The one-call read of a file and the line loop give the same tracks or
    the same error; the corpus says which files the one-call read takes."""

    @pytest.mark.parametrize("name", sorted(PARSE_CORPUS))
    def test_both_paths_agree(self, name, tmp_path):
        text, fast = PARSE_CORPUS[name]
        path = tmp_path / "traj.txt"
        path.write_bytes(text.encode("utf-8"))
        loop = _parse_outcome(_read_lines, path.read_text().splitlines())
        assert _parse_outcome(parse_trajectories, path) == loop
        table = _read_table(path.read_bytes())
        assert (table is not None) == fast
        if fast:
            assert _parse_outcome(lambda: table) == loop

    def test_written_files_take_the_one_call_read(self, tmp_path):
        dataset = corridor_dataset(n_train=6, n_test=2, seed=4)
        raw = write_dataset(dataset, tmp_path)["training"]
        sim = tmp_path / "sim.txt"
        write_trajectory_file(sim, load_trajectories(raw, dataset.scenario).values())
        for path in (raw, sim):
            table = _read_table(path.read_bytes())
            assert table is not None and len(table) > 1
            loop = _parse_outcome(_read_lines, path.read_text().splitlines())
            assert _parse_outcome(lambda: table) == loop


def make_track(frames, xs, ys=None, ped=1):
    xs = np.asarray(xs, dtype=float)
    ys = np.zeros_like(xs) if ys is None else np.asarray(ys, dtype=float)
    return RawTrack(id=ped, frames=np.asarray(frames, dtype=int), positions=np.column_stack([xs, ys]))


class TestResample:
    def test_backward_difference(self):
        track = make_track([0, 8], [1.5, 2.0], ped=3)
        traj = resample(track, frame_rate=16.0, dt=0.5)
        assert traj.velocities[0, 0] == pytest.approx(1.0)

    def test_stationary(self):
        track = make_track(range(0, 33), [2.0] * 33)
        traj = resample(track, frame_rate=16.0, dt=0.5)
        assert np.allclose(traj.velocities, 0.0)

    def test_ramp_matches_finite_difference_oracle(self):
        # oracle: finite differences of the sampled positions
        frames = np.arange(0, 160)
        xs = 0.1 * frames
        traj = resample(make_track(frames, xs), frame_rate=16.0, dt=0.5)
        sampled = xs[::8]
        oracle_v = np.diff(sampled) / 0.5
        assert np.allclose(traj.velocities[:, 0], oracle_v)
        assert np.allclose(traj.velocities[:, 0], 1.6)

    def test_too_short(self):
        with pytest.raises(TooShort):
            resample(make_track([0, 1, 2], [0, 0.1, 0.2]), frame_rate=16.0, dt=0.5)

    def test_enter_step_from_first_frame(self):
        track = make_track(range(24, 24 + 17), np.linspace(0, 1, 17))
        traj = resample(track, frame_rate=16.0, dt=0.5)
        assert traj.enter_step == 3

    def test_off_grid_starts_sample_the_global_grid(self):
        # stride 8: a track starting at frame 4, 12 or 20 is sampled at the
        # multiples of 8 it covers, so its entry step is exactly first // 8
        for first, enter in ((0, 0), (4, 1), (12, 2), (20, 3)):
            frames = np.arange(first, 60)
            traj = resample(make_track(frames, 0.1 * frames), frame_rate=16.0, dt=0.5)
            assert traj.enter_step == enter
            np.testing.assert_allclose(traj.positions[:, 0], 0.1 * np.arange(8 * enter, 60, 8))
        with pytest.raises(TooShort):  # frames 9..23 hold one grid frame, 16
            resample(make_track(range(9, 24), [0.0] * 15), frame_rate=16.0, dt=0.5)

    def test_clipping_drops_outside_rows(self):
        clip = [[0.0, -1.0], [10.0, -1.0], [10.0, 1.0], [0.0, 1.0]]
        frames = np.arange(0, 64)
        xs = np.linspace(-2.0, 6.0, 64)
        traj = resample(make_track(frames, xs), frame_rate=16.0, dt=0.5, clip_polygon=clip)
        assert (traj.positions[:, 0] >= 0.0).all()

    def test_translation_commutes(self):
        frames = np.arange(0, 80)
        rng = np.random.default_rng(3)
        xs = np.cumsum(rng.uniform(0, 0.1, 80))
        ys = np.cumsum(rng.uniform(0, 0.05, 80))
        base = resample(make_track(frames, xs, ys), frame_rate=16.0, dt=0.5)
        moved = resample(make_track(frames, xs + 3.0, ys - 2.0), frame_rate=16.0, dt=0.5)
        assert np.allclose(moved.velocities, base.velocities, atol=1e-12)
        assert np.allclose(moved.positions, base.positions + [3.0, -2.0], atol=1e-12)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(4)
        frames = np.arange(0, 100)
        xs = np.cumsum(rng.uniform(-0.05, 0.12, 100))
        traj = resample(make_track(frames, xs), frame_rate=16.0, dt=0.5)
        recon = traj.positions[:-1] + traj.dt * traj.velocities
        assert np.abs(recon - traj.positions[1:]).max() < 1e-9


class TestSmooth:
    def test_cubic_reproduced(self):
        t = np.arange(20.0)
        series = np.column_stack([0.1 * t**3 - t, 2.0 + 0.5 * t**2])
        out = smooth(series, window=7, polyorder=3)
        assert np.abs(out - series).max() < 1e-9

    def test_constant_unchanged(self):
        series = np.full((15, 2), 3.25)
        assert np.abs(smooth(series, 9, 3) - series).max() < 1e-12

    def test_noisy_sine_matches_per_window_least_squares(self):
        # oracle: independent least-squares polynomial fit per centered window
        rng = np.random.default_rng(5)
        t = np.arange(41.0)
        series = np.column_stack(
            [np.sin(0.3 * t) + 0.01 * rng.standard_normal(41), 0.2 * t]
        )
        window, polyorder = 9, 3
        out = smooth(series, window, polyorder)
        half = window // 2
        for c in range(half, 41 - half):
            seg = series[c - half : c + half + 1]
            coeffs_x = np.polynomial.polynomial.polyfit(np.arange(-half, half + 1), seg[:, 0], polyorder)
            coeffs_y = np.polynomial.polynomial.polyfit(np.arange(-half, half + 1), seg[:, 1], polyorder)
            assert abs(out[c, 0] - coeffs_x[0]) < 1e-9
            assert abs(out[c, 1] - coeffs_y[0]) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((25, 2))
        b = rng.standard_normal((25, 2))
        lhs = smooth(a + b, 9, 3)
        rhs = smooth(a, 9, 3) + smooth(b, 9, 3)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_bad_window(self):
        series = np.zeros((20, 2))
        with pytest.raises(BadWindow):
            smooth(series, 8, 3)
        with pytest.raises(BadWindow):
            smooth(series, 3, 3)
        with pytest.raises(BadWindow):
            smooth(series[:5], 9, 3)

    @pytest.mark.parametrize("window,polyorder", [(9, 3), (7, 3), (5, 2), (11, 4), (3, 0)])
    @pytest.mark.parametrize("extra", [0, 1, None], ids=["n=window", "n=window+1", "n=50"])
    def test_matches_scipy_interp_mode(self, window, polyorder, extra):
        signal = pytest.importorskip("scipy.signal")
        n = 50 if extra is None else window + extra
        rng = np.random.default_rng(window * 10 + polyorder)
        series = np.cumsum(rng.standard_normal((n, 2)), axis=0) + [30.0, -4.0]
        want = signal.savgol_filter(series, window, polyorder, axis=0, mode="interp")
        got = smooth(series, window, polyorder)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(series).max()

    def test_smoothing_inside_resample(self):
        # a cubic raw path is invariant under smoothing, so smoothing changes nothing
        frames = np.arange(0, 81)
        xs = 1e-4 * frames**2
        cfg_before = SmoothingConfig(enabled=True, window=9, polyorder=3)
        traj = resample(make_track(frames, xs), 16.0, 0.5, smoothing=cfg_before)
        plain = resample(make_track(frames, xs), 16.0, 0.5)
        assert np.allclose(traj.positions, plain.positions, atol=1e-9)


class DummyExtractor:
    """Feature stub: frame = [vx, vy, x] so tests can see what was passed."""

    feature_dim = 3

    def heading(self, velocity_history):
        return heading(velocity_history, [1, 0])

    def frame(self, position, velocity, heading_vec, others_pos, others_vel, self_index=None):
        return np.column_stack([velocity[:, 0], velocity[:, 1], position[:, 0]])


def straight_trajectory(ped, enter, n_velocities, speed=1.0, dt=0.5):
    xs = np.arange(n_velocities + 1) * speed * dt
    positions = np.column_stack([xs, np.zeros_like(xs)])
    velocities = np.diff(positions, axis=0) / dt
    return Trajectory(id=ped, enter_step=enter, positions=positions, velocities=velocities, dt=dt)


class TestBuildSamples:
    def test_nine_steps_one_sample(self):
        trajs = {1: straight_trajectory(1, 0, 9)}
        samples = build_samples(trajs, DummyExtractor(), w=8)
        assert len(samples) == 1
        assert samples.windows[0].shape == (8, 3)

    def test_eight_steps_zero_samples(self):
        trajs = {1: straight_trajectory(1, 0, 8)}
        samples = build_samples(trajs, DummyExtractor(), w=8)
        assert len(samples) == 0
        assert samples.windows.shape == (0, 8, 3) and samples.targets.shape == (0, 2)

    def test_counting_oracle(self):
        rng = np.random.default_rng(9)
        trajs = {}
        for ped in range(20):
            n = int(rng.integers(2, 31))
            trajs[ped] = straight_trajectory(ped, int(rng.integers(0, 10)), n)
        samples = build_samples(trajs, DummyExtractor(), w=8)
        expected = sum(max(0, t.n_steps - 8) for t in trajs.values())
        assert len(samples) == expected

    def test_target_is_next_velocity(self):
        # positions quadratic in t so each step's velocity is distinct
        dt = 0.5
        xs = np.array([0.25 * k * k for k in range(12)])
        positions = np.column_stack([xs, np.zeros_like(xs)])
        velocities = np.diff(positions, axis=0) / dt
        traj = Trajectory(id=1, enter_step=0, positions=positions, velocities=velocities, dt=dt)
        samples = build_samples({1: traj}, DummyExtractor(), w=8)
        assert len(samples) == 3
        for window, target, step in zip(samples.windows, samples.targets, samples.steps):
            local_t = step - traj.enter_step
            assert np.allclose(target, velocities[local_t])
            # last input row holds the velocity of arrival at step t
            assert np.allclose(window[-1, :2], velocities[local_t - 1])

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_matches_per_window_oracle(self, geometry, tmp_path):
        dataset = GEOMETRIES[geometry](n_train=20, n_test=2, seed=3)
        sc = dataset.scenario
        trajs = load_trajectories(write_dataset(dataset, tmp_path)["training"], sc)
        # the same walkers cut to w velocities each give no window
        cut = {
            pid: Trajectory.from_positions(pid, tr.enter_step, tr.positions[:9], tr.dt)
            for pid, tr in trajs.items()
        }
        for subset in (trajs, cut):
            samples = build_samples(subset, sc.extractor(), w=8)
            oracle = build_samples_loop(subset, sc.extractor(), w=8)
            assert len(samples) == len(oracle)
            assert samples.windows.shape == (len(oracle), 8, sc.feature_dim)
            assert samples.windows.dtype == samples.targets.dtype == np.float64
            assert samples.ped_ids.dtype == samples.steps.dtype == np.int64
            for i, (window, target, ped, step) in enumerate(oracle):
                np.testing.assert_array_equal(samples.windows[i], window)
                np.testing.assert_array_equal(samples.targets[i], target)
                assert (samples.ped_ids[i], samples.steps[i]) == (ped, step)
        assert oracle == []


class TestWorldAt:
    def test_presence_order_and_entry_velocity(self):
        a = straight_trajectory(7, 2, 3)  # steps 2..5
        b = straight_trajectory(3, 4, 2, speed=2.0)  # steps 4..6
        present, pos, vel = world_at([a, b], 4)
        assert present == [a, b]  # the order given, not sorted by id
        np.testing.assert_array_equal(pos, [a.positions[2], b.positions[0]])
        np.testing.assert_array_equal(vel, [a.velocities[1], [0.0, 0.0]])
        present, pos, vel = world_at([b, a], 6)
        assert present == [b] and pos.shape == vel.shape == (1, 2)
        assert world_at([a, b], 1)[0] == [] and world_at([a, b], 1)[1].shape == (0, 2)


    def test_presence_is_world_at_at_every_step(self):
        shapes = ((4, 3, 5), (2, 0, 2), (9, 6, 1))  # id, enter step, steps
        tracks = [straight_trajectory(ped, enter, n) for ped, enter, n in shapes]
        seen = list(presence(tracks))
        assert [step for step, _ in seen] == list(range(0, 9))
        for step, present in seen:
            assert present == world_at(tracks, step)[0]
        assert list(presence([])) == []


@dataclass(eq=False)
class Walker:
    """A hashable track, as a simulated pedestrian is: frames_at's histories
    are keyed by track, which a Trajectory cannot be."""

    enter_step: int
    positions: np.ndarray
    velocities: np.ndarray

    @property
    def last_step(self) -> int:
        return self.enter_step + len(self.velocities)


class TestFramesAt:
    STEP = 5

    @staticmethod
    def scene():
        """Eight random corridor walkers, at least one entering at STEP, and
        the real extractor of the synth corridor."""
        rng = np.random.default_rng(26)
        walkers = []
        for enter in (0, 1, 2, 3, 4, 5, 5, 9):
            vel = rng.uniform(-1.0, 1.0, (int(rng.integers(3, 8)), 2))
            start = rng.uniform([2.0, -1.0], [8.0, 1.0])
            walkers.append(Walker(enter, np.vstack([start, start + 0.5 * vel.cumsum(0)]), vel))
        return walkers, corridor_dataset(n_train=1, n_test=1, seed=0).scenario.extractor()

    def test_histories_frame_only_the_mapped_movers(self):
        walkers, ex = self.scene()
        step, rng = self.STEP, np.random.default_rng(7)
        # mapped: movers, a walker entering at step, one gone by then and one to come
        gone = [w for w in walkers if w.last_step < step][:1]
        mapped = [walkers[i] for i in (1, 3, 4, 6, 7)] + gone
        histories = {w: rng.uniform(-1.5, 1.5, w.velocities.shape) for w in mapped}
        present, pos, vel = world_at(walkers, step)
        movers = [w for w in present if w in histories and w.enter_step < step]
        assert len(movers) >= 3 and any(w.enter_step == step for w in mapped)
        subjects, frames = frames_at(walkers, step, ex, histories)
        assert subjects == movers
        for w, frame in zip(subjects, frames):
            k, own = step - w.enter_step, histories[w]
            others = [i for i, o in enumerate(present) if o is not w]
            single = ex.frame(
                w.positions[k], own[k - 1], ex.heading(own[:k]), pos[others], vel[others]
            )
            np.testing.assert_array_equal(frame, single)
        # a mover's own history frames it as without histories
        own = {w: w.velocities for w in walkers}
        np.testing.assert_array_equal(
            frames_at(walkers, step, ex, own)[1], frames_at(walkers, step, ex)[1]
        )
        assert frames_at(walkers, step, ex, {}) == ([], [])

    def test_no_histories_frames_every_mover_from_world_at(self):
        walkers, ex = self.scene()
        # Trajectory does not hash, so this path must not look tracks up
        tracks = [
            Trajectory(i, w.enter_step, w.positions, w.velocities, 0.5)
            for i, w in enumerate(walkers)
        ]
        with pytest.raises(TypeError):
            hash(tracks[0])
        for step in range(12):
            present, pos, vel = world_at(tracks, step)
            movers = [i for i, tr in enumerate(present) if tr.enter_step < step]
            got, frames = frames_at(tracks, step, ex)
            subjects = [present[i] for i in movers]
            assert got == subjects
            if movers:
                heads = [ex.heading(tr.velocities[: step - tr.enter_step]) for tr in subjects]
                expected = ex.frame(pos[movers], vel[movers], np.array(heads), pos, vel, movers)
                np.testing.assert_array_equal(frames, expected)


class TestSplit:
    def make(self, n):
        # steps tell the rows apart; window i reads frames i .. i + 7
        steps = np.arange(n, dtype=np.int64)
        index = np.arange(n)[:, None] + np.arange(8)
        return Samples(np.zeros((n + 7, 3)), index, np.zeros((n, 2)), np.zeros(n, np.int64), steps)

    def test_ten_gives_eight_two(self):
        ds = split(self.make(10), seed=0)
        assert (len(ds.training), len(ds.validation)) == (8, 2)

    def test_eleven_floor_validation(self):
        ds = split(self.make(11), seed=0)
        assert (len(ds.training), len(ds.validation)) == (9, 2)

    def test_deterministic(self):
        samples = self.make(23)
        a = split(samples, seed=42)
        b = split(samples, seed=42)
        assert a.training.steps.tolist() == b.training.steps.tolist()
        assert a.validation.steps.tolist() == b.validation.steps.tolist()

    def test_partition(self):
        samples = self.make(17)
        ds = split(samples, seed=1)
        joined = set(ds.training.steps.tolist()) | set(ds.validation.steps.tolist())
        assert joined == set(samples.steps.tolist())
        assert not (set(ds.training.steps.tolist()) & set(ds.validation.steps.tolist()))

    def test_both_sides_keep_the_sample_order(self):
        ds = split(self.make(23), seed=5)
        for side in (ds.training, ds.validation):
            assert (np.diff(side.steps) > 0).all()
            assert side.windows.shape[1:] == (8, 3) and len(side.targets) == len(side)

    def test_both_sides_share_the_frame_table(self):
        samples = self.make(23)
        ds = split(samples, seed=5)
        assert ds.training.frames is ds.validation.frames is samples.frames
        assert np.shares_memory(ds.training.frames, ds.validation.frames)
        np.testing.assert_array_equal(ds.validation.windows, samples.windows[ds.validation.steps])

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            split(self.make(4), seed=0)

    def test_split_type(self):
        ds = split(self.make(10), seed=3)
        assert isinstance(ds, DatasetSplit)
