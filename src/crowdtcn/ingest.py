"""Trajectory ingestion: parsing, smoothing, resampling, and dataset assembly.

Raw recordings are text files with one observation per row: pedestrian id,
frame number, x, y, then any extra columns, which are ignored. Fields are
separated by whitespace, or by commas where a line has one. A plain
whitespace-separated file is read with one np.loadtxt call; any file that
call might read differently from the line loop (commas, inline '#', non-ASCII
text, non-finite values, fractional or huge ids and frames, duplicate frames,
a row it cannot read) is read by the loop, which names the line of an error.
Both give the same tracks. Tracks are resampled to the model time step dt
after optional Savitzky-Golay smoothing of the raw positions, keeping the
frames on the global grid of multiples of stride = frame_rate * dt from the
first one observed, whose step is frame // stride. A Trajectory is its
resampled positions; its velocities are their backward differences.

Training samples hold each pedestrian's feature frames once, as rows of one
(M, F) frame table; a window is a row of an (N, w) index array into it, so
windows overlap in the table and are copied out only when read.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import point_in_polygon

__all__ = [
    "ParseError",
    "NonMonotonicFrames",
    "TooShort",
    "BadWindow",
    "TooFewSamples",
    "RawTrack",
    "Trajectory",
    "Samples",
    "DatasetSplit",
    "parse_trajectories",
    "smooth",
    "resample",
    "load_trajectories",
    "load_step_trajectories",
    "write_track_rows",
    "write_trajectory_file",
    "world_at",
    "presence",
    "frames_at",
    "build_samples",
    "split",
]


class ParseError(ValueError):
    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class NonMonotonicFrames(ValueError):
    pass


class TooShort(ValueError):
    pass


class BadWindow(ValueError):
    pass


class TooFewSamples(ValueError):
    pass


@dataclass
class RawTrack:
    """One pedestrian's raw observations, frame-sorted."""

    id: int
    frames: np.ndarray  # (n,) int
    positions: np.ndarray  # (n, 2) float


@dataclass
class Trajectory:
    """Resampled track at fixed step dt, given by its positions alone.

    enter_step is the global time-step index of the first position.
    velocities is derived: velocity k = (positions[k + 1] - positions[k]) / dt,
    the arrival velocity at position k + 1.
    """

    id: int
    enter_step: int
    positions: np.ndarray  # (n, 2), n >= 1
    dt: float
    velocities: np.ndarray = field(init=False)  # (n - 1, 2)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if len(self.positions) == 0:
            raise ValueError("a trajectory needs at least one position")
        self.velocities = np.diff(self.positions, axis=0) / self.dt

    @property
    def n_steps(self) -> int:
        """Number of transitions (= velocity count)."""
        return len(self.velocities)

    @property
    def last_step(self) -> int:
        return self.enter_step + self.n_steps


@dataclass
class Samples:
    """Window samples over one frame table (see build_samples), keyed like the
    `features` files.

    frames holds each feature frame once; row i of index lists the frames
    rows of window i, oldest first, so the (N, w, F) windows are
    frames[index]. Selecting rows or splitting moves index rows and shares
    the frame table.
    """

    frames: np.ndarray  # (M, F) float64
    index: np.ndarray  # (N, w) intp, rows of frames
    targets: np.ndarray  # (N, 2) float64
    ped_ids: np.ndarray  # (N,) int64
    steps: np.ndarray  # (N,) int64, global step of each window's last row

    def __len__(self) -> int:
        return len(self.index)

    @property
    def windows(self) -> np.ndarray:
        """The (N, w, F) windows, gathered into a new array."""
        return self.frames[self.index]

    def __getitem__(self, rows) -> "Samples":
        """The table of the rows a slice, index array or boolean mask picks."""
        return Samples(
            self.frames, self.index[rows], self.targets[rows], self.ped_ids[rows], self.steps[rows]
        )

    @staticmethod
    def concat(tables: list["Samples"]) -> "Samples":
        """The rows of one or more tables, in the order given; tables over one
        frame table keep sharing it."""
        if all(t.frames is tables[0].frames for t in tables):
            frames, offsets = tables[0].frames, [0] * len(tables)
        else:
            frames = np.concatenate([t.frames for t in tables])
            offsets = np.cumsum([0] + [len(t.frames) for t in tables[:-1]])
        return Samples(
            frames,
            np.concatenate([t.index + offset for t, offset in zip(tables, offsets)]),
            *(np.concatenate(c) for c in zip(*((t.targets, t.ped_ids, t.steps) for t in tables))),
        )


@dataclass
class DatasetSplit:
    training: Samples
    validation: Samples


# bytes that the line loop splits or reads differently from np.loadtxt
_LOOP_ONLY = b",\v\f\x1c\x1d\x1e\x1f\x00"


def _read_table(raw: bytes) -> dict[int, RawTrack] | None:
    """The tracks of a whole file from one np.loadtxt call, or None where the
    line loop might read the file differently or would raise."""
    if not raw.isascii() or any(c in raw for c in _LOOP_ONLY):
        return None
    # CR only before LF, '#' only as the first character of a line
    if b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"):
        return None
    if raw.count(b"#") != raw.startswith(b"#") + raw.count(b"\n#"):
        return None
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="ascii")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without data rows
            data = np.loadtxt(text, usecols=(0, 1, 2, 3), ndmin=2)
    except ValueError:
        return None
    if not len(data):
        return {}
    keys = data[:, :2]
    if not np.isfinite(data).all() or (keys != np.floor(keys)).any() or (abs(keys) >= 2**53).any():
        return None
    ids, frames = keys.astype(int).T
    order = np.lexsort((frames, ids))
    ids, frames = ids[order], frames[order]
    starts = np.diff(ids) != 0
    if (~starts & (np.diff(frames) == 0)).any():  # a duplicate frame
        return None
    positions = data[order, 2:]
    bounds = [0, *(np.flatnonzero(starts) + 1), len(ids)]
    return {
        int(ids[a]): RawTrack(id=int(ids[a]), frames=frames[a:b], positions=positions[a:b])
        for a, b in zip(bounds, bounds[1:])
    }


def _read_lines(lines) -> dict[int, RawTrack]:
    """The tracks of an iterable of lines, read one line at a time."""
    rows: dict[int, list[tuple[int, float, float]]] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in stripped.split(",")] if "," in stripped else stripped.split()
        if len(fields) < 4:
            raise ParseError(lineno, "expected at least 4 columns: id frame x y")
        try:
            ped, frame, x, y = (float(f) for f in fields[:4])
        except ValueError as exc:
            raise ParseError(lineno, f"malformed numeric field ({exc})") from exc
        # 3.0 reads as 3, but a fractional or non-finite id or frame is refused,
        # and so is one of magnitude 2^53 or more, where floats skip integers
        if not (ped.is_integer() and frame.is_integer() and max(abs(ped), abs(frame)) < 2**53):
            raise ParseError(
                lineno,
                f"malformed numeric field (non-integer id or frame, or one of magnitude "
                f"2^53 or more: {fields[0]} {fields[1]})",
            )
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(lineno, f"non-finite coordinate ({fields[2]}, {fields[3]})")
        rows.setdefault(int(ped), []).append((int(frame), x, y))
    tracks: dict[int, RawTrack] = {}
    for ped in sorted(rows):
        rec = sorted(rows[ped], key=lambda r: r[0])
        frames = np.array([r[0] for r in rec], dtype=int)
        if len(frames) > 1 and (np.diff(frames) <= 0).any():
            raise NonMonotonicFrames(f"pedestrian {ped} has duplicate frames")
        positions = np.array([[r[1], r[2]] for r in rec], dtype=float)
        tracks[ped] = RawTrack(id=ped, frames=frames, positions=positions)
    return tracks


def parse_trajectories(path_or_lines) -> dict[int, RawTrack]:
    """Parse an `id frame x y` file into frame-sorted per-pedestrian tracks.

    Accepts a path or an iterable of lines. Comment lines start with '#';
    blank lines are skipped. A malformed field, a fractional id or frame, an
    id or frame of magnitude 2^53 or more, or a non-finite x or y raises
    ParseError; duplicate frames for one pedestrian raise NonMonotonicFrames.
    A file is read with one np.loadtxt call where that reads it as the line
    loop does, and by the loop otherwise.
    """
    if not isinstance(path_or_lines, (str, Path)):
        return _read_lines(path_or_lines)
    tracks = _read_table(Path(path_or_lines).read_bytes())
    return _read_lines(Path(path_or_lines).read_text().splitlines()) if tracks is None else tracks


def smooth(positions, window: int, polyorder: int) -> np.ndarray:
    """Savitzky-Golay smoothing of an (n, 2) position series.

    Each output point is the value of a least-squares polynomial of degree
    polyorder fitted to the window of points centred on it. The first and
    last window // 2 points take the fit over the first and last window
    points instead, which reproduces scipy.signal.savgol_filter with
    mode="interp". Polynomials of degree <= polyorder pass through unchanged;
    output length equals input length.
    """
    pts = np.asarray(positions, dtype=float)
    if window % 2 == 0 or window <= polyorder or polyorder < 0:
        raise BadWindow(f"window {window} must be odd and exceed polyorder {polyorder}")
    if len(pts) < window:
        raise BadWindow(f"series of length {len(pts)} is shorter than window {window}")
    half = window // 2
    vander = np.arange(-half, half + 1.0)[:, None] ** np.arange(polyorder + 1)
    # row i maps a window of samples to its fitted value at offset i - half
    proj = vander @ np.linalg.pinv(vander)
    out = np.empty_like(pts)
    out[half : len(pts) - half] = sliding_window_view(pts, window, axis=0) @ proj[half]
    out[:half] = proj[:half] @ pts[:window]
    out[len(pts) - half :] = proj[half + 1 :] @ pts[len(pts) - window :]
    return out


def resample(
    track: RawTrack,
    frame_rate: float,
    dt: float,
    smoothing=None,
    clip_polygon=None,
) -> Trajectory:
    """Resample a raw track to the model step and derive velocities.

    Rows outside clip_polygon are dropped first; only the first contiguous
    frame run is kept if clipping opens gaps. Smoothing (a SmoothingConfig or
    None) is applied to the raw-frame positions before resampling; tracks
    shorter than the smoothing window pass through unsmoothed.
    """
    stride_f = frame_rate * dt
    stride = round(stride_f)
    if abs(stride_f - stride) > 1e-9 or stride < 1:
        raise ValueError(f"frame_rate * dt must be a positive integer, got {stride_f}")
    frames = track.frames
    positions = track.positions
    if clip_polygon is not None:
        keep = point_in_polygon(positions, clip_polygon)
        frames = frames[keep]
        positions = positions[keep]
        if len(frames) == 0:
            raise TooShort(f"pedestrian {track.id} never enters the clipping area")
        # keep the first contiguous run of surviving frames
        gaps = np.flatnonzero(np.diff(frames) != 1)
        if len(gaps):
            end = gaps[0] + 1
            frames = frames[:end]
            positions = positions[:end]

    if smoothing is not None and smoothing.enabled and len(positions) >= smoothing.window:
        positions = smooth(positions, smoothing.window, smoothing.polyorder)

    # the observed frames on the global grid, up to the first one missing
    picks = np.flatnonzero(frames % stride == 0)
    gaps = np.flatnonzero(np.diff(frames[picks]) != stride)
    if len(gaps):
        picks = picks[: gaps[0] + 1]
    if len(picks) < 2:
        raise TooShort(
            f"pedestrian {track.id} observed for {len(picks)} resampled steps, need >= 2"
        )
    enter_step = int(frames[picks[0]]) // stride
    return Trajectory(track.id, enter_step, positions[picks], dt)


def load_trajectories(path, scenario) -> dict[int, Trajectory]:
    """Parse + clip + smooth + resample one file against a Scenario.

    Pedestrians too short to resample are dropped.
    """
    tracks = parse_trajectories(path)
    out: dict[int, Trajectory] = {}
    for ped, track in tracks.items():
        try:
            out[ped] = resample(
                track,
                frame_rate=scenario.frame_rate,
                dt=scenario.dt,
                smoothing=scenario.smoothing,
                clip_polygon=scenario.clipping_polygon,
            )
        except TooShort:
            continue
    return out


def load_step_trajectories(path, dt: float) -> dict[int, Trajectory]:
    """Load a file whose frame column already counts model steps.

    This reads simulator output (and any other step-resolution file) without
    clipping, smoothing, or stride resampling. Steps must be contiguous per
    pedestrian.
    """
    out: dict[int, Trajectory] = {}
    for ped, track in parse_trajectories(path).items():
        if len(track.frames) > 1 and (np.diff(track.frames) != 1).any():
            raise NonMonotonicFrames(f"pedestrian {ped} has step gaps")
        out[ped] = Trajectory(ped, int(track.frames[0]), track.positions, dt)
    return out


def write_track_rows(path, index_name: str, tracks) -> None:
    """Write (id, indices, positions) tracks, positions an (n, 2) float array,
    as 'id index x y' rows under the header '# id <index_name> x y'. Floats
    are written with repr, so values round-trip bit-exactly through
    parse_trajectories and identical inputs yield byte-identical files."""
    lines = [f"# id {index_name} x y"]
    for ped, indices, positions in tracks:
        lines += [f"{ped} {i} {x!r} {y!r}" for i, (x, y) in zip(indices, positions.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def write_trajectory_file(path, trajectories) -> None:
    """Write recorded or simulated trajectories as rows of 'id step x y'."""
    rows = ((tr.id, range(tr.enter_step, tr.last_step + 1), tr.positions) for tr in trajectories)
    write_track_rows(path, "step", rows)


def world_at(tracks, step: int):
    """The tracks present at a global step (enter_step to last_step), in the
    order given, with their (P, 2) positions and arrival velocities (zero at
    the entry step). A track is a Trajectory or a simulated pedestrian."""
    present = [tr for tr in tracks if tr.enter_step <= step <= tr.last_step]
    local = [step - tr.enter_step for tr in present]
    pos = np.array([tr.positions[k] for tr, k in zip(present, local)]).reshape(-1, 2)
    vel = np.array([tr.velocities[k - 1] if k else (0.0, 0.0) for tr, k in zip(present, local)])
    return present, pos, vel.reshape(-1, 2)


def presence(tracks):
    """Yield (step, tracks present at it) for each global step from the first
    enter_step to the last last_step, the tracks in the order given. Every
    track's enter and last steps are read once, not at every step."""
    tracks = list(tracks)
    if not tracks:
        return
    enter = np.array([tr.enter_step for tr in tracks])
    last = np.array([tr.last_step for tr in tracks])
    for step in range(enter.min(), last.max() + 1):
        yield step, [tracks[i] for i in np.flatnonzero((enter <= step) & (step <= last))]


def frames_at(tracks, step: int, extractor, histories=None):
    """The present tracks past their entry step and their (S, F) frames at a
    global step, from one extractor.frame call against everyone world_at finds,
    headed by extractor.heading; each subject skips its own row (self_index).
    histories, when given, maps the only subjects (simulated pedestrians: a
    Trajectory does not hash) to the velocity histories that set their own
    velocity and heading; everyone else is framed from world_at as without it."""
    present, pos, vel = world_at(tracks, step)
    own = [tr.velocities if histories is None else histories.get(tr) for tr in present]
    movers = [i for i, tr in enumerate(present) if tr.enter_step < step and own[i] is not None]
    if not movers:
        return [], []
    local = [step - present[i].enter_step for i in movers]
    heads = np.array([extractor.heading(own[i][:k]) for i, k in zip(movers, local)])
    v = np.array([own[i][k - 1] for i, k in zip(movers, local)])
    return [present[i] for i in movers], extractor.frame(pos[movers], v, heads, pos, vel, movers)


def build_samples(trajectories: dict[int, Trajectory], extractor, w: int) -> Samples:
    """Sliding-window samples over all pedestrians, in id then step order.

    A sample at global step t stacks the pedestrian's feature frames for steps
    t - w + 1 .. t and targets the observed velocity of arrival at t + 1, so a
    trajectory with n velocities yields max(0, n - w) samples. Feature frames
    exist from each pedestrian's first transition onward; each global step's
    come from one frames_at call over the trajectories present, in the order
    given. The frames of each pedestrian with a window are written once into
    the frame table, in id then step order; with no window the table has
    shape (0, extractor.feature_dim) and the index (0, w).
    """
    long = [(ped, tr) for ped, tr in sorted(trajectories.items()) if tr.n_steps > w]
    # the frame at step enter_step + k + 1 of a track is table row start[id] + k
    counts = [tr.n_steps for _, tr in long]
    start = dict(zip((tr.id for _, tr in long), np.cumsum([0, *counts]).tolist()))
    table = np.empty((sum(counts), extractor.feature_dim))
    for step, present in presence(trajectories.values()):
        for tr, frame in zip(*frames_at(present, step, extractor)):
            if tr.id in start:
                table[start[tr.id] + step - tr.enter_step - 1] = frame
    # window k of a track holds its frames k .. k + w - 1 and ends at step enter_step + w + k
    index = [
        start[tr.id] + np.arange(tr.n_steps - w)[:, None] + np.arange(w) for _, tr in long
    ]
    return Samples(
        table,
        np.concatenate([np.empty((0, w), np.intp), *index]),
        np.concatenate([np.empty((0, 2)), *(tr.velocities[w:] for _, tr in long)]),
        np.array([ped for ped, tr in long for _ in range(w, tr.n_steps)], np.int64),
        np.array([tr.enter_step + t for _, tr in long for t in range(w, tr.n_steps)], np.int64),
    )


def split(samples: Samples, seed: int, ratio: tuple[int, int] = (4, 1)) -> DatasetSplit:
    """Deterministic sample-level split that keeps the row order on both sides;
    validation size is floor(n * val / total)."""
    n = len(samples)
    total = ratio[0] + ratio[1]
    if n < total:
        raise TooFewSamples(f"need at least {total} samples, got {n}")
    rng = np.random.default_rng(seed)
    validation = np.zeros(n, dtype=bool)
    validation[rng.permutation(n)[: n * ratio[1] // total]] = True
    return DatasetSplit(training=samples[~validation], validation=samples[validation])
