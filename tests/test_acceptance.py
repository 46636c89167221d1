"""Acceptance checks: the eight numbered criteria listed in the README.

Every criterion gets one test that prints a single PASS line with the
measured margin (visible with pytest -s). The oracles here are written
from scratch in plain scalar code so they share no arithmetic shortcuts
with the library: exhaustive candidate scans for the geometry, nested
loops for the convolution, central finite differences for the gradients,
and Monte-Carlo integration for the Voronoi areas.
"""

import csv
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from crowdtcn import cli
from crowdtcn.evaluate import (
    TrajectoryPair,
    ete_pete,
    fde,
    fundamental_diagram,
    profiles,
    tde,
    tte_ptte,
    voronoi_measures,
)
from crowdtcn.features import (
    NeighborKind,
    RadarConfig,
    RayScanConfig,
    StaticVelocityMode,
    feature_dim,
    forward_wall_rays,
    radar_neighbors,
)
from crowdtcn.ingest import Trajectory
from crowdtcn.tcn import Architecture, backward, dilated_causal_conv, forward, init_params, loss

from oracles import conv_eq1

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_convolution_matches_nested_loop_oracle():
    rng = np.random.default_rng(20260816)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(1, 33))
        cin = int(rng.integers(1, 9))
        cout = int(rng.integers(1, 9))
        q = int(rng.integers(1, 9))
        h = int(rng.choice((1, 2, 4)))
        x = rng.standard_normal((t, cin))
        kernel = rng.standard_normal((cout, cin, q))
        got = dilated_causal_conv(x, kernel, h)
        want = conv_eq1(x, kernel, h)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 10.0
    print(
        f"criterion 1 PASS: 1000 random conv instances, "
        f"max abs diff {worst:.3g} < 1e-6, {elapsed:.2f}s < 10s"
    )


# ---------------------------------------------------------------- criterion 2


def _kink_margin(params, arch, x, y):
    """Smallest distance of any ReLU preactivation or loss residual norm
    from its kink; finite differences are only trustworthy away from them."""
    caches = []
    pred = forward(params, arch, x, training=False, caches=caches)
    margin = float(np.abs(np.linalg.norm(pred - y, axis=1)).min())
    for cache in caches[:-1]:
        for key in ("a1", "a2", "s"):
            margin = min(margin, float(np.abs(cache[key]).min()))
    return margin


def test_criterion_2_gradients_match_finite_differences():
    arch = Architecture(
        feature_dim=10,
        window=8,
        channels=(4, 6, 8),
        kernel_size=4,
        dilations=(1, 2, 4),
        dropout=0.0,
    )
    rng = np.random.default_rng(202)
    step = 1e-4
    # check at a generic point: fresh inits have exact zeros (zero biases
    # let dead ReLU columns propagate), so jitter every parameter, then
    # screen for a draw whose ReLU branches cannot flip inside +-step
    for _ in range(500):
        params = init_params(arch, seed=int(rng.integers(1_000_000)), dtype=np.float64)
        for key in params:
            params[key] = params[key] + rng.uniform(-0.25, 0.25, params[key].shape)
        x = rng.standard_normal((3, arch.window, arch.feature_dim))
        y = rng.standard_normal((3, 2))
        if _kink_margin(params, arch, x, y) > 1e-3:
            break
    else:
        pytest.fail("no kink-free parameter draw found")

    start = time.perf_counter()
    _, grads = backward(params, arch, x, y, training=False)
    worst = 0.0
    n_checked = 0
    for name in sorted(params):
        arr = params[name]
        flat = arr.reshape(-1)
        grad_flat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss(forward(params, arch, x), y)
            flat[i] = orig - step
            down = loss(forward(params, arch, x), y)
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            a = float(grad_flat[i])
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-5)
            worst = max(worst, rel)
            n_checked += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-3
    assert elapsed < 60.0
    print(
        f"criterion 2 PASS: {n_checked} parameters, max relative error "
        f"{worst:.3g} < 1e-3, {elapsed:.1f}s < 60s"
    )


# ---------------------------------------------------------------- criterion 3


def _closest_on_segment(p, a, b):
    abx, aby = b[0] - a[0], b[1] - a[1]
    denom = abx * abx + aby * aby
    if denom < 1e-18:
        return (a[0], a[1])
    t = ((p[0] - a[0]) * abx + (p[1] - a[1]) * aby) / denom
    t = min(1.0, max(0.0, t))
    return (a[0] + t * abx, a[1] + t * aby)


def _ray_segment_hit(origin, direction, a, b):
    # solve origin + t*direction = a + u*(b - a), t >= 0, u in [0, 1]
    m00, m01 = direction[0], a[0] - b[0]
    m10, m11 = direction[1], a[1] - b[1]
    det = m00 * m11 - m01 * m10
    if abs(det) < 1e-14:
        return None
    rx, ry = a[0] - origin[0], a[1] - origin[1]
    t = (rx * m11 - m01 * ry) / det
    u = (m00 * ry - rx * m10) / det
    if t < 0.0 or u < 0.0 or u > 1.0:
        return None
    return (origin[0] + t * direction[0], origin[1] + t * direction[1])


def _oracle_radar(p, v, head, others, others_vel, wall_pts, cfg, mode):
    """Exhaustive scan: every entity is tested against every sector."""
    n = cfg.n_sectors
    sec = math.radians(cfg.sector_deg)
    base = math.atan2(-head[1], -head[0])

    best = [None] * n
    rel_pos = np.zeros((n, 2))
    rel_vel = np.zeros((n, 2))

    def offer(j, d, kind, idx, rp, rv):
        key = (d, kind, idx)
        if best[j] is None or key < best[j]:
            best[j] = key
            rel_pos[j] = rp
            rel_vel[j] = rv

    for i in range(len(others)):
        rx, ry = others[i][0] - p[0], others[i][1] - p[1]
        d = math.hypot(rx, ry)
        if d > cfg.radius:
            continue
        r = (math.atan2(ry, rx) - base) % TWO_PI
        j = min(int(r // sec), n - 1)
        offer(j, d, 1, i, (rx, ry), (others_vel[i][0] - v[0], others_vel[i][1] - v[1]))

    if mode is StaticVelocityMode.MINUS_OWN:
        srv = (-v[0], -v[1])
    else:
        srv = (0.0, 0.0)

    def in_wedge(ang, lo, hi):
        r = (ang - base) % TWO_PI
        return any(lo - 1e-9 <= s <= hi + 1e-9 for s in (r - TWO_PI, r, r + TWO_PI))

    for w_idx, (a, b) in enumerate(wall_pts):
        shared = [_closest_on_segment(p, a, b), a, b]
        for j in range(n):
            lo, hi = j * sec, (j + 1) * sec
            cands = list(shared)
            for bound in (lo, hi):
                ang = base + bound
                hit = _ray_segment_hit(p, (math.cos(ang), math.sin(ang)), a, b)
                if hit is not None:
                    cands.append(hit)
            pick = None
            for c in cands:
                dx, dy = c[0] - p[0], c[1] - p[1]
                d = math.hypot(dx, dy)
                ang = 0.0 if d < 1e-12 else math.atan2(dy, dx)
                if not in_wedge(ang, lo, hi):
                    continue
                if pick is None or d < pick[0]:
                    pick = (d, (dx, dy))
            if pick is not None and pick[0] <= cfg.radius:
                offer(j, pick[0], 2, w_idx, pick[1], srv)

    kinds = np.zeros(n, dtype=int)
    indices = np.full(n, -1, dtype=int)
    for j in range(n):
        if best[j] is None:
            ang = base + (j + 0.5) * sec
            rel_pos[j] = (cfg.radius * math.cos(ang), cfg.radius * math.sin(ang))
            rel_vel[j] = srv
        else:
            kinds[j] = best[j][1]
            indices[j] = best[j][2]
    return kinds, indices, rel_pos, rel_vel


def _oracle_rays(p, head, wall_pts, cfg):
    n = cfg.n_rays
    step = math.radians(cfg.step_deg)
    head_ang = math.atan2(head[1], head[0])
    rel = np.zeros((n, 2))
    idxs = np.full(n, -1, dtype=int)
    for k in range(n):
        ang = head_ang + 0.5 * math.pi - k * step
        d = (math.cos(ang), math.sin(ang))
        best = None
        for w_idx, (a, b) in enumerate(wall_pts):
            hit = _ray_segment_hit(p, d, a, b)
            if hit is None:
                continue
            dist = math.hypot(hit[0] - p[0], hit[1] - p[1])
            if best is None or dist < best[0]:
                best = (dist, w_idx, hit)
        if best is None:
            rel[k] = (cfg.exit_distance * d[0], cfg.exit_distance * d[1])
        else:
            rel[k] = (best[2][0] - p[0], best[2][1] - p[1])
            idxs[k] = best[1]
    return rel, idxs


def _mc_density(rng, sites, wx, wy, box, n_samples=1_000_000, chunk=200_000):
    """Monte-Carlo estimate of the cell-area-weighted density in box."""
    sites = np.asarray(sites, dtype=float)
    n = len(sites)
    inside = np.zeros(n, dtype=np.int64)
    totals = np.zeros(n, dtype=np.int64)
    mx0, mx1, my0, my1 = box
    done = 0
    while done < n_samples:
        take = min(chunk, n_samples - done)
        pts = rng.uniform((0.0, 0.0), (wx, wy), (take, 2))
        d2 = ((pts[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
        owner = d2.argmin(axis=1)
        in_m = (
            (pts[:, 0] >= mx0)
            & (pts[:, 0] <= mx1)
            & (pts[:, 1] >= my0)
            & (pts[:, 1] <= my1)
        )
        totals += np.bincount(owner, minlength=n)
        inside += np.bincount(owner[in_m], minlength=n)
        done += take
    ratios = inside / np.maximum(totals, 1)
    return float(ratios.sum() / ((mx1 - mx0) * (my1 - my0)))


def test_criterion_3_geometry_matches_brute_force_oracles():
    rng = np.random.default_rng(303)
    cfg = RadarConfig(radius=1.2, sector_deg=18.0)
    betas = (5.0, 10.0, 15.0, 18.0)
    for scene in range(1000):
        n_ped = int(rng.integers(0, 31))
        n_wall = int(rng.integers(0, 11))
        p = rng.uniform(-1, 1, 2)
        ang = float(rng.uniform(0, TWO_PI))
        head = np.array([math.cos(ang), math.sin(ang)])
        v = head * float(rng.uniform(0.5, 2.0))
        others = p + rng.uniform(-2.0, 2.0, (n_ped, 2))
        others_vel = rng.uniform(-1, 1, (n_ped, 2))
        wall_pts = []
        for _ in range(n_wall):
            a = p + rng.uniform(-4, 4, 2)
            b = a + rng.uniform(-5, 5, 2)
            if math.hypot(b[0] - a[0], b[1] - a[1]) < 1e-2:
                b = a + np.array([1.0, 0.0])
            wall_pts.append(((float(a[0]), float(a[1])), (float(b[0]), float(b[1]))))
        segs = np.array(wall_pts).reshape(-1, 2, 2)
        mode = StaticVelocityMode.MINUS_OWN if scene % 2 == 0 else StaticVelocityMode.ZERO

        got = radar_neighbors(p, v, head, others, others_vel, segs, cfg, mode)
        kinds, indices, rel_pos, rel_vel = _oracle_radar(
            p, v, head, others, others_vel, wall_pts, cfg, mode
        )
        assert got.kinds.tolist() == kinds.tolist()
        assert got.indices.tolist() == indices.tolist()
        np.testing.assert_allclose(got.rel_positions, rel_pos, rtol=0, atol=1e-9)
        np.testing.assert_allclose(got.rel_velocities, rel_vel, rtol=0, atol=1e-9)

        rcfg = RayScanConfig(step_deg=betas[scene % 4], exit_distance=20.0)
        scan = forward_wall_rays(p, head, segs, rcfg)
        want_rel, want_idx = _oracle_rays(p, head, wall_pts, rcfg)
        assert scan.wall_indices.tolist() == want_idx.tolist()
        np.testing.assert_allclose(scan.rel_points, want_rel, rtol=1e-9, atol=1e-9)

    worst_rel = 0.0
    for _ in range(50):
        wx = float(rng.uniform(6, 12))
        wy = float(rng.uniform(4, 8))
        box = (
            float(rng.uniform(0.1, 0.25) * wx),
            float(rng.uniform(0.75, 0.9) * wx),
            float(rng.uniform(0.1, 0.25) * wy),
            float(rng.uniform(0.75, 0.9) * wy),
        )
        n_sites = int(rng.integers(4, 13))
        sites = []
        while len(sites) < n_sites:
            cand = rng.uniform((0.3, 0.3), (wx - 0.3, wy - 0.3))
            if all((cand[0] - s[0]) ** 2 + (cand[1] - s[1]) ** 2 >= 0.25 for s in sites):
                sites.append((float(cand[0]), float(cand[1])))
        speeds = rng.uniform(0.4, 1.8, n_sites)
        walkable = [(0.0, 0.0), (wx, 0.0), (wx, wy), (0.0, wy)]
        m_poly = [
            (box[0], box[2]),
            (box[1], box[2]),
            (box[1], box[3]),
            (box[0], box[3]),
        ]
        res = voronoi_measures(sites, speeds, walkable, m_poly, width=wy)
        assert res is not None
        rho_mc = _mc_density(rng, sites, wx, wy, box)
        worst_rel = max(worst_rel, abs(res[0] - rho_mc) / res[0])
    assert worst_rel < 0.01
    print(
        "criterion 3 PASS: 1000 scenes with exact sector/ray agreement "
        f"(coordinates to 1e-9), Voronoi density within {worst_rel:.2%} "
        "of a 1e6-sample Monte-Carlo oracle on 50 scenes (< 1%)"
    )


# ---------------------------------------------------------------- criterion 4


def _line(pid, enter, start, step_vec, n_pts, dt=0.5):
    pos = np.asarray(start, dtype=float) + np.arange(n_pts)[:, None] * np.asarray(step_vec, dtype=float)
    vel = np.diff(pos, axis=0) / dt
    return Trajectory(id=pid, enter_step=enter, positions=pos, velocities=vel, dt=dt)


def test_criterion_4_metric_identities():
    # simulation identical to experiment: every error is exactly zero
    rng = np.random.default_rng(404)
    expt = {}
    for pid in range(1, 4):
        start = rng.uniform(0, 4, 2)
        pos = np.vstack([start, start + np.cumsum(rng.uniform(-0.4, 0.4, (14, 2)), axis=0)])
        vel = np.diff(pos, axis=0) / 0.5
        expt[pid] = Trajectory(id=pid, enter_step=pid, positions=pos, velocities=vel, dt=0.5)
    ident = TrajectoryPair(expt, expt)
    ete0, pete0 = ete_pete(ident)
    tte0, ptte0 = tte_ptte(ident)
    assert ete0 == 0.0 and pete0 == 0.0
    assert set(tte0.values.values()) == {0.0} and set(ptte0.values.values()) == {0.0}
    assert set(tde(ident).values.values()) == {0.0}
    assert set(fde(ident).values.values()) == {0.0}

    # hand-computed two-pedestrian case (dt = 0.5 s)
    #   ped 1: expt 10 steps at 1 m/s (x 0..5), sim 6 steps at 2 m/s (x 0..6)
    #   ped 2: expt 8 steps along y=1, sim 10 steps along y=2, both entering
    #   at step 2
    pair = TrajectoryPair(
        {
            1: _line(1, 0, (0.0, 0.0), (0.5, 0.0), 11),
            2: _line(2, 2, (0.0, 1.0), (0.5, 0.0), 9),
        },
        {
            1: _line(1, 0, (0.0, 0.0), (1.0, 0.0), 7),
            2: _line(2, 2, (0.0, 2.0), (0.5, 0.0), 11),
        },
    )
    ete_v, pete_v = ete_pete(pair)
    # egress spans: expt (10 - 0) * 0.5 = 5 s, sim (12 - 0) * 0.5 = 6 s
    assert ete_v == pytest.approx(1.0, abs=1e-9)
    assert pete_v == pytest.approx(0.2, abs=1e-9)
    tte_t, ptte_t = tte_ptte(pair)
    assert tte_t.values == pytest.approx({1: 2.0, 2: 1.0}, abs=1e-9)
    assert ptte_t.values == pytest.approx({1: 0.4, 2: 0.25}, abs=1e-9)
    assert tte_t.mean == pytest.approx(1.5, abs=1e-9)
    assert tte_t.p95 == pytest.approx(2.0, abs=1e-9)
    # ped 1: expt half-integer points sit 0.5 from the integer sim points
    # (5 of 11), ped 2: constant lateral offset of 1
    tde_t = tde(pair)
    assert tde_t.values == pytest.approx({1: 2.5 / 11.0, 2: 1.0}, abs=1e-9)
    fde_t = fde(pair)
    assert fde_t.values == pytest.approx({1: 1.0, 2: math.sqrt(2.0)}, abs=1e-9)
    assert fde_t.p95 == pytest.approx(math.sqrt(2.0), abs=1e-9)

    # flow identity at every emitted profile sample
    walkable = [(0.0, 0.0), (10.0, 0.0), (10.0, 6.0), (0.0, 6.0)]
    area = [(3.0, 1.0), (7.0, 1.0), (7.0, 5.0), (3.0, 5.0)]
    width = 4.0
    crowd = {}
    for pid in range(1, 7):
        start = rng.uniform((1.0, 1.0), (9.0, 5.0))
        pos = np.vstack([start, start + np.cumsum(rng.uniform(-0.3, 0.3, (40, 2)), axis=0)])
        pos[:, 0] = np.clip(pos[:, 0], 0.4, 9.6)
        pos[:, 1] = np.clip(pos[:, 1], 0.4, 5.6)
        vel = np.diff(pos, axis=0) / 0.5
        crowd[pid] = Trajectory(
            id=pid, enter_step=int(rng.integers(0, 4)), positions=pos, velocities=vel, dt=0.5
        )
    series = profiles(crowd, walkable, area, width=width, label="identity")
    assert len(series) >= 20
    worst = 0.0
    for i in range(len(series)):
        worst = max(
            worst,
            abs(series.flow[i] - series.density[i] * series.velocity[i] * width),
        )
    rows = fundamental_diagram([series])
    for _, _, rho_r, vel_r, spec in rows:
        worst = max(worst, abs(spec - rho_r * vel_r))
    assert worst <= 1e-9
    print(
        "criterion 4 PASS: identity pair gives exact zeros, two-pedestrian "
        f"hand case reproduced to 1e-9, flow identity holds at all "
        f"{len(series)} profile samples (worst {worst:.2g})"
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_feature_dimensions(tmp_path):
    radar = RadarConfig(sector_deg=18.0)
    assert radar.n_sectors == 20
    assert RayScanConfig(step_deg=5.0).n_rays == 37
    assert RayScanConfig(step_deg=18.0).n_rays == 11
    assert feature_dim(radar, RayScanConfig(step_deg=5.0)) == 156
    assert feature_dim(radar, RayScanConfig(step_deg=18.0)) == 104

    # the same dimensions must be asserted when a run config is loaded
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--n-train", "4", "--n-test", "2"]) == 0
    cfg_18 = cli.load_run_config(data / "run.json", {})
    assert cfg_18.scenario.feature_dim == 104
    assert cfg_18.architecture().feature_dim == 104

    doc = json.loads((data / "run.json").read_text())
    doc["rays"] = {"step_deg": 5.0}
    narrow = data / "run-narrow.json"
    narrow.write_text(json.dumps(doc))
    cfg_5 = cli.load_run_config(narrow, {})
    assert cfg_5.scenario.feature_dim == 156
    assert cfg_5.architecture().feature_dim == 156
    print(
        "criterion 5 PASS: 18/5 degrees -> F=156 and 18/18 degrees -> F=104, "
        "both via the formulas and at config load"
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_end_to_end_smoke(tmp_path):
    data = tmp_path / "smoke"
    assert cli.main(["synth", "--geometry", "corridor", "--out", str(data)]) == 0
    config = data / "run.json"

    start = time.perf_counter()
    assert cli.main(["train", "--config", str(config)]) == 0
    train_s = time.perf_counter() - start
    assert train_s < 900.0

    with (data / "out" / "training_log.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    initial = float(rows[0]["val_loss"])
    final = float(rows[-1]["val_loss"])
    iterations = int(rows[-1]["iteration"])
    reduction = 1.0 - final / initial
    assert iterations <= 3000
    assert reduction >= 0.90

    artifact = data / "out" / "model.bin"
    assert cli.main(["simulate", "--config", str(config), "--artifact", str(artifact)]) == 0
    report = json.loads((data / "out" / "test.report.json").read_text())
    assert report["step_cap_exceeded"] is False

    assert (
        cli.main(
            [
                "evaluate",
                "--scenario", str(data / "scenario.json"),
                "--experiment", str(data / "test.txt"),
                "--simulation", str(data / "out" / "test.sim.txt"),
                "--output-dir", str(data / "eval"),
            ]
        )
        == 0
    )
    metrics = json.loads((data / "eval" / "metrics.json").read_text())
    mean_tde = metrics["tde_m"]["mean"]
    assert mean_tde < 0.1
    print(
        f"criterion 6 PASS: val loss down {reduction:.1%} in {iterations} "
        f"iterations ({train_s:.1f}s), no step-cap trips, mean TDE "
        f"{mean_tde:.3f} m < 0.1 m on {metrics['n_pedestrians']} pedestrians"
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_external_reproduction_documented():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    assert "## External datasets" in text
    for needle in ("synth", "train", "simulate", "evaluate", "sweep"):
        assert f"crowdtcn {needle}" in text
    # published-scale numbers need the full external recordings; at desk
    # scale only the pipeline documentation is gated, not those numbers
    print(
        "criterion 7 PASS (documentation only): external-dataset "
        "reproduction pipeline documented in README; full-scale numbers "
        "are a stretch target, not a gate"
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_byte_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--n-train", "10", "--n-test", "3"]) == 0
    config = data / "run.json"
    digests = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        args = ["--config", str(config), "--iterations", "80", "--output-dir", str(run_dir)]
        assert cli.main(["train", *args]) == 0
        assert cli.main(["simulate", *args, "--artifact", str(run_dir / "model.bin")]) == 0
        model = (run_dir / "model.bin").read_bytes()
        sim = (run_dir / "test.sim.txt").read_bytes()
        digests.append((hashlib.sha256(model).hexdigest(), hashlib.sha256(sim).hexdigest()))
    assert digests[0] == digests[1]
    print(
        "criterion 8 PASS: two consecutive seeded runs produced byte-identical "
        f"model ({digests[0][0][:12]}) and trajectory file ({digests[0][1][:12]})"
    )
