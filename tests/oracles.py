"""Independent reference implementations shared by the test modules.

Everything here is deliberately written in the most direct way possible
(nested loops, dense sampling, straight formula transcription) so it can
serve as an oracle for the production code without sharing its structure.
"""

import math
from typing import NamedTuple

import numpy as np

from crowdtcn.geometry import EPS_GEO, DegenerateSites
from crowdtcn.ingest import frames_at


def solve_ray_segment(origin, direction, a, b):
    """Direct 2x2 linear solve of origin + t*d = a + u*(b - a); None if no hit."""
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mat = np.column_stack([direction, a - b])
    if abs(np.linalg.det(mat)) < 1e-12:
        return None
    t, u = np.linalg.solve(mat, a - origin)
    if t < 0 or u < 0 or u > 1:
        return None
    return origin + t * direction


def nearest_ray_hit(origin, direction, walls):
    """Exhaustive scan over walls; returns (point, wall index) or None."""
    best_t, best = np.inf, None
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    for i, (a, b) in enumerate(walls):
        pt = solve_ray_segment(origin, direction, a, b)
        if pt is None:
            continue
        t = float(np.dot(pt - origin, direction))
        if t < best_t - 1e-9:
            best_t, best = t, (pt, i)
    return best


def sector_of(angles, base, sector_rad, n):
    rel = np.mod(np.asarray(angles) - base, 2.0 * np.pi)
    return np.minimum(np.floor(rel / sector_rad).astype(int), n - 1)


def sampled_sector_neighbors(position, heading, others, walls, radius, sector_deg, samples=4096):
    """Dense-sampling oracle for the per-sector nearest entity.

    others: (m, 2) pedestrian positions. walls: list of (a, b) pairs, each
    sampled at `samples` evenly spaced points. Returns per sector a dict:
    {"ped": (dist, index) | None, "walls": {wall index: dist}} where wall
    distances are within-radius sampled minima (upper bounds on the true
    constrained minima, accurate to the sampling spacing).
    """
    position = np.asarray(position, dtype=float)
    heading = np.asarray(heading, dtype=float)
    n = round(360.0 / sector_deg)
    sector_rad = np.radians(sector_deg)
    base = np.arctan2(-heading[1], -heading[0])
    out = [{"ped": None, "walls": {}} for _ in range(n)]

    others = np.asarray(others, dtype=float).reshape(-1, 2)
    if len(others):
        rel = others - position
        d = np.hypot(rel[:, 0], rel[:, 1])
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        sec = sector_of(ang, base, sector_rad, n)
        for i in range(len(others)):
            if d[i] > radius:
                continue
            cur = out[sec[i]]["ped"]
            if cur is None or (d[i], i) < cur:
                out[sec[i]]["ped"] = (float(d[i]), i)

    ts = np.linspace(0.0, 1.0, samples)[:, None]
    for w_idx, (a, b) in enumerate(walls):
        pts = np.asarray(a, dtype=float) + ts * (np.asarray(b, dtype=float) - np.asarray(a, dtype=float))
        rel = pts - position
        d = np.hypot(rel[:, 0], rel[:, 1])
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        sec = sector_of(ang, base, sector_rad, n)
        order = np.argsort(d, kind="stable")
        seen_first = {}
        for i in order:
            s = int(sec[i])
            if s not in seen_first:
                seen_first[s] = float(d[i])
        for s, dist in seen_first.items():
            if dist <= radius:
                out[s]["walls"][w_idx] = dist
    return out


def conv_eq1(inputs, kernel, dilation):
    """Nested-loop transcription of the dilated causal convolution.

    inputs: (T, Cin); kernel: (Cout, Cin, q). Output (T, Cout) with
    out[e] = sum_g kernel[:, :, g] @ inputs[e - dilation * g], zero-padded.
    """
    T, cin = inputs.shape
    cout, cin2, q = kernel.shape
    assert cin == cin2
    out = np.zeros((T, cout), dtype=inputs.dtype)
    for e in range(T):
        for g in range(q):
            src = e - dilation * g
            if src < 0:
                continue
            out[e] += kernel[:, :, g] @ inputs[src]
    return out


def conv_causal(z, kernel, dilation):
    """Batched dilated causal convolution, one einsum per kernel tap:
    (B, Cin, T) -> (B, Cout, T)."""
    B, _, T = z.shape
    out = np.zeros((B, len(kernel), T), dtype=z.dtype)
    for g in range(kernel.shape[2]):
        shift = dilation * g
        if shift >= T:
            break
        out[:, :, shift:] += np.einsum("oc,bct->bot", kernel[:, :, g], z[:, :, : T - shift])
    return out


def conv_causal_backward(d_out, z, kernel, dilation):
    """Gradients of conv_causal: returns (d_z, d_kernel)."""
    T = z.shape[2]
    d_z = np.zeros_like(z)
    d_kernel = np.zeros_like(kernel)
    for g in range(kernel.shape[2]):
        shift = dilation * g
        if shift >= T:
            break
        d_kernel[:, :, g] = np.einsum("bot,bct->oc", d_out[:, :, shift:], z[:, :, : T - shift])
        d_z[:, :, : T - shift] += np.einsum("oc,bot->bct", kernel[:, :, g], d_out[:, :, shift:])
    return d_z, d_kernel


def tcn_loss_and_grads(params, arch, x, target):
    """Inference-mode TCN in the (B, C, T) layout on conv_causal, float64.

    Returns (predictions, loss, gradient dict): the batch mean of the residual
    norms and its exact gradients, with weight norm W = g * v / ||v||
    transcribed from its formula.
    """
    params = {k: np.asarray(p, dtype=np.float64) for k, p in params.items()}
    z = np.asarray(x, dtype=np.float64).transpose(0, 2, 1)
    tape = []
    for m in range(arch.n_blocks):
        cin, cout = arch.block_channels(m)
        h = arch.dilations[m]
        layers, y = [], z
        for prefix in (f"b{m}c1", f"b{m}c2"):
            v, g = params[f"{prefix}_v"], params[f"{prefix}_g"]
            norms = np.sqrt((v**2).sum(axis=(1, 2)))
            w = v * (g / norms)[:, None, None]
            a = conv_causal(y, w, h) + params[f"{prefix}_b"][None, :, None]
            layers.append((prefix, y, w, norms, a))
            y = np.maximum(a, 0)
        if cin != cout:
            skip = conv_causal(z, params[f"b{m}s_w"][:, :, None], 1)
            skip = skip + params[f"b{m}s_b"][None, :, None]
        else:
            skip = z
        s = y + skip
        tape.append((m, z, layers, s))
        z = np.maximum(s, 0)
    last = z[:, :, -1]
    pred = last @ params["out_w"].T + params["out_b"]
    r = pred - np.asarray(target, dtype=np.float64)
    residual_norms = np.sqrt((r**2).sum(axis=1))
    d_pred = r / np.maximum(residual_norms, 1e-8)[:, None] / len(r)
    grads = {"out_w": d_pred.T @ last, "out_b": d_pred.sum(axis=0)}
    d_z = np.zeros_like(z)
    d_z[:, :, -1] = d_pred @ params["out_w"]
    for m, z_in, layers, s in reversed(tape):
        cin, cout = arch.block_channels(m)
        h = arch.dilations[m]
        ds = d_z * (s > 0)
        if cin != cout:
            d_skip, d_k = conv_causal_backward(ds, z_in, params[f"b{m}s_w"][:, :, None], 1)
            grads[f"b{m}s_w"] = d_k[:, :, 0]
            grads[f"b{m}s_b"] = ds.sum(axis=(0, 2))
        else:
            d_skip = ds
        d = ds
        for prefix, y, w, norms, a in reversed(layers):
            d_a = d * (a > 0)
            grads[f"{prefix}_b"] = d_a.sum(axis=(0, 2))
            d, d_w = conv_causal_backward(d_a, y, w, h)
            v, g = params[f"{prefix}_v"], params[f"{prefix}_g"]
            vhat = v / norms[:, None, None]
            inner = (d_w * vhat).sum(axis=(1, 2))
            grads[f"{prefix}_g"] = inner
            grads[f"{prefix}_v"] = (g / norms)[:, None, None] * (d_w - inner[:, None, None] * vhat)
        d_z = d + d_skip
    return pred, float(residual_norms.mean()), grads


def tde_double_loop(expt_points, sim_points):
    """O(T^2) mean-over-experiment of min distance to any simulated point."""
    total = 0.0
    for p in expt_points:
        best = np.inf
        for s in sim_points:
            d = float(np.hypot(p[0] - s[0], p[1] - s[1]))
            best = min(best, d)
        total += best
    return total / len(expt_points)


def point_in_polygon_loop(p, polygon, include_boundary=True):
    """Per-edge even-odd membership of one point; edge points per include_boundary."""
    p = np.asarray(p, dtype=float)
    pts = np.asarray(polygon, dtype=float)
    n = len(pts)
    inside = False
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        seg = b - a
        seg_sq = float(np.dot(seg, seg))
        if seg_sq == 0.0:
            continue
        # boundary check
        t = np.dot(p - a, seg) / seg_sq
        if 0.0 <= t <= 1.0:
            closest = a + t * seg
            if np.linalg.norm(p - closest) <= EPS_GEO:
                return include_boundary
        if (a[1] > p[1]) != (b[1] > p[1]):
            x_cross = a[0] + (p[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
            if p[0] < x_cross:
                inside = not inside
    return inside


def first_self_crossing_loop(polygon):
    """First (i, j), i < j, of non-adjacent edges whose interiors cross, or None.

    Pairwise loop with scalar cross products: a crossing needs each edge's
    endpoints strictly (beyond EPS_GEO) on opposite sides of the other's line.
    """
    pts = np.asarray(polygon, dtype=float)
    n = len(pts)

    def cross(u, v):
        return float(u[0] * v[1] - u[1] * v[0])

    def straddles(s, t):
        return (s > EPS_GEO and t < -EPS_GEO) or (s < -EPS_GEO and t > EPS_GEO)

    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = pts[j], pts[(j + 1) % n]
            if straddles(cross(d - c, a - c), cross(d - c, b - c)) and straddles(
                cross(b - a, c - a), cross(b - a, d - a)
            ):
                return i, j
    return None


def shoelace_loop(polygon):
    """Signed area, positive counter-clockwise: the shoelace cross terms of
    each vertex and the next, added one at a time in Python floats; 0 below
    three vertices."""
    pts = [(float(x), float(y)) for x, y in np.asarray(polygon, dtype=float).reshape(-1, 2)]
    if len(pts) < 3:
        return 0.0
    twice = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        twice += x0 * y1 - y0 * x1
    return 0.5 * twice


def clip_halfplane_loop(pts, point, normal):
    """Per-vertex Sutherland-Hodgman step keeping (x - point) . normal <= 0."""
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


def convex_clip_loop(subject, clip):
    """Clip one polygon by a convex polygon, one edge and one vertex at a time."""
    pts = np.asarray(subject, dtype=float)
    clp = np.asarray(clip, dtype=float)
    x, y = clp[:, 0], clp[:, 1]
    if np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)) < 0:
        clp = clp[::-1]
    for i in range(len(clp)):
        a, b = clp[i], clp[(i + 1) % len(clp)]
        pts = clip_halfplane_loop(pts, a, np.array([b[1] - a[1], a[0] - b[0]]))
        if len(pts) == 0:
            break
    return pts


class LoopCell(NamedTuple):
    """One kept cell of bounded_voronoi_loop."""

    polygon: np.ndarray  # (n, 2) ordered vertices
    area: float
    site_index: int


def bounded_voronoi_loop(sites, area):
    """Each cell clipped from the whole area by every other site's bisector, in
    index order; the kept cells as a list of LoopCell."""
    pts = np.asarray(sites, dtype=float).reshape(-1, 2)
    poly = np.asarray(area, dtype=float)
    n = len(pts)
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
            cell = clip_halfplane_loop(cell, mid, normal)
        a = abs(shoelace_loop(cell))
        if a > EPS_GEO * np.ptp(poly, axis=0).max():  # rounding-noise cells too
            cells.append(LoopCell(polygon=cell, area=a, site_index=i))
    return cells


def voronoi_measures_loop(positions, speeds, walkable, measurement_area, width):
    """Area-weighted Voronoi density, velocity and flow summed cell by cell."""
    ratio_sum = weight_sum = speed_sum = 0.0
    for cell in bounded_voronoi_loop(positions, walkable):
        a = abs(shoelace_loop(convex_clip_loop(cell.polygon, measurement_area)))
        if a <= 0.0:
            continue
        ratio_sum += a / cell.area
        weight_sum += a
        speed_sum += speeds[cell.site_index] * a
    if weight_sum <= 0.0:
        return None
    rho = ratio_sum / abs(shoelace_loop(measurement_area))
    vel = speed_sum / weight_sum
    return rho, vel, rho * vel * width


def crossing_param(p0, p1, seg):
    """Scalar motion parameter in (0, 1] where p0->p1 crosses seg, else None.

    ``seg`` is a (2, 2) endpoint pair. A start within 1e-9 |b - a| of the
    line is not a crossing; a landing on it (t = 1) is; parallel motion
    never is; u may overshoot [0, 1] by 1e-9.
    """
    a, b = np.asarray(seg, dtype=float)
    e = b - a
    side0 = e[0] * (p0[1] - a[1]) - e[1] * (p0[0] - a[0])
    side1 = e[0] * (p1[1] - a[1]) - e[1] * (p1[0] - a[0])
    tol = 1e-9 * math.hypot(e[0], e[1])
    if abs(side0) <= tol:
        side0 = 0.0
    if abs(side1) <= tol:
        side1 = 0.0
    if side0 == 0.0:
        return None
    if side1 != 0.0 and (side0 > 0) == (side1 > 0):
        return None
    d = p1 - p0
    denom = d[0] * e[1] - d[1] * e[0]
    if denom == 0.0:
        return None
    rel = a - p0
    t = (rel[0] * e[1] - rel[1] * e[0]) / denom
    u = (rel[0] * d[1] - rel[1] * d[0]) / denom
    if not (-1e-9 <= u <= 1.0 + 1e-9):
        return None
    return float(t)


def first_crossing(p0, p1, segments):
    """(motion param, segment index) of the nearest crossing, else None; ties
    go to the lowest index."""
    best = None
    for i, seg in enumerate(segments):
        t = crossing_param(p0, p1, seg)
        if t is not None and (best is None or t < best[0]):
            best = (t, i)
    return best


def walk_polyline_loop(waypoints, speed, frame_rate):
    """Constant-speed samples along a polyline, one frame at a time."""
    pts = np.asarray(waypoints, dtype=float)
    vecs = np.diff(pts, axis=0)
    lengths = np.hypot(vecs[:, 0], vecs[:, 1])
    bounds = np.concatenate([[0.0], np.cumsum(lengths)])
    step = speed / frame_rate
    out = np.empty((int(math.floor(float(bounds[-1]) / step)) + 1, 2))
    for k in range(len(out)):
        s = k * step
        i = min(int(np.searchsorted(bounds, s, side="right")) - 1, len(lengths) - 1)
        out[k] = pts[i] + (s - bounds[i]) / lengths[i] * vecs[i]
    return out


def build_samples_loop(trajectories, extractor, w):
    """Window samples one at a time: a list of (window (w, F), target (2,),
    pedestrian id, step) in id then step order, each window stacked from a
    per-step dict of one pedestrian's frames."""
    tracks = list(trajectories.values())
    frames = {tr.id: {} for tr in tracks}
    first = min((tr.enter_step for tr in tracks), default=0)
    last = max((tr.last_step for tr in tracks), default=0)
    for step in range(first + 1, last + 1):
        for tr, frame in zip(*frames_at(tracks, step, extractor)):
            frames[tr.id][step] = frame
    samples = []
    for ped, traj in sorted(trajectories.items()):
        for local_t in range(w, traj.n_steps):
            t = traj.enter_step + local_t
            window = np.stack([frames[traj.id][s] for s in range(t - w + 1, t + 1)])
            samples.append((window, traj.velocities[local_t].copy(), ped, t))
    return samples
