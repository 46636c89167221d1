"""Temporal convolutional network for next-step velocity prediction.

The network stacks three residual blocks over the time axis of a lookback
window of feature frames. Each block applies two rounds of dilated causal
convolution with weight normalization, ReLU, and dropout; a skip path (a 1x1
convolution when the channel counts differ, identity otherwise) is added
before a final ReLU. A linear readout maps the last time step of the final
block to the two velocity components.

Everything is implemented directly on numpy arrays: forward inference, exact
reverse-mode gradients (including the weight-norm reparameterization and the
norm-loss subgradient), and Adam.

Convolution indexing: a kernel tap g pairs output step e with input step
e - dilation * g, with inputs before the window start treated as zero, so
each layer sees dilation * (kernel_size - 1) + 1 steps of history and output
step e never depends on inputs after e.

Layout. Activations are time-major, (B, n, C), from the (B, w, F) feature
windows to the readout, where n counts the steps a block runs at. The readout
reads only the last step of the last block, so each block runs only at the
steps that reach it: `_step_plan`, built once per kernel size, dilations and
window, walks back from the readout through each layer's taps. With window 8
and dilations 1/2/4, the blocks run at 4, 2 and 1 of the 8 steps (21
conv-layer rows per window instead of 48). For each layer and tap, the plan
holds the count of output rows that read the zero padding and the input rows
the others read: a slice when they form a progression, an index array
otherwise. A causal convolution copies its input once, one slice per tap,
into an im2col matrix (B*n_out, q*Cin) and is then one GEMM against the
(Cout, q*Cin) kernel matrix; its backward is two GEMMs (kernel and im2col
gradients) and a col2im shift-add. Taps that read only padding at every
kept step are left out, and the parameters hold only the taps that reach
into the window (8/4/2 per block at the defaults). The 1x1 skip is one GEMM
over the block's output steps. A main-path layer (conv, bias, ReLU, dropout)
is written once, in `_conv_layer` and its reverse `_conv_layer_backward`.
Weight norm is computed once per layer per forward pass, in the parameter
dtype, and each block draws both dropout masks, over its kept rows only, in
one call.
`residual_block_forward` keeps the channels-first (B, C, window) interface
and every step: it runs the all-steps plan and converts at its boundary.

Memory. What `train` holds at once scales with the training batch: the
frame table is normalized into the parameter dtype a chunk of rows at a time,
validation runs forward over chunks of the batch size, `backward` frees each
block's cache once that block's backward has run, and one iteration's
gradients are freed before the next `backward`. Past those batch-sized
arrays, `train` holds the normalized frame table, the window index and target
arrays, and parameter-sized state.

Parameters live in a name -> array dict so serialization and gradient checks
can iterate over them; Adam updates each tensor and its moments in place.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import numbers
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "ShapeMismatch",
    "EmptyBatch",
    "EmptyDataset",
    "Architecture",
    "NormStats",
    "Model",
    "TrainConfig",
    "TrainState",
    "dilated_causal_conv",
    "residual_block_forward",
    "param_shapes",
    "init_params",
    "forward",
    "loss_and_grad_output",
    "loss",
    "backward",
    "adam_init",
    "adam_step",
    "compute_stats",
    "normalize_features",
    "train",
    "save_model",
    "load_model",
]


class ShapeMismatch(ValueError):
    pass


class EmptyBatch(ValueError):
    pass


class EmptyDataset(ValueError):
    pass


@dataclass(frozen=True)
class Architecture:
    """Network shape constants.

    Defaults are the production configuration: channels 32/64/96, kernel size
    8, dilations 1/2/4 (doubling per block), lookback window 8.
    """

    feature_dim: int
    window: int = 8
    channels: tuple = (32, 64, 96)
    kernel_size: int = 8
    dilations: tuple = (1, 2, 4)
    dropout: float = 0.1

    def __post_init__(self):
        if len(self.channels) != len(self.dilations):
            raise ShapeMismatch("need one dilation per block")
        for name in ("channels", "dilations"):
            values = getattr(self, name)
            if not all(isinstance(v, numbers.Integral) and v >= 1 for v in values):
                raise ShapeMismatch(f"{name} must be positive integers, got {values}")
        if self.feature_dim < 1 or self.window < 1 or self.kernel_size < 1:
            raise ShapeMismatch("feature_dim, window, and kernel_size must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ShapeMismatch("dropout must be in [0, 1)")

    @property
    def n_blocks(self) -> int:
        return len(self.channels)

    def block_channels(self, m: int) -> tuple[int, int]:
        cin = self.feature_dim if m == 0 else self.channels[m - 1]
        return cin, self.channels[m]


def _norms_per_channel(v: np.ndarray) -> np.ndarray:
    """Frobenius norm of each output channel's slice, in v's dtype."""
    flat = v.reshape(len(v), -1)
    return np.sqrt((flat * flat).sum(axis=1))


def effective_kernel(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Weight normalization: W = g * v / ||v|| per output channel, in v's dtype."""
    norms = _norms_per_channel(v)
    if (norms == 0).any():
        raise ValueError("weight-norm direction tensor has a zero channel")
    scale = (g / norms).astype(v.dtype, copy=False)
    return v * scale.reshape((-1,) + (1,) * (v.ndim - 1))


def weight_norm_backward(d_kernel: np.ndarray, v: np.ndarray, g: np.ndarray):
    """Gradients through W = g * v / ||v||: returns (d_g, d_v), with
    d_g = <d_kernel, v> / ||v|| and d_v = (g / ||v||) * (d_kernel - d_g * v / ||v||).
    """
    norms = _norms_per_channel(v)
    shape = (-1,) + (1,) * (v.ndim - 1)
    scale = g / norms
    d_g = (d_kernel * v).reshape(len(v), -1).sum(axis=1) / norms
    d_v = scale.reshape(shape) * d_kernel
    d_v -= (scale * d_g / norms).reshape(shape) * v
    return d_g.astype(g.dtype, copy=False), d_v.astype(v.dtype, copy=False)


def _taps(kernel_size: int, dilation: int, T: int) -> int:
    """Kernel taps that reach an input step inside a window of T steps."""
    return min(kernel_size, (T - 1) // dilation + 1)


def _rows(positions) -> slice | np.ndarray:
    """Row selector: a slice when the positions form an increasing arithmetic
    progression, an index array otherwise (read-only: plans are cached)."""
    step = positions[1] - positions[0] if len(positions) > 1 else 1
    if step > 0 and all(b - a == step for a, b in zip(positions, positions[1:])):
        return slice(positions[0], positions[-1] + 1, step)
    index = np.array(positions)
    index.flags.writeable = False
    return index


class _LayerPlan(NamedTuple):
    """Rows of one causal convolution. The input holds n_in rows, the output
    n_out rows; for tap g, taps[g] = (pad, src): output rows [:pad] read the
    zero padding and rows [pad:] read input rows src."""

    n_in: int
    n_out: int
    taps: tuple


def _reads(kernel_size: int, dilation: int, out_steps) -> list[int]:
    """The input steps that a causal conv reads to produce out_steps."""
    q = _taps(kernel_size, dilation, out_steps[-1] + 1)
    return sorted({e - dilation * g for e in out_steps for g in range(q) if e >= dilation * g})


def _layer_plan(kernel_size: int, dilation: int, in_steps, out_steps) -> _LayerPlan:
    """Plan of a conv from rows at in_steps to rows at out_steps (both sorted;
    in_steps holds every step out_steps reads). Taps that read only padding
    for every output row are left out."""
    q = _taps(kernel_size, dilation, out_steps[-1] + 1) if len(out_steps) else 0
    row = {e: i for i, e in enumerate(in_steps)}
    taps = []
    for g in range(q):
        pad = bisect.bisect_left(out_steps, dilation * g)
        taps.append((pad, _rows([row[e - dilation * g] for e in out_steps[pad:]])))
    return _LayerPlan(len(in_steps), len(out_steps), tuple(taps))


@functools.lru_cache(maxsize=32)
def _step_plan(kernel_size: int, dilations: tuple, T: int, out_steps: tuple) -> tuple:
    """Per block, (conv1 plan, conv2 plan, skip rows) that compute the last
    block's output at out_steps from T input steps. Walking back from
    out_steps, each block runs at the steps its successor reads; the skip
    rows select the block's output steps among its input rows."""
    plans = []
    out = list(out_steps)
    for m in range(len(dilations) - 1, -1, -1):
        h = dilations[m]
        mid = _reads(kernel_size, h, out)
        inp = list(range(T)) if m == 0 else _reads(kernel_size, h, mid)
        skip = _rows([inp.index(e) for e in out])
        conv1, conv2 = _layer_plan(kernel_size, h, inp, mid), _layer_plan(kernel_size, h, mid, out)
        plans.append((conv1, conv2, skip))
        out = inp
    return tuple(reversed(plans))


def _im2col(z: np.ndarray, plan: _LayerPlan) -> np.ndarray:
    """(B, n_in, C) -> (B*n_out, q*C): row (b, j), column (g, c) holds the input
    row that output row j reads through tap g, zero where that is padding."""
    B, _, C = z.shape
    cols = np.empty((B, plan.n_out, len(plan.taps), C), dtype=z.dtype)
    for g, (pad, src) in enumerate(plan.taps):
        cols[:, :pad, g] = 0
        cols[:, pad:, g] = z[:, src]
    return cols.reshape(B * plan.n_out, len(plan.taps) * C)


def _col2im(d_cols: np.ndarray, plan: _LayerPlan) -> np.ndarray:
    """Adjoint of _im2col: adds each column's gradient onto the row it read.
    Returns the (B, n_in, C) gradient of the input."""
    q = len(plan.taps)
    d_cols = d_cols.reshape(-1, plan.n_out, q, d_cols.shape[1] // q)
    d_z = np.zeros((len(d_cols), plan.n_in, d_cols.shape[3]), dtype=d_cols.dtype)
    for g, (pad, src) in enumerate(plan.taps):
        d_z[:, src] += d_cols[:, pad:, g]
    return d_z


def _kernel_matrix(kernel: np.ndarray) -> np.ndarray:
    """(Cout, Cin, q) kernel -> (Cout, q*Cin) GEMM matrix, columns in
    _im2col's (g, c) order."""
    return kernel.transpose(0, 2, 1).reshape(len(kernel), -1)


def dilated_causal_conv(inputs, kernel, dilation: int) -> np.ndarray:
    """Single-sequence dilated causal convolution.

    inputs: (T, Cin); kernel: (Cout, Cin, q). Returns (T, Cout) where output
    step e sums kernel tap g against input step e - dilation * g (zero for
    negative indices), so the output has the same length and never looks
    ahead.
    """
    z = np.asarray(inputs)
    if z.ndim != 2:
        raise ShapeMismatch("inputs must be (T, Cin)")
    kernel = np.asarray(kernel)
    if kernel.ndim != 3:
        raise ShapeMismatch("kernel must be (Cout, Cin, q)")
    if z.shape[1] != kernel.shape[1]:
        raise ShapeMismatch(f"input has {z.shape[1]} channels, kernel expects {kernel.shape[1]}")
    steps = range(len(z))
    plan = _layer_plan(kernel.shape[2], dilation, steps, steps)
    return _im2col(z[None], plan) @ _kernel_matrix(kernel[:, :, : len(plan.taps)]).T


def param_shapes(arch: Architecture) -> dict[str, tuple[int, ...]]:
    """The name and shape of every parameter of arch, in initialization order:
    per block, each conv layer's direction v, gain g and bias b, then the 1x1
    skip's w and b where the channel counts differ; then the readout. Each v
    holds only the taps that reach into the window (8/4/2 at the defaults)."""
    shapes: dict[str, tuple[int, ...]] = {}
    for m in range(arch.n_blocks):
        cin, cout = arch.block_channels(m)
        q = _taps(arch.kernel_size, arch.dilations[m], arch.window)
        for prefix, c_in_layer in ((f"b{m}c1", cin), (f"b{m}c2", cout)):
            shapes[f"{prefix}_v"] = (cout, c_in_layer, q)
            shapes[f"{prefix}_g"] = (cout,)
            shapes[f"{prefix}_b"] = (cout,)
        if cin != cout:
            shapes[f"b{m}s_w"] = (cout, cin)
            shapes[f"b{m}s_b"] = (cout,)
    shapes["out_w"] = (2, arch.channels[-1])
    shapes["out_b"] = (2,)
    return shapes


def init_params(arch: Architecture, seed: int, dtype=np.float32) -> dict[str, np.ndarray]:
    """Uniform +-1/sqrt(fan_in) directions and weights; gains equal to the
    initial norms so the effective kernels match their initialization; zero
    biases."""
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(arch).items():
        if name.endswith("_g"):
            params[name] = _norms_per_channel(params[name[:-1] + "v"])
        elif name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            bound = 1.0 / np.sqrt(math.prod(shape[1:]))
            params[name] = rng.uniform(-bound, bound, shape).astype(dtype)
    return params


def _conv_layer(z, params, prefix: str, plan: _LayerPlan, mask):
    """Weight-normed causal conv (f"{prefix}_v", f"{prefix}_g") on time-major
    z (B, n_in, Cin) over the rows of plan, bias f"{prefix}_b", ReLU, then the
    dropout mask (None for no dropout). Returns (output (B, n_out, Cout),
    cache for _conv_layer_backward)."""
    v = params[f"{prefix}_v"]
    w = _kernel_matrix(effective_kernel(v, params[f"{prefix}_g"]))
    cols = _im2col(z, plan)
    a = cols @ w.T
    a += params[f"{prefix}_b"]
    r = np.maximum(a, 0)
    if mask is not None:
        r *= mask
    cache = dict(plan=plan, cols=cols, w=w, a=a, mask=mask)
    return r.reshape(len(z), plan.n_out, len(v)), cache


def _conv_layer_backward(d_r, params, grads, prefix: str, cache, input_grad=True):
    """Reverse of _conv_layer for its output gradient d_r: writes the
    parameter gradients into grads and returns the (B, n_in, Cin) gradient in
    the layer input, or None when input_grad is false."""
    d_a = d_r.reshape(cache["a"].shape) * (cache["a"] > 0)
    if cache["mask"] is not None:
        d_a *= cache["mask"]
    v = params[f"{prefix}_v"]
    grads[f"{prefix}_b"][...] = d_a.sum(axis=0, dtype=np.float64)
    d_w = (d_a.T @ cache["cols"]).reshape(len(v), v.shape[2], -1).transpose(0, 2, 1)
    grads[f"{prefix}_g"][...], grads[f"{prefix}_v"][...] = weight_norm_backward(
        d_w, v, params[f"{prefix}_g"]
    )
    if not input_grad:
        return None
    return _col2im(d_a @ cache["w"], cache["plan"])


def _block_forward(z, params, arch: Architecture, m: int, plan, dropout: float, rng, cache):
    """One residual block on time-major z (B, n_in, Cin) over the rows of plan
    (a _step_plan entry); returns (B, n_out, Cout)."""
    cin, cout = arch.block_channels(m)
    if z.shape[2] != cin:
        raise ShapeMismatch(f"block {m} expects {cin} channels, got {z.shape[2]}")
    plan1, plan2, skip = plan
    B = len(z)
    rows1, rows = B * plan1.n_out, B * plan2.n_out
    masks = (None, None)
    if dropout > 0.0:
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        both = (rng.random((rows1 + rows, cout), dtype=np.float32) >= dropout).astype(z.dtype)
        both *= 1.0 / (1.0 - dropout)
        masks = (both[:rows1], both[rows1:])
    d1, c1 = _conv_layer(z, params, f"b{m}c1", plan1, masks[0])
    d2, c2 = _conv_layer(d1, params, f"b{m}c2", plan2, masks[1])
    zs = z[:, skip].reshape(rows, cin)
    if cin != cout:
        s = zs @ params[f"b{m}s_w"].T
        s += params[f"b{m}s_b"]
        s += d2.reshape(rows, cout)
    else:
        s = d2.reshape(rows, cout) + zs
    if cache is not None:
        cache.update(skip=skip, z=zs, s=s, c1=c1, c2=c2, a1=c1["a"], a2=c2["a"])
    return np.maximum(s, 0).reshape(B, plan2.n_out, cout)


def _block_backward(d_out, params, grads, arch: Architecture, m: int, cache, input_grad: bool):
    """Reverse of _block_forward: writes the block's parameter gradients and
    returns the (B, n_in, Cin) gradient in its input (None when input_grad is
    false)."""
    cin, cout = arch.block_channels(m)
    skip = cache["skip"]
    s = cache["s"]
    ds = d_out.reshape(s.shape) * (s > 0)
    d_d1 = _conv_layer_backward(ds, params, grads, f"b{m}c2", cache["c2"])
    d_z = _conv_layer_backward(d_d1, params, grads, f"b{m}c1", cache["c1"], input_grad)
    if cin != cout:
        grads[f"b{m}s_w"][...] = ds.T @ cache["z"]
        grads[f"b{m}s_b"][...] = ds.sum(axis=0, dtype=np.float64)
        if input_grad:
            d_z[:, skip] += (ds @ params[f"b{m}s_w"]).reshape(len(d_z), -1, cin)
    elif input_grad:
        d_z[:, skip] += ds.reshape(len(d_z), -1, cin)
    return d_z


def residual_block_forward(
    z: np.ndarray,
    params: dict[str, np.ndarray],
    arch: Architecture,
    m: int,
    training: bool = False,
    rng: np.random.Generator | None = None,
    cache: dict | None = None,
) -> np.ndarray:
    """One residual block on (B, Cin, arch.window); returns (B, Cout,
    arch.window), every step (ShapeMismatch for another step count).

    The main path is conv -> weight norm -> ReLU -> dropout, twice; the skip
    path is a 1x1 convolution when the channel counts differ and identity
    otherwise; their sum passes through a final ReLU. Dropout only acts when
    training is true and requires an rng. The block runs time-major inside,
    so cache (when given) holds time-major tensors.
    """
    dropout = arch.dropout if training else 0.0
    z = np.ascontiguousarray(np.asarray(z).transpose(0, 2, 1))
    T = arch.window
    if z.shape[1] != T:
        raise ShapeMismatch(f"block input has {z.shape[1]} steps, expected {T}")
    (plan,) = _step_plan(arch.kernel_size, (arch.dilations[m],), T, tuple(range(T)))
    return _block_forward(z, params, arch, m, plan, dropout, rng, cache).transpose(0, 2, 1)


def forward(
    params: dict[str, np.ndarray],
    arch: Architecture,
    x: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
    caches: list | None = None,
):
    """Predict next-step velocities for a batch of windows.

    x: (B, w, F) already normalized. Returns (B, 2). Each block runs only at
    the steps that reach the readout. When caches is a list it is filled with
    per-block caches (with the preactivations "a1", "a2" and the residual sum
    "s" at those steps) plus the readout input for backward.
    """
    x = np.asarray(x)
    if x.ndim == 2:
        x = x[None, :, :]
    if x.shape[1] != arch.window or x.shape[2] != arch.feature_dim:
        raise ShapeMismatch(
            f"input is {x.shape[1:]}, expected ({arch.window}, {arch.feature_dim})"
        )
    dropout = arch.dropout if training else 0.0
    plans = _step_plan(arch.kernel_size, tuple(arch.dilations), arch.window, (arch.window - 1,))
    z = x
    for m, plan in enumerate(plans):
        cache: dict | None = {} if caches is not None else None
        z = _block_forward(z, params, arch, m, plan, dropout, rng, cache)
        if caches is not None:
            caches.append(cache)
    last = z[:, -1]
    pred = last @ params["out_w"].T + params["out_b"]
    if caches is not None:
        caches.append({"last": last})
    return pred


def loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Batch mean of the Euclidean norm of the residuals."""
    return loss_and_grad_output(pred, target)[0]


def loss_and_grad_output(pred: np.ndarray, target: np.ndarray):
    """Loss plus its subgradient in the predictions: r / max(||r||, 1e-8) / B."""
    if len(pred) == 0:
        raise EmptyBatch("loss over an empty batch")
    r = pred.astype(np.float64) - target.astype(np.float64)
    norms = np.sqrt((r * r).sum(axis=1))
    value = float(norms.mean())
    denom = np.maximum(norms, 1e-8)
    d_pred = (r / denom[:, None]) / len(pred)
    return value, d_pred.astype(pred.dtype)


def backward(
    params: dict[str, np.ndarray],
    arch: Architecture,
    x: np.ndarray,
    target: np.ndarray,
    training: bool = True,
    rng: np.random.Generator | None = None,
):
    """Forward + exact gradients of the loss for every parameter.

    Returns (loss value, gradient dict shaped like params).
    """
    caches: list = []
    pred = forward(params, arch, x, training=training, rng=rng, caches=caches)
    value, d_pred = loss_and_grad_output(pred, np.asarray(target))
    grads = {k: np.zeros_like(p) for k, p in params.items()}
    grads["out_w"][...] = d_pred.T @ caches.pop()["last"]
    grads["out_b"][...] = d_pred.sum(axis=0, dtype=np.float64)
    d_z = d_pred @ params["out_w"]
    # popping each block's cache frees it once its backward has run
    for m in range(arch.n_blocks - 1, -1, -1):
        d_z = _block_backward(d_z, params, grads, arch, m, caches.pop(), input_grad=m > 0)
    return value, grads


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainState:
    """Adam state over a parameter dict."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    lr: float = 1e-4


def adam_init(params: dict[str, np.ndarray], lr: float = 1e-4) -> TrainState:
    return TrainState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        lr=lr,
    )


def _adam_update(p, g, m, v, state: TrainState, correction1: float, correction2: float) -> None:
    """One Adam update of p and its moments m, v, all in place."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    p -= state.lr * (m / correction1) / (np.sqrt(v / correction2) + ADAM_EPS)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: TrainState) -> TrainState:
    """Standard Adam update with bias correction; params and moments updated
    in place, key by key."""
    if set(grads) != set(params):
        raise ShapeMismatch("gradient keys do not match parameters")
    for k, p in params.items():
        if grads[k].shape != p.shape:
            raise ShapeMismatch(f"gradient for {k} has shape {grads[k].shape}, expected {p.shape}")
    state.step += 1
    corrections = (1.0 - ADAM_BETA1**state.step, 1.0 - ADAM_BETA2**state.step)
    for k, p in params.items():
        _adam_update(p, grads[k], state.m[k], state.v[k], state, *corrections)
    return state


@dataclass(frozen=True)
class NormStats:
    """Per-feature standardization statistics (zero-variance features keep std 1)."""

    mean: np.ndarray
    std: np.ndarray


# rows that compute_stats gathers, and that train normalizes, at a time
_STATS_ROWS = 4096


def _column_sum(frames: np.ndarray, rows: np.ndarray, center=None) -> np.ndarray:
    """Column sums of frames[rows], or of its squared deviations from center,
    added one row at a time in order as sum(axis=0) adds a stacked array: each
    chunk of rows is summed from the running total, carried in as its first
    row."""
    buf = np.empty((min(len(rows), _STATS_ROWS) + 1, frames.shape[1]))
    total, first = np.zeros(frames.shape[1]), 1
    for start in range(0, len(rows), _STATS_ROWS):
        part = rows[start : start + _STATS_ROWS]
        body = buf[1 : len(part) + 1]
        np.take(frames, part, axis=0, out=body)
        if center is not None:
            np.subtract(body, center, out=body)
            np.multiply(body, body, out=body)
        total = buf[first : len(part) + 1].sum(axis=0)
        buf[0], first = total, 0
    return total


def compute_stats(frames: np.ndarray, index: np.ndarray) -> NormStats:
    """Stats over all rows of all training windows, each frame counted once
    per window that holds it: frames is an (M, F) frame table whose rows the
    (N, w) index picks for each window (ingest.Samples).

    The sums run over the window rows in order, a chunk at a time, so mean
    and std have the bits of np.mean and np.std over the stacked (N * w, F)
    rows without that copy. Features whose spread is below 1e-6 are treated
    as constant (std 1), not just exactly-zero-variance ones: a column that
    is constant up to float noise would otherwise get a tiny std, and any
    real deviation seen later (e.g. during closed-loop simulation) would
    normalize to an enormous value.
    """
    frames = np.asarray(frames, dtype=np.float64)
    rows = np.ravel(index)
    mean = _column_sum(frames, rows) / len(rows)
    std = np.sqrt(_column_sum(frames, rows, center=mean) / len(rows))
    std = np.where(std > 1e-6, std, 1.0)
    return NormStats(mean=mean, std=std)


def normalize_features(x: np.ndarray, stats: NormStats) -> np.ndarray:
    return (x - stats.mean) / stats.std


def _normalized_table(frames: np.ndarray, stats: NormStats, dtype) -> np.ndarray:
    """normalize_features(frames, stats).astype(dtype), bit for bit, written
    _STATS_ROWS rows at a time so that no float64 copy of the whole (M, F)
    frame table is made."""
    out = np.empty(frames.shape, dtype=dtype)
    for start in range(0, len(frames), _STATS_ROWS):
        part = slice(start, start + _STATS_ROWS)
        out[part] = normalize_features(frames[part], stats)
    return out


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 3000
    batch_size: int = 128
    learning_rate: float = 1e-4
    eval_every: int = 50
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        bounds = (("iterations", 0), ("batch_size", 1), ("eval_every", 1), ("seed", 0))
        for name, low in bounds:
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")


@dataclass
class Model:
    """Trained predictor: architecture, parameters, and input statistics."""

    arch: Architecture
    params: dict[str, np.ndarray]
    stats: NormStats
    meta: dict = field(default_factory=dict)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Inference on raw (unnormalized) windows (B, w, F) or (w, F).

        The simulator batches every pedestrian's window of a step into one
        call. float32 matmuls round differently for different batch shapes,
        so a window's prediction in a batch may differ from a single-window
        call in the last float32 digits.
        """
        x = np.asarray(windows, dtype=float)
        single = x.ndim == 2
        if single:
            x = x[None]
        xn = normalize_features(x, self.stats).astype(self.params["out_w"].dtype)
        pred = forward(self.params, self.arch, xn, training=False)
        out = pred.astype(float)
        return out[0] if single else out


def train(split, config: TrainConfig = TrainConfig(), arch: Architecture | None = None):
    """Minibatch Adam over the training set, tracking the best validation loss.

    split is an ingest.DatasetSplit: two ingest.Samples tables of raw windows
    over one frame table, as ingest.split makes them (ValueError otherwise).
    The frame table is normalized once into the parameter dtype, a chunk of
    rows at a time. Each minibatch is gathered from it with one fancy index,
    and validation runs over chunks of the batch size, each gathered the same
    way, so the arrays held at once scale with the batch, not with the
    validation set or a float64 copy of the table. Returns (Model with the
    best-validation parameters, log rows).
    Each log row is (iteration, train_loss, val_loss, wall_time_s);
    validation runs in inference mode before any update (iteration 0) and
    every eval_every iterations. train_loss is the most recent minibatch
    loss; the iteration-0 row reports an inference-mode loss on the first
    batch-size training rows.
    """
    training, validation = split.training, split.validation
    if not training:
        raise EmptyDataset("training set is empty")
    if not validation:
        raise EmptyDataset("validation set is empty")
    if validation.frames is not training.frames:
        raise ValueError("training and validation windows must share one frame table")
    w, f = training.index.shape[1], training.frames.shape[1]
    if arch is None:
        arch = Architecture(feature_dim=f, window=w)
    elif arch.feature_dim != f or arch.window != w:
        raise ShapeMismatch(
            f"architecture expects ({arch.window}, {arch.feature_dim}) windows, data is ({w}, {f})"
        )
    dtype = np.dtype(config.dtype)
    stats = compute_stats(training.frames, training.index)
    tx = _normalized_table(training.frames, stats, dtype)
    rows = training.index
    ty = training.targets.astype(dtype)
    vrows = validation.index
    vy = validation.targets.astype(dtype)

    params = init_params(arch, seed=config.seed, dtype=dtype)
    state = adam_init(params, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed + 1)
    n = len(rows)
    batch = min(config.batch_size, n)

    def val_loss() -> float:
        pred = [
            forward(params, arch, tx[vrows[i : i + batch]], training=False)
            for i in range(0, len(vrows), batch)
        ]
        return loss(np.concatenate(pred), vy)

    log: list[tuple[int, float, float, float]] = []
    t0 = time.monotonic()
    last_train = loss(forward(params, arch, tx[rows[:batch]], training=False), ty[:batch])
    for it in range(config.iterations + 1):
        if it % config.eval_every == 0 or it == config.iterations:
            vl = val_loss()
            # iteration 0 seeds the best unconditionally, so a NaN first loss
            # keeps the initial parameters
            if it == 0 or vl < best_val:
                best_val = vl
                best_params = {k: p.copy() for k, p in params.items()}
            log.append((it, last_train, vl, time.monotonic() - t0))
        if it == config.iterations:
            break
        idx = rng.choice(n, size=batch, replace=False)
        last_train, grads = backward(params, arch, tx[rows[idx]], ty[idx], training=True, rng=rng)
        state = adam_step(params, grads, state)
        # so that the next backward does not run with two gradient dicts alive
        del grads
    meta = {
        "train_config": asdict(config),
        "best_val_loss": best_val,
        "initial_val_loss": log[0][2],
        "final_val_loss": log[-1][2],
    }
    return Model(arch=arch, params=best_params, stats=stats, meta=meta), log


MODEL_MAGIC = b"CTCN"
MODEL_FORMAT = "crowdtcn-model"
MODEL_VERSION = 2


def save_model(path, model: Model) -> None:
    """Self-describing binary artifact: JSON header + raw little-endian tensors.

    The tensor list in the header fixes the buffer order, so identical models
    serialize to identical bytes.
    """
    tensors: list[tuple[str, np.ndarray]] = []
    for name in sorted(model.params):
        tensors.append((f"param:{name}", model.params[name]))
    tensors.append(("stats:mean", model.stats.mean))
    tensors.append(("stats:std", model.stats.std))
    header = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "arch": asdict(model.arch),
        "meta": model.meta,
        "tensors": [
            {"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)}
            for name, arr in tensors
        ],
    }
    head_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += MODEL_MAGIC
    blob += struct.pack("<II", MODEL_VERSION, len(head_bytes))
    blob += head_bytes
    for _, arr in tensors:
        blob += np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes()
    Path(path).write_bytes(bytes(blob))


def load_model(path) -> Model:
    """Read a save_model artifact; ValueError if it is not a model of its own arch."""
    raw = Path(path).read_bytes()
    if raw[:4] != MODEL_MAGIC:
        raise ValueError(f"{path} is not a model artifact (bad magic)")
    if len(raw) < 12:
        raise ValueError(f"{path} is truncated: {len(raw)} bytes, preamble needs 12")
    version, head_len = struct.unpack("<II", raw[4:12])
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    if 12 + head_len > len(raw):
        raise ValueError(f"{path} is truncated: it ends inside its header")
    header = json.loads(raw[12 : 12 + head_len].decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError(f"{path} is not a model: its header is a JSON {type(header).__name__}")
    if header.get("format") != MODEL_FORMAT:
        raise ValueError(f"unexpected artifact format tag {header.get('format')!r}")
    try:
        a = header["arch"]
        if not isinstance(a, dict):
            raise ValueError(f"{path} is not a model: its 'arch' is not an object: {a!r}")
        a.update(channels=tuple(a["channels"]), dilations=tuple(a["dilations"]))
        arch = Architecture(**a)
        offset = 12 + head_len
        params: dict[str, np.ndarray] = {}
        stats_arrays: dict[str, np.ndarray] = {}
        for spec in header["tensors"]:
            dtype = np.dtype(spec["dtype"]).newbyteorder("<")
            count = int(np.prod(spec["shape"])) if spec["shape"] else 1
            end = offset + count * dtype.itemsize
            if end > len(raw):
                raise ValueError(f"{path} is truncated: it ends inside tensor {spec['name']!r}")
            arr = np.frombuffer(raw[offset:end], dtype=dtype).reshape(spec["shape"])
            arr = arr.astype(dtype.newbyteorder("="))
            offset = end
            kind, name = spec["name"].split(":", 1)
            if kind == "param":
                params[name] = arr
            else:
                stats_arrays[name] = arr
        stats = NormStats(mean=stats_arrays["mean"], std=stats_arrays["std"])
    except KeyError as exc:
        raise ValueError(f"{path} is not a model: {exc} is missing from its header") from None
    except TypeError as exc:  # e.g. an unknown or missing Architecture field
        raise ValueError(f"{path} is not a model: bad header: {exc}") from None
    needs = {k: list(shape) for k, shape in param_shapes(arch).items()}
    has = {k: list(p.shape) for k, p in params.items()}
    for k in sorted(needs.keys() | has.keys()):
        if needs.get(k) != has.get(k):
            raise ValueError(
                f"{path} is not a model: parameter {k!r} is {has.get(k, 'absent')} "
                f"in its header and {needs.get(k, 'absent')} in its arch"
            )
    for k, arr in (("stats:mean", stats.mean), ("stats:std", stats.std)):
        if arr.shape != (arch.feature_dim,):
            raise ValueError(
                f"{path} is not a model: tensor {k!r} is {list(arr.shape)} "
                f"in its header and {[arch.feature_dim]} in its arch"
            )
    if offset != len(raw):
        raise ValueError(f"{path} has {len(raw) - offset} trailing bytes after its last tensor")
    return Model(arch=arch, params=params, stats=stats, meta=header.get("meta", {}))
