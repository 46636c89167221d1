"""Temporal convolutional network for next-step velocity prediction.

The network stacks three residual blocks over the time axis of a lookback
window of feature frames. Each block applies two rounds of dilated causal
convolution with weight normalization, ReLU, and dropout; a skip path (a 1x1
convolution when the channel counts differ, identity otherwise) is added
before a final ReLU. A linear readout maps the last time step of the final
block to the two velocity components.

Everything is implemented directly on numpy arrays: forward inference, exact
reverse-mode gradients (including the weight-norm reparameterization and the
norm-loss subgradient), and Adam. Parameters live in a flat name -> array
dict so optimizer state, serialization, and gradient checks can iterate over
them uniformly. A main-path layer (conv, bias, ReLU, dropout) is written once,
in `_conv_layer` and its reverse `_conv_layer_backward`; every convolution,
the 1x1 skip included, goes through `_conv_causal` and `_conv_causal_backward`.

Convolution indexing: a kernel tap g pairs output step e with input step
e - dilation * g, with inputs before the window start treated as zero, so
each layer sees dilation * (kernel_size - 1) + 1 steps of history and output
step e never depends on inputs after e.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

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
    "write_training_log",
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
    """Frobenius norm of each output channel's slice, in float64."""
    flat = v.reshape(len(v), -1).astype(np.float64)
    return np.sqrt((flat * flat).sum(axis=1))


def effective_kernel(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Weight normalization: W = g * v / ||v|| per output channel."""
    norms = _norms_per_channel(v)
    if (norms == 0).any():
        raise ValueError("weight-norm direction tensor has a zero channel")
    scale = (g.astype(np.float64) / norms).astype(v.dtype)
    return v * scale.reshape((-1,) + (1,) * (v.ndim - 1))


def weight_norm_backward(d_kernel: np.ndarray, v: np.ndarray, g: np.ndarray):
    """Gradients through W = g * v / ||v||: returns (d_g, d_v)."""
    norms = _norms_per_channel(v)
    shape = (-1,) + (1,) * (v.ndim - 1)
    v64 = v.astype(np.float64)
    d64 = d_kernel.astype(np.float64)
    vhat = v64 / norms.reshape(shape)
    inner = (d64.reshape(len(v), -1) * vhat.reshape(len(v), -1)).sum(axis=1)
    d_g = inner.astype(g.dtype)
    d_v = (g.astype(np.float64) / norms).reshape(shape) * (
        d64 - inner.reshape(shape) * vhat
    )
    return d_g, d_v.astype(v.dtype)


def _conv_causal(z: np.ndarray, kernel: np.ndarray, dilation: int) -> np.ndarray:
    """Batched dilated causal convolution: (B, Cin, T) -> (B, Cout, T)."""
    B, cin, T = z.shape
    cout, cin_k, q = kernel.shape
    if cin != cin_k:
        raise ShapeMismatch(f"input has {cin} channels, kernel expects {cin_k}")
    out = np.zeros((B, cout, T), dtype=z.dtype)
    for g in range(q):
        shift = dilation * g
        if shift >= T:
            break
        out[:, :, shift:] += np.einsum(
            "oc,bct->bot", kernel[:, :, g], z[:, :, : T - shift], optimize=True
        )
    return out


def _conv_causal_backward(d_out: np.ndarray, z: np.ndarray, kernel: np.ndarray, dilation: int):
    """Gradients of _conv_causal: returns (d_z, d_kernel)."""
    B, cin, T = z.shape
    cout, _, q = kernel.shape
    d_z = np.zeros_like(z)
    d_kernel = np.zeros_like(kernel)
    for g in range(q):
        shift = dilation * g
        if shift >= T:
            break
        d_kernel[:, :, g] = np.einsum(
            "bot,bct->oc", d_out[:, :, shift:], z[:, :, : T - shift], optimize=True
        )
        d_z[:, :, : T - shift] += np.einsum(
            "oc,bot->bct", kernel[:, :, g], d_out[:, :, shift:], optimize=True
        )
    return d_z, d_kernel


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
    out = _conv_causal(z.T[None, :, :], kernel, dilation)
    return out[0].T


def init_params(arch: Architecture, seed: int, dtype=np.float32) -> dict[str, np.ndarray]:
    """Uniform +-1/sqrt(fan_in) directions; gains equal to the initial norms
    so the effective kernels match their initialization; zero biases."""
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    params: dict[str, np.ndarray] = {}

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, shape).astype(dtype)

    q = arch.kernel_size
    for m in range(arch.n_blocks):
        cin, cout = arch.block_channels(m)
        for prefix, c_in_layer in ((f"b{m}c1", cin), (f"b{m}c2", cout)):
            v = uniform((cout, c_in_layer, q), c_in_layer * q)
            params[f"{prefix}_v"] = v
            params[f"{prefix}_g"] = _norms_per_channel(v).astype(dtype)
            params[f"{prefix}_b"] = np.zeros(cout, dtype=dtype)
        if cin != cout:
            params[f"b{m}s_w"] = uniform((cout, cin), cin)
            params[f"b{m}s_b"] = np.zeros(cout, dtype=dtype)
    c_last = arch.channels[-1]
    params["out_w"] = uniform((2, c_last), c_last)
    params["out_b"] = np.zeros(2, dtype=dtype)
    return params


def _conv_layer(z, params, prefix: str, dilation: int, dropout: float, rng):
    """Weight-normed causal conv (f"{prefix}_v", f"{prefix}_g"), bias f"{prefix}_b",
    ReLU, then dropout when dropout > 0. Returns (output, (a, mask, w)) with the
    pre-activation a and effective kernel w that _conv_layer_backward needs."""
    w = effective_kernel(params[f"{prefix}_v"], params[f"{prefix}_g"])
    a = _conv_causal(z, w, dilation) + params[f"{prefix}_b"][None, :, None]
    r = np.maximum(a, 0)
    mask = None
    if dropout > 0.0:
        mask = ((rng.random(r.shape) >= dropout) / (1.0 - dropout)).astype(z.dtype)
        r = r * mask
    return r, (a, mask, w)


def _conv_layer_backward(d_r, z, params, grads, prefix: str, dilation: int, cache) -> np.ndarray:
    """Reverse of _conv_layer: adds the parameter gradients into grads and
    returns the gradient in the layer input z."""
    a, mask, w = cache
    if mask is not None:
        d_r = d_r * mask
    d_a = d_r * (a > 0)
    grads[f"{prefix}_b"] += d_a.sum(axis=(0, 2), dtype=np.float64).astype(d_a.dtype)
    d_z, d_w = _conv_causal_backward(d_a, z, w, dilation)
    d_g, d_v = weight_norm_backward(d_w, params[f"{prefix}_v"], params[f"{prefix}_g"])
    grads[f"{prefix}_g"] += d_g
    grads[f"{prefix}_v"] += d_v
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
    """One residual block on (B, Cin, T); returns (B, Cout, T).

    The main path is conv -> weight norm -> ReLU -> dropout, twice; the skip
    path is a 1x1 convolution when the channel counts differ and identity
    otherwise; their sum passes through a final ReLU. Dropout only acts when
    training is true and requires an rng.
    """
    cin, cout = arch.block_channels(m)
    if z.shape[1] != cin:
        raise ShapeMismatch(f"block {m} expects {cin} channels, got {z.shape[1]}")
    h = arch.dilations[m]
    dropout = arch.dropout if training else 0.0
    if dropout > 0.0 and rng is None:
        raise ValueError("training-mode dropout needs an rng")
    d1, c1 = _conv_layer(z, params, f"b{m}c1", h, dropout, rng)
    d2, c2 = _conv_layer(d1, params, f"b{m}c2", h, dropout, rng)
    if cin != cout:
        skip = _conv_causal(z, params[f"b{m}s_w"][:, :, None], 1)
        skip = skip + params[f"b{m}s_b"][None, :, None]
    else:
        skip = z
    s = d2 + skip
    if cache is not None:
        cache.update(z=z, d1=d1, s=s, c1=c1, c2=c2, a1=c1[0], a2=c2[0])
    return np.maximum(s, 0)


def _residual_block_backward(
    d_out: np.ndarray,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    arch: Architecture,
    m: int,
    cache: dict,
) -> np.ndarray:
    cin, cout = arch.block_channels(m)
    h = arch.dilations[m]
    z = cache["z"]
    ds = d_out * (cache["s"] > 0)
    if cin != cout:
        d_skip, d_kernel = _conv_causal_backward(ds, z, params[f"b{m}s_w"][:, :, None], 1)
        grads[f"b{m}s_w"] += d_kernel[:, :, 0]
        grads[f"b{m}s_b"] += ds.sum(axis=(0, 2), dtype=np.float64).astype(ds.dtype)
    else:
        d_skip = ds
    d_d1 = _conv_layer_backward(ds, cache["d1"], params, grads, f"b{m}c2", h, cache["c2"])
    return d_skip + _conv_layer_backward(d_d1, z, params, grads, f"b{m}c1", h, cache["c1"])


def forward(
    params: dict[str, np.ndarray],
    arch: Architecture,
    x: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
    caches: list | None = None,
):
    """Predict next-step velocities for a batch of windows.

    x: (B, w, F) already normalized. Returns (B, 2). When caches is a list it
    is filled with per-block caches plus the readout input for backward.
    """
    x = np.asarray(x)
    if x.ndim == 2:
        x = x[None, :, :]
    if x.shape[1] != arch.window or x.shape[2] != arch.feature_dim:
        raise ShapeMismatch(
            f"input is {x.shape[1:]}, expected ({arch.window}, {arch.feature_dim})"
        )
    z = np.ascontiguousarray(x.transpose(0, 2, 1))
    for m in range(arch.n_blocks):
        cache: dict | None = {} if caches is not None else None
        z = residual_block_forward(z, params, arch, m, training=training, rng=rng, cache=cache)
        if caches is not None:
            caches.append(cache)
    last = z[:, :, -1]
    pred = last @ params["out_w"].T + params["out_b"]
    if caches is not None:
        caches.append({"last": last, "T": z.shape[2]})
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
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    head = caches[-1]
    grads["out_w"] += d_pred.T @ head["last"]
    grads["out_b"] += d_pred.sum(axis=0, dtype=np.float64).astype(d_pred.dtype)
    d_last = d_pred @ params["out_w"]
    d_z = np.zeros((len(d_last), arch.channels[-1], head["T"]), dtype=d_last.dtype)
    d_z[:, :, -1] = d_last
    for m in range(arch.n_blocks - 1, -1, -1):
        d_z = _residual_block_backward(d_z, params, grads, arch, m, caches[m])
    return value, grads


@dataclass
class TrainState:
    """Adam state over a parameter dict."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: dict[str, np.ndarray], lr: float = 1e-4) -> TrainState:
    return TrainState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        lr=lr,
    )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: TrainState) -> TrainState:
    """Standard Adam update with bias correction; params updated in place."""
    if set(grads) != set(params):
        raise ShapeMismatch("gradient keys do not match parameters")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**t
    correction2 = 1.0 - b2**t
    for k, p in params.items():
        gk = grads[k]
        if gk.shape != p.shape:
            raise ShapeMismatch(f"gradient for {k} has shape {gk.shape}, expected {p.shape}")
        state.m[k] = b1 * state.m[k] + (1.0 - b1) * gk
        state.v[k] = b2 * state.v[k] + (1.0 - b2) * gk * gk
        m_hat = state.m[k] / correction1
        v_hat = state.v[k] / correction2
        p -= (state.lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.dtype)
    return state


@dataclass(frozen=True)
class NormStats:
    """Per-feature standardization statistics (zero-variance features keep std 1)."""

    mean: np.ndarray
    std: np.ndarray


def compute_stats(inputs: np.ndarray) -> NormStats:
    """Stats over all rows of all training windows; inputs (N, w, F).

    Features whose spread is below 1e-6 are treated as constant (std 1), not
    just exactly-zero-variance ones: a column that is constant up to float
    noise would otherwise get a tiny std, and any real deviation seen later
    (e.g. during closed-loop simulation) would normalize to an enormous value.
    """
    flat = inputs.reshape(-1, inputs.shape[-1]).astype(np.float64)
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    std = np.where(std > 1e-6, std, 1.0)
    return NormStats(mean=mean, std=std)


def normalize_features(x: np.ndarray, stats: NormStats) -> np.ndarray:
    return (x - stats.mean) / stats.std


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 3000
    batch_size: int = 128
    learning_rate: float = 1e-4
    eval_every: int = 50
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        for name, low in (("iterations", 0), ("batch_size", 1), ("eval_every", 1)):
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


def _stack_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    inputs = np.stack([np.asarray(s.input, dtype=np.float64) for s in samples])
    targets = np.stack([np.asarray(s.target, dtype=np.float64) for s in samples])
    return inputs, targets


def train(split, config: TrainConfig = TrainConfig(), arch: Architecture | None = None):
    """Minibatch Adam over the training set, tracking the best validation loss.

    Returns (Model with the best-validation parameters, log rows). Each log
    row is (iteration, train_loss, val_loss, wall_time_s); validation runs in
    inference mode before any update (iteration 0) and every eval_every
    iterations. train_loss is the most recent minibatch loss; the iteration-0
    row reports an inference-mode loss on the first batch-size training rows.
    """
    if not split.training:
        raise EmptyDataset("training set is empty")
    if not split.validation:
        raise EmptyDataset("validation set is empty")
    train_x, train_y = _stack_samples(split.training)
    val_x, val_y = _stack_samples(split.validation)
    w, f = train_x.shape[1], train_x.shape[2]
    if arch is None:
        arch = Architecture(feature_dim=f, window=w)
    elif arch.feature_dim != f or arch.window != w:
        raise ShapeMismatch(
            f"architecture expects ({arch.window}, {arch.feature_dim}) windows, data is ({w}, {f})"
        )
    dtype = np.dtype(config.dtype)
    stats = compute_stats(train_x)
    tx = normalize_features(train_x, stats).astype(dtype)
    ty = train_y.astype(dtype)
    vx = normalize_features(val_x, stats).astype(dtype)
    vy = val_y.astype(dtype)

    params = init_params(arch, seed=config.seed, dtype=dtype)
    state = adam_init(params, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed + 1)

    def val_loss() -> float:
        return loss(forward(params, arch, vx, training=False), vy)

    n = len(tx)
    batch = min(config.batch_size, n)
    best_val = val_loss()
    best_params = {k: p.copy() for k, p in params.items()}
    log: list[tuple[int, float, float, float]] = []
    t0 = time.monotonic()
    last_train = loss(forward(params, arch, tx[:batch], training=False), ty[:batch])
    for it in range(config.iterations + 1):
        if it % config.eval_every == 0 or it == config.iterations:
            vl = val_loss()
            if vl < best_val:
                best_val = vl
                best_params = {k: p.copy() for k, p in params.items()}
            log.append((it, last_train, vl, time.monotonic() - t0))
        if it == config.iterations:
            break
        idx = rng.choice(n, size=batch, replace=False)
        value, grads = backward(params, arch, tx[idx], ty[idx], training=True, rng=rng)
        state = adam_step(params, grads, state)
        last_train = value
    meta = {
        "train_config": asdict(config),
        "best_val_loss": best_val,
        "initial_val_loss": log[0][2],
        "final_val_loss": log[-1][2],
    }
    return Model(arch=arch, params=best_params, stats=stats, meta=meta), log


def write_training_log(path, log) -> None:
    lines = ["iteration,train_loss,val_loss,wall_time_s"]
    for it, tr, vl, wt in log:
        lines.append(f"{it},{tr:.9g},{vl:.9g},{wt:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")


MODEL_MAGIC = b"CTCN"
MODEL_FORMAT = "crowdtcn-model"
MODEL_VERSION = 1


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
    raw = Path(path).read_bytes()
    if raw[:4] != MODEL_MAGIC:
        raise ValueError(f"{path} is not a model artifact (bad magic)")
    if len(raw) < 12:
        raise ValueError(f"{path} is truncated: {len(raw)} bytes, preamble needs 12")
    version, head_len = struct.unpack("<II", raw[4:12])
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    header = json.loads(raw[12 : 12 + head_len].decode("utf-8"))
    if header.get("format") != MODEL_FORMAT:
        raise ValueError(f"unexpected artifact format tag {header.get('format')!r}")
    a = header["arch"]
    a.update(channels=tuple(a["channels"]), dilations=tuple(a["dilations"]))
    arch = Architecture(**a)
    offset = 12 + head_len
    params: dict[str, np.ndarray] = {}
    stats_arrays: dict[str, np.ndarray] = {}
    for spec in header["tensors"]:
        dtype = np.dtype(spec["dtype"]).newbyteorder("<")
        count = int(np.prod(spec["shape"])) if spec["shape"] else 1
        nbytes = count * dtype.itemsize
        arr = np.frombuffer(raw[offset : offset + nbytes], dtype=dtype).reshape(spec["shape"])
        arr = arr.astype(dtype.newbyteorder("="))
        offset += nbytes
        kind, name = spec["name"].split(":", 1)
        if kind == "param":
            params[name] = arr
        else:
            stats_arrays[name] = arr
    stats = NormStats(mean=stats_arrays["mean"], std=stats_arrays["std"])
    return Model(arch=arch, params=params, stats=stats, meta=header.get("meta", {}))
