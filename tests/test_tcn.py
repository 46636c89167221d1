"""Tests for the temporal convolutional network and its training loop."""

import dataclasses
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crowdtcn import cli, tcn
from crowdtcn.ingest import DatasetSplit, Samples
from crowdtcn.tcn import (
    Architecture,
    EmptyBatch,
    EmptyDataset,
    Model,
    ShapeMismatch,
    TrainConfig,
    adam_init,
    adam_step,
    backward,
    compute_stats,
    dilated_causal_conv,
    effective_kernel,
    forward,
    init_params,
    load_model,
    loss,
    loss_and_grad_output,
    normalize_features,
    residual_block_forward,
    save_model,
    train,
    weight_norm_backward,
)

from oracles import conv_eq1, tcn_loss_and_grads


# ---------------------------------------------------------------- convolution


def test_identity_kernel_preserves_input():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(9, 4))
    kernel = np.eye(4)[:, :, None]
    out = dilated_causal_conv(z, kernel, dilation=3)
    np.testing.assert_array_equal(out, z)


def test_single_tap_is_a_dilated_shift():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(12, 1))
    # only tap g=2 is active, so out[e] = z[e - 2 * dilation]
    kernel = np.zeros((1, 1, 3))
    kernel[0, 0, 2] = 1.0
    out = dilated_causal_conv(z, kernel, dilation=2)
    np.testing.assert_array_equal(out[:4], np.zeros((4, 1)))
    np.testing.assert_allclose(out[4:], z[:-4], rtol=0, atol=0)


def test_conv_matches_nested_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(40):
        T = int(rng.integers(1, 14))
        cin = int(rng.integers(1, 5))
        cout = int(rng.integers(1, 5))
        q = int(rng.integers(1, 6))
        h = int(rng.integers(1, 5))
        z = rng.normal(size=(T, cin))
        k = rng.normal(size=(cout, cin, q))
        got = dilated_causal_conv(z, k, h)
        want = conv_eq1(z, k, h)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_conv_is_causal():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(16, 3))
    k = rng.normal(size=(2, 3, 4))
    base = dilated_causal_conv(z, k, 2)
    z2 = z.copy()
    z2[9] += 5.0
    bumped = dilated_causal_conv(z2, k, 2)
    # steps before the perturbation are untouched, the perturbed step changes
    np.testing.assert_array_equal(bumped[:9], base[:9])
    assert np.abs(bumped[9:] - base[9:]).max() > 0


def test_receptive_span():
    q, h = 4, 3
    span = h * (q - 1) + 1  # 10
    T = 24
    k = np.ones((1, 1, q))
    z = np.zeros((T, 1))
    base = dilated_causal_conv(z, k, h)
    # a bump just outside the span of the last step leaves it unchanged
    outside = z.copy()
    outside[T - 1 - span] = 1.0
    assert dilated_causal_conv(outside, k, h)[-1, 0] == base[-1, 0]
    # the oldest step inside the span is an active tap
    inside = z.copy()
    inside[T - 1 - (span - 1)] = 1.0
    assert dilated_causal_conv(inside, k, h)[-1, 0] != base[-1, 0]


def test_conv_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        dilated_causal_conv(np.zeros((4, 3)), np.zeros((2, 5, 2)), 1)
    with pytest.raises(ShapeMismatch):
        dilated_causal_conv(np.zeros(4), np.zeros((1, 1, 1)), 1)


# ---------------------------------------------------------------- weight norm


def test_effective_kernel_channel_norms_equal_gains():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(5, 3, 4))
    g = rng.uniform(0.5, 2.0, size=5)
    w = effective_kernel(v, g)
    norms = np.sqrt((w.reshape(5, -1) ** 2).sum(axis=1))
    np.testing.assert_allclose(norms, g, rtol=1e-12)


def test_effective_kernel_scale_invariance():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(4, 2, 3))
    g = rng.uniform(0.5, 2.0, size=4)
    w1 = effective_kernel(v, g)
    w2 = effective_kernel(3.7 * v, g)
    np.testing.assert_allclose(w1, w2, rtol=1e-12, atol=1e-14)


def test_weight_norm_backward_finite_difference():
    rng = np.random.default_rng(6)
    v = rng.normal(size=(3, 2, 4))
    g = rng.uniform(0.5, 2.0, size=3)
    a = rng.normal(size=v.shape)  # L = sum(a * W)

    def value(vv, gg):
        return float((a * effective_kernel(vv, gg)).sum())

    d_g, d_v = weight_norm_backward(a, v, g)
    step = 1e-6
    for i in range(3):
        gp, gm = g.copy(), g.copy()
        gp[i] += step
        gm[i] -= step
        fd = (value(v, gp) - value(v, gm)) / (2 * step)
        assert abs(fd - d_g[i]) < 1e-6
    for idx in np.ndindex(v.shape):
        vp, vm = v.copy(), v.copy()
        vp[idx] += step
        vm[idx] -= step
        fd = (value(vp, g) - value(vm, g)) / (2 * step)
        assert abs(fd - d_v[idx]) < 1e-6


# ------------------------------------------------------------- residual block


def _small_arch(feature_dim=4, window=6, channels=(3, 4), q=3, dilations=(1, 2), dropout=0.0):
    return Architecture(
        feature_dim=feature_dim,
        window=window,
        channels=channels,
        kernel_size=q,
        dilations=dilations,
        dropout=dropout,
    )


def test_block_zero_input_gives_zero_output():
    arch = _small_arch()
    params = init_params(arch, seed=0, dtype=np.float64)
    z = np.zeros((2, arch.feature_dim, arch.window))
    out = residual_block_forward(z, params, arch, m=0)
    np.testing.assert_array_equal(out, np.zeros((2, arch.channels[0], arch.window)))


def test_block_identity_skip_when_channels_match():
    # with the main path silenced (zero gains) an equal-channel block is ReLU
    arch = _small_arch(channels=(4, 4))
    params = init_params(arch, seed=1, dtype=np.float64)
    params["b1c1_g"][:] = 0.0
    params["b1c2_g"][:] = 0.0
    assert "b1s_w" not in params
    rng = np.random.default_rng(2)
    z = rng.normal(size=(3, 4, arch.window))
    out = residual_block_forward(z, params, arch, m=1)
    np.testing.assert_allclose(out, np.maximum(z, 0), rtol=0, atol=0)


def _reference_block(z, params, arch, m):
    """Loop-based transcription of the block for cross-checking."""
    cin, cout = arch.block_channels(m)
    h = arch.dilations[m]
    pref = f"b{m}"
    w1 = effective_kernel(params[f"{pref}c1_v"], params[f"{pref}c1_g"])
    w2 = effective_kernel(params[f"{pref}c2_v"], params[f"{pref}c2_g"])
    out = np.empty((len(z), cout, z.shape[2]), dtype=z.dtype)
    for b in range(len(z)):
        seq = z[b].T  # (T, cin)
        a1 = conv_eq1(seq, w1, h) + params[f"{pref}c1_b"]
        r1 = np.maximum(a1, 0)
        a2 = conv_eq1(r1, w2, h) + params[f"{pref}c2_b"]
        r2 = np.maximum(a2, 0)
        if cin != cout:
            skip = seq @ params[f"{pref}s_w"].T + params[f"{pref}s_b"]
        else:
            skip = seq
        out[b] = np.maximum(r2 + skip, 0).T
    return out


def test_block_matches_reference():
    rng = np.random.default_rng(7)
    for m in (0, 1):
        arch = _small_arch()
        params = init_params(arch, seed=11, dtype=np.float64)
        for key in params:  # nonzero biases exercise every term
            if key.endswith("_b"):
                params[key] = rng.normal(size=params[key].shape)
        cin = arch.block_channels(m)[0]
        z = rng.normal(size=(3, cin, arch.window))
        got = residual_block_forward(z, params, arch, m=m)
        want = _reference_block(z, params, arch, m)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_block_rejects_wrong_channel_count():
    arch = _small_arch()
    params = init_params(arch, seed=0)
    with pytest.raises(ShapeMismatch):
        residual_block_forward(np.zeros((1, 7, arch.window)), params, arch, m=0)
    # the parameters hold only the taps a window reaches, so a block runs at
    # the window's step count and no other
    with pytest.raises(ShapeMismatch, match="steps"):
        residual_block_forward(np.zeros((1, arch.feature_dim, arch.window + 1)), params, arch, m=0)


# -------------------------------------------------------------------- forward


def _reference_forward(params, arch, x):
    z = x.transpose(0, 2, 1)
    for m in range(arch.n_blocks):
        z = _reference_block(z, params, arch, m)
    return z[:, :, -1] @ params["out_w"].T + params["out_b"]


def test_forward_matches_reference():
    arch = _small_arch()
    params = init_params(arch, seed=3, dtype=np.float64)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, arch.window, arch.feature_dim))
    got = forward(params, arch, x)
    want = _reference_forward(params, arch, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_forward_deterministic_in_inference_mode():
    arch = _small_arch(dropout=0.5)
    params = init_params(arch, seed=4)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, arch.window, arch.feature_dim)).astype(np.float32)
    a = forward(params, arch, x, training=False)
    b = forward(params, arch, x, training=False)
    np.testing.assert_array_equal(a, b)


def test_forward_zero_readout_gives_zero():
    arch = _small_arch()
    params = init_params(arch, seed=5, dtype=np.float64)
    params["out_w"][:] = 0.0
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, arch.window, arch.feature_dim))
    np.testing.assert_array_equal(forward(params, arch, x), np.zeros((3, 2)))


def test_forward_rejects_wrong_window():
    arch = _small_arch()
    params = init_params(arch, seed=0)
    with pytest.raises(ShapeMismatch):
        forward(params, arch, np.zeros((2, arch.window + 1, arch.feature_dim)))


CORRIDOR_ARCH = Architecture(feature_dim=104)  # widths 32/64/96, q = 8, dilations 1/2/4


def _corridor_case(dtype, batch=16, seed=30):
    params = init_params(CORRIDOR_ARCH, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for key in params:  # nonzero biases exercise every term
        if key.endswith("_b"):
            params[key][...] = rng.normal(scale=0.1, size=params[key].shape)
    x = rng.normal(size=(batch, CORRIDOR_ARCH.window, CORRIDOR_ARCH.feature_dim)).astype(dtype)
    y = rng.normal(size=(batch, 2)).astype(dtype)
    return params, x, y


def test_forward_and_gradients_match_oracle_network_float64():
    params, x, y = _corridor_case(np.float64)
    pred_want, loss_want, grads_want = tcn_loss_and_grads(params, CORRIDOR_ARCH, x, y)
    np.testing.assert_allclose(forward(params, CORRIDOR_ARCH, x), pred_want, rtol=0, atol=1e-10)
    value, grads = backward(params, CORRIDOR_ARCH, x, y, training=False)
    assert value == pytest.approx(loss_want, rel=0, abs=1e-10)
    assert set(grads) == set(grads_want)
    for k in grads:
        np.testing.assert_allclose(grads[k], grads_want[k], rtol=0, atol=1e-10, err_msg=k)


def test_forward_and_gradients_match_oracle_network_float32():
    # the oracle runs in float64 on the same float32 parameters and inputs;
    # the errors seen are about 5e-7 of each tensor's largest entry
    params, x, y = _corridor_case(np.float32)
    pred_want, _, grads_want = tcn_loss_and_grads(params, CORRIDOR_ARCH, x, y)

    def rel(got, want):
        return float(np.abs(got - want).max() / np.abs(want).max())

    pred = forward(params, CORRIDOR_ARCH, x)
    assert pred.dtype == np.float32
    assert rel(pred, pred_want) < 1e-4
    _, grads = backward(params, CORRIDOR_ARCH, x, y, training=False)
    for k in grads:
        assert grads[k].dtype == np.float32, k
        assert rel(grads[k], grads_want[k]) < 1e-4, k


def test_residual_blocks_keep_the_channels_first_boundary():
    params, x, _ = _corridor_case(np.float64, batch=3)
    z = x.transpose(0, 2, 1)
    for m in range(CORRIDOR_ARCH.n_blocks):
        cin, cout = CORRIDOR_ARCH.block_channels(m)
        assert z.shape == (3, cin, CORRIDOR_ARCH.window)
        z = residual_block_forward(z, params, CORRIDOR_ARCH, m)
        assert z.shape == (3, cout, CORRIDOR_ARCH.window)
    pred = z[:, :, -1] @ params["out_w"].T + params["out_b"]
    np.testing.assert_allclose(pred, forward(params, CORRIDOR_ARCH, x), rtol=0, atol=1e-12)


def _random_arch(rng):
    n_blocks = int(rng.integers(1, 4))
    return Architecture(
        feature_dim=int(rng.integers(1, 6)),
        window=int(rng.integers(1, 17)),
        channels=tuple(int(c) for c in rng.integers(1, 6, n_blocks)),
        kernel_size=int(rng.integers(1, 9)),
        dilations=tuple(int(d) for d in rng.integers(1, 7, n_blocks)),
        dropout=0.0,
    )


@pytest.mark.parametrize(
    "arch",
    [
        # dilations that are not powers of two
        _small_arch(window=12, channels=(3, 4, 4), q=3, dilations=(1, 3, 5)),
        # kernel 8 at dilation 1 reads every step of the window: nothing to prune below the top
        _small_arch(window=6, channels=(3, 3), q=8, dilations=(1, 1)),
        # a one-step window has nothing to prune at all
        _small_arch(window=1, channels=(2, 3), q=4, dilations=(2, 3)),
        *(_random_arch(np.random.default_rng(seed)) for seed in range(40)),
    ],
)
def test_pruned_forward_and_gradients_match_oracle(arch):
    # each direction tensor holds exactly the taps its layer's step plan reads
    shapes = tcn.param_shapes(arch)
    plans = tcn._step_plan(arch.kernel_size, arch.dilations, arch.window, (arch.window - 1,))
    for m, (conv1, conv2, _) in enumerate(plans):
        assert shapes[f"b{m}c1_v"][2] == len(conv1.taps)
        assert shapes[f"b{m}c2_v"][2] == len(conv2.taps)
    rng = np.random.default_rng(arch.window * 100 + arch.kernel_size)
    params = init_params(arch, seed=1, dtype=np.float64)
    for key in params:  # jitter off the initialization: nonzero biases, generic gains
        params[key] = params[key] + rng.uniform(-0.25, 0.25, params[key].shape)
    x = rng.normal(size=(3, arch.window, arch.feature_dim))
    y = rng.normal(size=(3, 2))
    pred_want, loss_want, grads_want = tcn_loss_and_grads(params, arch, x, y)
    np.testing.assert_allclose(forward(params, arch, x), pred_want, rtol=0, atol=1e-10)
    value, grads = backward(params, arch, x, y, training=False)
    assert value == pytest.approx(loss_want, rel=0, abs=1e-10)
    for k in grads_want:
        np.testing.assert_allclose(grads[k], grads_want[k], rtol=0, atol=1e-10, err_msg=k)


def test_blocks_run_only_at_the_steps_the_readout_reaches():
    # window 8, dilations 1/2/4: the readout reads block 2 at step 7, which reads
    # block 1 at steps 3 and 7, which reads block 0 at steps 1, 3, 5 and 7
    batch = 5
    params, x, y = _corridor_case(np.float64, batch=batch)
    caches: list = []
    forward(params, CORRIDOR_ARCH, x, training=True, rng=np.random.default_rng(0), caches=caches)
    assert [len(c["s"]) // batch for c in caches[:-1]] == [4, 2, 1]
    assert [len(c["a1"]) // batch for c in caches[:-1]] == [8, 4, 2]
    for c in caches[:-1]:
        assert c["c1"]["mask"].shape == c["a1"].shape
        assert c["c2"]["mask"].shape == c["a2"].shape


def test_residual_block_forward_keeps_every_step():
    rng = np.random.default_rng(12)
    arch = _small_arch(window=9, channels=(3, 5), q=4, dilations=(3, 2))
    params = init_params(arch, seed=2, dtype=np.float64)
    z = rng.normal(size=(2, arch.feature_dim, arch.window))
    for m in range(arch.n_blocks):
        out = residual_block_forward(z, params, arch, m)
        assert out.shape == (2, arch.channels[m], arch.window)
        np.testing.assert_allclose(out, _reference_block(z, params, arch, m), rtol=0, atol=1e-12)
        z = out


def test_default_architecture_constants():
    arch = Architecture(feature_dim=156)
    assert arch.channels == (32, 64, 96)
    assert arch.kernel_size == 8
    assert arch.dilations == (1, 2, 4)
    assert arch.window == 8
    assert arch.dropout == 0.1
    # deepest layer sees dilation * (q - 1) + 1 = 29 steps of history
    assert arch.dilations[-1] * (arch.kernel_size - 1) + 1 == 29
    # but a window of 8 steps reaches only 8, 4 and 2 taps of blocks 0, 1, 2,
    # and the parameters hold those taps alone
    shapes = tcn.param_shapes(Architecture(feature_dim=104))
    assert [shapes[f"b{m}c{j}_v"][2] for m in range(3) for j in (1, 2)] == [8, 8, 4, 4, 2, 2]
    assert sum(math.prod(shape) for shape in shapes.values()) == 102_786


# ----------------------------------------------------------------------- loss


def test_loss_values():
    pred = np.array([[3.0, 4.0], [1.0, 1.0]])
    target = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert loss(pred, target) == pytest.approx(2.5, abs=0)


def test_loss_gradient_closed_form():
    pred = np.array([[3.0, 4.0], [0.0, 0.0]])
    target = np.zeros((2, 2))
    value, d = loss_and_grad_output(pred, target)
    assert value == pytest.approx(2.5)
    # r / (||r|| * B) for the first row, zero (guarded) for the second
    np.testing.assert_allclose(d[0], [3.0 / 5.0 / 2, 4.0 / 5.0 / 2], rtol=1e-12)
    np.testing.assert_array_equal(d[1], [0.0, 0.0])


def test_loss_empty_batch():
    with pytest.raises(EmptyBatch):
        loss(np.zeros((0, 2)), np.zeros((0, 2)))


# ------------------------------------------------------------------ gradients


def test_zero_residual_gives_zero_gradients():
    arch = _small_arch()
    params = init_params(arch, seed=6, dtype=np.float64)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, arch.window, arch.feature_dim))
    target = forward(params, arch, x)
    value, grads = backward(params, arch, x, target, training=False)
    assert value == 0.0
    for k, gk in grads.items():
        assert not gk.any(), k


def _max_rel_err(params, grads, arch, x, y, step, seed=None):
    """Central finite differences against analytic gradients, elementwise."""

    def evaluate(p):
        rng = None if seed is None else np.random.default_rng(seed)
        pred = forward(p, arch, x, training=seed is not None, rng=rng)
        return loss(pred, y)

    worst = 0.0
    for key, p in params.items():
        flat = p.ravel()
        gflat = grads[key].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = evaluate(params)
            flat[i] = orig - step
            down = evaluate(params)
            flat[i] = orig
            fd = (up - down) / (2 * step)
            # the 1e-5 floor turns the check absolute for near-zero gradients,
            # where central-difference roundoff (~1e-10 here) dominates
            err = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-5)
            worst = max(worst, err)
    return worst


def _kink_margin(params, arch, x, y, seed=None):
    """Distance of the closest ReLU preactivation / residual norm to zero.

    Central differences disagree with the (sub)gradient when a perturbation
    crosses one of those kinks, so the grad-check inputs are screened to keep
    every kink farther away than the step could reach.
    """
    caches: list = []
    rng = None if seed is None else np.random.default_rng(seed)
    pred = forward(params, arch, x, training=seed is not None, rng=rng, caches=caches)
    margin = min(
        float(np.abs(c[name]).min()) for c in caches[:-1] for name in ("a1", "a2", "s")
    )
    residual_norms = np.sqrt(((pred - y) ** 2).sum(axis=1))
    return min(margin, float(residual_norms.min()))


def _kink_free_case(arch, n, param_seed, seed=None, margin=1e-4):
    for trial in range(50):
        params = init_params(arch, seed=param_seed + trial, dtype=np.float64)
        rng = np.random.default_rng(1000 + trial)
        x = rng.normal(size=(n, arch.window, arch.feature_dim))
        y = rng.normal(size=(n, 2))
        if _kink_margin(params, arch, x, y, seed=seed) > margin:
            return params, x, y
    raise AssertionError("no kink-free gradient-check configuration found")


def test_finite_difference_gradients_inference_mode():
    arch = _small_arch()
    params, x, y = _kink_free_case(arch, n=3, param_seed=7)
    _, grads = backward(params, arch, x, y, training=False)
    assert _max_rel_err(params, grads, arch, x, y, step=1e-6) < 1e-4


def test_finite_difference_gradients_with_dropout():
    # fixed-seed dropout makes the perturbed losses see the same masks
    arch = _small_arch(dropout=0.25)
    mask_seed = 99
    params, x, y = _kink_free_case(arch, n=2, param_seed=8, seed=mask_seed)
    _, grads = backward(
        params, arch, x, y, training=True, rng=np.random.default_rng(mask_seed)
    )
    assert _max_rel_err(params, grads, arch, x, y, step=1e-6, seed=mask_seed) < 1e-4


def test_gradient_descent_direction_reduces_loss():
    arch = _small_arch()
    params = init_params(arch, seed=9, dtype=np.float64)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(4, arch.window, arch.feature_dim))
    y = rng.normal(size=(4, 2))
    before, grads = backward(params, arch, x, y, training=False)
    for k in params:
        params[k] -= 1e-3 * grads[k]
    after = loss(forward(params, arch, x), y)
    assert after < before


# ----------------------------------------------------------------------- adam


def test_adam_first_step_closed_form():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.array([0.5, -0.25])}
    state = adam_init(params, lr=0.01)
    adam_step(params, grads, state)
    # bias corrections cancel at t=1: update = lr * g / (|g| + eps)
    expect = np.array([1.0, -2.0]) - 0.01 * np.sign([0.5, -0.25])
    np.testing.assert_allclose(params["w"], expect, atol=1e-9)


def test_adam_matches_loop_reference():
    rng = np.random.default_rng(15)
    p = rng.normal(size=5)
    params = {"w": p.copy()}
    state = adam_init(params, lr=0.05)
    m = np.zeros(5)
    v = np.zeros(5)
    ref = p.copy()
    for t in range(1, 6):
        g = rng.normal(size=5)
        adam_step(params, {"w": g.copy()}, state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        ref -= 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(params["w"], ref, rtol=1e-12)
    assert state.step == 5


def test_adam_rejects_mismatched_keys():
    params = {"w": np.zeros(2)}
    state = adam_init(params)
    with pytest.raises(ShapeMismatch):
        adam_step(params, {"other": np.zeros(2)}, state)


# -------------------------------------------------------------- normalization


def _stacked_stats(windows):
    """compute_stats over (N, w, F) windows, each row of the table once."""
    n, w, f = windows.shape
    return compute_stats(windows.reshape(-1, f), np.arange(n * w).reshape(n, w))


def test_normalize_matches_formula():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(10, 4, 6)) * 3 + 1
    stats = _stacked_stats(x)
    np.testing.assert_array_equal(normalize_features(x, stats), (x - stats.mean) / stats.std)


def test_normalize_stats_values():
    x = np.zeros((2, 2, 3))
    x[:, :, 0] = [[1, 1], [3, 3]]  # mean 2, std 1
    x[:, :, 1] = 5.0  # constant: std clamps to 1
    x[:, :, 2] = [[0, 2], [4, 6]]  # mean 3
    stats = _stacked_stats(x)
    np.testing.assert_allclose(stats.mean, [2.0, 5.0, 3.0])
    assert stats.std[1] == 1.0
    z = normalize_features(x, stats)
    np.testing.assert_array_equal(z[:, :, 1], np.zeros((2, 2)))


def test_stats_over_the_frame_table_have_the_bits_of_the_stacked_windows():
    # overlapping windows count a frame once per window, over several chunks
    rng = np.random.default_rng(26)
    frames = rng.normal(size=(700, 5)) * [1.0, 1e3, 1e-4, 1.0, 1.0] + [0.0, 7.0, 0.0, -2.0, 0.0]
    frames[:, 3] = -2.0
    frames[:, 4] = -0.0
    w = 8
    index = np.concatenate(
        [np.arange(a, b - w)[:, None] + np.arange(w) for a, b in ((0, 300), (300, 520), (520, 700))]
    )
    index = np.concatenate([index, index, index[::-1], index[:1200]])  # rows repeat
    assert len(index) * w > 3 * tcn._STATS_ROWS
    stacked = frames[index]
    flat = stacked.reshape(-1, 5)
    for stats in (compute_stats(frames, index), _stacked_stats(stacked)):
        assert stats.mean.tobytes() == flat.mean(axis=0).tobytes()
        std = flat.std(axis=0)
        assert stats.std.tobytes() == np.where(std > 1e-6, std, 1.0).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normalized_table_has_the_bits_of_the_whole_table(monkeypatch, dtype):
    # 50 rows in chunks of 7: seven whole chunks and a partial one
    monkeypatch.setattr(tcn, "_STATS_ROWS", 7)
    rng = np.random.default_rng(31)
    frames = rng.normal(size=(50, 6)) * [1.0, 1e3, 1e-4, 1.0, 3.0, 1.0] + 0.1
    stats = compute_stats(frames, np.arange(48).reshape(6, 8))
    table = tcn._normalized_table(frames, stats, dtype)
    assert table.dtype == dtype
    assert table.tobytes() == normalize_features(frames, stats).astype(dtype).tobytes()


# ------------------------------------------------------------------- training


def _make_split(n, w, f, seed, map_fn):
    rng = np.random.default_rng(seed)
    windows = np.stack([rng.normal(size=(w, f)) for _ in range(n)])
    targets = np.stack([map_fn(window) for window in windows])
    rows = np.arange(n, dtype=np.int64)
    index = np.arange(n * w).reshape(n, w)
    samples = Samples(windows.reshape(-1, f), index, targets, ped_ids=rows, steps=w + rows)
    n_val = max(1, n // 5)
    return DatasetSplit(training=samples[:-n_val], validation=samples[-n_val:])


def test_train_zero_learning_rate_keeps_initial_params():
    arch = _small_arch()
    split = _make_split(20, arch.window, arch.feature_dim, 17, lambda w: w[-1, :2])
    cfg = TrainConfig(iterations=8, batch_size=4, learning_rate=0.0, eval_every=4, seed=5)
    model, log = train(split, cfg, arch=arch)
    init = init_params(arch, seed=cfg.seed, dtype=np.float32)
    assert set(model.params) == set(init)
    for k in init:
        np.testing.assert_array_equal(model.params[k], init[k])
    assert [row[0] for row in log] == [0, 4, 8]


def test_nan_validation_loss_keeps_initial_params():
    # a NaN never compares less, so the iteration-0 parameters stay the best
    arch = _small_arch()
    split = _make_split(20, arch.window, arch.feature_dim, 29, lambda w: w[-1, :2])
    validation = dataclasses.replace(
        split.validation, targets=np.full_like(split.validation.targets, np.nan)
    )
    cfg = TrainConfig(iterations=6, batch_size=4, learning_rate=1e-2, eval_every=2, seed=5)
    model, log = train(DatasetSplit(split.training, validation), cfg, arch=arch)
    assert np.isnan([row[2] for row in log]).all() and np.isnan(model.meta["best_val_loss"])
    init = init_params(arch, seed=cfg.seed, dtype=np.float32)
    for k in init:
        np.testing.assert_array_equal(model.params[k], init[k])


def test_train_is_deterministic():
    arch = _small_arch(dropout=0.1)
    split = _make_split(24, arch.window, arch.feature_dim, 18, lambda w: w[-1, :2])
    cfg = TrainConfig(iterations=12, batch_size=8, learning_rate=1e-3, eval_every=6, seed=3)
    model_a, log_a = train(split, cfg, arch=arch)
    model_b, log_b = train(split, cfg, arch=arch)
    assert [r[:3] for r in log_a] == [r[:3] for r in log_b]
    for k in model_a.params:
        np.testing.assert_array_equal(model_a.params[k], model_b.params[k])


def test_train_reduces_validation_loss():
    # learnable task: target is a fixed linear map of the last frame
    arch = _small_arch(feature_dim=5, window=6, channels=(8, 8), q=4, dilations=(1, 2))
    rng = np.random.default_rng(19)
    a = rng.normal(size=(2, 5))
    split = _make_split(80, arch.window, arch.feature_dim, 20, lambda w: a @ w[-1])
    cfg = TrainConfig(iterations=200, batch_size=32, learning_rate=3e-3, eval_every=50, seed=1)
    model, log = train(split, cfg, arch=arch)
    assert model.meta["best_val_loss"] < 0.5 * model.meta["initial_val_loss"]
    assert log[0][0] == 0 and log[-1][0] == cfg.iterations


def test_train_returns_best_validation_params():
    arch = _small_arch()
    split = _make_split(20, arch.window, arch.feature_dim, 21, lambda w: w[-1, :2])
    cfg = TrainConfig(iterations=30, batch_size=8, learning_rate=1e-3, eval_every=10, seed=2)
    model, log = train(split, cfg, arch=arch)
    vx, vy = split.validation.windows, split.validation.targets
    xn = normalize_features(vx, model.stats).astype(np.float32)
    held = loss(forward(model.params, arch, xn, training=False), vy.astype(np.float32))
    assert held == pytest.approx(model.meta["best_val_loss"], rel=1e-5)
    assert model.meta["best_val_loss"] <= min(row[2] for row in log) + 1e-12


@pytest.mark.parametrize("n", [40, 150])
def test_logged_validation_loss_is_the_loss_over_every_validation_window(n):
    # 8 validation windows fit one batch of 8; 30 take four chunks
    arch = _small_arch()
    split = _make_split(n, arch.window, arch.feature_dim, 32, lambda w: w[-1, :2])
    cfg = TrainConfig(iterations=0, batch_size=8, seed=7)
    model, log = train(split, cfg, arch=arch)
    xn = normalize_features(split.validation.windows, model.stats).astype(np.float32)
    pred = forward(model.params, arch, xn, training=False)
    whole = loss(pred, split.validation.targets.astype(np.float32))
    if len(split.validation) <= cfg.batch_size:
        assert log[0][2] == whole
    else:
        assert log[0][2] == pytest.approx(whole, rel=1e-6)


def test_train_memory_does_not_grow_with_the_validation_set():
    # at F = 104, one forward over 20 batches of validation windows would
    # hold a block-0 im2col of about 34 MB
    arch = Architecture(feature_dim=104)
    batch, m = 64, 1600
    rng = np.random.default_rng(33)
    index = np.arange(m - arch.window + 1)[:, None] + np.arange(arch.window)
    rows = np.arange(len(index), dtype=np.int64)
    samples = Samples(
        rng.normal(size=(m, 104)), index, rng.normal(size=(len(index), 2)), rows, rows
    )
    cfg = TrainConfig(iterations=2, batch_size=batch, eval_every=1)
    peaks = []
    for n_val in (batch, 20 * batch):
        split = DatasetSplit(samples[: 4 * batch], samples[4 * batch : 4 * batch + n_val])
        tracemalloc.start()
        try:
            train(split, cfg, arch=arch)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks


def test_train_records_its_config_and_takes_dropout_from_the_architecture():
    arch = _small_arch(dropout=0.25)
    split = _make_split(20, arch.window, arch.feature_dim, 25, lambda w: w[-1, :2])
    cfg = TrainConfig(iterations=2, batch_size=4, eval_every=1, seed=4)
    model, _ = train(split, cfg, arch=arch)
    assert model.meta["train_config"] == dataclasses.asdict(cfg)
    assert "dropout" not in model.meta["train_config"]
    assert model.arch.dropout == 0.25
    # without an architecture, training uses Architecture's default dropout
    model, _ = train(split, cfg)
    assert model.arch.dropout == Architecture(feature_dim=arch.feature_dim).dropout == 0.1


def test_train_rejects_empty_sets():
    arch = _small_arch()
    split = _make_split(20, arch.window, arch.feature_dim, 22, lambda w: w[-1, :2])
    with pytest.raises(EmptyDataset):
        train(DatasetSplit(split.training[:0], split.validation), arch=arch)
    with pytest.raises(EmptyDataset):
        train(DatasetSplit(split.training, split.validation[:0]), arch=arch)


def test_train_rejects_sides_over_two_frame_tables():
    arch = _small_arch()
    split = _make_split(20, arch.window, arch.feature_dim, 28, lambda w: w[-1, :2])
    validation = dataclasses.replace(split.validation, frames=split.validation.frames.copy())
    with pytest.raises(ValueError, match="one frame table"):
        train(DatasetSplit(split.training, validation), TrainConfig(iterations=1), arch)


def test_train_rejects_mismatched_architecture():
    arch = _small_arch()
    split = _make_split(20, arch.window, arch.feature_dim + 1, 23, lambda w: w[-1, :2])
    with pytest.raises(ShapeMismatch):
        train(split, TrainConfig(iterations=1), arch=arch)


def test_trained_params_do_not_alias_the_training_buffers(monkeypatch):
    buffers = []

    def spy(make):
        def wrapped(*args, **kwargs):
            out = make(*args, **kwargs)
            buffers.append(out)
            return out

        return wrapped

    monkeypatch.setattr(tcn, "init_params", spy(tcn.init_params))
    monkeypatch.setattr(tcn, "adam_init", spy(tcn.adam_init))
    arch = _small_arch(dropout=0.1)
    split = _make_split(24, arch.window, arch.feature_dim, 27, lambda w: w[-1, :2])
    cfg = TrainConfig(iterations=6, batch_size=8, learning_rate=1e-3, eval_every=3, seed=6)
    model, _ = train(split, cfg, arch=arch)
    params, state = buffers
    kept = {k: p.copy() for k, p in model.params.items()}
    for tensors in (params, state.m, state.v):
        for t in tensors.values():
            t[...] = np.nan
    for k, p in model.params.items():
        np.testing.assert_array_equal(p, kept[k], err_msg=k)


def test_training_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--n-train", "8", "--n-test", "2"]) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads-{threads}"
        subprocess.run(
            [sys.executable, "-m", "crowdtcn", "train", "-c", str(data / "run.json"),
             "--iterations", "20", "--output-dir", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        digests.append((out / "model.bin").read_bytes())
    assert digests[0] == digests[1]


# ------------------------------------------------------------------ artifacts


def _tiny_model(seed=0):
    arch = _small_arch()
    split = _make_split(20, arch.window, arch.feature_dim, seed, lambda w: w[-1, :2])
    cfg = TrainConfig(iterations=4, batch_size=8, learning_rate=1e-3, eval_every=2, seed=seed)
    model, _ = train(split, cfg, arch=arch)
    return model


def test_artifact_round_trip(tmp_path):
    model = _tiny_model()
    path = tmp_path / "model.bin"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.arch == model.arch
    assert set(loaded.params) == set(model.params)
    for k in model.params:
        np.testing.assert_array_equal(loaded.params[k], model.params[k])
    np.testing.assert_array_equal(loaded.stats.mean, model.stats.mean)
    np.testing.assert_array_equal(loaded.stats.std, model.stats.std)
    rng = np.random.default_rng(24)
    x = rng.normal(size=(3, model.arch.window, model.arch.feature_dim))
    np.testing.assert_array_equal(loaded.predict(x), model.predict(x))


def test_loading_an_artifact_draws_no_parameters(tmp_path, monkeypatch):
    # the shapes to check come from the architecture, not from an initialization
    save_model(tmp_path / "model.bin", _tiny_model())

    def refuse(*args, **kwargs):
        raise AssertionError("load_model initialized parameters")

    monkeypatch.setattr(tcn, "init_params", refuse)
    assert load_model(tmp_path / "model.bin").arch == _small_arch()


def test_artifact_bytes_are_reproducible(tmp_path):
    model = _tiny_model()
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_model(p1, model)
    save_model(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


def test_artifact_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_model(bad)


@pytest.mark.parametrize("size", [4, 8, 11, "in-header", "at-first-tensor", "in-tensor-data"])
def test_artifact_shorter_than_its_preamble_is_rejected(tmp_path, size):
    # an artifact cut anywhere past its preamble is refused too, not read as
    # a bad header or as tensors of the wrong size
    path = tmp_path / "model.bin"
    save_model(path, _tiny_model())
    raw = path.read_bytes()
    (head_len,) = struct.unpack("<I", raw[8:12])
    cuts = {
        "in-header": 12 + head_len // 2,
        "at-first-tensor": 12 + head_len,
        "in-tensor-data": len(raw) - 5,
    }
    path.write_bytes(raw[: cuts.get(size, size)])
    with pytest.raises(ValueError, match="truncated"):
        load_model(path)


def test_artifact_with_trailing_bytes_is_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_model(path, _tiny_model())
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(ValueError, match="4 trailing bytes"):
        load_model(path)


def test_artifact_of_another_format_version_is_refused(tmp_path):
    # version 1 held every kernel tap, including those no window reaches
    path = tmp_path / "model.bin"
    save_model(path, _tiny_model())
    raw = bytearray(path.read_bytes())
    assert struct.unpack("<I", raw[4:8]) == (tcn.MODEL_VERSION,)
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported model format version 1"):
        load_model(path)


def test_predict_single_window_shape():
    model = _tiny_model()
    rng = np.random.default_rng(25)
    x = rng.normal(size=(model.arch.window, model.arch.feature_dim))
    out = model.predict(x)
    assert out.shape == (2,)
    batch = model.predict(x[None])
    np.testing.assert_array_equal(batch[0], out)
