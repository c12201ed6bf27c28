"""Float64 reference forward pass, written apart from opfault.layers.

Every operational layer is an explicit sum over taps r and powers q:

    conv:  y[b, o, m]          = bias[o] + sum_{i,r,q} w[o, i, r, q] * xp[b, i, m*s + r]^(q+1)
    tconv: full[b, o, l*s + r] += sum_{i,q} w[o, i, r, q] * x[b, i, l]^(q+1)

where xp is x zero-padded by `padding` on both sides. The transposed layer
then crops `padding` from both ends, adds the bias and applies the output
trim (zero columns on the right, or a cut). The loop runs over taps r; for
each tap one matrix product sums over input channels i and powers q, on a
channels-first copy of the input. The arithmetic stays in float64.
"""

from __future__ import annotations

import numpy as np


def _mix(w_r, t):
    """sum_{i,q} w_r[o, i, q] * t[i, q, b, m]: the power terms of one tap."""
    i, q, b, m = t.shape
    return (w_r.reshape(-1, i * q) @ t.reshape(i * q, b * m)).reshape(-1, b, m)


def _powers(x, q_order):
    """x^1..x^Q of a channels-first (I, B, L) array as (I, Q, B, L)."""
    return np.stack([x ** (q + 1) for q in range(q_order)], axis=1)


def ref_conv(x, w, b, stride, padding):
    x = np.asarray(x, dtype=np.float64).transpose(1, 0, 2)   # (I, B, L)
    w = np.asarray(w, dtype=np.float64)
    _, batch, length = x.shape
    out_ch, _, kernel, q_order = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    out_len = (length + 2 * padding - kernel) // stride + 1
    y = np.zeros((out_ch, batch, out_len)) + np.asarray(b, dtype=np.float64)[:, None, None]
    xq = _powers(xp, q_order)
    for r in range(kernel):
        y += _mix(w[:, :, r, :], xq[..., r: r + (out_len - 1) * stride + 1: stride])
    return y.transpose(1, 0, 2)


def ref_tconv(x, w, b, stride, padding, output_trim):
    x = np.asarray(x, dtype=np.float64).transpose(1, 0, 2)   # (I, B, L)
    w = np.asarray(w, dtype=np.float64)
    _, batch, length = x.shape
    out_ch, _, kernel, q_order = w.shape
    full_len = (length - 1) * stride + kernel
    full = np.zeros((out_ch, batch, full_len))
    xq = _powers(x, q_order)
    for r in range(kernel):
        full[:, :, r: r + (length - 1) * stride + 1: stride] += _mix(w[:, :, r, :], xq)
    y = full[:, :, padding: full_len - padding] + np.asarray(b, dtype=np.float64)[:, None, None]
    if output_trim > 0:
        y = np.pad(y, ((0, 0), (0, 0), (0, output_trim)))
    elif output_trim < 0:
        y = y[:, :, :output_trim]
    return y.transpose(1, 0, 2)


def ref_dense(x, w, b):
    return np.asarray(x, dtype=np.float64) @ np.asarray(w, dtype=np.float64).T \
        + np.asarray(b, dtype=np.float64)


def _activate(y, activation):
    if activation == "tanh":
        return np.tanh(y)
    if activation == "sigmoid":
        return 1.0 / (1.0 + np.exp(-y))
    if activation == "none":
        return y
    raise ValueError(f"unknown activation {activation!r}")


def ref_forward(spec, params, x):
    """Forward through a NetworkSpec: layer j reads the output of layer j-1,
    concatenated channel-wise with the output of layer spec.skips[j] when
    that skip exists; dense layers flatten their input. x: (B, C, L)."""
    outs = []
    h = np.asarray(x, dtype=np.float64)
    for j, (ls, (w, b)) in enumerate(zip(spec.layers, params)):
        inp = h if j == 0 else outs[j - 1]
        if j in spec.skips:
            inp = np.concatenate([inp, outs[spec.skips[j]]], axis=1)
        if ls.kind == "op_conv":
            pre = ref_conv(inp, w, b, ls.stride, ls.padding)
        elif ls.kind == "op_tconv":
            pre = ref_tconv(inp, w, b, ls.stride, ls.padding, ls.output_trim)
        elif ls.kind == "dense":
            pre = ref_dense(inp.reshape(inp.shape[0], -1), w, b)
        else:
            raise ValueError(f"unknown layer kind {ls.kind!r}")
        outs.append(_activate(pre, ls.activation))
    return outs[-1]


def ref_segments(samples, segment_len):
    """Non-overlapping windows of a 1D record, tail dropped, each min-max
    mapped onto [-1, 1] in float64 (a constant window maps to zeros)."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size // segment_len
    out = np.zeros((n, segment_len))
    for k in range(n):
        seg = samples[k * segment_len:(k + 1) * segment_len]
        lo, hi = seg.min(), seg.max()
        if hi > lo:
            out[k] = 2.0 * (seg - lo) / (hi - lo) - 1.0
    return out
