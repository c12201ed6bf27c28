"""1D operational layers with hand-derived backward passes.

An operational (generative-neuron) convolution raises its input to the
powers 1..Q and convolves each power with its own kernel slice:

    y[o, m] = bias[o] + sum_i sum_q sum_r w[o, i, r, q] * x[i, m*s + r - pad]^(q+1)

Weights are shaped (out_channels, in_channels, K, Q); Q = 1 degenerates to
a plain (cross-correlation) convolution. The transposed variant scatters
the same power terms back out, so at Q = 1 it is the exact adjoint of the
forward convolution under matching stride/padding.

All ops accept (channels, length) or (batch, channels, length) arrays and
preserve the input dtype; heavy contractions are routed through GEMM.
Inside, every power stack is position-major: `powers` of the input
transposed (and zero-padded on L) to (B, L, I) gives (B, L, Q, I), so the
Q*I values of one position form one contiguous run. `_windows` copies K
consecutive positions of such an array into one row of a GEMM matrix, as
one contiguous run each; the conv forward windows the stack, and both
backward passes window grad_out.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


# From 2 channels up to this many, powers stores each position's C values as
# one void element of C * itemsize bytes, so each store of x^q into the stack
# is one loop over positions rather than a loop C values long per position.
# On a 2-vCPU Xeon box, (4, 4100, C) float32 at Q = 3, the void stores against
# the strided ones took 0.046 / 0.16 / 0.09 / 0.36 / 0.78 ms against 0.39 /
# 0.39 / 0.43 / 0.50 / 0.85 at C = 2 / 3 / 4 / 8 / 16, but 1.19 against 1.12
# at C = 24, 1.55 against 1.42 at C = 36 and 0.048 against 0.042 at C = 1
# (best of 15). At default widths the first generator and discriminator
# layers (C = 2) and detector layers 1-4 (C = 16) take it.
POWERS_VOID_MAX_CH = 16


def powers(x: np.ndarray, q_order: int) -> np.ndarray:
    """Stack x^1..x^Q along a new axis 2: (B, N, C) -> (B, N, Q, C); the
    layers pass position-major (B, L, I) input."""
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    out = np.empty(x.shape[:2] + (q_order,) + x.shape[2:], dtype=x.dtype)
    if x.ndim == 3 and 2 <= x.shape[2] <= POWERS_VOID_MAX_CH:
        x = xq = np.ascontiguousarray(x)
        void = np.dtype((np.void, x.shape[2] * x.itemsize))
        stack = out.view(void)[..., 0]  # (B, N, Q)
        stack[:, :, 0] = x.view(void)[..., 0]
        for q in range(1, q_order):
            xq = xq * x
            stack[:, :, q] = xq.view(void)[..., 0]
        return out
    out[:, :, 0] = x
    for q in range(1, q_order):
        np.multiply(out[:, :, q - 1], x, out=out[:, :, q])
    return out


def _ensure_3d(x: np.ndarray):
    x = np.asarray(x)
    if x.ndim == 2:
        return x[None], True
    if x.ndim == 3:
        return x, False
    raise ValueError(f"expected (channels, length) or (batch, channels, length), got shape {x.shape}")


def _position_major(x3: np.ndarray, padding: int = 0) -> np.ndarray:
    """(B, C, L) -> contiguous (B, L + 2*padding, C), zero-padded on L."""
    batch, ch, length = x3.shape
    out = np.zeros((batch, length + 2 * padding, ch), dtype=x3.dtype)
    out[:, padding: padding + length] = x3.transpose(0, 2, 1)
    return out


def _windows(a: np.ndarray, width: int, stride: int, count: int) -> np.ndarray:
    """(B*count, width*C) matrix whose row (b, m) is a[b, m*stride: m*stride + width]
    of a position-major (B, N, C) array. The copy is explicit: reshaping the
    overlapping view could return it uncopied, and GEMM would then skip BLAS."""
    a = np.ascontiguousarray(a)
    batch, _, ch = a.shape
    view = as_strided(a, (batch, count, width * ch),
                      (a.strides[0], stride * a.strides[1], a.strides[2]), writeable=False)
    return view.copy().reshape(batch * count, width * ch)


def _grad_through_powers(gp: np.ndarray, pows: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. x of a position-major power stack: gp and pows are
    (B, L, Q, C); d(x^q)/dx = q * x^(q-1). Returns (B, C, L)."""
    grad_x = gp[:, :, 0].copy()
    for qi in range(1, gp.shape[2]):
        grad_x += gp[:, :, qi] * np.asarray(qi + 1, dtype=pows.dtype) * pows[:, :, qi - 1]
    return grad_x.transpose(0, 2, 1)


def conv_output_len(length: int, kernel: int, stride: int, padding: int) -> int:
    return (length + 2 * padding - kernel) // stride + 1


def tconv_output_len(length: int, kernel: int, stride: int, padding: int,
                     output_trim: int = 0) -> int:
    return (length - 1) * stride - 2 * padding + kernel + output_trim


def op_conv1d_forward(x, weights, bias, stride: int = 1, padding: int = 0,
                      want_cache: bool = False):
    """Operational 1D convolution. weights: (O, I, K, Q), bias: (O,) or None."""
    x3, squeeze = _ensure_3d(x)
    out_ch, in_ch, kernel, q_order = weights.shape
    if x3.shape[1] != in_ch:
        raise ValueError(f"channel mismatch: input has {x3.shape[1]}, kernel expects {in_ch}")
    batch, _, length = x3.shape
    out_len = conv_output_len(length, kernel, stride, padding)
    if out_len < 1:
        raise ValueError(f"output length {out_len} < 1 for L={length} K={kernel} "
                         f"stride={stride} padding={padding}")

    pows = powers(_position_major(x3, padding), q_order)  # (B, L + 2*pad, Q, I)
    # (B*M, K*Q*I) against weights as (O, K*Q*I)
    cols = _windows(pows.reshape(batch, -1, q_order * in_ch), kernel, stride, out_len)
    wmat = weights.transpose(0, 2, 3, 1).reshape(out_ch, -1)
    y = (cols @ wmat.T).reshape(batch, out_len, out_ch).transpose(0, 2, 1)
    if bias is not None:
        y = y + bias[None, :, None]
    y = y[0] if squeeze else y
    if want_cache:
        return y, (x3, pows, cols)
    return y


def op_conv1d_backward(x, weights, grad_out, stride: int = 1, padding: int = 0,
                       cache=None, need_input_grad: bool = True):
    """Gradients of op_conv1d_forward: returns (grad_x, grad_weights, grad_bias);
    grad_x is None when need_input_grad is false."""
    out_ch, in_ch, kernel, q_order = weights.shape
    g3, g_squeeze = _ensure_3d(grad_out)
    if cache is None:
        cache = op_conv1d_forward(x, weights, None, stride, padding, want_cache=True)[1]
    x3, pows, cols = cache
    batch, _, length = x3.shape
    out_len = g3.shape[2]
    if g3.shape != (batch, out_ch, out_len):
        raise ValueError(f"grad_out shape {g3.shape} inconsistent with forward")

    g_t = np.ascontiguousarray(g3.transpose(0, 2, 1))  # (B, M, O)
    grad_b = g3.sum(axis=(0, 2), dtype=np.float64).astype(weights.dtype)
    grad_w = (g_t.reshape(-1, out_ch).T @ cols).reshape(out_ch, kernel, q_order, in_ch) \
        .transpose(0, 3, 1, 2).astype(weights.dtype, copy=False)
    if not need_input_grad:
        return None, grad_w, grad_b

    gp = _polyphase_input_grad(g_t, weights, stride, padding, length)
    grad_x = _grad_through_powers(gp, pows[:, padding: padding + length])
    if g_squeeze:
        grad_x = grad_x[0]
    return grad_x, grad_w, grad_b


def _polyphase_input_grad(g_t, weights, stride, padding, length):
    """Gradient w.r.t. the position-major power stack, (B, L, Q, I); g_t is
    grad_out as (B, M, O).

    Padded input position n = t*stride + p (phase p) receives sum_j g[t - j] *
    w[p + j*stride], a stride-1 correlation with the phase's taps reversed. Zero
    taps pad K to a multiple of the stride, so all phases share one GEMM whose
    rows come out position-major; positions no window covers get zero."""
    out_ch, in_ch, kernel, q_order = weights.shape
    batch, out_len, _ = g_t.shape
    taps = -(-kernel // stride)
    count = out_len + taps - 1  # full-correlation outputs per batch item
    g_t = np.pad(g_t, ((0, 0), (taps - 1, taps - 1), (0, 0)))
    cols = _windows(g_t, taps, 1, count)  # (B*count, taps*O)
    wpad = np.pad(weights, ((0, 0), (0, 0), (0, taps * stride - kernel), (0, 0)))
    # rows (j reversed, o), columns (p, q, i): w[o, i, p + (taps - 1 - j) * stride, q]
    wmat = wpad.reshape(out_ch, in_ch, taps, stride, q_order)[:, :, ::-1] \
        .transpose(2, 0, 3, 4, 1).reshape(taps * out_ch, stride * q_order * in_ch)
    covered = (cols @ wmat).reshape(batch, count * stride, q_order, in_ch)
    covered = covered[:, padding: padding + length]
    if covered.shape[1] == length:
        return covered
    gp = np.zeros((batch, length, q_order, in_ch), dtype=covered.dtype)
    gp[:, :covered.shape[1]] = covered
    return gp


def op_tconv1d_forward(x, weights, bias, stride: int = 1, padding: int = 0,
                       output_trim: int = 0, want_cache: bool = False):
    """Transposed operational 1D convolution.

    Scatters each input position back over a kernel-width span, summing the
    power channels. Nominal output length is (L-1)*stride - 2*padding + K;
    output_trim > 0 zero-pads on the right, < 0 truncates, so decoder
    lengths can pair exactly with encoder lengths.
    """
    x3, squeeze = _ensure_3d(x)
    out_ch, in_ch, kernel, q_order = weights.shape
    if x3.shape[1] != in_ch:
        raise ValueError(f"channel mismatch: input has {x3.shape[1]}, kernel expects {in_ch}")
    batch, _, length = x3.shape
    full_len = (length - 1) * stride + kernel
    nominal = full_len - 2 * padding
    declared = nominal + output_trim
    if declared < 1 or nominal < 1:
        raise ValueError(f"non-positive output length ({declared}) for L={length} "
                         f"K={kernel} stride={stride} padding={padding} trim={output_trim}")

    pows = powers(_position_major(x3), q_order)  # (B, L, Q, I)
    wmat = weights.transpose(2, 0, 3, 1).reshape(kernel * out_ch, -1)  # (K*O, Q*I)
    tmp = (pows.reshape(batch * length, -1) @ wmat.T).reshape(batch, length, kernel, out_ch)
    # a positive trim extends the output past the right crop; that tail is
    # zero and gets no bias
    full = np.zeros((batch, max(full_len, padding + declared), out_ch), dtype=x3.dtype)
    for r in range(kernel):
        full[:, r: r + length * stride: stride] += tmp[:, :, r]
    y = full[:, padding: padding + declared]
    y[:, nominal:] = 0
    if bias is not None:
        y[:, :nominal] += bias
    y = y.transpose(0, 2, 1)
    y = y[0] if squeeze else y
    if want_cache:
        return y, (x3, pows)
    return y


def op_tconv1d_backward(x, weights, grad_out, stride: int = 1, padding: int = 0,
                        output_trim: int = 0, cache=None):
    """Gradients of op_tconv1d_forward: returns (grad_x, grad_weights, grad_bias)."""
    out_ch, in_ch, kernel, q_order = weights.shape
    g3, g_squeeze = _ensure_3d(grad_out)
    if cache is None:
        cache = op_tconv1d_forward(x, weights, None, stride, padding, output_trim,
                                   want_cache=True)[1]
    x3, pows = cache
    batch, _, length = x3.shape
    full_len = (length - 1) * stride + kernel

    # Undo trim and padding: bias and taps see the nominal span only.
    kept = g3[..., :full_len - 2 * padding]
    grad_b = kept.sum(axis=(0, 2), dtype=np.float64).astype(weights.dtype)
    g_full = np.zeros((batch, full_len, out_ch), dtype=g3.dtype)
    g_full[:, padding: padding + kept.shape[2]] = kept.transpose(0, 2, 1)
    g2 = _windows(g_full, kernel, stride, length)  # (B*L, K*O)

    grad_w = (g2.T @ pows.reshape(batch * length, -1)) \
        .reshape(kernel, out_ch, q_order, in_ch).transpose(1, 3, 0, 2) \
        .astype(weights.dtype, copy=False)
    wmat = weights.transpose(2, 0, 3, 1).reshape(kernel * out_ch, -1)
    gp = (g2 @ wmat).reshape(batch, length, q_order, in_ch)
    grad_x = _grad_through_powers(gp, pows)
    if g_squeeze:
        grad_x = grad_x[0]
    return grad_x, grad_w, grad_b


def dense_forward(x, weights, bias):
    """Affine map y = W x + b. weights: (O, F), x: (F,) or (B, F)."""
    x = np.asarray(x)
    squeeze = x.ndim == 1
    x2 = x[None] if squeeze else x
    if x2.shape[1] != weights.shape[1]:
        raise ValueError(f"dense shape mismatch: input {x2.shape[1]} features, "
                         f"weights expect {weights.shape[1]}")
    y = x2 @ weights.T
    if bias is not None:
        y = y + bias
    return y[0] if squeeze else y


def dense_backward(x, weights, grad_out):
    x = np.asarray(x)
    squeeze = x.ndim == 1
    x2 = x[None] if squeeze else x
    g2 = np.asarray(grad_out)
    g2 = g2[None] if squeeze else g2
    grad_w = (g2.T @ x2).astype(weights.dtype, copy=False)
    grad_b = g2.sum(axis=0, dtype=np.float64).astype(weights.dtype)
    grad_x = g2 @ weights
    return (grad_x[0] if squeeze else grad_x), grad_w, grad_b
