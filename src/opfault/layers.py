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
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def powers(x: np.ndarray, q_order: int) -> np.ndarray:
    """Stack x^1..x^Q along a new axis 2: (B, C, L) -> (B, C, Q, L)."""
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    out = np.empty(x.shape[:2] + (q_order,) + x.shape[2:], dtype=x.dtype)
    out[:, :, 0] = x
    for q in range(1, q_order):
        out[:, :, q] = out[:, :, q - 1] * x
    return out


def _ensure_3d(x: np.ndarray):
    x = np.asarray(x)
    if x.ndim == 2:
        return x[None], True
    if x.ndim == 3:
        return x, False
    raise ValueError(f"expected (channels, length) or (batch, channels, length), got shape {x.shape}")


def _grad_through_powers(gp: np.ndarray, x: np.ndarray, pows: np.ndarray) -> np.ndarray:
    # d(x^q)/dx = q * x^(q-1); gp is (B, C, Q, L)
    grad_x = gp[:, :, 0].copy()
    for qi in range(1, gp.shape[2]):
        grad_x += gp[:, :, qi] * np.asarray(qi + 1, dtype=x.dtype) * pows[:, :, qi - 1]
    return grad_x


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

    pows = powers(x3, q_order)
    padded = np.pad(pows, ((0, 0), (0, 0), (0, 0), (padding, padding))) if padding else pows
    # (B, I, Q, M, K) windows, strided view; GEMM wants (B*M, I*Q*K)
    win = sliding_window_view(padded, kernel, axis=-1)[..., ::stride, :]
    cols = win.transpose(0, 3, 1, 2, 4).reshape(batch * out_len, in_ch * q_order * kernel)
    wmat = weights.transpose(0, 1, 3, 2).reshape(out_ch, -1)
    y = (cols @ wmat.T).reshape(batch, out_len, out_ch).transpose(0, 2, 1)
    if bias is not None:
        y = y + bias[None, :, None]
    else:
        y = np.ascontiguousarray(y)
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

    gmat = g3.transpose(0, 2, 1).reshape(batch * out_len, out_ch)
    grad_b = g3.sum(axis=(0, 2), dtype=np.float64).astype(weights.dtype)
    grad_w = (gmat.T @ cols).reshape(out_ch, in_ch, q_order, kernel) \
        .transpose(0, 1, 3, 2).astype(weights.dtype, copy=False)
    if not need_input_grad:
        return None, grad_w, grad_b

    gp = _polyphase_input_grad(gmat.reshape(batch, out_len, out_ch), weights, stride,
                               padding, length, x3.dtype)
    grad_x = _grad_through_powers(gp, x3, pows)
    if g_squeeze:
        grad_x = grad_x[0]
    return grad_x, grad_w, grad_b


def _polyphase_input_grad(g_t, weights, stride, padding, length, dtype):
    """Gradient w.r.t. the power stack, (B, I, Q, L); g_t is grad_out as (B, M, O).

    Padded input position n = t*stride + p (phase p) receives sum_j g[t - j] *
    w[p + j*stride], a stride-1 correlation with the phase's taps reversed. Zero
    taps pad K to a multiple of the stride, so all phases share one GEMM whose
    rows come out in position order; positions no window covers get zero."""
    out_ch, in_ch, kernel, q_order = weights.shape
    taps = -(-kernel // stride)
    g_t = np.pad(g_t, ((0, 0), (taps - 1, taps - 1), (0, 0)))
    # (B * T, taps * O) with T = M + taps - 1 full-correlation outputs
    cols = sliding_window_view(g_t, taps, axis=1).transpose(0, 1, 3, 2) \
        .reshape(-1, taps * out_ch)
    wpad = np.pad(weights, ((0, 0), (0, 0), (0, taps * stride - kernel), (0, 0)))
    # rows (j reversed, o), columns (p, i, q): w[o, i, p + (taps - 1 - j) * stride, q]
    wmat = wpad.reshape(out_ch, in_ch, taps, stride, q_order)[:, :, ::-1] \
        .transpose(2, 0, 3, 1, 4).reshape(taps * out_ch, stride * in_ch * q_order)
    covered = (cols @ wmat).reshape(len(g_t), -1, in_ch, q_order)[:, padding: padding + length]
    gp = np.zeros((len(g_t), in_ch, q_order, length), dtype=dtype)
    gp[..., :covered.shape[1]] = covered.transpose(0, 2, 3, 1)
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

    pows = powers(x3, q_order)
    p2 = pows.transpose(0, 3, 1, 2).reshape(batch * length, in_ch * q_order)
    wmat = weights.transpose(0, 2, 1, 3).reshape(out_ch * kernel, in_ch * q_order)
    tmp = (p2 @ wmat.T).reshape(batch, length, out_ch, kernel).transpose(0, 2, 1, 3)
    full = np.zeros((batch, out_ch, full_len), dtype=x3.dtype)
    for r in range(kernel):
        full[..., r: r + length * stride: stride] += tmp[..., r]
    y = full[..., padding: full_len - padding] if padding else full
    if bias is not None:
        y = y + bias[None, :, None]
    if output_trim > 0:
        y = np.pad(y, ((0, 0), (0, 0), (0, output_trim)))
    elif output_trim < 0:
        y = y[..., :declared]
    y = y[0] if squeeze else y
    if want_cache:
        return y, (x3, pows, p2)
    return y


def op_tconv1d_backward(x, weights, grad_out, stride: int = 1, padding: int = 0,
                        output_trim: int = 0, cache=None):
    """Gradients of op_tconv1d_forward: returns (grad_x, grad_weights, grad_bias)."""
    out_ch, in_ch, kernel, q_order = weights.shape
    g3, g_squeeze = _ensure_3d(grad_out)
    if cache is None:
        cache = op_tconv1d_forward(x, weights, None, stride, padding, output_trim,
                                   want_cache=True)[1]
    x3, pows, p2 = cache
    batch, _, length = x3.shape
    full_len = (length - 1) * stride + kernel
    nominal = full_len - 2 * padding

    # Undo trim, then bias sees the nominal span only.
    g_nom = g3[..., :nominal] if output_trim > 0 else g3
    if output_trim < 0:
        g_nom = np.pad(g_nom, ((0, 0), (0, 0), (0, -output_trim)))
    grad_b = g_nom.sum(axis=(0, 2), dtype=np.float64).astype(weights.dtype)

    if padding:
        g_full = np.zeros((batch, out_ch, full_len), dtype=g3.dtype)
        g_full[..., padding: full_len - padding] = g_nom
    else:
        g_full = g_nom
    gw_win = sliding_window_view(g_full, kernel, axis=-1)[..., ::stride, :]  # (B, O, L, K)
    g2 = gw_win.transpose(0, 2, 1, 3).reshape(batch * length, out_ch * kernel)

    wmat = weights.transpose(0, 2, 1, 3).reshape(out_ch * kernel, in_ch * q_order)
    grad_w = (g2.T @ p2).reshape(out_ch, kernel, in_ch, q_order) \
        .transpose(0, 2, 1, 3).astype(weights.dtype, copy=False)
    gp = (g2 @ wmat).reshape(batch, length, in_ch, q_order).transpose(0, 2, 3, 1)
    grad_x = _grad_through_powers(gp, x3, pows)
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
