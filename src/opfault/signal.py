"""Vibration signal utilities: segmentation, normalization, spectrograms.

Segments are fixed-length non-overlapping windows of a record; partial
windows at the tail are dropped. Normalization maps each segment to
[-1, 1] via 2 * (x - min) / (max - min) - 1, flagging constant segments
as degenerate rather than dividing by zero.

Spectral features use a symmetric Hann window (256 samples, hop 128 by
default), one-sided bins. The forward transform goes through the FFT; the
hand-derived backward pass uses explicit cosine/sine DFT matrices, which
are the exact adjoint of the windowed framing + DFT + magnitude-square
chain, so spectral losses can drive generator training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SEGMENT_LEN = 4096
SPEC_WINDOW = 256
SPEC_HOP = 128


@dataclass
class Segment:
    samples: np.ndarray
    condition: object = None
    source_record: str | None = None
    index: int = 0
    normalized: bool = False
    degenerate: bool = False


def segment_record(samples, segment_len: int = SEGMENT_LEN, condition=None,
                   source_record: str | None = None) -> list:
    """Cut a 1D record into non-overlapping segments, dropping the partial tail."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError(f"expected a 1D record, got shape {samples.shape}")
    if segment_len < 1:
        raise ValueError("segment_len must be >= 1")
    n = samples.size // segment_len
    out = []
    for i in range(n):
        out.append(Segment(samples=samples[i * segment_len:(i + 1) * segment_len].copy(),
                           condition=condition, source_record=source_record, index=i))
    return out


def normalize_segment(x):
    """Min-max map onto [-1, 1]. Returns (normalized, degenerate); a constant
    segment comes back as zeros with degenerate=True."""
    x = np.asarray(x)
    lo = float(x.min())
    hi = float(x.max())
    if hi == lo:
        return np.zeros_like(x), True
    y = 2.0 * (x.astype(np.float64) - lo) / (hi - lo) - 1.0
    return y.astype(x.dtype if x.dtype.kind == "f" else np.float32), False


def normalize_segments(segments: list) -> list:
    out = []
    for s in segments:
        y, degen = normalize_segment(s.samples)
        out.append(Segment(samples=y, condition=s.condition,
                           source_record=s.source_record, index=s.index,
                           normalized=True, degenerate=degen))
    return out


def hann_window(n: int = SPEC_WINDOW) -> np.ndarray:
    """Symmetric Hann: 0.5 * (1 - cos(2 pi k / (n - 1)))."""
    if n < 2:
        raise ValueError("window length must be >= 2")
    return np.hanning(n)


_dft_mats = {}


def _dft_matrices(n: int):
    # C[k, m] = cos(2 pi k m / n), S[k, m] = sin(2 pi k m / n); rfft real
    # part is C @ f, imaginary part is -(S @ f)
    if n not in _dft_mats:
        k = np.arange(n // 2 + 1)[:, None]
        m = np.arange(n)[None, :]
        ang = 2.0 * np.pi * k * m / n
        _dft_mats[n] = (np.cos(ang), np.sin(ang))
    return _dft_mats[n]


def _frames(x, window, hop):
    if x.shape[-1] < window:
        raise ValueError(f"signal length {x.shape[-1]} shorter than one window ({window})")
    return sliding_window_view(x, window, axis=-1)[..., ::hop, :]


def power_spectrogram(x, window: int = SPEC_WINDOW, hop: int = SPEC_HOP,
                      want_cache: bool = False):
    """Windowed one-sided power spectrogram, shape (..., frames, window//2 + 1)."""
    x = np.asarray(x)
    w = hann_window(window)
    fw = _frames(x.astype(np.float64, copy=False), window, hop) * w
    spec = np.fft.rfft(fw, axis=-1)
    re, im = spec.real, spec.imag
    p = re * re + im * im
    if want_cache:
        return p, {"mode": "power", "re": re, "im": im, "window": window,
                   "hop": hop, "shape": x.shape, "dtype": x.dtype}
    return p


def power_spectrogram_grad(grad_p, cache) -> np.ndarray:
    """Gradient of power_spectrogram through windowing, framing and the DFT."""
    c_mat, s_mat = _dft_matrices(cache["window"])
    g_re = 2.0 * cache["re"] * grad_p
    g_im = 2.0 * cache["im"] * grad_p
    grad_fw = g_re @ c_mat - g_im @ s_mat
    return _overlap_add(grad_fw * hann_window(cache["window"]), cache)


def complex_stft(x, window: int = SPEC_WINDOW, hop: int = SPEC_HOP,
                 want_cache: bool = False):
    """Windowed one-sided STFT with real/imaginary parts stacked on the last
    axis: shape (..., frames, window//2 + 1, 2)."""
    x = np.asarray(x)
    w = hann_window(window)
    fw = _frames(x.astype(np.float64, copy=False), window, hop) * w
    spec = np.fft.rfft(fw, axis=-1)
    feats = np.stack([spec.real, spec.imag], axis=-1)
    if want_cache:
        return feats, {"mode": "complex", "window": window, "hop": hop,
                       "shape": x.shape, "dtype": x.dtype}
    return feats


def complex_stft_grad(grad_feats, cache) -> np.ndarray:
    c_mat, s_mat = _dft_matrices(cache["window"])
    grad_fw = grad_feats[..., 0] @ c_mat - grad_feats[..., 1] @ s_mat
    return _overlap_add(grad_fw * hann_window(cache["window"]), cache)


def _overlap_add(grad_frames, cache) -> np.ndarray:
    window, hop = cache["window"], cache["hop"]
    grad_x = np.zeros(cache["shape"], dtype=np.float64)
    nf = grad_frames.shape[-2]
    for j in range(nf):
        grad_x[..., j * hop:j * hop + window] += grad_frames[..., j, :]
    dtype = cache["dtype"]
    return grad_x.astype(dtype) if np.dtype(dtype).kind == "f" else grad_x


def spectral_features(x, window: int = SPEC_WINDOW, hop: int = SPEC_HOP,
                      mode: str = "power", want_cache: bool = False):
    if mode == "power":
        return power_spectrogram(x, window, hop, want_cache)
    if mode == "complex":
        return complex_stft(x, window, hop, want_cache)
    raise ValueError(f"unknown spectral mode {mode!r}")


def spectral_features_grad(grad, cache) -> np.ndarray:
    if cache["mode"] == "power":
        return power_spectrogram_grad(grad, cache)
    return complex_stft_grad(grad, cache)
