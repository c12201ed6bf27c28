"""Vibration signal utilities: segmentation, normalization, spectrograms.

Segments are fixed-length non-overlapping windows of a record; partial
windows at the tail are dropped. Normalization maps each segment to
[-1, 1] via 2 * (x - min) / (max - min) - 1, flagging constant segments
as degenerate rather than dividing by zero.

Spectral features are the power spectrogram under a symmetric Hann window
(256 samples, hop 128 by default), one-sided bins, through the FFT. The
hand-derived backward pass runs the same chain in reverse: the
magnitude-square derivative, the adjoint of rfft (an inverse real FFT
with the interior bins halved), the window, and overlap-add of the
frames, so the spectral loss can drive generator training.
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


def _frames(x, window, hop):
    if x.shape[-1] < window:
        raise ValueError(f"signal length {x.shape[-1]} shorter than one window ({window})")
    return sliding_window_view(x, window, axis=-1)[..., ::hop, :]


def spectral_features(x, window: int = SPEC_WINDOW, hop: int = SPEC_HOP,
                      want_cache: bool = False):
    """Windowed one-sided power spectrogram, shape (..., frames, window//2 + 1)."""
    x = np.asarray(x)
    fw = _frames(x.astype(np.float64, copy=False), window, hop) * hann_window(window)
    spec = np.fft.rfft(fw, axis=-1)
    p = spec.real * spec.real + spec.imag * spec.imag
    if want_cache:
        return p, {"spec": spec, "window": window, "hop": hop,
                   "shape": x.shape, "dtype": x.dtype}
    return p


def spectral_features_grad(grad_p, cache) -> np.ndarray:
    """Gradient of spectral_features through windowing, framing and the DFT."""
    window, hop = cache["window"], cache["hop"]
    # adjoint of rfft: n * irfft counts each interior bin twice, so halve them
    g_spec = 2.0 * cache["spec"] * grad_p
    g_spec[..., 1:(window + 1) // 2] *= 0.5
    grad_frames = window * np.fft.irfft(g_spec, n=window, axis=-1) * hann_window(window)
    grad_x = np.zeros(cache["shape"], dtype=np.float64)
    for j in range(grad_frames.shape[-2]):
        grad_x[..., j * hop:j * hop + window] += grad_frames[..., j, :]
    dtype = cache["dtype"]
    return grad_x.astype(dtype) if np.dtype(dtype).kind == "f" else grad_x
