"""Numeric substrate: float32 buffers, elementary losses, Adam.

Buffers are plain numpy float32 arrays; shape conventions are
(channels, length) for signals and (frames, bins) for spectrograms.
Loss reductions and Adam moments accumulate in float64 so that
finite-difference gradient checks stay meaningful at float32 precision.
Non-finite values are rejected at these boundaries instead of being
propagated into the training loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BCE_EPS = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def require_same_shape(a: np.ndarray, b: np.ndarray, what: str = "operands"):
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch for {what}: {a.shape} vs {b.shape}")


class NonFiniteError(ValueError):
    """A buffer that must be finite holds NaN or infinity."""


def require_finite(x: np.ndarray, what: str = "buffer"):
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"non-finite values in {what}")


def l1_loss(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute difference between two equally shaped buffers."""
    a = np.asarray(a)
    b = np.asarray(b)
    require_same_shape(a, b, "l1_loss")
    require_finite(a, "l1_loss lhs")
    require_finite(b, "l1_loss rhs")
    return float(np.mean(np.abs(a.astype(np.float64) - b.astype(np.float64))))


def bce_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean binary cross-entropy, predictions clamped to [eps, 1-eps].

    Targets must be exactly 0 or 1. The clamp keeps the loss finite for
    saturated predictions without touching gradients away from saturation.
    """
    pred = np.asarray(pred)
    target = np.asarray(target)
    require_same_shape(pred, target, "bce_loss")
    require_finite(pred, "bce_loss pred")
    tv = np.asarray(target, dtype=np.float64)
    if not np.all((tv == 0.0) | (tv == 1.0)):
        raise ValueError("bce_loss targets must be 0 or 1")
    p = np.clip(pred.astype(np.float64), BCE_EPS, 1.0 - BCE_EPS)
    return float(np.mean(-(tv * np.log(p) + (1.0 - tv) * np.log(1.0 - p))))


def bce_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Gradient of bce_loss with respect to the predictions."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    require_same_shape(pred, target, "bce_grad")
    p = np.clip(pred.astype(np.float64), BCE_EPS, 1.0 - BCE_EPS)
    t = target.astype(np.float64)
    g = (-(t / p) + (1.0 - t) / (1.0 - p)) / pred.size
    return g.astype(pred.dtype if pred.dtype.kind == "f" else np.float32)


@dataclass
class AdamState:
    """Per-buffer Adam moments. Moments are float64 for stable accumulation."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-4

    @classmethod
    def for_param(cls, param: np.ndarray, lr: float = 1e-4):
        return cls(m=np.zeros(param.shape, dtype=np.float64),
                   v=np.zeros(param.shape, dtype=np.float64), t=0, lr=lr)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> np.ndarray:
    """One bias-corrected Adam update. Returns new params; mutates state."""
    params = np.asarray(params)
    grads = np.asarray(grads)
    require_same_shape(params, grads, "adam_step params/grads")
    require_same_shape(params, state.m, "adam_step params/moments")
    require_finite(grads, "adam_step grads")

    state.t += 1
    g = grads.astype(np.float64)
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (g * g)
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.t)
    step = state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return (params.astype(np.float64) - step).astype(params.dtype)


class AdamOptimizer:
    """Adam over a list of (weights, bias) parameter pairs."""

    def __init__(self, params: list, lr: float = 1e-4):
        self.params = params
        self.states = [(AdamState.for_param(w, lr), AdamState.for_param(b, lr))
                       for w, b in params]

    def step(self, grads: list):
        for i, ((w, b), (gw, gb)) in enumerate(zip(self.params, grads)):
            sw, sb = self.states[i]
            self.params[i] = (adam_step(w, gw, sw), adam_step(b, gb, sb))
        return self.params
