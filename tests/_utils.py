"""Shared test helpers: central-difference gradients, error metrics, the
oracles the tests check the program against and the criterion-10 micro
pipeline run."""

import numpy as np

from opfault.detector import DetectorConfig
from opfault.gan import GanConfig
from opfault.pipeline import run_pipeline
from opfault.synth import DEFAULT_MACHINES, build_corpus
from opfault.tensor import require_finite, require_same_shape


def numerical_grad(f, x, h=1e-3):
    """Central finite difference of scalar f() with respect to array x.

    f must close over x; entries are perturbed in place and restored.
    Returns float64 gradient of x's shape.
    """
    x = np.asarray(x)
    flat = x.reshape(-1)
    g = np.zeros(flat.shape, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return g.reshape(x.shape)


def rel_err(analytic, numeric):
    """L2 ratio ||a - n|| / max(||a|| + ||n||, tiny)."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a) + np.linalg.norm(n), 1e-12)
    return float(np.linalg.norm(a - n) / denom)


def naive_dft(x) -> np.ndarray:
    """Textbook O(N^2) DFT, one-sided bins. Deliberately written as the
    defining double sum; serves as an independent reference for the FFT path."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    bins = n // 2 + 1
    out = np.zeros(bins, dtype=np.complex128)
    for k in range(bins):
        acc = 0.0 + 0.0j
        for m in range(n):
            ang = -2.0 * np.pi * k * m / n
            acc += x[m] * (np.cos(ang) + 1j * np.sin(ang))
        out[k] = acc
    return out


def frame_count(length: int, window: int, hop: int) -> int:
    if length < window:
        return 0
    return 1 + (length - window) // hop


def percent(x: float, decimals: int = 2) -> str:
    """A rate as the percentage string the paper's tables print."""
    return f"{100.0 * x:.{decimals}f}"


def mse_loss(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference between two equally shaped buffers."""
    a = np.asarray(a)
    b = np.asarray(b)
    require_same_shape(a, b, "mse_loss")
    require_finite(a, "mse_loss lhs")
    require_finite(b, "mse_loss rhs")
    d = a.astype(np.float64) - b.astype(np.float64)
    return float(np.mean(d * d))


CRITERION_10_FILES = ("report.csv", "generator.sonn", "detector.sonn",
                      "gan_metrics.csv", "run_ledger.txt")


def criterion_10_run(out_dir, seed=5):
    """The criterion-10 micro pipeline: two-speed M1/M2 corpora, width-4 GAN
    and detector, two GAN iterations and two detector epochs; writes the
    CRITERION_10_FILES into out_dir."""
    source, target = (build_corpus(DEFAULT_MACHINES[m], speeds=(400.0, 800.0), load=0.1,
                                   healthy_duration_s=4.0, faulty_duration_s=2.0,
                                   defects=(1.2, 1.8), seed=0) for m in ("M1", "M2"))
    gan_cfg = GanConfig(gen_width=4, disc_width=4, q=2, batch=4, max_iters=2,
                        checkpoint_every=1, lr=1e-3)
    det_cfg = DetectorConfig(channels=4, dense_hidden=8, epochs=2, batch=8, q=2)
    run_pipeline(source, target, gan_cfg, det_cfg, seed=seed, out_dir=str(out_dir))
