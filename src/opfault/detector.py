"""Compact 1D Self-ONN fault detector: build, train, classify, evaluate.

The detector is five operational conv layers and two dense layers trained
with MSE against (+1, -1) targets for healthy and (-1, +1) for faulty
segments (tanh outputs, so +-1 saturates the right neuron). Record-level
decisions use the >= 2 faulty segments rule; healthy evaluation stays
segment-granular (false-alarm rate) while fault evaluation is
record-granular (recall).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network as N
from . import tensor as T

HEALTHY = "healthy"
FAULTY = "faulty"

AMPLITUDE_TOL = 1e-5  # inputs must sit in [-1-tol, 1+tol]


@dataclass
class DetectorConfig:
    q: int = 3
    channels: int = 16
    dense_hidden: int = 32
    outputs: int = 2
    kernels: tuple = (81, 41, 21, 7, 7)
    strides: tuple = (8, 4, 4, 2, 2)
    padding: int = 0
    epochs: int = 50
    lr: float = 1e-4
    batch: int = 32
    seed: int = 0
    segment_len: int = 4096

    def validate(self):
        if len(self.kernels) != len(self.strides):
            raise ValueError("kernels and strides must align")
        if self.q < 1 or self.channels < 1 or self.dense_hidden < 1:
            raise ValueError("q, channels and dense_hidden must be >= 1")
        if self.outputs != 2:
            raise ValueError("detector is a two-class model; outputs must be 2")
        if self.epochs < 0 or self.batch < 1:
            raise ValueError("epochs must be >= 0 and batch >= 1")
        return self


def build_detector(cfg: DetectorConfig) -> N.NetworkSpec:
    cfg.validate()
    layers = []
    in_ch = 1
    for k, s in zip(cfg.kernels, cfg.strides):
        layers.append(N.LayerSpec("op_conv", in_ch, cfg.channels, kernel=k, q=cfg.q,
                                  stride=s, padding=cfg.padding))
        in_ch = cfg.channels
    probe = N.NetworkSpec(layers=list(layers), input_len=cfg.segment_len)
    flat_ch, flat_len = probe.trace_shapes()[-1]
    layers.append(N.dense_layer(flat_ch * flat_len, cfg.dense_hidden))
    layers.append(N.dense_layer(cfg.dense_hidden, cfg.outputs))
    return N.NetworkSpec(layers=layers, input_len=cfg.segment_len).validate()


def _segment_matrix(segments: list, segment_len: int) -> np.ndarray:
    xs = np.empty((len(segments), 1, segment_len), dtype=np.float32)
    for i, s in enumerate(segments):
        if not s.normalized:
            raise ValueError("detector inputs must be normalized segments")
        if s.samples.size != segment_len:
            raise ValueError(f"segment length {s.samples.size} != {segment_len}")
        xs[i, 0] = s.samples
    if xs.size and (xs.min() < -1.0 - AMPLITUDE_TOL or xs.max() > 1.0 + AMPLITUDE_TOL):
        raise ValueError("normalized segments must lie within [-1, 1]")
    return xs


def _balanced_batches(n_healthy: int, n_faulty: int, batch: int, rng_h, rng_f):
    """Index batches with a fixed healthy/faulty half-split; each class cycles
    through reshuffled permutations from its own slot rng so every batch stays
    balanced and the two slots stay independent."""
    half_f = batch // 2
    half_h = batch - half_f
    steps = int(np.ceil((n_healthy + n_faulty) / batch))

    def stream(n, count, rng):
        out = []
        while len(out) < count:
            out.extend(rng.permutation(n).tolist())
        return out[:count]

    hs = stream(n_healthy, steps * half_h, rng_h)
    fs = stream(n_faulty, steps * half_f, rng_f)
    for k in range(steps):
        yield hs[k * half_h:(k + 1) * half_h], fs[k * half_f:(k + 1) * half_f]


def init_detector_params(spec, rng) -> list:
    """Standard init except the output layer starts with identical rows, so
    the model is exactly invariant under swapping the two classes: retraining
    with swapped labels mirrors the trajectory and flips the argmax."""
    params = N.init_params(spec, rng)
    w, b = params[-1]
    w[1] = w[0]
    b[1] = b[0]
    return params


def train_detector(healthy: list, faulty: list, cfg: DetectorConfig) -> list:
    """Train on real-healthy plus (synthetic-)faulty segments; returns params."""
    cfg.validate()
    if not healthy or not faulty:
        raise ValueError("both classes must be non-empty")
    spec = build_detector(cfg)
    params = init_detector_params(
        spec, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x0DE7])))
    if cfg.epochs == 0:
        return params

    xh = _segment_matrix(healthy, cfg.segment_len)
    xf = _segment_matrix(faulty, cfg.segment_len)
    t_h = np.array([1.0, -1.0], dtype=np.float32)
    t_f = np.array([-1.0, 1.0], dtype=np.float32)

    rng_h = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xBA7, 0]))
    rng_f = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xBA7, 1]))
    opt = T.AdamOptimizer(params, lr=cfg.lr)
    for _ in range(cfg.epochs):
        for hi, fi in _balanced_batches(len(xh), len(xf), cfg.batch, rng_h, rng_f):
            xb = np.concatenate([xh[hi], xf[fi]], axis=0)
            tb = np.concatenate([np.tile(t_h, (len(hi), 1)),
                                 np.tile(t_f, (len(fi), 1))], axis=0)
            out, cache = N.forward_network(spec, opt.params, xb, want_cache=True)
            if not np.all(np.isfinite(out)):
                raise ValueError("detector training diverged (non-finite outputs)")
            grad = (2.0 * (out - tb) / out.size).astype(np.float32)
            _, grads = N.backward_network(spec, opt.params, cache, grad,
                                          need_input_grad=False)
            opt.step(grads)
    return opt.params


def classify_matrix(spec, params, xs: np.ndarray) -> np.ndarray:
    """Labels for a (N, 1, L) batch: argmax of the two outputs, ties healthy."""
    out = N.forward_network(spec, params, xs)
    return np.where(out[:, 1] > out[:, 0], FAULTY, HEALTHY)


def classify_segment(spec, params, segment) -> str:
    xs = _segment_matrix([segment], spec.input_len)
    return str(classify_matrix(spec, params, xs)[0])


def classify_segments(spec, params, segments: list) -> list:
    # one pass over all of them: forward_network blocks its rows
    if not segments:
        return []
    return classify_matrix(spec, params, _segment_matrix(segments, spec.input_len)).tolist()


def record_label(segment_labels: list) -> str:
    # >= 2 faulty segments flips the whole record; a single hit is tolerated
    # as an occasional false alarm
    if not segment_labels:
        raise ValueError("cannot classify a record with no segment labels")
    return FAULTY if sum(1 for x in segment_labels if x == FAULTY) >= 2 else HEALTHY


@dataclass
class EvalReport:
    per_sensor: list            # rows (sensor_id, detected, total, recall)
    overall_recall: float | None
    segment_far: float | None
    record_precision: float | None
    n_healthy_segments: int = 0
    n_faulty_records: int = 0
    far_counts: tuple = (0, 0)        # (misclassified, total)
    precision_counts: tuple = (0, 0)  # (true positives, flagged records)

    def to_csv_text(self) -> str:
        def rate(x):
            return "-" if x is None else f"{x:.6f}"

        lines = ["sensor_id,detected,total,recall"]
        for sensor, detected, total, recall in self.per_sensor:
            lines.append(f"{sensor},{detected},{total},{rate(recall)}")
        det = sum(r[1] for r in self.per_sensor)
        tot = sum(r[2] for r in self.per_sensor)
        lines.append(f"overall,{det},{tot},{rate(self.overall_recall)}")
        lines.append(f"far,{self.far_counts[0]},{self.far_counts[1]},"
                     f"{rate(self.segment_far)}")
        lines.append(f"precision,{self.precision_counts[0]},{self.precision_counts[1]},"
                     f"{rate(self.record_precision)}")
        return "\n".join(lines) + "\n"


def recall_from_counts(detected, totals) -> float:
    det, tot = sum(detected), sum(totals)
    if tot == 0:
        raise ValueError("no fault records to recall")
    return det / tot


def report_from_counts(per_sensor_detected, per_sensor_totals,
                       misclassified_segments: int, total_segments: int,
                       false_positive_records: int = 0, sensors=None) -> EvalReport:
    """Assemble a report from aggregated counts. sensors holds the ids of the
    per-sensor rows (1..n by default); a side with no counts gets None rates."""
    sensors = sensors or range(1, len(per_sensor_totals) + 1)
    per_sensor = [(s, d, t, d / t if t else None)
                  for s, d, t in zip(sensors, per_sensor_detected, per_sensor_totals)]
    detected = sum(per_sensor_detected)
    n_faulty = sum(per_sensor_totals)
    flagged = detected + false_positive_records
    return EvalReport(
        per_sensor=per_sensor,
        overall_recall=(recall_from_counts(per_sensor_detected, per_sensor_totals)
                        if n_faulty else None),
        segment_far=(misclassified_segments / total_segments) if total_segments else None,
        record_precision=(detected / flagged) if flagged else None,
        n_healthy_segments=total_segments,
        n_faulty_records=n_faulty,
        far_counts=(misclassified_segments, total_segments),
        precision_counts=(detected, flagged))


def evaluate(spec, params, healthy_segments: list, faulty_records: list) -> EvalReport:
    """Score a detector: segment FAR over the healthy pool, record recall over
    the faulty records, record precision over both. Either side may be empty;
    its metrics come back as None and render as "-" in the CSV."""
    from .dataset import record_to_segments  # local import, avoids module cycle

    counts = {}
    for rec in faulty_records:
        segs = record_to_segments(rec, segment_len=spec.input_len)
        hit = record_label(classify_segments(spec, params, segs)) == FAULTY
        det, tot = counts.get(rec.condition.sensor, (0, 0))
        counts[rec.condition.sensor] = (det + int(hit), tot + 1)

    mis = fp_records = 0
    if healthy_segments:
        labels = classify_segments(spec, params, healthy_segments)
        mis = sum(1 for x in labels if x == FAULTY)
        # record-level false alarms: group the healthy pool by source record
        by_record = {}
        for seg, label in zip(healthy_segments, labels):
            by_record.setdefault(seg.source_record, []).append(label)
        fp_records = sum(1 for ls in by_record.values()
                         if record_label(ls) == FAULTY)

    sensors = sorted(counts)
    return report_from_counts([counts[s][0] for s in sensors],
                              [counts[s][1] for s in sensors],
                              mis, len(healthy_segments), fp_records, sensors=sensors)
