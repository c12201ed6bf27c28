"""Correctness checks of the benchmark, made apart from the program.

Each check takes the program's outputs plus the benchmark's own expectation
and returns a list of failure messages; an empty list means the check
passed. The checks never compare against stored copies of earlier output:
they test properties (finite, in range, loss went down), gradients against
float64 central differences, and counts against the benchmark's own
reference labels and record grouping.
"""

from __future__ import annotations

import math

import numpy as np

HEALTHY = "healthy"
FAULTY = "faulty"

# Float32 program output against the float64 reference: the largest absolute
# difference may reach this share of the largest reference magnitude.
REFERENCE_RTOL = 1e-4
# Central differences in float64 against the analytic directional derivative.
GRADIENT_RTOL = 1e-4
# A reference output pair whose margin |o1 - o0| is within this share of the
# largest output magnitude may round either way in float32; such a segment
# counts as either label.
TIE_RTOL = 1e-4


def check_gan_run(checkpoints, diverged):
    """Training finished, every checkpoint is finite, and the validation
    composite loss at the last checkpoint is below the one at iteration 0."""
    fails = []
    if diverged:
        fails.append("GAN training diverged")
    if len(checkpoints) < 2:
        return fails + [f"expected at least 2 checkpoints, got {len(checkpoints)}"]
    if checkpoints[0].iteration != 0:
        fails.append(f"first checkpoint at iteration {checkpoints[0].iteration}, not 0")
    losses = [c.val_loss for c in checkpoints]
    if not all(math.isfinite(v) for v in losses):
        fails.append(f"non-finite validation loss in {losses}")
    elif not losses[-1] < losses[0]:
        fails.append(f"validation loss did not fall: {losses[0]:.3f} -> {losses[-1]:.3f}")
    for c in checkpoints:
        for j, (w, b) in enumerate(c.gen_params):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                fails.append(f"checkpoint {c.iteration}: non-finite generator layer {j}")
    return fails


def _axpy(params, dirs, scale):
    return [(w + scale * dw, b + scale * db) for (w, b), (dw, db) in zip(params, dirs)]


def _dot(a, b):
    return float(sum(np.vdot(wa, wb) + np.vdot(ba, bb) for (wa, ba), (wb, bb) in zip(a, b)))


def check_directional_derivative(name, loss, params, grads, seed, n_random=2,
                                 eps=1e-6, rtol=GRADIENT_RTOL):
    """Compare <grads, d> with (loss(p + eps d) - loss(p - eps d)) / (2 eps)
    along unit directions d: the normalized gradient itself, then n_random
    Gaussian directions. params and grads are lists of float64 (w, b) pairs;
    loss maps such a list to a float."""
    rng = np.random.default_rng(seed)
    gnorm = math.sqrt(_dot(grads, grads))
    if not math.isfinite(gnorm) or gnorm == 0.0:
        return [f"{name}: gradient norm is {gnorm}"]
    directions = [[(gw / gnorm, gb / gnorm) for gw, gb in grads]]
    for _ in range(n_random):
        d = [(rng.standard_normal(w.shape), rng.standard_normal(b.shape)) for w, b in params]
        dn = math.sqrt(_dot(d, d))
        directions.append([(dw / dn, db / dn) for dw, db in d])
    fails = []
    for k, d in enumerate(directions):
        analytic = _dot(grads, d)
        numeric = (loss(_axpy(params, d, eps)) - loss(_axpy(params, d, -eps))) / (2.0 * eps)
        # random directions see only a sliver of the gradient; measure their
        # error against the gradient norm so roundoff cannot dominate
        scale = max(abs(numeric), abs(analytic), gnorm * 1e-3)
        err = abs(numeric - analytic) / scale
        if not err <= rtol:
            fails.append(f"{name}: direction {k}: analytic {analytic:.9g} vs "
                         f"central difference {numeric:.9g} (rel err {err:.2e})")
    return fails


def check_detection(faulty_labels, healthy_labels, recall_floor, far_ceiling):
    """Segment recall on segments the corpus generator made faulty, and the
    false-alarm rate on segments it made healthy, against fixed limits."""
    fails = []
    for labels in (faulty_labels, healthy_labels):
        bad = {x for x in labels} - {HEALTHY, FAULTY}
        if bad:
            fails.append(f"unknown labels {sorted(bad)}")
    if not faulty_labels or not healthy_labels:
        return fails + ["both held-out classes must be non-empty"]
    recall = sum(x == FAULTY for x in faulty_labels) / len(faulty_labels)
    far = sum(x == FAULTY for x in healthy_labels) / len(healthy_labels)
    if not recall >= recall_floor:
        fails.append(f"segment recall {recall:.3f} below floor {recall_floor}")
    if not far <= far_ceiling:
        fails.append(f"segment false-alarm rate {far:.3f} above ceiling {far_ceiling}")
    return fails


def check_synthesis(inputs, outputs, segment_len):
    """One finite segment in [-1, 1] per input, in input order, each carrying
    its source's working condition."""
    if len(outputs) != len(inputs):
        return [f"synthesis returned {len(outputs)} segments for {len(inputs)} inputs"]
    fails = []
    for k, (src, out) in enumerate(zip(inputs, outputs)):
        x = np.asarray(out.samples)
        if x.shape != (segment_len,):
            fails.append(f"segment {k}: shape {x.shape}")
        elif not np.all(np.isfinite(x)):
            fails.append(f"segment {k}: non-finite samples")
        elif x.min() < -1.0 or x.max() > 1.0:
            fails.append(f"segment {k}: samples outside [-1, 1]")
        if out.condition != src.condition:
            fails.append(f"segment {k}: condition {out.condition} != source {src.condition}")
    return fails[:10]


def check_close(name, got, want, rtol=REFERENCE_RTOL):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    scale = max(float(np.max(np.abs(want))), 1e-30)
    err = float(np.max(np.abs(got - want))) / scale
    if not err <= rtol:
        return [f"{name}: max abs error {err:.2e} of the reference scale exceeds {rtol:.0e}"]
    return []


def reference_labels(outputs, tie_rtol=TIE_RTOL):
    """(is_faulty, is_ambiguous) per row of detector outputs (N, 2): faulty
    when output 1 exceeds output 0, ties healthy; a margin within tie_rtol of
    the largest output magnitude is ambiguous."""
    out = np.asarray(outputs, dtype=np.float64)
    margin = out[:, 1] - out[:, 0]
    scale = max(float(np.max(np.abs(out))), 1e-30) if out.size else 1.0
    return margin > 0, np.abs(margin) <= tie_rtol * scale


def _faulty_range(faulty, ambiguous):
    """Lowest and highest possible count of faulty labels."""
    sure = int(np.sum(faulty & ~ambiguous))
    return sure, sure + int(np.sum(ambiguous))


def _record_faulty_range(faulty, ambiguous):
    """Lowest and highest possible record verdict under the >= 2 rule, as 0/1."""
    lo, hi = _faulty_range(faulty, ambiguous)
    return int(lo >= 2), int(hi >= 2)


def expected_eval_counts(faulty_records, healthy_segments, tie_rtol=TIE_RTOL):
    """Counts an evaluation report must hold, from reference outputs.

    faulty_records: list of (sensor, outputs (n_segments, 2)) per faulty
    record. healthy_segments: list of (source_record, output (2,)). Returns
    {"per_sensor": {sensor: (det_lo, det_hi, total)}, "far": (lo, hi, n),
    "fp_records": (lo, hi)}; ranges are points unless some margin is a tie.
    """
    per_sensor = {}
    for sensor, outs in faulty_records:
        lo, hi = _record_faulty_range(*reference_labels(outs, tie_rtol))
        d_lo, d_hi, tot = per_sensor.get(sensor, (0, 0, 0))
        per_sensor[sensor] = (d_lo + lo, d_hi + hi, tot + 1)
    far = (0, 0, 0)
    fp = (0, 0)
    if healthy_segments:
        outs = np.stack([np.asarray(o, dtype=np.float64) for _, o in healthy_segments])
        faulty, amb = reference_labels(outs, tie_rtol)
        far = _faulty_range(faulty, amb) + (len(healthy_segments),)
        groups = {}
        for k, (rec, _) in enumerate(healthy_segments):
            groups.setdefault(rec, []).append(k)
        fp_lo = fp_hi = 0
        for idx in groups.values():
            lo, hi = _record_faulty_range(faulty[idx], amb[idx])
            fp_lo += lo
            fp_hi += hi
        fp = (fp_lo, fp_hi)
    return {"per_sensor": per_sensor, "far": far, "fp_records": fp}


def check_eval_counts(report, expected):
    """Detected and total per sensor, false-alarm segments and flagged
    records of an EvalReport against expected_eval_counts."""
    fails = []
    got = {row[0]: (row[1], row[2]) for row in report.per_sensor}
    want = expected["per_sensor"]
    if set(got) != set(want):
        return [f"report sensors {sorted(got)} != expected {sorted(want)}"]
    tp_lo = tp_hi = 0
    for sensor, (det, tot) in sorted(got.items()):
        lo, hi, wtot = want[sensor]
        tp_lo += lo
        tp_hi += hi
        if tot != wtot:
            fails.append(f"sensor {sensor}: total {tot} != expected {wtot}")
        if not lo <= det <= hi:
            fails.append(f"sensor {sensor}: detected {det} outside expected [{lo}, {hi}]")
    mis, n = report.far_counts
    f_lo, f_hi, f_n = expected["far"]
    if n != f_n:
        fails.append(f"false-alarm total {n} != expected {f_n}")
    if not f_lo <= mis <= f_hi:
        fails.append(f"false alarms {mis} outside expected [{f_lo}, {f_hi}]")
    tp, flagged = report.precision_counts
    if not tp_lo <= tp <= tp_hi:
        fails.append(f"true positives {tp} outside expected [{tp_lo}, {tp_hi}]")
    p_lo, p_hi = expected["fp_records"]
    if not p_lo <= flagged - tp <= p_hi:
        fails.append(f"false-positive records {flagged - tp} outside expected [{p_lo}, {p_hi}]")
    return fails


def check_labels(name, labels, outputs, tie_rtol=TIE_RTOL):
    """Program labels against reference outputs, ambiguous margins excused."""
    if len(labels) != len(outputs):
        return [f"{name}: {len(labels)} labels for {len(outputs)} reference outputs"]
    faulty, amb = reference_labels(outputs, tie_rtol)
    wrong = [k for k, lab in enumerate(labels)
             if not amb[k] and lab != (FAULTY if faulty[k] else HEALTHY)]
    if wrong:
        return [f"{name}: {len(wrong)} labels disagree with the reference, first at {wrong[0]}"]
    return []
