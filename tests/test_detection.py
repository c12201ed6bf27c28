"""Fault detector: architecture, training, record rule, evaluation metrics."""

import time

import numpy as np
import pytest

from opfault import network as N
from opfault.dataset import Record, WorkingCondition
from opfault.detector import (DetectorConfig, EvalReport, build_detector,
                              classify_segment,
                              classify_segments, evaluate,
                              init_detector_params, record_label,
                              recall_from_counts, report_from_counts,
                              train_detector)
from opfault.signal import Segment, normalize_segment

from _utils import percent


def mini_cfg(**kw):
    base = dict(kernels=(17, 9), strides=(4, 2), channels=6, dense_hidden=8,
                segment_len=256, epochs=30, batch=8, lr=1e-3, q=2, seed=5)
    base.update(kw)
    return DetectorConfig(**base)


def norm_seg(x, cond=None, src="r", idx=0):
    y, deg = normalize_segment(np.asarray(x, dtype=np.float32))
    return Segment(samples=y, condition=cond, source_record=src, index=idx,
                   normalized=True, degenerate=deg)


def separable_segments(n_per_class, length, seed=0):
    """Pure tones vs tones with sharp added impulses."""
    rng = np.random.default_rng(seed)
    cond = WorkingCondition("T", 1, 600, 0.1)
    t = np.arange(length) / length
    healthy, faulty = [], []
    for i in range(n_per_class):
        tone = np.sin(2 * np.pi * 5 * t + rng.uniform(0, 2 * np.pi))
        tone += 0.02 * rng.standard_normal(length)
        healthy.append(norm_seg(tone, cond, src=f"h{i}", idx=i))
        spiky = tone.copy()
        spiky[rng.integers(0, length, size=6)] += rng.uniform(2, 3, size=6)
        faulty.append(norm_seg(spiky, cond, src=f"f{i}", idx=i))
    return healthy, faulty


# ---------------------------------------------------------------- architecture

def test_default_parameter_count():
    assert N.count_params(build_detector(DetectorConfig())) == 63458


def test_default_shape_chain():
    spec = build_detector(DetectorConfig())
    shapes = spec.trace_shapes()
    assert [l for _, l in shapes[:5]] == [502, 116, 24, 9, 2]
    assert shapes[4][0] * shapes[4][1] == 32
    assert spec.layers[5].in_channels == 32 and spec.layers[5].out_channels == 32
    assert spec.layers[6].out_channels == 2
    assert all(ls.activation == "tanh" for ls in spec.layers)


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(kernels=(81, 41), strides=(8,)).validate()
    with pytest.raises(ValueError):
        DetectorConfig(outputs=3).validate()
    with pytest.raises(ValueError):
        DetectorConfig(epochs=-1).validate()


# -------------------------------------------------------------------- training

def test_zero_epochs_returns_initialization():
    cfg = mini_cfg(epochs=0)
    healthy, faulty = separable_segments(4, 256)
    p0 = train_detector(healthy, faulty, cfg)
    p1 = train_detector(healthy, faulty, cfg)
    for (w0, b0), (w1, b1) in zip(p0, p1):
        assert np.array_equal(w0, w1) and np.array_equal(b0, b1)
    # symmetric start: the two output rows coincide, so every input ties
    w, b = p0[-1]
    assert np.array_equal(w[0], w[1]) and b[0] == b[1]
    trained = train_detector(healthy, faulty, mini_cfg(epochs=1))
    assert not np.array_equal(trained[0][0], p0[0][0])


def test_empty_class_rejected():
    healthy, faulty = separable_segments(3, 256)
    with pytest.raises(ValueError):
        train_detector([], faulty, mini_cfg())
    with pytest.raises(ValueError):
        train_detector(healthy, [], mini_cfg())


def test_overfits_separable_classes():
    cfg = mini_cfg()
    healthy, faulty = separable_segments(16, 256, seed=2)
    params = train_detector(healthy, faulty, cfg)
    spec = build_detector(cfg)
    assert classify_segments(spec, params, healthy) == ["healthy"] * 16
    assert classify_segments(spec, params, faulty) == ["faulty"] * 16


def test_label_swap_symmetry():
    cfg = mini_cfg(epochs=20, seed=9)
    healthy, faulty = separable_segments(8, 256, seed=3)
    spec = build_detector(cfg)
    p_fwd = train_detector(healthy, faulty, cfg)
    p_swp = train_detector(faulty, healthy, cfg)
    probes = healthy[:4] + faulty[:4]
    fwd = classify_segments(spec, p_fwd, probes)
    swp = classify_segments(spec, p_swp, probes)
    flip = {"healthy": "faulty", "faulty": "healthy"}
    assert swp == [flip[x] for x in fwd]


def test_training_deterministic_under_seed():
    cfg = mini_cfg(epochs=3)
    healthy, faulty = separable_segments(6, 256, seed=1)
    p1 = train_detector(healthy, faulty, cfg)
    p2 = train_detector(healthy, faulty, cfg)
    for (w1, b1), (w2, b2) in zip(p1, p2):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


# -------------------------------------------------------------- classification

def test_classify_tie_breaks_healthy():
    cfg = mini_cfg(epochs=0)
    spec = build_detector(cfg)
    params = train_detector(*separable_segments(2, 256), cfg)
    seg = norm_seg(np.random.default_rng(0).standard_normal(256))
    assert classify_segment(spec, params, seg) == "healthy"


def test_classify_rejects_unnormalized():
    cfg = mini_cfg(epochs=0)
    spec = build_detector(cfg)
    params = init_detector_params(spec, np.random.default_rng(0))
    raw = Segment(samples=np.zeros(256, dtype=np.float32), normalized=False)
    with pytest.raises(ValueError):
        classify_segment(spec, params, raw)
    liar = Segment(samples=np.full(256, 3.0, dtype=np.float32), normalized=True)
    with pytest.raises(ValueError):
        classify_segment(spec, params, liar)


def test_record_rule():
    assert record_label(["faulty", "faulty"] + ["healthy"] * 28) == "faulty"
    assert record_label(["faulty"] + ["healthy"] * 29) == "healthy"
    assert record_label(["healthy"] * 30) == "healthy"
    assert record_label(["faulty"] * 3) == "faulty"
    with pytest.raises(ValueError):
        record_label([])


def test_record_rule_monotone_under_flips():
    rng = np.random.default_rng(4)
    for _ in range(50):
        labels = list(rng.choice(["healthy", "faulty"], size=rng.integers(1, 20)))
        before = record_label(labels)
        i = rng.integers(len(labels))
        labels[i] = "faulty"
        after = record_label(labels)
        assert not (before == "faulty" and after == "healthy")


# ------------------------------------------------------------------ evaluation

def _toy_records(n_records, segs_per_record, length, seed, faulty):
    """Records whose segments are tones (healthy) or tones+impulses (faulty)."""
    rng = np.random.default_rng(seed)
    t = np.arange(length * segs_per_record) / length
    out = []
    for i in range(n_records):
        cond = WorkingCondition("T", 1 + i % 2, 600, 0.1)
        x = np.sin(2 * np.pi * 5 * t + rng.uniform(0, 2 * np.pi))
        x += 0.02 * rng.standard_normal(x.size)
        if faulty:
            x[rng.integers(0, x.size, size=6 * segs_per_record)] += rng.uniform(
                2, 3, size=6 * segs_per_record)
        out.append(Record(samples=x.astype(np.float32), condition=cond,
                          fault_type="inner" if faulty else "healthy",
                          defect_mm=1.0 if faulty else 0.0, name=f"rec{faulty}{i}"))
    return out


def test_evaluate_perfect_classifier_invariants():
    cfg = mini_cfg(epochs=40, seed=11)
    healthy, faulty = separable_segments(16, 256, seed=2)
    params = train_detector(healthy, faulty, cfg)
    spec = build_detector(cfg)

    faulty_recs = _toy_records(4, 3, 256, seed=7, faulty=True)
    report = evaluate(spec, params, healthy, faulty_recs)
    assert report.overall_recall == 1.0
    assert report.segment_far == 0.0
    assert report.record_precision == 1.0
    assert sum(r[2] for r in report.per_sensor) == 4
    assert report.n_faulty_records == 4
    again = evaluate(spec, params, healthy, faulty_recs)
    assert again == report


def test_evaluate_partial_reports():
    cfg = mini_cfg(epochs=0)
    params = train_detector(*separable_segments(2, 256), cfg)
    spec = build_detector(cfg)
    healthy, _ = separable_segments(4, 256)

    no_faults = evaluate(spec, params, healthy, [])
    assert no_faults.overall_recall is None
    assert no_faults.segment_far == 0.0          # untrained net ties -> healthy
    assert no_faults.record_precision is None
    assert "overall,0,0,-" in no_faults.to_csv_text()

    no_healthy = evaluate(spec, params, [], _toy_records(2, 3, 256, 7, True))
    assert no_healthy.segment_far is None
    assert "far,0,0,-" in no_healthy.to_csv_text()


def test_report_csv_layout():
    report = report_from_counts([18, 17], [18, 18], 3, 84)
    text = report.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "sensor_id,detected,total,recall"
    assert lines[1] == "1,18,18,1.000000"
    assert lines[2] == "2,17,18,0.944444"
    assert lines[3] == "overall,35,36,0.972222"
    assert lines[4] == "far,3,84,0.035714"
    assert lines[5] == "precision,35,35,1.000000"


def test_table_count_arithmetic():
    r1 = report_from_counts([87, 80, 87, 81, 89, 90], [90] * 6, 0, 6000)
    assert r1.overall_recall == 514 / 540
    assert percent(r1.overall_recall) == "95.19"
    assert percent(r1.overall_recall, 1) == "95.2"

    r2 = report_from_counts([108, 59, 81, 99, 62], [108] * 5, 38, 6000)
    assert r2.overall_recall == 409 / 540
    assert percent(r2.overall_recall) == "75.74"
    assert percent(r2.overall_recall, 1) == "75.7"
    assert r2.segment_far == 38 / 6000
    assert percent(r2.segment_far, 3) == "0.633"

    assert recall_from_counts([1, 2], [2, 2]) == 0.75
    with pytest.raises(ValueError):
        recall_from_counts([], [])


def test_rates_bounded():
    rng = np.random.default_rng(8)
    for _ in range(25):
        totals = rng.integers(1, 20, size=4)
        detected = [int(rng.integers(0, t + 1)) for t in totals]
        mis = int(rng.integers(0, 50))
        rep = report_from_counts(detected, totals.tolist(), mis, 50,
                                 false_positive_records=int(rng.integers(0, 3)))
        assert 0.0 <= rep.overall_recall <= 1.0
        assert 0.0 <= rep.segment_far <= 1.0
        if rep.record_precision is not None:
            assert 0.0 <= rep.record_precision <= 1.0


def test_single_segment_inference_speed():
    cfg = DetectorConfig()
    spec = build_detector(cfg)
    params = init_detector_params(spec, np.random.default_rng(0))
    seg = norm_seg(np.random.default_rng(1).standard_normal(4096))
    classify_segment(spec, params, seg)      # warm-up
    t0 = time.perf_counter()
    reps = 20
    for _ in range(reps):
        classify_segment(spec, params, seg)
    per_call = (time.perf_counter() - t0) / reps
    assert per_call < 0.010, f"{per_call * 1e3:.2f} ms per segment"
