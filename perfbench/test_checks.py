"""Tests of the benchmark's own checks, reference and tracer.

    python3 -m pytest perfbench -q

Each check must pass on right values and fail on a deliberately wrong one;
the float64 reference forward must agree with scalar loops on tiny shapes.
"""

import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from opfault import detector as D  # noqa: E402
from opfault import gan as G  # noqa: E402
from opfault import network as N  # noqa: E402
from opfault import signal as S  # noqa: E402
from opfault.dataset import Record, WorkingCondition  # noqa: E402

import checks as C  # noqa: E402
import reference as R  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY_DET = D.DetectorConfig(q=2, channels=3, dense_hidden=4, kernels=(9, 5), strides=(4, 2),
                            segment_len=256, epochs=1, batch=4)


def scalar_conv(x, w, b, stride, padding):
    batch, in_ch, length = x.shape
    out_ch, _, kernel, q_order = w.shape
    out_len = (length + 2 * padding - kernel) // stride + 1
    y = np.zeros((batch, out_ch, out_len))
    for n in range(batch):
        for o in range(out_ch):
            for m in range(out_len):
                acc = b[o]
                for i in range(in_ch):
                    for r in range(kernel):
                        pos = m * stride + r - padding
                        if 0 <= pos < length:
                            for q in range(q_order):
                                acc += w[o, i, r, q] * x[n, i, pos] ** (q + 1)
                y[n, o, m] = acc
    return y


def scalar_tconv(x, w, b, stride, padding, trim):
    batch, in_ch, length = x.shape
    out_ch, _, kernel, q_order = w.shape
    nominal = (length - 1) * stride + kernel - 2 * padding
    y = np.zeros((batch, out_ch, nominal + trim))
    for n in range(batch):
        for o in range(out_ch):
            for t in range(nominal + trim):
                if t >= nominal:
                    continue        # trimmed-in columns stay zero
                acc = b[o]
                for i in range(in_ch):
                    for l in range(length):
                        r = t + padding - l * stride
                        if 0 <= r < kernel:
                            for q in range(q_order):
                                acc += w[o, i, r, q] * x[n, i, l] ** (q + 1)
                y[n, o, t] = acc
    return y


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 2), (3, 1)])
def test_reference_conv_matches_scalar_loop(stride, padding):
    rng = np.random.default_rng(stride * 10 + padding)
    x, w = rng.standard_normal((2, 3, 17)), rng.standard_normal((4, 3, 5, 3))
    b = rng.standard_normal(4)
    np.testing.assert_allclose(R.ref_conv(x, w, b, stride, padding),
                               scalar_conv(x, w, b, stride, padding), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("stride,padding,trim", [(1, 0, 0), (2, 2, 1), (2, 1, -1), (3, 0, 2)])
def test_reference_tconv_matches_scalar_loop(stride, padding, trim):
    rng = np.random.default_rng(stride * 100 + padding * 10 + trim)
    x, w = rng.standard_normal((2, 3, 7)), rng.standard_normal((4, 3, 5, 2))
    b = rng.standard_normal(4)
    np.testing.assert_allclose(R.ref_tconv(x, w, b, stride, padding, trim),
                               scalar_tconv(x, w, b, stride, padding, trim), rtol=1e-12, atol=1e-12)


def test_reference_forward_wires_skips_and_dense_like_the_program():
    cfg = G.GanConfig(gen_width=3, disc_width=3, q=2, segment_len=64)
    rng = np.random.default_rng(4)
    for spec in (G.build_generator(cfg), D.build_detector(TINY_DET)):
        params = [(w.astype(np.float64), b.astype(np.float64) + 0.1)
                  for w, b in N.init_params(spec, rng)]
        x = rng.uniform(-1, 1, (3, spec.layers[0].in_channels, spec.input_len))
        np.testing.assert_allclose(R.ref_forward(spec, params, x),
                                   N.forward_network(spec, params, x), rtol=1e-10, atol=1e-12)


def test_ref_segments_cuts_and_normalizes():
    x = np.arange(10.0) ** 2
    segs = R.ref_segments(x, 4)
    assert segs.shape == (2, 4)
    assert segs.min() == -1.0 and segs.max() == 1.0
    assert np.all(R.ref_segments(np.ones(8), 4) == 0.0)


def _checkpoints(losses, bad_param=False):
    out = []
    for k, loss in enumerate(losses):
        w = np.ones((2, 2), dtype=np.float32)
        if bad_param and k == len(losses) - 1:
            w[0, 0] = np.nan
        out.append(G.Checkpoint(iteration=4 * k, gen_params=[(w, np.zeros(2))], val_loss=loss))
    return out


def test_gan_run_check():
    assert C.check_gan_run(_checkpoints([880.0, 860.0, 850.0]), diverged=False) == []
    assert C.check_gan_run(_checkpoints([880.0, 890.0]), diverged=False)
    assert C.check_gan_run(_checkpoints([880.0, math.nan]), diverged=False)
    assert C.check_gan_run(_checkpoints([880.0, 850.0], bad_param=True), diverged=False)
    assert C.check_gan_run(_checkpoints([880.0, 850.0]), diverged=True)
    assert C.check_gan_run(_checkpoints([880.0]), diverged=False)


def _tiny_detector_problem():
    spec = D.build_detector(TINY_DET)
    rng = np.random.default_rng(9)
    params = [(w.astype(np.float64), b.astype(np.float64))
              for w, b in N.init_params(spec, rng)]
    xb = rng.uniform(-1, 1, (4, 1, 256))
    tb = np.array([[1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, 1.0]])

    def loss(p):
        return float(np.mean((N.forward_network(spec, p, xb) - tb) ** 2))

    out, cache = N.forward_network(spec, params, xb, want_cache=True)
    _, grads = N.backward_network(spec, params, cache, 2.0 * (out - tb) / out.size)
    return loss, params, grads


def test_directional_derivative_check_passes_on_true_gradient():
    loss, params, grads = _tiny_detector_problem()
    assert C.check_directional_derivative("det", loss, params, grads, seed=1) == []


def test_directional_derivative_check_fails_on_perturbed_gradient():
    loss, params, grads = _tiny_detector_problem()
    rng = np.random.default_rng(2)
    perturbed = [(gw + 0.2 * np.abs(gw).max() * rng.standard_normal(gw.shape), gb)
                 for gw, gb in grads]
    assert C.check_directional_derivative("det", loss, params, perturbed, seed=1)
    scaled = [(1.01 * gw, 1.01 * gb) for gw, gb in grads]
    assert C.check_directional_derivative("det", loss, params, scaled, seed=1)
    zero = [(0 * gw, 0 * gb) for gw, gb in grads]
    assert C.check_directional_derivative("det", loss, params, zero, seed=1)


def test_detection_check():
    faulty = [C.FAULTY] * 18 + [C.HEALTHY] * 2
    healthy = [C.HEALTHY] * 20
    assert C.check_detection(faulty, healthy, 0.85, 0.05) == []
    assert C.check_detection([C.HEALTHY] * 4 + faulty[4:], healthy, 0.85, 0.05)
    assert C.check_detection(faulty, [C.FAULTY] * 2 + healthy[2:], 0.85, 0.05)
    assert C.check_detection(faulty, ["maybe"] + healthy[1:], 0.85, 0.05)


def _segment(value, speed=300.0):
    cond = WorkingCondition(machine="M2", sensor=1, speed_rpm=speed, load=0.18)
    return S.Segment(samples=np.full(64, value, dtype=np.float32), condition=cond,
                     normalized=True)


def test_synthesis_check():
    inputs = [_segment(0.0), _segment(0.1)]
    good = [_segment(0.5), _segment(-0.5)]
    assert C.check_synthesis(inputs, good, 64) == []
    assert C.check_synthesis(inputs, good[:1], 64)
    assert C.check_synthesis(inputs, [good[0], _segment(1.5)], 64)
    assert C.check_synthesis(inputs, [good[0], _segment(math.nan)], 64)
    assert C.check_synthesis(inputs, [good[0], _segment(0.2, speed=540.0)], 64)


def test_close_check():
    want = np.linspace(-1, 1, 50)
    assert C.check_close("x", want + 1e-7, want) == []
    bad = want.copy()
    bad[7] += 1e-2
    assert C.check_close("x", bad, want)
    assert C.check_close("x", want[:-1], want)


def test_labels_check_flipped_label_fails_and_tie_is_excused():
    outputs = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5 + 1e-9]])
    assert C.check_labels("l", [C.FAULTY, C.HEALTHY, C.HEALTHY], outputs) == []
    assert C.check_labels("l", [C.FAULTY, C.HEALTHY, C.FAULTY], outputs) == []
    assert C.check_labels("l", [C.HEALTHY, C.HEALTHY, C.HEALTHY], outputs)
    assert C.check_labels("l", [C.FAULTY, C.HEALTHY], outputs)


def _tiny_evaluation():
    spec = D.build_detector(TINY_DET)
    rng = np.random.default_rng(5)
    params = N.init_params(spec, rng)
    records, healthy = [], []
    for k in range(4):
        cond = WorkingCondition(machine="M2", sensor=1 + k % 2, speed_rpm=300.0, load=0.18)
        records.append(Record(samples=rng.standard_normal(256 * 5).astype(np.float32),
                              condition=cond, fault_type="inner", defect_mm=1.0, name=f"f{k}"))
        for j in range(3):
            y, _ = S.normalize_segment(rng.standard_normal(256).astype(np.float32))
            healthy.append(S.Segment(samples=y, condition=cond, source_record=f"h{k}",
                                     index=j, normalized=True))
    report = D.evaluate(spec, params, healthy, records)
    per_record = [(rec.condition.sensor,
                   R.ref_forward(spec, params, R.ref_segments(rec.samples, 256)[:, None, :]))
                  for rec in records]
    h_out = R.ref_forward(spec, params, np.stack([s.samples for s in healthy])[:, None, :])
    return report, per_record, [(s.source_record, o) for s, o in zip(healthy, h_out)]


def test_eval_counts_check_passes_on_a_program_report():
    report, per_record, healthy = _tiny_evaluation()
    assert C.check_eval_counts(report, C.expected_eval_counts(per_record, healthy)) == []


F, H = [0.0, 1.0], [1.0, 0.0]     # reference outputs read as faulty / healthy


def _hand_counts():
    # sensor 1: one record with 2 faulty segments (detected), one with 1 (missed);
    # sensor 2: one record with 3 faulty segments; healthy record h0 has 1 false
    # alarm in 3 segments, h1 has 2 (a false-positive record)
    per_record = [(1, np.array([F, F, H])), (1, np.array([F, H, H])), (2, np.array([F, F, F]))]
    healthy = [("h0", np.array(F)), ("h0", np.array(H)), ("h0", np.array(H)),
               ("h1", np.array(F)), ("h1", np.array(F))]
    report = D.report_from_counts([1, 1], [2, 1], misclassified_segments=3, total_segments=5,
                                  false_positive_records=1)
    return per_record, healthy, report


def test_eval_counts_check_on_hand_made_counts():
    per_record, healthy, report = _hand_counts()
    assert C.check_eval_counts(report, C.expected_eval_counts(per_record, healthy)) == []


def test_eval_counts_check_fails_on_wrong_counts_and_flipped_labels():
    per_record, healthy, report = _hand_counts()
    expected = C.expected_eval_counts(per_record, healthy)
    wrong_total = D.report_from_counts([1, 1], [3, 1], 3, 5, 1)
    assert C.check_eval_counts(wrong_total, expected)
    wrong_far = D.report_from_counts([1, 1], [2, 1], 2, 5, 1)
    assert C.check_eval_counts(wrong_far, expected)
    wrong_fp = D.report_from_counts([1, 1], [2, 1], 3, 5, 0)
    assert C.check_eval_counts(wrong_fp, expected)
    # one flipped segment label turns the missed record into a detected one
    flipped = [per_record[0], (1, np.array([F, F, H])), per_record[2]]
    assert C.check_eval_counts(report, C.expected_eval_counts(flipped, healthy))
    flipped_h = healthy[:3] + [("h1", np.array(F)), ("h1", np.array(H))]
    assert C.check_eval_counts(report, C.expected_eval_counts(per_record, flipped_h))


def test_eval_counts_excuse_ties_only():
    per_record, healthy, report = _hand_counts()
    tie = [per_record[0], (1, np.array([F, H, [0.5, 0.5]])), per_record[2]]
    expected = C.expected_eval_counts(tie, healthy)
    assert expected["per_sensor"][1] == (1, 2, 2)
    assert C.check_eval_counts(report, expected) == []


def test_tracer_tags_layers_and_restores_functions():
    from opfault import layers

    spec = D.build_detector(TINY_DET)
    params = N.init_params(spec, np.random.default_rng(0))
    original = layers.op_conv1d_forward
    tracer = tracing.Tracer({"det": spec})
    tracer.phase = "rounds"
    tracer.install()
    try:
        x = np.zeros((2, 1, 256), dtype=np.float32)
        out, cache = N.forward_network(spec, params, x, want_cache=True)
        N.backward_network(spec, params, cache, np.ones_like(out))
    finally:
        tracer.uninstall()
    assert layers.op_conv1d_forward is original
    tags = {(name, tag) for name, tag, *_ in tracer.spans}
    for j in range(len(spec.layers)):
        assert any(tag == f"det.L{j}.fwd" for _, tag in tags)
        assert any(tag == f"det.L{j}.bwd" for _, tag in tags)
    m = tracer.summary(rounds=1, steps=0, overhead_ms=0.0, overhead_pct=0.0)
    assert set(m) == set(tracing.metric_units())
    assert m["network.forward_network.calls"] == 1
    assert m["layers.powers.calls"] == 2
    assert m["layers.det.L0.fwd_ms"] > 0.0


def test_tracer_layer_times_are_per_training_step():
    spec = D.build_detector(TINY_DET)
    params = N.init_params(spec, np.random.default_rng(0))
    rng = np.random.default_rng(3)
    segs = [S.Segment(samples=rng.uniform(-1, 1, 256).astype(np.float32),
                      condition=_segment(0.0).condition, normalized=True) for _ in range(8)]
    tracer = tracing.Tracer({"det": spec})
    tracer.phase = "rounds"
    tracer.install()
    try:
        N.forward_network(spec, params, np.zeros((2, 1, 256), dtype=np.float32))
        D.train_detector(segs[:4], segs[4:], TINY_DET)  # 8 segments at batch 4: 2 steps
    finally:
        tracer.uninstall()
    l0 = [span for span in tracer.spans if span[1] == "det.L0.fwd"]
    trained = [span for span in l0 if span[7]]
    assert len(l0) == 3 and len(trained) == 2
    m = tracer.summary(rounds=1, steps=2, overhead_ms=0.0, overhead_pct=0.0)
    assert m["network.det.forwards_per_step"] == 1
    assert m["layers.det.L0.fwd_ms"] == pytest.approx(1e3 * sum(sp[5] for sp in trained) / 2)


def test_benchmark_json_names_match_the_code():
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.metric_units()
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.metric_units())
    rounds = [SimpleNamespace(samples=8, samples_s=1.0, forward=[(4, 1.0)], bursts=[[0.001]])]
    e2e = run.end_to_end(rounds, setup_s=1.0, peak_rss_mb=100.0)
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    for m in bench["end_to_end"]:
        assert e2e[m["name"]]["unit"] == m["unit"]
    assert [w["name"] for w in bench["workloads"]] == ["gan_train", "detector_train",
                                                        "inference"]
