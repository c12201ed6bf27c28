"""Acceptance suite: eleven go/no-go checks, one per criterion.

Each test prints a single PASS line on success; pytest -v adds the
pass/fail verdict per criterion. The two training-heavy checks (7, 8)
run desk-scale configurations and stay well inside their wall-clock
budgets.
"""

import os
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from opfault import layers as L
from opfault import network as N
from opfault import signal as S
from opfault.dataset import WorkingCondition
from opfault.detector import (FAULTY, HEALTHY, DetectorConfig, build_detector,
                              classify_matrix, record_label,
                              report_from_counts, train_detector)
from opfault.gan import (GanConfig, TrainPair, build_discriminator,
                         build_generator, discriminator_objective,
                         generator_objective, select_checkpoint,
                         synthesize_faults, train_opgan)
from opfault.pipeline import run_pipeline
from opfault.synth import default_corpus

from _utils import (CRITERION_10_FILES, criterion_10_run, frame_count, naive_dft,
                    numerical_grad, percent, rel_err)


# ------------------------------------------------------------------ references

def _plain_conv(x, w, b, stride, padding):
    """Strided cross-correlation written with np.correlate, one channel pair
    at a time. Independent of the vectorized layer implementation."""
    in_ch, length = x.shape
    out_ch, _, kernel = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding))) if padding else x
    m = (length + 2 * padding - kernel) // stride + 1
    y = np.empty((out_ch, m), dtype=np.float64)
    for o in range(out_ch):
        acc = np.zeros(xp.shape[1] - kernel + 1)
        for i in range(in_ch):
            acc += np.correlate(xp[i], w[o, i], mode="valid")
        y[o] = acc[::stride][:m] + b[o]
    return y


def _plain_tconv(x, w, b, stride, padding, trim):
    """Scatter form of the transposed map as an explicit triple loop. Bias is
    applied before the right-edge trim padding, mirroring the layer contract
    that trimmed tail samples stay exactly zero."""
    in_ch, length = x.shape
    out_ch, _, kernel = w.shape
    full = np.zeros((out_ch, (length - 1) * stride + kernel))
    for o in range(out_ch):
        for i in range(in_ch):
            for j in range(length):
                full[o, j * stride: j * stride + kernel] += w[o, i] * x[i, j]
    nominal = full.shape[1] - 2 * padding
    y = full[:, padding: padding + nominal] + b[:, None]
    if trim > 0:
        y = np.pad(y, ((0, 0), (0, trim)))
    elif trim < 0:
        y = y[:, : nominal + trim]
    return y


def _rand_conv_case(rng, with_trim=False):
    cfg = {
        "batch": int(rng.integers(1, 4)),
        "in_ch": int(rng.integers(1, 5)),
        "out_ch": int(rng.integers(1, 5)),
        "length": int(rng.integers(8, 41)),
        "kernel": int(rng.integers(1, 7)),
        "stride": int(rng.integers(1, 5)),
        "padding": int(rng.integers(0, 4)),
    }
    if with_trim:
        cfg["trim"] = int(rng.integers(-2, 3))
        nominal = (cfg["length"] - 1) * cfg["stride"] - 2 * cfg["padding"] + cfg["kernel"]
        if nominal < 1 or nominal + cfg["trim"] < 1:
            cfg["padding"] = 0
            cfg["trim"] = abs(cfg["trim"])
    return cfg


def test_criterion_01_q1_degenerates_to_plain_convolution():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for case in range(100):
        tconv = case >= 50
        c = _rand_conv_case(rng, with_trim=tconv)
        x = rng.standard_normal((c["batch"], c["in_ch"], c["length"]))
        w = rng.standard_normal((c["out_ch"], c["in_ch"], c["kernel"], 1))
        b = rng.standard_normal(c["out_ch"])
        if tconv:
            got = L.op_tconv1d_forward(x, w, b, c["stride"], c["padding"], c["trim"])
            want = np.stack([_plain_tconv(xb, w[..., 0], b, c["stride"],
                                          c["padding"], c["trim"]) for xb in x])
        else:
            got = L.op_conv1d_forward(x, w, b, c["stride"], c["padding"])
            want = np.stack([_plain_conv(xb, w[..., 0], b, c["stride"],
                                         c["padding"]) for xb in x])
        assert got.shape == want.shape, f"case {case}: {c}"
        assert np.max(np.abs(got - want)) < 1e-6, f"case {case}: {c}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS criterion 1: Q=1 matches plain convolution on 100 configs "
          f"({elapsed:.1f}s)")


def test_criterion_02_gradient_suite_against_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    cases = 0

    def check(analytic, f, x, h=1e-5, tag=""):
        numeric = numerical_grad(f, x, h=h)
        assert rel_err(analytic, numeric) < 1e-3, tag

    for k in range(12):  # operational conv, Q 1..3
        c = _rand_conv_case(rng)
        q = k % 3 + 1
        x = rng.uniform(-1, 1, (2, c["in_ch"], c["length"]))
        w = 0.3 * rng.standard_normal((c["out_ch"], c["in_ch"], c["kernel"], q))
        b = 0.3 * rng.standard_normal(c["out_ch"])
        r = rng.standard_normal(
            L.op_conv1d_forward(x, w, b, c["stride"], c["padding"]).shape)
        loss = lambda: float(np.sum(
            L.op_conv1d_forward(x, w, b, c["stride"], c["padding"]) * r))
        gx, gw, gb = L.op_conv1d_backward(x, w, r, c["stride"], c["padding"])
        check(gx, loss, x, tag=f"conv x {c}")
        check(gw, loss, w, tag=f"conv w {c}")
        check(gb, loss, b, tag=f"conv b {c}")
        cases += 1

    for k in range(12):  # operational tconv with trims
        c = _rand_conv_case(rng, with_trim=True)
        q = k % 3 + 1
        x = rng.uniform(-1, 1, (2, c["in_ch"], c["length"]))
        w = 0.3 * rng.standard_normal((c["out_ch"], c["in_ch"], c["kernel"], q))
        b = 0.3 * rng.standard_normal(c["out_ch"])
        args = (c["stride"], c["padding"], c["trim"])
        r = rng.standard_normal(L.op_tconv1d_forward(x, w, b, *args).shape)
        loss = lambda: float(np.sum(L.op_tconv1d_forward(x, w, b, *args) * r))
        gx, gw, gb = L.op_tconv1d_backward(x, w, r, *args)
        check(gx, loss, x, tag=f"tconv x {c}")
        check(gw, loss, w, tag=f"tconv w {c}")
        check(gb, loss, b, tag=f"tconv b {c}")
        cases += 1

    for _ in range(8):  # dense
        fi, fo = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        x = rng.standard_normal((3, fi))
        w = rng.standard_normal((fo, fi))
        b = rng.standard_normal(fo)
        r = rng.standard_normal((3, fo))
        loss = lambda: float(np.sum(L.dense_forward(x, w, b) * r))
        gx, gw, gb = L.dense_backward(x, w, r)
        check(gx, loss, x, tag="dense x")
        check(gw, loss, w, tag="dense w")
        check(gb, loss, b, tag="dense b")
        cases += 1

    for _ in range(6):  # activations, as the networks apply them
        x = rng.uniform(-2, 2, (4, 7))
        r = rng.standard_normal(x.shape)
        for act in ("tanh", "sigmoid"):
            a_loss = lambda: float(np.sum(N._activate(x, act) * r))
            check(N._activation_grad(N._activate(x, act), r, act), a_loss, x, tag=act)
        cases += 1

    for _ in range(4):  # spectrogram path
        win = int(rng.choice([16, 32]))
        hop = win // 2
        x = rng.uniform(-1, 1, (2, int(rng.integers(3 * win, 4 * win))))
        feats, cache = S.spectral_features(x, win, hop, want_cache=True)
        r = rng.standard_normal(feats.shape)
        loss = lambda: float(np.sum(S.spectral_features(x, win, hop) * r))
        check(S.spectral_features_grad(r, cache), loss, x, tag="spectrogram")
        cases += 1

    # full composite generator objective on the miniature network
    cfg = GanConfig(gen_width=2, disc_width=2, q=2, segment_len=64,
                    spec_window=32, spec_hop=16, lambda_weight=10.0)
    gen, disc = build_generator(cfg), build_discriminator(cfg)
    prng = np.random.default_rng(7)
    gp = [(w.astype(np.float64), b.astype(np.float64))
          for w, b in N.init_params(gen, prng)]
    dp = [(w.astype(np.float64), b.astype(np.float64))
          for w, b in N.init_params(disc, prng)]
    x_sig = prng.uniform(-1, 1, (2, 1, 64))
    x_in = np.concatenate([x_sig, prng.standard_normal((2, 1, 64))], axis=1)
    y = prng.uniform(-1, 1, (2, 1, 64))
    obj = lambda: generator_objective(gen, gp, disc, dp, x_in, x_sig, y, cfg,
                                      want_grads=False)[0]
    _, _, grads = generator_objective(gen, gp, disc, dp, x_in, x_sig, y, cfg)
    # h=1e-4 keeps the central difference above cancellation noise: the loss
    # is O(10) while the deepest-layer gradients are O(1e-5)
    for li, (w, b) in enumerate(gp):
        check(grads[li][0], obj, w, h=1e-4, tag=f"composite layer {li} w")
        check(grads[li][1], obj, b, h=1e-4, tag=f"composite layer {li} b")
        cases += 1
    y_fake = prng.uniform(-1, 1, y.shape)
    dobj = lambda: discriminator_objective(disc, dp, x_sig, y, y_fake,
                                           want_grads=False)[0]
    _, dgrads = discriminator_objective(disc, dp, x_sig, y, y_fake)
    for li, (w, b) in enumerate(dp):
        check(dgrads[li][0], dobj, w, h=1e-4, tag=f"disc layer {li} w")
        cases += 1

    assert cases >= 50
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"PASS criterion 2: {cases} gradient cases within 1e-3 of central "
          f"differences ({elapsed:.1f}s)")


def test_criterion_03_conv_tconv_adjoint_identity():
    # combos chosen inside the exactness domain: trim == 0 or padding == 0
    combos = [(15, 5, 2, 2), (17, 5, 2, 2), (16, 4, 2, 1),
              (20, 3, 1, 1), (12, 6, 3, 0), (13, 4, 4, 0)]
    rng = np.random.default_rng(303)
    for length, kernel, stride, padding in combos:
        m = (length + 2 * padding - kernel) // stride + 1
        nominal = (m - 1) * stride - 2 * padding + kernel
        trim = length - nominal
        assert trim == 0 or padding == 0, "combo outside adjoint domain"
        in_ch, out_ch = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x = rng.standard_normal((2, in_ch, length))
        y = rng.standard_normal((2, out_ch, m))
        w = rng.standard_normal((out_ch, in_ch, kernel, 1))
        zb_o = np.zeros(out_ch)
        zb_i = np.zeros(in_ch)
        cx = L.op_conv1d_forward(x, w, zb_o, stride, padding)
        ty = L.op_tconv1d_forward(y, w.transpose(1, 0, 2, 3), zb_i,
                                  stride, padding, trim)
        lhs = float(np.sum(cx * y))
        rhs = float(np.sum(x * ty))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12) < 1e-5, \
            (length, kernel, stride, padding)
    print("PASS criterion 3: adjoint identity holds on all stride/padding combos")


def test_criterion_04_parameter_count_calibration():
    det = N.count_params(build_detector(DetectorConfig()))
    gen = N.count_params(build_generator(GanConfig()))
    disc = N.count_params(build_discriminator(GanConfig()))
    assert det == 63458
    assert abs(gen - 244000) <= 0.10 * 244000
    assert abs(disc - 133000) <= 0.10 * 133000
    print(f"PASS criterion 4: detector {det} exact, generator {gen} and "
          f"discriminator {disc} within 10% of 244K/133K")


def test_criterion_05_signal_processing_oracles():
    rng = np.random.default_rng(505)

    # FFT path inside the spectrogram against the O(N^2) defining sum
    x = rng.standard_normal(4096).astype(np.float32)
    p = S.spectral_features(x, 256, 128)
    w = S.hann_window(256)
    for j in (0, 7, 15, 23, 30):
        frame = x[j * 128: j * 128 + 256].astype(np.float64) * w
        ref = naive_dft(frame)
        assert np.max(np.abs(p[j] - np.abs(ref) ** 2)) < 1e-4

    # min-max normalization lands exactly on -1/+1
    for _ in range(1000):
        seg = rng.standard_normal(int(rng.integers(16, 512))).astype(np.float32)
        seg = seg * rng.uniform(0.1, 50.0) + rng.uniform(-20.0, 20.0)
        y, degenerate = S.normalize_segment(seg)
        assert not degenerate
        assert abs(float(y.min()) + 1.0) < 1e-6
        assert abs(float(y.max()) - 1.0) < 1e-6

    assert frame_count(4096, 256, 128) == 31
    print("PASS criterion 5: FFT matches naive DFT, normalization maps "
          "min/max to -1/+1, 31 frames at 4096/256/128")


def _separable_segments(n_per_class, length=4096, seed=606):
    """Smooth tones versus tones with strong ring-down bursts."""
    rng = np.random.default_rng(seed)
    cond = WorkingCondition("S", 1, 600, 0.1)
    t = np.arange(length) / length
    ring = np.exp(-np.arange(160) / 30.0) * np.sin(2 * np.pi * 0.24 * np.arange(160))
    healthy, faulty = [], []
    for i in range(n_per_class):
        base = np.sin(2 * np.pi * 9 * t + rng.uniform(0, 2 * np.pi))
        base += 0.05 * rng.standard_normal(length)
        h = base
        f = base.copy()
        for pos in rng.integers(0, length - 200, size=6):
            f[pos: pos + ring.size] += 2.5 * ring
        for cls, sig, pool in ((0, h, healthy), (1, f, faulty)):
            y, degen = S.normalize_segment(sig.astype(np.float32))
            pool.append(S.Segment(samples=y, condition=cond,
                                  source_record=f"sep{cls}_{i}", index=i,
                                  normalized=True, degenerate=degen))
    return healthy, faulty


def test_criterion_06_detector_overfits_separable_segments():
    start = time.monotonic()
    healthy, faulty = _separable_segments(32)
    cfg = DetectorConfig(seed=1)  # default budget: 50 epochs
    params = train_detector(healthy, faulty, cfg)
    spec = build_detector(cfg)
    xs = np.stack([s.samples for s in healthy + faulty])[:, None, :]
    labels = classify_matrix(spec, params, xs.astype(np.float32))
    want = [HEALTHY] * 32 + [FAULTY] * 32
    correct = sum(a == b for a, b in zip(labels, want))
    elapsed = time.monotonic() - start
    assert correct == 64, f"{correct}/64 correct"
    assert elapsed < 300.0
    print(f"PASS criterion 6: 64/64 training accuracy within 50 epochs "
          f"({elapsed:.0f}s)")


# ------------------------------------------------------------ desk-scale runs

def _desk_pairs(n, seed, speed_offset=0.0, segment_len=4096):
    """Condition-matched healthy/faulty pairs for the desk run. Each defect
    burst rides at a fixed delay after an upward zero-crossing of the
    fundamental, so the healthy-to-faulty transition is a local map a
    translation-equivariant network can genuinely learn (bursts at absolute
    positions would not be). Every pair gets its own shaft speed, keeping
    conditions unique."""
    rng = np.random.default_rng(seed)
    ring = np.exp(-np.arange(128) / 24.0) * np.sin(2 * np.pi * 0.22 * np.arange(128))
    t = np.arange(segment_len, dtype=np.float64)
    pairs = []
    for i in range(n):
        band = i % 2
        cycles = (8, 16)[band]
        speed = (600.0, 900.0)[band] + speed_offset + i // 2
        cond = WorkingCondition("D", 1, speed, 0.1)
        phase = rng.uniform(0, 2 * np.pi)
        h = np.sin(2 * np.pi * cycles * t / segment_len + phase)
        h += 0.35 * np.sin(2 * np.pi * 3 * cycles * t / segment_len + 3 * phase)
        h += 0.05 * rng.standard_normal(segment_len)
        f = h.copy()
        period = segment_len // cycles
        first = int((-phase % (2 * np.pi)) / (2 * np.pi) * period)
        for pos in range(first, segment_len, period):
            span = f[pos: pos + ring.size]
            span += 1.6 * ring[: span.size]
        seg = []
        for tag, sig in (("h", h), ("f", f)):
            y, degen = S.normalize_segment(sig.astype(np.float32))
            seg.append(S.Segment(samples=y, condition=cond,
                                 source_record=f"desk_{tag}{i}", index=i,
                                 normalized=True, degenerate=degen))
        pairs.append(TrainPair(healthy=seg[0], faulty=seg[1]))
    return pairs


def test_criterion_07_gan_desk_run_halves_loss_and_wins_baseline():
    start = time.monotonic()
    train_pairs = _desk_pairs(200, seed=21)
    val_pairs = _desk_pairs(100, seed=22, speed_offset=50.0)
    cfg = GanConfig(max_iters=30, checkpoint_every=5, seed=11)
    result = train_opgan(train_pairs, val_pairs, cfg)
    assert not result.diverged

    initial = result.checkpoints[0].val_loss
    best = select_checkpoint(result.checkpoints, val_pairs, mode="loss")
    ratio = best.val_loss / initial
    assert ratio <= 0.5, f"val loss ratio {ratio:.3f}"

    synth = synthesize_faults(result.gen_spec, best.gen_params,
                              [p.healthy for p in val_pairs], seed=9)
    wins = 0
    for pair, fake in zip(val_pairs, synth):
        py = S.spectral_features(pair.faulty.samples.astype(np.float64))
        pg = S.spectral_features(fake.samples.astype(np.float64))
        px = S.spectral_features(pair.healthy.samples.astype(np.float64))
        if np.mean(np.abs(pg - py)) < np.mean(np.abs(px - py)):
            wins += 1
    win_rate = wins / len(val_pairs)
    elapsed = time.monotonic() - start
    assert win_rate >= 0.8, f"win rate {win_rate:.2f}"
    assert elapsed < 1800.0
    print(f"PASS criterion 7: val loss ratio {ratio:.3f} <= 0.5, synthesis "
          f"beats baseline on {win_rate:.0%} of pairs ({elapsed:.0f}s)")


def test_criterion_08_end_to_end_zero_shot_transfer():
    start = time.monotonic()
    source = default_corpus("M1", seed=0)
    target = default_corpus("M2", seed=0)
    gan_cfg = GanConfig(max_iters=40, checkpoint_every=8, seed=0)
    det_cfg = DetectorConfig(seed=0)
    result = run_pipeline(source, target, gan_cfg=gan_cfg, det_cfg=det_cfg,
                          seed=11, checkpoint_mode="loss")
    report = result.report
    elapsed = time.monotonic() - start
    assert report.overall_recall >= 0.80, f"recall {report.overall_recall:.3f}"
    assert report.segment_far <= 0.05, f"FAR {report.segment_far:.4f}"
    assert elapsed < 2700.0
    print(f"PASS criterion 8: zero-shot recall {report.overall_recall:.3f}, "
          f"segment FAR {report.segment_far:.4f} ({elapsed:.0f}s)")


# -------------------------------------------------------------- bookkeeping

def test_criterion_09_metrics_arithmetic_from_published_counts():
    rep_b = report_from_counts([172, 171, 171], [180, 180, 180], 0, 6000)
    assert rep_b.overall_recall == 514 / 540
    assert percent(rep_b.overall_recall) == "95.19"
    rep_a = report_from_counts([137, 136, 136], [180, 180, 180], 38, 6000)
    assert rep_a.overall_recall == 409 / 540
    assert percent(rep_a.overall_recall) == "75.74"
    assert rep_a.segment_far == 38 / 6000
    assert percent(rep_a.segment_far, 3) == "0.633"
    print("PASS criterion 9: table counts reproduce 95.19% / 75.74% recall "
          "and 0.633% FAR exactly")


def test_criterion_10_pipeline_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        criterion_10_run(out, seed=5)
        outs.append(out)
    for fname in CRITERION_10_FILES:
        b1 = (outs[0] / fname).read_bytes()
        b2 = (outs[1] / fname).read_bytes()
        assert b1 == b2, f"{fname} differs between identical runs"
    print("PASS criterion 10: identical seeds give byte-identical reports "
          "and model files")


def test_criterion_10_determinism_across_processes(tmp_path):
    # Two fresh interpreters, one at one OpenBLAS thread and one at two: the
    # program pins its own BLAS thread count, so the bytes must not depend
    # on the environment. The micro nets are below the shard threshold, so
    # the children split every batch to run the two-thread path too.
    here = Path(__file__).resolve().parent
    child = ("import sys; sys.path[:0] = sys.argv[1:3]; "
             "from opfault import network; network.SHARD_MIN_MACS = 0; "
             "from _utils import criterion_10_run; criterion_10_run(sys.argv[3])")
    outs = {threads: tmp_path / f"blas{threads}" for threads in ("1", "2")}
    for threads, out in outs.items():
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", child, str(here), str(here.parent / "src"),
                        str(out)], env=env, check=True, timeout=900)
    for fname in CRITERION_10_FILES:
        assert (outs["1"] / fname).read_bytes() == (outs["2"] / fname).read_bytes(), \
            f"{fname} differs between OPENBLAS_NUM_THREADS=1 and =2"
    print("PASS criterion 10 across processes: byte-identical outputs at one "
          "and at two BLAS threads")


class _InlineExecutor:
    """Stands in for the shard pool: runs each submitted shard at once, in
    the calling thread."""

    submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as e:
            future.set_exception(e)
        return future


def test_criterion_10_shards_give_the_same_bytes_inline(tmp_path, monkeypatch):
    monkeypatch.setattr(N, "SHARD_MIN_MACS", 0)  # split every batch of the micro nets
    pooled, inline = tmp_path / "pooled", tmp_path / "inline"
    criterion_10_run(pooled)
    executor = _InlineExecutor()
    monkeypatch.setattr(N, "_pool", executor)
    criterion_10_run(inline)
    assert executor.submitted > 0
    for fname in CRITERION_10_FILES:
        assert (pooled / fname).read_bytes() == (inline / fname).read_bytes(), \
            f"{fname} differs between pooled and inline shards"
    print("PASS criterion 10 inline: shards run one after the other give the "
          "bytes of the pooled run")


def test_criterion_11_record_rule_property():
    rng = np.random.default_rng(1111)
    for _ in range(300):
        n = int(rng.integers(1, 41))
        labels = [FAULTY if rng.random() < 0.3 else HEALTHY for _ in range(n)]
        want = FAULTY if labels.count(FAULTY) >= 2 else HEALTHY
        assert record_label(labels) == want
        # healthy -> faulty flips never clear a fault verdict
        before = record_label(labels)
        flipped = list(labels)
        healthy_idx = [i for i, v in enumerate(flipped) if v == HEALTHY]
        if healthy_idx:
            flipped[healthy_idx[int(rng.integers(len(healthy_idx)))]] = FAULTY
            after = record_label(flipped)
            assert not (before == FAULTY and after == HEALTHY)
            assert flipped.count(FAULTY) >= 2 or after == HEALTHY
    print("PASS criterion 11: record verdict is faulty iff >= 2 flagged "
          "segments and is monotone under flips")
