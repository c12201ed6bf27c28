"""Operational GAN: architecture sizes, composite objective, training loop."""

import tracemalloc

import numpy as np
import pytest

from opfault import gan as G
from opfault import network as N
from opfault import signal as S
from opfault import tensor as T
from opfault.dataset import WorkingCondition
from opfault.detector import DetectorConfig
from opfault.gan import (Checkpoint, GanConfig, TrainPair, build_discriminator,
                         build_generator, checkpoint_detection_score,
                         discriminator_objective, generator_objective,
                         make_pairs, metrics_to_csv_text, select_checkpoint,
                         synthesize_faults, train_opgan)

from _utils import numerical_grad, rel_err


def mini_cfg(**kw):
    base = dict(gen_width=2, disc_width=2, q=2, segment_len=64, spec_window=32,
                spec_hop=16, batch=4, lambda_weight=10.0, lr=1e-3,
                max_iters=4, checkpoint_every=2, seed=3)
    base.update(kw)
    return GanConfig(**base)


def make_segment(samples, cond, src="r", idx=0):
    y, degenerate = S.normalize_segment(np.asarray(samples, dtype=np.float32))
    return S.Segment(samples=y, condition=cond, source_record=src, index=idx,
                     normalized=True, degenerate=degenerate)


def toy_pairs(n, length, seed=0, cond=None):
    """Healthy = smooth tone, faulty = tone plus sharp impulses."""
    rng = np.random.default_rng(seed)
    cond = cond or WorkingCondition("T", 1, 600, 0.1)
    t = np.arange(length) / length
    pairs = []
    for i in range(n):
        phase = rng.uniform(0, 2 * np.pi)
        h = np.sin(2 * np.pi * 6 * t + phase) + 0.05 * rng.standard_normal(length)
        f = h.copy()
        f[rng.integers(0, length, size=4)] += rng.uniform(2.0, 3.0, size=4)
        pairs.append(TrainPair(
            healthy=make_segment(h, cond, src=f"h{i}", idx=i),
            faulty=make_segment(f, cond, src=f"f{i}", idx=i)))
    return pairs


# ---------------------------------------------------------------- architecture

def test_generator_default_parameter_count():
    spec = build_generator(GanConfig())
    n = N.count_params(spec)
    assert n == 235981
    assert abs(n - 244000) <= 0.10 * 244000


def test_discriminator_default_parameter_count():
    spec = build_discriminator(GanConfig())
    n = N.count_params(spec)
    assert n == 132237
    assert abs(n - 133000) <= 0.10 * 133000


def test_generator_shape_chain():
    spec = build_generator(GanConfig())
    shapes = spec.trace_shapes()
    lens = [l for _, l in shapes]
    assert lens == [2048, 1024, 512, 256, 128, 256, 512, 1024, 2048, 4096]
    assert shapes[-1] == (1, 4096)
    assert spec.skips == {5: 4, 6: 3, 7: 2, 8: 1, 9: 0}


def test_discriminator_shape_chain():
    spec = build_discriminator(GanConfig())
    shapes = spec.trace_shapes()
    assert shapes == [(52, 1024), (52, 256), (52, 64), (52, 16), (52, 4), (1, 2)]
    assert spec.layers[-1].activation == "sigmoid"


def test_miniature_networks_trace():
    cfg = mini_cfg()
    g = build_generator(cfg)
    d = build_discriminator(cfg)
    assert g.trace_shapes()[-1] == (1, 64)
    assert d.trace_shapes()[-1][0] == 1


def test_config_validation_rejects():
    for bad in (dict(segment_len=100),              # not a multiple of 32
                dict(lambda_weight=-1.0), dict(iteration_unit="step"),
                dict(spec_hop=-16), dict(spec_hop=0), dict(spec_window=1),
                dict(segment_len=128, spec_window=300)):
        with pytest.raises(ValueError):
            GanConfig(**bad).validate()


def test_pair_validation():
    c1 = WorkingCondition("T", 1, 600, 0.1)
    c2 = WorkingCondition("T", 2, 600, 0.1)
    rng = np.random.default_rng(0)
    a = make_segment(rng.standard_normal(64), c1)
    b = make_segment(rng.standard_normal(64), c2)
    with pytest.raises(ValueError):
        TrainPair(healthy=a, faulty=b).validate()
    raw = S.Segment(samples=rng.standard_normal(64).astype(np.float32),
                    condition=c1, normalized=False)
    with pytest.raises(ValueError):
        TrainPair(healthy=a, faulty=raw).validate()


# ------------------------------------------------------------------- objective

def _mini_setup(seed=11, dtype=np.float64):
    cfg = mini_cfg()
    gen = build_generator(cfg)
    disc = build_discriminator(cfg)
    rng = np.random.default_rng(seed)
    gp = [(w.astype(dtype), b.astype(dtype)) for w, b in N.init_params(gen, rng)]
    dp = [(w.astype(dtype), b.astype(dtype)) for w, b in N.init_params(disc, rng)]
    x_sig = rng.uniform(-1, 1, (3, 1, 64)).astype(dtype)
    z = rng.standard_normal((3, 1, 64)).astype(dtype)
    x_in = np.concatenate([x_sig, z], axis=1)
    y = rng.uniform(-1, 1, (3, 1, 64)).astype(dtype)
    return cfg, gen, disc, gp, dp, x_in, x_sig, y


def test_composite_loss_recomputed_from_parts():
    cfg, gen, disc, gp, dp, x_in, x_sig, y = _mini_setup()
    total, parts, _ = generator_objective(gen, gp, disc, dp, x_in, x_sig, y, cfg,
                                          want_grads=False)
    g_out = N.forward_network(gen, gp, x_in)
    d_out = N.forward_network(disc, dp, np.concatenate([x_sig, g_out], axis=1))
    bce = T.bce_loss(d_out, np.ones_like(d_out))
    time_l1 = T.l1_loss(g_out, y)
    stft_l1 = T.l1_loss(S.spectral_features(g_out[:, 0, :], 32, 16),
                        S.spectral_features(y[:, 0, :], 32, 16))
    assert parts["g_bce"] == pytest.approx(bce, rel=1e-12)
    assert parts["g_time"] == pytest.approx(time_l1, rel=1e-12)
    assert parts["g_stft"] == pytest.approx(stft_l1, rel=1e-12)
    assert total == pytest.approx(bce + cfg.lambda_weight * (time_l1 + stft_l1),
                                  rel=1e-12)
    assert min(parts.values()) >= 0.0


def test_composite_loss_zero_reconstruction_when_target_is_own_output():
    cfg, gen, disc, gp, dp, x_in, x_sig, _ = _mini_setup()
    g_out = N.forward_network(gen, gp, x_in)
    total, parts, _ = generator_objective(gen, gp, disc, dp, x_in, x_sig,
                                          g_out.copy(), cfg, want_grads=False)
    assert parts["g_time"] == 0.0
    assert parts["g_stft"] == pytest.approx(0.0, abs=1e-15)
    assert total == pytest.approx(parts["g_bce"], rel=1e-12)


def test_composite_loss_lambda_zero_is_adversarial_only():
    cfg, gen, disc, gp, dp, x_in, x_sig, y = _mini_setup()
    cfg0 = mini_cfg(lambda_weight=0.0)
    total, parts, _ = generator_objective(gen, gp, disc, dp, x_in, x_sig, y,
                                          cfg0, want_grads=False)
    assert total == pytest.approx(parts["g_bce"], rel=1e-12)


def test_generator_objective_full_gradcheck():
    cfg, gen, disc, gp, dp, x_in, x_sig, y = _mini_setup(seed=5)

    def loss():
        t, _, _ = generator_objective(gen, gp, disc, dp, x_in, x_sig, y, cfg,
                                      want_grads=False)
        return t

    # h balances truncation against cancellation: the loss is O(10) while the
    # deepest layer gradients are O(1e-5), so tiny steps drown in rounding
    _, _, grads = generator_objective(gen, gp, disc, dp, x_in, x_sig, y, cfg)
    for li, (w, b) in enumerate(gp):
        gw = numerical_grad(loss, w, h=1e-4)
        gb = numerical_grad(loss, b, h=1e-4)
        assert rel_err(grads[li][0], gw) < 1e-5, f"layer {li} weights"
        assert rel_err(grads[li][1], gb) < 1e-5, f"layer {li} bias"


def test_discriminator_objective_gradcheck():
    cfg, gen, disc, gp, dp, _, x_sig, y = _mini_setup(seed=7)
    rng = np.random.default_rng(2)
    y_fake = rng.uniform(-1, 1, y.shape)

    def loss():
        v, _ = discriminator_objective(disc, dp, x_sig, y, y_fake,
                                       want_grads=False)
        return v

    _, grads = discriminator_objective(disc, dp, x_sig, y, y_fake)
    for li, (w, b) in enumerate(dp):
        assert rel_err(grads[li][0], numerical_grad(loss, w, h=1e-5)) < 1e-6
        assert rel_err(grads[li][1], numerical_grad(loss, b, h=1e-5)) < 1e-6


def test_discriminator_loss_is_two_sided_bce():
    cfg, gen, disc, gp, dp, _, x_sig, y = _mini_setup()
    y_fake = np.zeros_like(y)
    d_loss, _ = discriminator_objective(disc, dp, x_sig, y, y_fake,
                                        want_grads=False)
    out_r = N.forward_network(disc, dp, np.concatenate([x_sig, y], axis=1))
    out_f = N.forward_network(disc, dp, np.concatenate([x_sig, y_fake], axis=1))
    want = (T.bce_loss(out_r, np.ones_like(out_r))
            + T.bce_loss(out_f, np.zeros_like(out_f)))
    assert d_loss == pytest.approx(want, rel=1e-12)


def test_objectives_given_the_step_passes_match_their_own():
    cfg, gen, disc, gp, dp, x_in, x_sig, y = _mini_setup(seed=13, dtype=np.float32)
    g_pass = N.forward_network(gen, gp, x_in, want_cache=True)
    fake = g_pass[0]
    fake_pass = N.forward_network(disc, dp, np.concatenate([x_sig, fake], axis=1),
                                  want_cache=True)
    shared_d = discriminator_objective(disc, dp, x_sig, y, fake, fake_pass=fake_pass)
    own_d = discriminator_objective(disc, dp, x_sig, y, fake)
    shared_g = generator_objective(gen, gp, disc, dp, x_in, x_sig, y, cfg,
                                   g_pass=g_pass, d_pass=fake_pass)
    own_g = generator_objective(gen, gp, disc, dp, x_in, x_sig, y, cfg)
    assert shared_d[0] == own_d[0]
    assert shared_g[0] == own_g[0] and shared_g[1] == own_g[1]
    for shared, own in ((shared_d[1], own_d[1]), (shared_g[2], own_g[2])):
        for (w1, b1), (w2, b2) in zip(shared, own):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


# -------------------------------------------------------------------- pairing

def test_make_pairs_matches_conditions():
    c1 = WorkingCondition("T", 1, 600, 0.1)
    c2 = WorkingCondition("T", 1, 900, 0.1)
    rng = np.random.default_rng(0)
    healthy = [make_segment(rng.standard_normal(64), c, src=f"h{i}", idx=i)
               for i, c in enumerate([c1, c1, c2])]
    faulty = [make_segment(rng.standard_normal(64), c, src=f"f{i}", idx=i)
              for i, c in enumerate([c1, c2, c2])]
    pairs = make_pairs(healthy, faulty, seed=4)
    assert len(pairs) == 3
    for p in pairs:
        assert p.healthy.condition.key == p.faulty.condition.key
    again = make_pairs(healthy, faulty, seed=4)
    assert [p.faulty.source_record for p in pairs] == \
        [p.faulty.source_record for p in again]


def test_make_pairs_missing_condition_errors():
    c1 = WorkingCondition("T", 1, 600, 0.1)
    c2 = WorkingCondition("T", 1, 900, 0.1)
    rng = np.random.default_rng(0)
    healthy = [make_segment(rng.standard_normal(64), c1)]
    faulty = [make_segment(rng.standard_normal(64), c2)]
    with pytest.raises(ValueError):
        make_pairs(healthy, faulty)


# -------------------------------------------------------------------- training

def test_train_smoke_checkpoints_and_determinism():
    pairs = toy_pairs(8, 64, seed=1)
    val = toy_pairs(4, 64, seed=2)
    cfg = mini_cfg(max_iters=4, checkpoint_every=2, batch=4)

    r1 = train_opgan(pairs, val, cfg)
    r2 = train_opgan(pairs, val, cfg)
    assert not r1.diverged
    assert [c.iteration for c in r1.checkpoints] == [0, 2, 4]
    assert [c.val_loss for c in r1.checkpoints] == \
        [c.val_loss for c in r2.checkpoints]
    for (w1, b1), (w2, b2) in zip(r1.final.gen_params, r2.final.gen_params):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
    assert [m["iteration"] for m in r1.metrics] == [1, 2, 3, 4]
    for m in r1.metrics:
        for col in ("d_loss", "g_bce", "g_time", "g_stft"):
            assert np.isfinite(m[col])
    assert r1.metrics[0]["val_total"] is None
    assert r1.metrics[1]["val_total"] == r1.checkpoints[1].val_loss


def test_train_batch_iteration_unit():
    pairs = toy_pairs(8, 64, seed=1)
    val = toy_pairs(4, 64, seed=2)
    cfg = mini_cfg(max_iters=5, checkpoint_every=3, batch=4,
                   iteration_unit="batch")
    r = train_opgan(pairs, val, cfg)
    assert [c.iteration for c in r.checkpoints] == [0, 3, 5]
    assert [m["iteration"] for m in r.metrics] == [1, 2, 3, 4, 5]


def test_training_reduces_validation_loss():
    pairs = toy_pairs(12, 64, seed=3)
    val = toy_pairs(6, 64, seed=4)
    cfg = mini_cfg(max_iters=30, checkpoint_every=10, batch=4,
                   lambda_weight=100.0, lr=1e-3, seed=8)
    r = train_opgan(pairs, val, cfg)
    assert not r.diverged
    assert r.final.val_loss < r.checkpoints[0].val_loss


def test_iteration_units_agree_when_an_epoch_is_one_batch():
    pairs = toy_pairs(4, 64, seed=1)
    val = toy_pairs(4, 64, seed=2)
    for n_pairs in (4, 3):  # a full batch and a short one
        by_epoch, by_batch = (
            train_opgan(pairs[:n_pairs], val, mini_cfg(max_iters=5, checkpoint_every=2,
                                                       batch=4, iteration_unit=unit))
            for unit in ("epoch", "batch"))
        assert [c.iteration for c in by_epoch.checkpoints] == [0, 2, 4, 5]
        assert [c.iteration for c in by_batch.checkpoints] == [0, 2, 4, 5]
        for ce, cb in zip(by_epoch.checkpoints, by_batch.checkpoints):
            assert ce.val_loss == cb.val_loss
            for (w1, b1), (w2, b2) in zip(ce.gen_params, cb.gen_params):
                assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
        assert by_epoch.metrics == by_batch.metrics


def test_train_step_runs_generator_once_and_discriminator_twice(monkeypatch):
    forward = N.forward_network
    calls = {"gen": 0, "disc": 0}

    def counted(spec, *args, **kwargs):
        calls["gen" if spec.skips else "disc"] += 1
        return forward(spec, *args, **kwargs)

    monkeypatch.setattr(N, "forward_network", counted)
    monkeypatch.setattr(G, "validation_loss", lambda *args: 0.0)
    pairs = toy_pairs(8, 64, seed=1)
    for steps in (1, 3):
        calls.update(gen=0, disc=0)
        train_opgan(pairs, toy_pairs(2, 64, seed=2),
                    mini_cfg(max_iters=steps, iteration_unit="batch"))
        assert calls == {"gen": steps, "disc": 2 * steps}


def test_train_step_passes_do_not_outlive_the_step():
    # a step's generator and fake-discriminator caches (about 73 MB at
    # default widths and batch 8) must be freed before the next step runs
    pairs = toy_pairs(8, S.SEGMENT_LEN, seed=1)
    val = toy_pairs(2, S.SEGMENT_LEN, seed=2)
    peaks = []
    for steps in (1, 3):
        tracemalloc.start()
        try:
            train_opgan(pairs, val, GanConfig(max_iters=steps, iteration_unit="batch",
                                              checkpoint_every=100, seed=3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_train_rejects_empty_sets():
    pairs = toy_pairs(4, 64)
    with pytest.raises(ValueError):
        train_opgan([], pairs, mini_cfg())
    with pytest.raises(ValueError):
        train_opgan(pairs, [], mini_cfg())


def test_divergence_stops_with_last_good_checkpoint():
    pairs = toy_pairs(4, 64, seed=1)
    bad = np.full(64, np.nan, dtype=np.float32)
    poisoned = S.Segment(samples=bad, condition=pairs[0].healthy.condition,
                         source_record="bad", normalized=True)
    pairs[2] = TrainPair(healthy=poisoned, faulty=pairs[2].faulty)
    val = toy_pairs(4, 64, seed=2)
    for unit in ("epoch", "batch"):
        r = train_opgan(pairs, val, mini_cfg(batch=4, max_iters=6, iteration_unit=unit))
        assert r.diverged
        assert r.checkpoints[-1].iteration == 0
        assert np.isfinite(r.checkpoints[-1].val_loss)
        assert r.metrics == []


# ---------------------------------------------------- checkpoints and synthesis

def test_select_checkpoint_loss_mode():
    cks = [Checkpoint(0, [], 3.0), Checkpoint(10, [], 1.0), Checkpoint(20, [], 2.0)]
    assert select_checkpoint(cks, [], mode="loss").iteration == 10
    tie = [Checkpoint(0, [], 1.0), Checkpoint(10, [], 1.0)]
    assert select_checkpoint(tie, [], mode="loss").iteration == 0
    with pytest.raises(ValueError):
        select_checkpoint([], [], mode="loss")
    with pytest.raises(ValueError):
        select_checkpoint(cks, [], mode="best")


def _tiny_detector_cfg():
    return DetectorConfig(kernels=(9, 5), strides=(4, 2), channels=3,
                          dense_hidden=4, epochs=2, batch=4, segment_len=64,
                          q=2)


def test_select_checkpoint_detection_mode():
    pairs = toy_pairs(8, 64, seed=5)
    val = toy_pairs(6, 64, seed=6)
    cfg = mini_cfg(max_iters=2, checkpoint_every=1, batch=4)
    r = train_opgan(pairs, val, cfg)
    det_cfg = _tiny_detector_cfg()
    pick = select_checkpoint(r.checkpoints, val, mode="detection", gan_cfg=cfg,
                             detector_cfg=det_cfg, seed=1)
    assert pick in r.checkpoints
    assert all(c.val_detection is not None and 0.0 <= c.val_detection <= 1.0
               for c in r.checkpoints)
    loss_pick = select_checkpoint(r.checkpoints, val, mode="loss")
    assert pick.val_detection >= loss_pick.val_detection


def test_detection_score_is_deterministic():
    pairs = toy_pairs(6, 64, seed=9)
    cfg = mini_cfg()
    gen = build_generator(cfg)
    gp = N.init_params(gen, np.random.default_rng(0))
    s1 = checkpoint_detection_score(gen, gp, pairs, cfg,
                                    detector_cfg=_tiny_detector_cfg(), seed=2)
    s2 = checkpoint_detection_score(gen, gp, pairs, cfg,
                                    detector_cfg=_tiny_detector_cfg(), seed=2)
    assert s1 == s2
    assert 0.0 <= s1[0] <= 1.0 and -1.0 <= s1[1] <= 0.0


def test_synthesize_faults_contract():
    cfg = mini_cfg()
    gen = build_generator(cfg)
    gp = N.init_params(gen, np.random.default_rng(1))
    cond = WorkingCondition("T", 2, 700, 0.2)
    rng = np.random.default_rng(3)
    healthy = [make_segment(rng.standard_normal(64), cond, src=f"h{i}", idx=i)
               for i in range(5)]
    out = synthesize_faults(gen, gp, healthy, seed=7)
    assert len(out) == 5
    for s, h in zip(out, healthy):
        assert s.samples.shape == (64,)
        assert s.samples.min() >= -1.0 and s.samples.max() <= 1.0
        assert s.condition.key == h.condition.key
        assert s.normalized
        assert s.source_record == f"synth:{h.source_record}"

    again = synthesize_faults(gen, gp, healthy, seed=7)
    for a, b in zip(out, again):
        assert np.array_equal(a.samples, b.samples)
    other = synthesize_faults(gen, gp, healthy, seed=8)
    assert any(not np.array_equal(a.samples, b.samples)
               for a, b in zip(out, other))


def test_synthesize_rejects_bad_inputs():
    cfg = mini_cfg()
    gen = build_generator(cfg)
    gp = N.init_params(gen, np.random.default_rng(1))
    with pytest.raises(ValueError):
        synthesize_faults(gen, gp, [], seed=0)
    raw = S.Segment(samples=np.zeros(64, dtype=np.float32),
                    condition=WorkingCondition("T", 1, 600, 0.1),
                    normalized=False)
    with pytest.raises(ValueError):
        synthesize_faults(gen, gp, [raw], seed=0)


def test_metrics_csv_round_trip():
    rows = [{"iteration": 1, "d_loss": 1.25, "g_bce": 0.5, "g_time": 0.25,
             "g_stft": 0.125, "val_total": None},
            {"iteration": 2, "d_loss": 1.0, "g_bce": 0.5, "g_time": 0.2,
             "g_stft": 0.1, "val_total": 42.0}]
    text = metrics_to_csv_text(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,d_loss,g_bce,g_time,g_stft,val_total"
    assert lines[1].endswith(",")            # no val loss on off-cadence rows
    cells = lines[2].split(",")
    assert cells[0] == "2"
    assert float(cells[5]) == 42.0
