"""Operational GAN for healthy-to-faulty vibration translation.

A U-Net style Self-ONN generator maps a normalized healthy segment (plus a
noise channel) to a faulty candidate of the same length; a patch
discriminator scores (input, candidate) channel pairs. The generator
objective is adversarial BCE plus a lambda-weighted L1 term in the time
domain and in the spectrogram domain. Training alternates one discriminator
update and one generator update per batch, both on one noise draw and one
generator forward: the discriminator sees that output as its fake, and the
generator update backpropagates through it (the pix2pix alternation). It
checkpoints generator weights on a fixed cadence and tracks the composite
loss on a held-out validation set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network as N
from . import signal as S
from . import tensor as T

ENCODER_DEPTH = 5  # halvings: segment_len must be divisible by 2**ENCODER_DEPTH


@dataclass
class GanConfig:
    gen_width: int = 36
    disc_width: int = 52
    q: int = 3
    lambda_weight: float = 100.0
    batch: int = 8
    max_iters: int = 1000
    lr: float = 1e-4
    noise_channels: int = 1
    checkpoint_every: int = 10
    seed: int = 0
    iteration_unit: str = "epoch"   # "epoch" or "batch"
    segment_len: int = S.SEGMENT_LEN
    spec_window: int = S.SPEC_WINDOW
    spec_hop: int = S.SPEC_HOP

    def validate_networks(self):
        """The fields the network builders read."""
        if self.gen_width < 1 or self.disc_width < 1 or self.q < 1:
            raise ValueError("widths and q must be >= 1")
        if self.noise_channels < 0:
            raise ValueError("noise_channels must be >= 0")
        if self.segment_len % (2 ** ENCODER_DEPTH) != 0 or self.segment_len < 2 ** ENCODER_DEPTH:
            raise ValueError(f"segment_len must be a positive multiple of "
                             f"{2 ** ENCODER_DEPTH}")
        return self

    def validate(self):
        self.validate_networks()
        if self.lambda_weight < 0:
            raise ValueError("lambda_weight must be >= 0")
        if self.batch < 1 or self.max_iters < 0 or self.checkpoint_every < 1:
            raise ValueError("batch, max_iters, checkpoint_every out of range")
        if self.iteration_unit not in ("epoch", "batch"):
            raise ValueError(f"unknown iteration_unit {self.iteration_unit!r}")
        if not 2 <= self.spec_window <= self.segment_len or self.spec_hop < 1:
            raise ValueError("need 2 <= spec_window <= segment_len and spec_hop >= 1")
        return self


@dataclass
class TrainPair:
    """A healthy segment and a faulty segment under the same working condition."""
    healthy: S.Segment
    faulty: S.Segment

    @property
    def key(self):
        return self.healthy.condition.key

    def validate(self):
        if not (self.healthy.normalized and self.faulty.normalized):
            raise ValueError("pair segments must be normalized")
        if self.healthy.condition.key != self.faulty.condition.key:
            raise ValueError("pair segments must share a working condition")
        return self


@dataclass
class Checkpoint:
    iteration: int
    gen_params: list
    val_loss: float
    val_detection: float | None = None


def build_generator(cfg: GanConfig) -> N.NetworkSpec:
    """Encoder of five strided op_conv layers, decoder of five op_tconv layers
    with skip concats from the mirror encoder stage (the first decoder layer
    re-reads the bottleneck itself)."""
    cfg.validate_networks()
    w, q = cfg.gen_width, cfg.q
    in_ch = 1 + cfg.noise_channels
    layers = [N.LayerSpec("op_conv", in_ch, w, kernel=5, q=q, stride=2, padding=2)]
    for _ in range(ENCODER_DEPTH - 1):
        layers.append(N.LayerSpec("op_conv", w, w, kernel=5, q=q, stride=2, padding=2))
    for _ in range(ENCODER_DEPTH - 1):
        layers.append(N.LayerSpec("op_tconv", 2 * w, w, kernel=5, q=q, stride=2,
                                  padding=2, output_trim=1))
    layers.append(N.LayerSpec("op_tconv", 2 * w, 1, kernel=6, q=q, stride=2, padding=2))
    skips = {ENCODER_DEPTH + i: ENCODER_DEPTH - 1 - i for i in range(ENCODER_DEPTH)}
    return N.NetworkSpec(layers=layers, skips=skips,
                         input_len=cfg.segment_len).validate()


def build_discriminator(cfg: GanConfig) -> N.NetworkSpec:
    """Patch discriminator over the 2-channel (input, candidate) stack:
    stride-4 op_conv blocks while length allows, then a final stride-2 layer
    with a sigmoid patch output."""
    cfg.validate_networks()
    w, q = cfg.disc_width, cfg.q
    layers = []
    in_ch, length = 2, cfg.segment_len
    while length >= 16:
        layers.append(N.LayerSpec("op_conv", in_ch, w, kernel=4, q=q, stride=4))
        in_ch, length = w, (length - 4) // 4 + 1
    layers.append(N.LayerSpec("op_conv", in_ch, 1, kernel=6, q=q, stride=2,
                              padding=2, activation="sigmoid"))
    return N.NetworkSpec(layers=layers, input_len=cfg.segment_len).validate()


def _pair_matrix(pairs: list, segment_len: int):
    x = np.empty((len(pairs), 1, segment_len), dtype=np.float32)
    y = np.empty((len(pairs), 1, segment_len), dtype=np.float32)
    for i, p in enumerate(pairs):
        p.validate()
        if p.healthy.samples.size != segment_len or p.faulty.samples.size != segment_len:
            raise ValueError("pair segment length does not match config")
        x[i, 0] = p.healthy.samples
        y[i, 0] = p.faulty.samples
    return x, y


def _with_noise(x_sig: np.ndarray, channels: int, rng) -> np.ndarray:
    if channels == 0:
        return x_sig
    z = rng.standard_normal((x_sig.shape[0], channels, x_sig.shape[2])).astype(np.float32)
    return np.concatenate([x_sig, z], axis=1)


def _pass(spec, params, x, want_cache: bool):
    """(output, cache) of one network pass; the cache is None unless wanted."""
    if want_cache:
        return N.forward_network(spec, params, x, want_cache=True)
    return N.forward_network(spec, params, x), None


def generator_objective(gen, gp, disc, dp, x_in, x_sig, y, cfg: GanConfig,
                        want_grads: bool = True, g_pass=None, d_pass=None):
    """Composite generator loss and, optionally, its gradient w.r.t. gp.

    Returns (total, parts, grads) where parts holds the unweighted pieces
    g_bce, g_time, g_stft and total = g_bce + lambda * (g_time + g_stft).
    Deterministic given x_in; the caller supplies any noise channels. A
    caller that already ran the generator on x_in, or the discriminator on
    (x_sig, its output), passes that (output, cache) as g_pass or d_pass.
    """
    g_out, g_cache = g_pass or _pass(gen, gp, x_in, want_grads)
    d_out, d_cache = d_pass or _pass(disc, dp, np.concatenate([x_sig, g_out], axis=1),
                                     want_grads)

    ones = np.ones_like(d_out)
    g_bce = T.bce_loss(d_out, ones)
    g_time = T.l1_loss(g_out, y)
    sf_g, s_cache = S.spectral_features(g_out[:, 0, :], cfg.spec_window,
                                        cfg.spec_hop, want_cache=True)
    sf_y = S.spectral_features(y[:, 0, :].astype(np.float64), cfg.spec_window,
                               cfg.spec_hop)
    g_stft = T.l1_loss(sf_g, sf_y)
    total = g_bce + cfg.lambda_weight * (g_time + g_stft)
    parts = {"g_bce": g_bce, "g_time": g_time, "g_stft": g_stft}
    if not want_grads:
        return total, parts, None

    grad_dx, _ = N.backward_network(disc, dp, d_cache, T.bce_grad(d_out, ones))
    grad_g = grad_dx[:, 1:2, :].copy()
    lam = np.float32(cfg.lambda_weight)
    grad_g += lam * np.sign(g_out - y) / np.float32(g_out.size)
    grad_sf = cfg.lambda_weight * np.sign(sf_g - sf_y) / sf_g.size
    grad_g += S.spectral_features_grad(grad_sf, s_cache)[:, None, :]
    _, grads = N.backward_network(gen, gp, g_cache, grad_g.astype(g_out.dtype),
                                  need_input_grad=False)
    return total, parts, grads


def discriminator_objective(disc, dp, x_sig, y_real, y_fake,
                            want_grads: bool = True, fake_pass=None):
    """BCE(D(x, y_real), 1) + BCE(D(x, y_fake), 0) and its gradient w.r.t dp.
    A caller that already ran the discriminator on (x_sig, y_fake) passes
    that (output, cache) as fake_pass."""
    out_r, cache_r = _pass(disc, dp, np.concatenate([x_sig, y_real], axis=1), want_grads)
    out_f, cache_f = fake_pass or _pass(disc, dp, np.concatenate([x_sig, y_fake], axis=1),
                                        want_grads)
    ones, zeros = np.ones_like(out_r), np.zeros_like(out_f)
    d_loss = T.bce_loss(out_r, ones) + T.bce_loss(out_f, zeros)
    if not want_grads:
        return d_loss, None
    _, grads_r = N.backward_network(disc, dp, cache_r, T.bce_grad(out_r, ones),
                                    need_input_grad=False)
    _, grads_f = N.backward_network(disc, dp, cache_f, T.bce_grad(out_f, zeros),
                                    need_input_grad=False)
    grads = [(gw1 + gw2, gb1 + gb2)
             for (gw1, gb1), (gw2, gb2) in zip(grads_r, grads_f)]
    return d_loss, grads


def make_pairs(healthy_segments: list, faulty_segments: list, seed: int = 0) -> list:
    """Pair every healthy segment with a uniformly drawn faulty segment that
    shares its working condition key."""
    by_key = {}
    for s in faulty_segments:
        by_key.setdefault(s.condition.key, []).append(s)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9A12]))
    pairs = []
    for h in healthy_segments:
        pool = by_key.get(h.condition.key)
        if not pool:
            raise ValueError(f"no faulty segments for condition {h.condition.key}")
        pairs.append(TrainPair(healthy=h, faulty=pool[rng.integers(len(pool))]))
    return pairs


def _resample_pairs(pairs: list, rng) -> list:
    by_key = {}
    for p in pairs:
        by_key.setdefault(p.key, []).append(p.faulty)
    out = []
    for p in pairs:
        pool = by_key[p.key]
        out.append(TrainPair(healthy=p.healthy, faulty=pool[rng.integers(len(pool))]))
    return out


@dataclass
class GanTrainResult:
    checkpoints: list
    metrics: list           # dict rows: iteration, d_loss, g_bce, g_time, g_stft, val_total
    gen_spec: N.NetworkSpec
    disc_spec: N.NetworkSpec
    diverged: bool = False

    @property
    def final(self) -> Checkpoint:
        return self.checkpoints[-1]


def validation_loss(gen, gp, disc, dp, val_pairs, cfg: GanConfig, seed) -> float:
    """Composite generator loss over the validation pairs, fixed noise draw."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    total, n = 0.0, 0
    for i in range(0, len(val_pairs), cfg.batch):
        chunk = val_pairs[i:i + cfg.batch]
        x_sig, y = _pair_matrix(chunk, cfg.segment_len)
        x_in = _with_noise(x_sig, cfg.noise_channels, rng)
        loss, _, _ = generator_objective(gen, gp, disc, dp, x_in, x_sig, y, cfg,
                                         want_grads=False)
        total += loss * len(chunk)
        n += len(chunk)
    return total / n


def train_opgan(pairs: list, val_pairs: list, cfg: GanConfig) -> GanTrainResult:
    """Alternating D/G training over condition-matched pairs.

    Each batch draws one noise batch and runs the generator forward once;
    the D update and the G update share that pass and the discriminator's
    pass on its output (see train_step). The faulty side of each pair is
    redrawn from the per-condition pool at every epoch boundary. Checkpoints
    (deep generator snapshots plus the validation composite loss) land every
    cfg.checkpoint_every iterations and at iteration 0 and the final
    iteration. A non-finite loss stops training immediately; everything up
    to the last good checkpoint is returned with the diverged flag set.
    """
    cfg.validate()
    if not pairs:
        raise ValueError("training pairs must be non-empty")
    if not val_pairs:
        raise ValueError("validation pairs must be non-empty")
    for p in pairs:
        p.validate()

    gen = build_generator(cfg)
    disc = build_discriminator(cfg)
    ss_gen, ss_disc, ss_loop = np.random.SeedSequence(cfg.seed).spawn(3)
    gp = N.init_params(gen, np.random.default_rng(ss_gen))
    dp = N.init_params(disc, np.random.default_rng(ss_disc))
    rng = np.random.default_rng(ss_loop)
    opt_g = T.AdamOptimizer(gp, lr=cfg.lr)
    opt_d = T.AdamOptimizer(dp, lr=cfg.lr)

    def checkpoint(iteration):
        val = validation_loss(gen, opt_g.params, disc, opt_d.params, val_pairs,
                              cfg, [cfg.seed, 0x7A1, iteration])
        checkpoints.append(Checkpoint(iteration=iteration,
                                      gen_params=N.copy_params(opt_g.params),
                                      val_loss=val))
        return val

    checkpoints: list = []
    metrics: list = []
    checkpoint(0)
    diverged = False
    step = 0
    rows: list = []

    def close_step():
        """Log one iteration as the mean of its batch rows and checkpoint on
        the cadence; a non-finite validation loss marks divergence."""
        nonlocal step, diverged
        step += 1
        means = np.mean(np.array(rows, dtype=np.float64), axis=0)
        rows.clear()
        row = dict(zip(("d_loss", "g_bce", "g_time", "g_stft"), means.tolist()))
        row["iteration"] = step
        row["val_total"] = None
        if step % cfg.checkpoint_every == 0 or step == cfg.max_iters:
            try:
                row["val_total"] = checkpoint(step)
            except T.NonFiniteError:
                diverged = True
                return
        metrics.append(row)

    def train_step(x_sig, y):
        """One D update and one G update on one noise draw and one cached
        generator forward: the D step takes its output, detached, as the
        fake, and the G step backpropagates through it. The discriminator
        pass on (x, fake) serves both, at the pre-update weights. Returns
        the batch row and raises NonFiniteError on a non-finite loss; the
        passes die with the call, so no step's caches outlive it."""
        x_in = _with_noise(x_sig, cfg.noise_channels, rng)
        g_pass = N.forward_network(gen, opt_g.params, x_in, want_cache=True)
        fake = g_pass[0]
        fake_pass = N.forward_network(disc, opt_d.params,
                                      np.concatenate([x_sig, fake], axis=1),
                                      want_cache=True)
        d_loss, d_grads = discriminator_objective(disc, opt_d.params, x_sig, y, fake,
                                                  fake_pass=fake_pass)
        g_total, parts, g_grads = generator_objective(
            gen, opt_g.params, disc, opt_d.params, x_in, x_sig, y, cfg,
            g_pass=g_pass, d_pass=fake_pass)
        if not (np.isfinite(d_loss) and np.isfinite(g_total)):
            raise T.NonFiniteError("non-finite GAN loss")
        opt_d.step(d_grads)
        opt_g.step(g_grads)
        return d_loss, parts["g_bce"], parts["g_time"], parts["g_stft"]

    per_batch = cfg.iteration_unit == "batch"
    while step < cfg.max_iters and not diverged:
        epoch_pairs = _resample_pairs(pairs, rng)
        order = rng.permutation(len(epoch_pairs))
        for b in range(0, len(order), cfg.batch):
            chunk = [epoch_pairs[j] for j in order[b:b + cfg.batch]]
            x_sig, y = _pair_matrix(chunk, cfg.segment_len)

            try:
                rows.append(train_step(x_sig, y))
            except T.NonFiniteError:
                diverged = True
                break
            if per_batch:
                close_step()
                if diverged or step >= cfg.max_iters:
                    break
        if not (per_batch or diverged):
            close_step()

    return GanTrainResult(checkpoints=checkpoints, metrics=metrics,
                          gen_spec=gen, disc_spec=disc, diverged=diverged)


METRIC_COLUMNS = ("iteration", "d_loss", "g_bce", "g_time", "g_stft", "val_total")


def metrics_to_csv_text(rows: list) -> str:
    lines = [",".join(METRIC_COLUMNS)]
    for row in rows:
        cells = []
        for col in METRIC_COLUMNS:
            v = row.get(col)
            if v is None:
                cells.append("")
            elif col == "iteration":
                cells.append(str(int(v)))
            else:
                cells.append(f"{v:.8e}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def synthesize_faults(gen_spec, gen_params, healthy_segments: list, seed: int = 0) -> list:
    """Run the generator over normalized healthy segments; one clamped
    synthetic faulty segment per input, working condition carried over.
    The generator's input channels beyond the signal are noise. One pass
    over all of them: forward_network blocks its rows."""
    if not healthy_segments:
        raise ValueError("no healthy segments to synthesize from")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5F0]))
    x_sig = np.empty((len(healthy_segments), 1, gen_spec.input_len), dtype=np.float32)
    for j, s in enumerate(healthy_segments):
        if not s.normalized:
            raise ValueError("synthesis inputs must be normalized segments")
        x_sig[j, 0] = s.samples
    x_in = _with_noise(x_sig, gen_spec.layers[0].in_channels - 1, rng)
    g_out = N.forward_network(gen_spec, gen_params, x_in)
    g_out = np.clip(g_out[:, 0, :], -1.0, 1.0)
    return [S.Segment(samples=g_out[j].astype(np.float32), condition=s.condition,
                      source_record=f"synth:{s.source_record}", index=s.index,
                      normalized=True)
            for j, s in enumerate(healthy_segments)]


def checkpoint_detection_score(gen_spec, gen_params, val_pairs: list,
                               cfg: GanConfig, detector_cfg=None, seed: int = 0):
    """(recall, -far) for a detector trained on this checkpoint's synthetics.

    Validation healthy segments feed both synthesis and the healthy training
    half; the real faulty sides of the pairs are the scoring positives.
    """
    from . import detector as D

    healthy = list({(p.healthy.source_record, p.healthy.index): p.healthy
                    for p in val_pairs}.values())
    faulty = list({(p.faulty.source_record, p.faulty.index): p.faulty
                   for p in val_pairs}.values())
    synthetic = synthesize_faults(gen_spec, gen_params, healthy, seed=seed)
    if detector_cfg is None:
        detector_cfg = D.DetectorConfig(epochs=8, seed=seed,
                                        segment_len=cfg.segment_len)
    det_params = D.train_detector(healthy, synthetic, detector_cfg)
    det_spec = D.build_detector(detector_cfg)
    recall = np.mean(np.asarray(
        D.classify_segments(det_spec, det_params, faulty)) == D.FAULTY)
    far = np.mean(np.asarray(
        D.classify_segments(det_spec, det_params, healthy)) == D.FAULTY)
    return float(recall), -float(far)


def select_checkpoint(checkpoints: list, val_pairs: list, mode: str = "loss",
                      gan_cfg: GanConfig | None = None, detector_cfg=None,
                      seed: int = 0) -> Checkpoint:
    """Pick the generator snapshot to ship: mode "loss" takes the lowest
    validation composite loss; mode "detection" trains a small detector on
    each snapshot's synthetic faults and takes the best validation recall
    (ties broken by lower false-alarm rate, then earlier iteration)."""
    if not checkpoints:
        raise ValueError("no checkpoints to select from")
    if mode == "loss":
        return min(checkpoints, key=lambda c: (c.val_loss, c.iteration))
    if mode != "detection":
        raise ValueError(f"unknown checkpoint selection mode {mode!r}")
    if gan_cfg is None:
        raise ValueError("detection mode needs the gan config to rebuild the generator")
    gen_spec = build_generator(gan_cfg)
    best, best_rank = None, None
    for c in checkpoints:
        score = checkpoint_detection_score(gen_spec, c.gen_params, val_pairs,
                                           gan_cfg, detector_cfg, seed)
        c.val_detection = score[0]
        rank = (score[0], score[1], -c.iteration)
        if best_rank is None or rank > best_rank:
            best, best_rank = c, rank
    return best
