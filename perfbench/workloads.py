"""The benchmark's workloads: set-up, one measured round, correctness checks.

Every workload makes its inputs from the seed it is given, then repeats a
round of identical operations. A round times three kinds of call:

- the main call, whose rate is `samples_per_s`;
- a forward-only batch call of the workload's model, whose rate is
  `forward_segments_per_s`;
- a burst of single-segment calls of that model, whose median is
  `latency_ms`.

The training workloads probe their model (one batch call and one burst)
before and after the main call, so that a round samples the forward rate at
two moments seconds apart; the probe before uses the model of the previous
round, or the untrained one in the first round, which costs the same. The
numbers of steps, pairs and segments per round are fixed here and listed in
README.md.
"""

from __future__ import annotations

import os

import numpy as np

from opfault import dataset, model_io, pipeline, synth
from opfault import detector as D
from opfault import gan as G
from opfault import network as N

import checks as C
from reference import ref_forward, ref_segments


def _f64(params):
    return [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
            for w, b in params]


def _stack(segments, dtype=np.float32):
    return np.stack([s.samples for s in segments]).astype(dtype)[:, None, :]


class Round:
    """Sizes and durations of one measured round: the main call, then each
    forward batch call as (segments, seconds) and each latency burst as a
    list of seconds per call."""

    def __init__(self):
        self.samples = 0
        self.samples_s = 0.0
        self.forward = []
        self.bursts = []


class GanTrain:
    """gan.train_opgan on the M1 source pairs, then synthesis with the
    trained generator."""

    name = "gan_train"
    STEPS = 4                # D/G steps per train_opgan call
    CHECKPOINT_EVERY = 2     # checkpoints at steps 0, 2 and 4
    VAL_PAIRS = 16           # validation pairs scored at each checkpoint
    FORWARD_SEGMENTS = 32    # one synthesis batch
    LATENCY_CALLS = 16       # single-segment synthesis calls per burst

    def __init__(self, seed):
        self.seed = seed
        self.cfg = G.GanConfig(iteration_unit="batch", max_iters=self.STEPS,
                               checkpoint_every=self.CHECKPOINT_EVERY, seed=seed)

    def networks(self):
        return {"gen": G.build_generator(self.cfg), "disc": G.build_discriminator(self.cfg)}

    def ops_per_round(self):
        return 1 + 2 * (1 + self.LATENCY_CALLS)

    def steps_per_round(self):
        return self.STEPS

    def setup(self):
        records = synth.default_corpus("M1", seed=self.seed)
        self.pairs, val, _ = pipeline.build_source_pairs(records, self.cfg, self.seed)
        rng = np.random.default_rng([self.seed, 0xBE])
        pick = rng.permutation(len(val))
        self.val_pairs = [val[k] for k in sorted(pick[:self.VAL_PAIRS])]
        held = [val[k] for k in sorted(pick[self.VAL_PAIRS:])]
        self.forward_segments = [p.healthy for p in held[:self.FORWARD_SEGMENTS]]
        self.gen = G.build_generator(self.cfg)
        self.gen_params = N.init_params(self.gen, np.random.default_rng(self.seed))

    def probe(self, ops, r):
        gen, params = self.gen, self.gen_params
        self.synthetic, t = ops.time(G.synthesize_faults, gen, params,
                                     self.forward_segments, seed=self.seed)
        r.forward.append((len(self.forward_segments), t))
        self.single, burst = [], []
        for seg in self.forward_segments[:self.LATENCY_CALLS]:
            out, t = ops.time(G.synthesize_faults, gen, params, [seg], seed=self.seed)
            self.single.extend(out)
            burst.append(t)
        r.bursts.append(burst)

    def round(self, ops):
        r = Round()
        self.probe(ops, r)
        self.result, r.samples_s = ops.time(G.train_opgan, self.pairs, self.val_pairs, self.cfg)
        r.samples = self.STEPS * self.cfg.batch
        self.gen, self.gen_params = self.result.gen_spec, self.result.final.gen_params
        self.probe(ops, r)
        return r

    def check(self):
        res, cfg = self.result, self.cfg
        fails = C.check_gan_run(res.checkpoints, res.diverged)
        fails += C.check_synthesis(self.forward_segments, self.synthetic, cfg.segment_len)
        fails += C.check_synthesis(self.forward_segments[:self.LATENCY_CALLS], self.single,
                                   cfg.segment_len)
        # gradients at the trained generator; train_opgan does not return the
        # discriminator, so it is taken as train_opgan initialises it
        gen, disc = res.gen_spec, res.disc_spec
        gp = _f64(res.final.gen_params)
        dp = _f64(N.init_params(disc, np.random.default_rng(
            np.random.SeedSequence(cfg.seed).spawn(3)[1])))
        chunk = self.val_pairs[:cfg.batch]
        x_sig = _stack([p.healthy for p in chunk], np.float64)
        y = _stack([p.faulty for p in chunk], np.float64)
        z = np.random.default_rng([self.seed, 0x6C]).standard_normal(x_sig.shape)
        x_in = np.concatenate([x_sig, z], axis=1)

        def g_loss(p):
            return G.generator_objective(gen, p, disc, dp, x_in, x_sig, y, cfg,
                                         want_grads=False)[0]

        _, _, g_grads = G.generator_objective(gen, gp, disc, dp, x_in, x_sig, y, cfg)
        fails += C.check_directional_derivative("generator_objective", g_loss, gp,
                                                _f64(g_grads), seed=self.seed)
        fake = N.forward_network(gen, gp, x_in)

        def d_loss(p):
            return G.discriminator_objective(disc, p, x_sig, y, fake, want_grads=False)[0]

        _, d_grads = G.discriminator_objective(disc, dp, x_sig, y, fake)
        fails += C.check_directional_derivative("discriminator_objective", d_loss, dp,
                                                _f64(d_grads), seed=self.seed + 1)
        return fails


class DetectorTrain:
    """detector.train_detector on the M2 healthy pool and real M2 faulty
    segments, then scoring of held-out segments."""

    name = "detector_train"
    EPOCHS = 2
    LR = 1e-3
    LATENCY_CALLS = 50
    RECALL_FLOOR = 0.85
    FAR_CEILING = 0.15

    def __init__(self, seed):
        self.seed = seed
        self.cfg = D.DetectorConfig(epochs=self.EPOCHS, lr=self.LR, seed=seed)

    def networks(self):
        return {"det": D.build_detector(self.cfg)}

    def ops_per_round(self):
        return 1 + 2 * (1 + self.LATENCY_CALLS)

    def steps_per_round(self):
        n = len(self.healthy) + len(self.faulty)
        return self.EPOCHS * -(-n // self.cfg.batch)

    def setup(self):
        records = synth.default_corpus("M2", seed=self.seed)
        self.healthy, self.test_healthy, faulty_records = pipeline.target_pools(
            records, self.cfg.segment_len, self.seed)
        faulty = dataset.records_to_segments(faulty_records, segment_len=self.cfg.segment_len)
        self.faulty, self.test_faulty = dataset.split_segments(faulty, 0.71, seed=self.seed)
        self.held_out = self.test_healthy + self.test_faulty
        self.spec = D.build_detector(self.cfg)
        self.params = N.init_params(self.spec, np.random.default_rng(self.seed))

    def probe(self, ops, r):
        self.labels, t = ops.time(D.classify_segments, self.spec, self.params, self.held_out)
        r.forward.append((len(self.held_out), t))
        self.single, burst = [], []
        for seg in self.held_out[:self.LATENCY_CALLS]:
            label, t = ops.time(D.classify_segment, self.spec, self.params, seg)
            self.single.append(label)
            burst.append(t)
        r.bursts.append(burst)

    def round(self, ops):
        r = Round()
        self.probe(ops, r)
        self.params, r.samples_s = ops.time(D.train_detector, self.healthy, self.faulty, self.cfg)
        r.samples = self.steps_per_round() * self.cfg.batch
        self.probe(ops, r)
        return r

    def check(self):
        n_h = len(self.test_healthy)
        fails = C.check_detection(self.labels[n_h:], self.labels[:n_h],
                                  self.RECALL_FLOOR, self.FAR_CEILING)
        p64 = _f64(self.params)
        latency_in = _stack(self.held_out[:self.LATENCY_CALLS], np.float64)
        fails += C.check_labels("classify_segment", self.single,
                                ref_forward(self.spec, p64, latency_in))
        # the MSE objective train_detector minimizes, on 8 + 8 training segments
        xb = np.concatenate([_stack(self.healthy[:8], np.float64),
                             _stack(self.faulty[:8], np.float64)])
        tb = np.array([[1.0, -1.0]] * 8 + [[-1.0, 1.0]] * 8)

        def loss(p):
            out = N.forward_network(self.spec, p, xb)
            return float(np.mean((out - tb) ** 2))

        out, cache = N.forward_network(self.spec, p64, xb, want_cache=True)
        _, grads = N.backward_network(self.spec, p64, cache, 2.0 * (out - tb) / out.size)
        fails += C.check_directional_derivative("detector MSE", loss, p64, _f64(grads),
                                                seed=self.seed)
        return fails


class Inference:
    """A deployed target machine: synthesis over the M2 healthy pool,
    evaluation of held-out healthy segments and every faulty M2 record, and
    single-segment classification. A round synthesizes the next batch of the
    pool, so that rounds stay short and many of them sample the run."""

    name = "inference"
    GEN_SEED = 1101          # fixed weights of the loaded models
    DET_SEED = 1102
    SYNTH_BATCH = 32         # the batch of synthesize_faults
    LATENCY_CALLS = 50

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.gan_cfg = G.GanConfig(seed=seed)
        self.det_cfg = D.DetectorConfig(seed=seed)
        self.rounds = 0

    def networks(self):
        return {"gen": G.build_generator(self.gan_cfg), "det": D.build_detector(self.det_cfg)}

    def ops_per_round(self):
        return 2 + self.LATENCY_CALLS

    def steps_per_round(self):
        return 0

    def setup(self):
        records = synth.default_corpus("M2", seed=self.seed)
        self.pool, self.test_pool, self.faulty_records = pipeline.target_pools(
            records, self.gan_cfg.segment_len, self.seed)
        # init_detector_params is not used: its identical output rows make
        # every label a tie, and a tie reads as healthy
        os.makedirs(self.workdir, exist_ok=True)
        tag = f"{os.getpid()}_{self.seed}"
        paths = []
        for name, spec, seed in (("gen", G.build_generator(self.gan_cfg), self.GEN_SEED),
                                 ("det", D.build_detector(self.det_cfg), self.DET_SEED)):
            path = os.path.join(self.workdir, f"{name}_{tag}.sonn")
            model_io.save_model(path, spec, N.init_params(spec, np.random.default_rng(seed)))
            paths.append(path)
        try:
            self.gen, self.gen_params = model_io.load_model(paths[0])
            self.det, self.det_params = model_io.load_model(paths[1])
        finally:
            for path in paths:
                os.remove(path)
        seg_len = self.gan_cfg.segment_len
        self.scored = len(self.test_pool) + sum(r.samples.size // seg_len
                                                for r in self.faulty_records)

    def round(self, ops):
        r = Round()
        start = self.rounds * self.SYNTH_BATCH
        self.rounds += 1
        self.batch = [self.pool[(start + k) % len(self.pool)] for k in range(self.SYNTH_BATCH)]
        self.synthetic, r.samples_s = ops.time(G.synthesize_faults, self.gen, self.gen_params,
                                               self.batch, seed=self.seed)
        r.samples = self.SYNTH_BATCH
        self.report, t = ops.time(D.evaluate, self.det, self.det_params,
                                  self.test_pool, self.faulty_records)
        r.forward.append((self.scored, t))
        self.single, burst = [], []
        for seg in self.test_pool[:self.LATENCY_CALLS]:
            label, t = ops.time(D.classify_segment, self.det, self.det_params, seg)
            self.single.append(label)
            burst.append(t)
        r.bursts.append(burst)
        return r

    def check(self):
        seg_len = self.gan_cfg.segment_len
        fails = C.check_synthesis(self.batch, self.synthetic, seg_len)

        x_sig = _stack(self.pool[:2])
        z = np.random.default_rng([self.seed, 0x6E]).standard_normal(x_sig.shape)
        x_in = np.concatenate([x_sig, z.astype(np.float32)], axis=1)
        fails += C.check_close("generator forward",
                               N.forward_network(self.gen, self.gen_params, x_in),
                               ref_forward(self.gen, self.gen_params, x_in))
        x_det = _stack(self.test_pool[:8])
        fails += C.check_close("detector forward",
                               N.forward_network(self.det, self.det_params, x_det),
                               ref_forward(self.det, self.det_params, x_det))

        # the report's counts from reference labels, own segmentation and grouping
        rec_segs = [ref_segments(rec.samples, seg_len) for rec in self.faulty_records]
        healthy_out = ref_forward(self.det, self.det_params, _stack(self.test_pool, np.float64))
        faulty_out = ref_forward(self.det, self.det_params, np.concatenate(rec_segs)[:, None, :])
        per_record, start = [], 0
        for rec, segs in zip(self.faulty_records, rec_segs):
            per_record.append((rec.condition.sensor, faulty_out[start:start + len(segs)]))
            start += len(segs)
        healthy = [(s.source_record, o) for s, o in zip(self.test_pool, healthy_out)]
        fails += C.check_eval_counts(self.report, C.expected_eval_counts(per_record, healthy))
        fails += C.check_labels("classify_segment", self.single,
                                healthy_out[:self.LATENCY_CALLS])
        return fails


def make(name, seed, workdir):
    if name == GanTrain.name:
        return GanTrain(seed)
    if name == DetectorTrain.name:
        return DetectorTrain(seed)
    if name == Inference.name:
        return Inference(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose gan_train, detector_train or inference")


WORKLOADS = (GanTrain.name, DetectorTrain.name, Inference.name)
