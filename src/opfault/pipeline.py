"""Zero-shot fault detection pipeline.

Stage 1 trains the operational GAN on source-machine (healthy, faulty)
segment pairs, holding out the highest shaft speed for validation. Stage 2
synthesizes faulty segments from 71% of the target machine's healthy
segments. Stage 3 trains the compact detector on that 71% real-healthy pool
plus the synthetic faults. Stage 4 evaluates on the remaining 29% healthy
segments and every real faulty record of the target machine. No target fault
data is ever seen before stage 4.
"""

from __future__ import annotations

import os
import platform
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import blas, model_io
from . import detector as D
from . import gan as G
from . import network as N
from .dataset import healthy_faulty_split, records_to_segments, split_segments

STAGES = ("train-gan", "synthesize", "train-detector", "evaluate")
TRAIN_FRACTION = 0.71  # share of target healthy segments for synthesis and training


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


def build_source_pairs(records: list, gan_cfg: G.GanConfig, seed: int):
    """Condition-matched training pairs plus a validation set made from the
    held-out highest shaft speed."""
    healthy, faulty = healthy_faulty_split(records)
    if not healthy or not faulty:
        raise ValueError("source dataset needs both healthy and faulty records")
    speeds = sorted({r.condition.speed_rpm for r in healthy})
    if len(speeds) < 2:
        raise ValueError("source dataset needs at least two speeds to hold one out")
    holdout = speeds[-1]

    def seg(records, held_out):
        recs = [r for r in records if (r.condition.speed_rpm == holdout) == held_out]
        return records_to_segments(recs, segment_len=gan_cfg.segment_len)

    train_pairs = G.make_pairs(seg(healthy, False), seg(faulty, False), seed=seed)
    val_pairs = G.make_pairs(seg(healthy, True), seg(faulty, True), seed=seed + 1)
    return train_pairs, val_pairs, holdout


def target_pools(records: list, segment_len: int, seed: int,
                 fraction: float = TRAIN_FRACTION):
    """(synthesis/training healthy segments, test healthy segments, faulty
    records) for the target machine; the healthy split is stratified per
    working condition and reproducible from the seed."""
    healthy, faulty = healthy_faulty_split(records)
    if not healthy:
        raise ValueError("target dataset needs healthy records")
    segments = records_to_segments(healthy, segment_len=segment_len)
    train_pool, test_pool = split_segments(segments, fraction=fraction, seed=seed)
    return train_pool, test_pool, faulty


@dataclass
class PipelineResult:
    report: D.EvalReport
    ledger_text: str
    gan_result: G.GanTrainResult
    checkpoint: G.Checkpoint
    det_params: list
    det_spec: object
    paths: dict


def _ledger_text(gan_cfg, det_cfg, seed, mode, checkpoint,
                 diverged, holdout, n_source, n_target) -> str:
    entries = {}
    for prefix, cfg in (("gan", gan_cfg), ("detector", det_cfg)):
        for k, v in asdict(cfg).items():
            entries[f"{prefix}.{k}"] = v
    entries.update({
        "pipeline.seed": seed,
        "pipeline.checkpoint_mode": mode,
        "pipeline.holdout_speed": holdout,
        "pipeline.source_records": n_source,
        "pipeline.target_records": n_target,
        "checkpoint.iteration": checkpoint.iteration,
        "checkpoint.val_loss": repr(checkpoint.val_loss),
        "gan.diverged": diverged,
        # what produced the bytes; the BLAS thread count is the one in
        # effect, a pass splits into two shards at this much work, and a
        # forward-only shard runs in row blocks of about this much
        "env.python": platform.python_version(),
        "env.numpy": np.__version__,
        "env.shard_min_macs": N.SHARD_MIN_MACS,
        "env.block_macs": N.BLOCK_MACS,
    })
    entries.update((f"env.{k}", v) for k, v in blas.describe().items())
    if checkpoint.val_detection is not None:
        entries["checkpoint.val_detection"] = repr(checkpoint.val_detection)
    lines = [f"{k}={entries[k]}" for k in sorted(entries)]
    return "\n".join(lines) + "\n"


def run_pipeline(source_records: list, target_records: list,
                 gan_cfg: G.GanConfig | None = None,
                 det_cfg: D.DetectorConfig | None = None,
                 seed: int | None = None, checkpoint_mode: str = "loss",
                 out_dir: str | None = None,
                 fraction: float = TRAIN_FRACTION) -> PipelineResult:
    """End-to-end run. An int seed overrides both config seeds so one number
    pins every random choice; with None, the GAN stages draw from gan.seed
    and the target split and detector from detector.seed, as the stage
    commands do. Stage failures raise PipelineError tagged with the stage
    name; a GAN divergence is not fatal, the last good checkpoint carries
    the remaining stages."""
    gan_cfg = gan_cfg or G.GanConfig()
    det_cfg = det_cfg or D.DetectorConfig()
    if seed is not None:
        gan_cfg, det_cfg = replace(gan_cfg, seed=seed), replace(det_cfg, seed=seed)
    gan_cfg, det_cfg = gan_cfg.validate(), det_cfg.validate()
    if det_cfg.segment_len != gan_cfg.segment_len:
        raise PipelineError("config", "generator and detector segment_len differ")

    try:
        pairs, val_pairs, holdout = build_source_pairs(source_records, gan_cfg,
                                                       gan_cfg.seed)
        gan_result = G.train_opgan(pairs, val_pairs, gan_cfg)
        checkpoint = G.select_checkpoint(
            gan_result.checkpoints, val_pairs, mode=checkpoint_mode,
            gan_cfg=gan_cfg, seed=gan_cfg.seed)
    except PipelineError:
        raise
    except Exception as e:
        raise PipelineError(STAGES[0], str(e)) from e

    try:
        train_pool, test_pool, target_faulty = target_pools(
            target_records, det_cfg.segment_len, det_cfg.seed, fraction=fraction)
        synthetic = G.synthesize_faults(gan_result.gen_spec, checkpoint.gen_params,
                                        train_pool, seed=gan_cfg.seed,
                                        noise_channels=gan_cfg.noise_channels)
    except Exception as e:
        raise PipelineError(STAGES[1], str(e)) from e

    try:
        det_params = D.train_detector(train_pool, synthetic, det_cfg)
        det_spec = D.build_detector(det_cfg)
    except Exception as e:
        raise PipelineError(STAGES[2], str(e)) from e

    try:
        report = D.evaluate(det_spec, det_params, test_pool, target_faulty)
    except Exception as e:
        raise PipelineError(STAGES[3], str(e)) from e

    ledger = _ledger_text(gan_cfg, det_cfg, seed, checkpoint_mode, checkpoint,
                          gan_result.diverged, holdout,
                          len(source_records), len(target_records))
    result = PipelineResult(report=report, ledger_text=ledger,
                            gan_result=gan_result, checkpoint=checkpoint,
                            det_params=det_params, det_spec=det_spec, paths={})
    if out_dir is not None:
        result.paths = write_outputs(result, gan_cfg, det_cfg, out_dir)
    return result


def write_outputs(result: PipelineResult, gan_cfg: G.GanConfig,
                  det_cfg: D.DetectorConfig, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "report": os.path.join(out_dir, "report.csv"),
        "generator": os.path.join(out_dir, "generator.sonn"),
        "detector": os.path.join(out_dir, "detector.sonn"),
        "gan_metrics": os.path.join(out_dir, "gan_metrics.csv"),
        "ledger": os.path.join(out_dir, "run_ledger.txt"),
    }
    with open(paths["report"], "w") as f:
        f.write(result.report.to_csv_text())
    model_io.save_model(paths["generator"], result.gan_result.gen_spec,
                        result.checkpoint.gen_params)
    model_io.save_model(paths["detector"], result.det_spec, result.det_params)
    with open(paths["gan_metrics"], "w") as f:
        f.write(G.metrics_to_csv_text(result.gan_result.metrics))
    with open(paths["ledger"], "w") as f:
        f.write(result.ledger_text)
    return paths
