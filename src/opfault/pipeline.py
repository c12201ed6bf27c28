"""Zero-shot fault detection pipeline.

Stage 1 trains the operational GAN on source-machine (healthy, faulty)
segment pairs, holding out the highest shaft speed for validation. Stage 2
synthesizes faulty segments from 71% of the target machine's healthy
segments. Stage 3 trains the compact detector on that 71% real-healthy pool
plus the synthetic faults. Stage 4 evaluates on the remaining 29% healthy
segments and every real faulty record of the target machine. No target fault
data is ever seen before stage 4. run_pipeline composes the stages defined
here, and the CLI stage commands call them one at a time.
"""

from __future__ import annotations

import os
import platform
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import blas, model_io
from . import detector as D
from . import gan as G
from . import network as N
from .dataset import healthy_faulty_split, records_to_segments, split_segments

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


def train_gan(source_records: list, gan_cfg: G.GanConfig, checkpoint_mode: str):
    """Stage 1: train the Op-GAN on the source pairs and pick the checkpoint
    to ship. Returns (GanTrainResult, Checkpoint, held-out speed)."""
    pairs, val_pairs, holdout = build_source_pairs(source_records, gan_cfg, gan_cfg.seed)
    result = G.train_opgan(pairs, val_pairs, gan_cfg)
    checkpoint = G.select_checkpoint(result.checkpoints, val_pairs, mode=checkpoint_mode,
                                     gan_cfg=gan_cfg, seed=gan_cfg.seed)
    return result, checkpoint, holdout


def train_detector(train_pool: list, synthetic: list, det_cfg: D.DetectorConfig):
    """Stage 3: train the detector on the target's training pool plus the
    synthetic faults. Every synthetic fault must have been made from a
    segment of that pool, or held-out segments would have fed training.
    Returns (spec, params)."""
    pool = {(s.source_record, s.index) for s in train_pool}
    stray = sum((str(s.source_record).removeprefix("synth:"), s.index) not in pool
                for s in synthetic)
    if stray:
        raise ValueError(f"{stray} of {len(synthetic)} synthetic segments come from outside "
                         "this split's training pool (detector.seed, pipeline.fraction)")
    return D.build_detector(det_cfg), D.train_detector(train_pool, synthetic, det_cfg)


@dataclass
class PipelineResult:
    report: D.EvalReport
    ledger_text: str
    gan_result: G.GanTrainResult
    checkpoint: G.Checkpoint
    det_params: list
    det_spec: object
    paths: dict


@contextmanager
def _stage(name: str):
    """Tag any failure inside the block with the stage name."""
    try:
        yield
    except Exception as e:
        raise PipelineError(name, str(e)) from e


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
                 gan_cfg: G.GanConfig, det_cfg: D.DetectorConfig,
                 seed: int | None = None, checkpoint_mode: str = "loss",
                 out_dir: str | None = None,
                 fraction: float = TRAIN_FRACTION) -> PipelineResult:
    """End-to-end run: the four stages in order. An int seed overrides both
    config seeds so one number pins every random choice; with None, the GAN
    stages draw from gan.seed and the target split and detector from
    detector.seed, as the stage commands do. Stage failures raise
    PipelineError tagged with the stage name; a GAN divergence is not fatal,
    the last good checkpoint carries the remaining stages."""
    if seed is not None:
        gan_cfg, det_cfg = replace(gan_cfg, seed=seed), replace(det_cfg, seed=seed)
    gan_cfg, det_cfg = gan_cfg.validate(), det_cfg.validate()
    if det_cfg.segment_len != gan_cfg.segment_len:
        raise PipelineError("config", "generator and detector segment_len differ")

    with _stage("train-gan"):
        gan_result, checkpoint, holdout = train_gan(source_records, gan_cfg, checkpoint_mode)
    with _stage("synthesize"):
        train_pool, test_pool, target_faulty = target_pools(
            target_records, det_cfg.segment_len, det_cfg.seed, fraction=fraction)
        synthetic = G.synthesize_faults(gan_result.gen_spec, checkpoint.gen_params,
                                        train_pool, seed=gan_cfg.seed)
    with _stage("train-detector"):
        det_spec, det_params = train_detector(train_pool, synthetic, det_cfg)
    with _stage("evaluate"):
        report = D.evaluate(det_spec, det_params, test_pool, target_faulty)

    ledger = _ledger_text(gan_cfg, det_cfg, seed, checkpoint_mode, checkpoint,
                          gan_result.diverged, holdout,
                          len(source_records), len(target_records))
    result = PipelineResult(report=report, ledger_text=ledger,
                            gan_result=gan_result, checkpoint=checkpoint,
                            det_params=det_params, det_spec=det_spec, paths={})
    if out_dir is not None:
        result.paths = write_outputs(result, out_dir)
    return result


# One writer per artifact, shared by write_outputs and the stage commands.

def _write_text(path: str, text: str) -> str:
    with open(path, "w") as f:
        f.write(text)
    return path


def write_report(out_dir: str, report: D.EvalReport) -> str:
    return _write_text(os.path.join(out_dir, "report.csv"), report.to_csv_text())


def write_gan(out_dir: str, gan_result: G.GanTrainResult, checkpoint: G.Checkpoint) -> dict:
    """generator.sonn holds the chosen checkpoint; gan_metrics.csv the curves."""
    paths = {"generator": os.path.join(out_dir, "generator.sonn"),
             "gan_metrics": os.path.join(out_dir, "gan_metrics.csv")}
    model_io.save_model(paths["generator"], gan_result.gen_spec, checkpoint.gen_params)
    _write_text(paths["gan_metrics"], G.metrics_to_csv_text(gan_result.metrics))
    return paths


def write_detector(out_dir: str, det_spec, det_params: list) -> str:
    path = os.path.join(out_dir, "detector.sonn")
    model_io.save_model(path, det_spec, det_params)
    return path


def write_outputs(result: PipelineResult, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    return {"report": write_report(out_dir, result.report),
            **write_gan(out_dir, result.gan_result, result.checkpoint),
            "detector": write_detector(out_dir, result.det_spec, result.det_params),
            "ledger": _write_text(os.path.join(out_dir, "run_ledger.txt"),
                                  result.ledger_text)}
