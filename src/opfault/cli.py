"""Command line interface.

Subcommands map one-to-one onto the library operations: gen-data,
train-gan, synthesize, train-detector, evaluate, pipeline, inspect. Dataset
arguments accept either a directory path or the shorthand "synth:M1" /
"synth:M2" for the built-in synthetic machines (generated with corpus seed 0
so the shorthand always denotes the same data). Errors print a single
"error: ..." line on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import dataset, model_io, synth
from . import detector as D
from . import gan as G
from . import network as N
from .config import load_config
from .detector import DetectorConfig
from .gan import GanConfig
from .pipeline import (TRAIN_FRACTION, PipelineError, build_source_pairs,
                       run_pipeline, target_pools, write_outputs)


def resolve_records(tag: str) -> list:
    if tag.startswith("synth:"):
        name = tag.split(":", 1)[1]
        if name not in synth.DEFAULT_MACHINES:
            raise ValueError(f"unknown synthetic machine {name!r}; "
                             f"choose from {sorted(synth.DEFAULT_MACHINES)}")
        return synth.default_corpus(name, seed=0)
    records, _ = dataset.load_dataset(tag)
    return records


def _configs(args):
    gan_cfg, det_cfg, popts = GanConfig(), DetectorConfig(), {}
    if args.config:
        gan_cfg, det_cfg, popts = load_config(args.config)
    if args.seed is not None:
        gan_cfg = replace(gan_cfg, seed=args.seed)
        det_cfg = replace(det_cfg, seed=args.seed)
    return gan_cfg, det_cfg, popts


def _need_out(args, what="this command"):
    if not args.out:
        raise ValueError(f"{what} needs --out")
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_gen_data(args) -> int:
    out = _need_out(args, "gen-data")
    name = args.machine.split(":", 1)[-1]
    if name not in synth.DEFAULT_MACHINES:
        raise ValueError(f"unknown synthetic machine {name!r}")
    records = synth.default_corpus(name, seed=args.seed or 0)
    dataset.write_dataset(out, records)
    print(f"wrote {len(records)} records to {out}")
    return 0


def cmd_train_gan(args) -> int:
    out = _need_out(args, "train-gan")
    gan_cfg, _, popts = _configs(args)
    records = resolve_records(args.source)
    seed = gan_cfg.seed
    pairs, val_pairs, holdout = build_source_pairs(records, gan_cfg, seed)
    result = G.train_opgan(pairs, val_pairs, gan_cfg)
    mode = args.select or popts.get("checkpoint_mode", "loss")
    chosen = G.select_checkpoint(result.checkpoints, val_pairs, mode=mode,
                                 gan_cfg=gan_cfg, seed=seed)
    model_io.save_model(os.path.join(out, "generator.sonn"),
                        result.gen_spec, chosen.gen_params)
    with open(os.path.join(out, "gan_metrics.csv"), "w") as f:
        f.write(G.metrics_to_csv_text(result.metrics))
    print(f"holdout_speed={holdout}")
    print(f"checkpoint_iteration={chosen.iteration}")
    print(f"checkpoint_val_loss={chosen.val_loss!r}")
    if result.diverged:
        print("diverged=True")
    return 0


def cmd_synthesize(args) -> int:
    out = _need_out(args, "synthesize")
    gan_cfg, det_cfg, popts = _configs(args)
    spec, params = model_io.load_model(args.model)
    records = resolve_records(args.data)
    # split as train-detector and evaluate do, so no test segment is synthesized from
    train_pool, _, _ = target_pools(records, spec.input_len, det_cfg.seed,
                                    fraction=popts.get("fraction", TRAIN_FRACTION))
    segments = G.synthesize_faults(spec, params, train_pool, seed=gan_cfg.seed,
                                   noise_channels=spec.layers[0].in_channels - 1)
    path = os.path.join(out, "synthetic_segments.npz")
    dataset.save_segments(path, segments)
    print(f"wrote {len(segments)} synthetic segments to {path}")
    return 0


def cmd_train_detector(args) -> int:
    out = _need_out(args, "train-detector")
    gan_cfg, det_cfg, popts = _configs(args)
    records = resolve_records(args.healthy)
    train_pool, _, _ = target_pools(records, det_cfg.segment_len, det_cfg.seed,
                                    fraction=popts.get("fraction", TRAIN_FRACTION))
    synthetic = dataset.load_segments(args.synthetic)
    params = D.train_detector(train_pool, synthetic, det_cfg)
    model_io.save_model(os.path.join(out, "detector.sonn"),
                        D.build_detector(det_cfg), params)
    print(f"trained on {len(train_pool)} healthy + {len(synthetic)} synthetic")
    return 0


def cmd_evaluate(args) -> int:
    out = _need_out(args, "evaluate")
    gan_cfg, det_cfg, popts = _configs(args)
    spec, params = model_io.load_model(args.model)
    records = resolve_records(args.data)
    _, test_pool, faulty = target_pools(records, spec.input_len, det_cfg.seed,
                                        fraction=popts.get("fraction", TRAIN_FRACTION))
    report = D.evaluate(spec, params, test_pool, faulty)
    path = os.path.join(out, "report.csv")
    with open(path, "w") as f:
        f.write(report.to_csv_text())
    print(f"report={path}")
    if report.overall_recall is not None:
        print(f"recall={report.overall_recall:.6f}")
    if report.segment_far is not None:
        print(f"far={report.segment_far:.6f}")
    return 0


def cmd_pipeline(args) -> int:
    out = _need_out(args, "pipeline")
    gan_cfg, det_cfg, popts = _configs(args)
    source = resolve_records(args.source)
    target = resolve_records(args.target)
    mode = args.checkpoint_mode or popts.get("checkpoint_mode", "loss")
    result = run_pipeline(source, target, gan_cfg, det_cfg,
                          seed=args.seed,
                          checkpoint_mode=mode, out_dir=out,
                          fraction=popts.get("fraction", TRAIN_FRACTION))
    print(f"report={result.paths['report']}")
    if result.report.overall_recall is not None:
        print(f"recall={result.report.overall_recall:.6f}")
    if result.report.segment_far is not None:
        print(f"far={result.report.segment_far:.6f}")
    if result.report.record_precision is not None:
        print(f"precision={result.report.record_precision:.6f}")
    return 0


def cmd_inspect(args) -> int:
    spec, params = model_io.load_model(args.model)
    sys.stdout.write(model_io.spec_to_text(spec))
    print(f"parameters={N.count_params(spec)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override every config seed")
    common.add_argument("--config", default=None,
                        help="key=value config file (gan.*, detector.*, pipeline.*)")
    common.add_argument("--out", default=None, help="output directory")

    p = argparse.ArgumentParser(prog="opfault",
                                description="zero-shot bearing fault detection")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("gen-data", parents=[common],
                       help="write a synthetic machine corpus to --out")
    q.add_argument("--machine", required=True, help="M1, M2 or synth:M1 form")
    q.set_defaults(fn=cmd_gen_data)

    q = sub.add_parser("train-gan", parents=[common],
                       help="train the healthy->faulty generator on a source corpus")
    q.add_argument("--source", required=True, help="dataset dir or synth:M1")
    q.add_argument("--select", choices=("loss", "detection"), default=None)
    q.set_defaults(fn=cmd_train_gan)

    q = sub.add_parser("synthesize", parents=[common],
                       help="generate faulty segments from a target corpus")
    q.add_argument("--model", required=True, help="generator .sonn file")
    q.add_argument("--data", required=True, help="target dataset dir or synth:M2")
    q.set_defaults(fn=cmd_synthesize)

    q = sub.add_parser("train-detector", parents=[common],
                       help="train the detector on real-healthy + synthetic faults")
    q.add_argument("--healthy", required=True, help="target dataset dir or synth:M2")
    q.add_argument("--synthetic", required=True, help="segment archive (.npz)")
    q.set_defaults(fn=cmd_train_detector)

    q = sub.add_parser("evaluate", parents=[common],
                       help="score a detector on held-out target data")
    q.add_argument("--model", required=True, help="detector .sonn file")
    q.add_argument("--data", required=True, help="target dataset dir or synth:M2")
    q.set_defaults(fn=cmd_evaluate)

    q = sub.add_parser("pipeline", parents=[common],
                       help="run all four stages source -> target")
    q.add_argument("--source", required=True)
    q.add_argument("--target", required=True)
    q.add_argument("--checkpoint-mode", choices=("loss", "detection"), default=None)
    q.set_defaults(fn=cmd_pipeline)

    q = sub.add_parser("inspect", parents=[common],
                       help="print a model's layer spec and parameter count")
    q.add_argument("model")
    q.set_defaults(fn=cmd_inspect)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, PipelineError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
