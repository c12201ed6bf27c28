"""Command line interface.

Subcommands: gen-data, train-gan, synthesize, train-detector, evaluate,
pipeline, inspect. The four stage commands call the stages that
opfault.pipeline composes into `pipeline`, and write the same files. Dataset
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
from . import pipeline as P
from .config import load_config


def resolve_records(tag: str) -> list:
    if tag.startswith("synth:"):
        return synth.default_corpus(tag.split(":", 1)[1], seed=0)
    records, _ = dataset.load_dataset(tag)
    return records


def _configs(args):
    """(gan config, detector config, split fraction, checkpoint mode): the
    config file, then --seed and the checkpoint-mode flag over it, then the
    defaults for whatever neither sets."""
    gan_cfg, det_cfg, popts = G.GanConfig(), D.DetectorConfig(), {}
    if args.config:
        gan_cfg, det_cfg, popts = load_config(args.config)
    if args.seed is not None:
        gan_cfg, det_cfg = replace(gan_cfg, seed=args.seed), replace(det_cfg, seed=args.seed)
    mode = getattr(args, "checkpoint_mode", None) or popts.get("checkpoint_mode", "loss")
    return gan_cfg, det_cfg, popts.get("fraction", P.TRAIN_FRACTION), mode


def _target_pools(tag: str, det_cfg: D.DetectorConfig, fraction: float):
    """The target split, made as run_pipeline makes it."""
    return P.target_pools(resolve_records(tag), det_cfg.segment_len, det_cfg.seed, fraction)


def _need_out(args):
    if not args.out:
        raise ValueError(f"{args.command} needs --out")
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _print_report(path: str, report: D.EvalReport) -> None:
    print(f"report={path}")
    for name, value in (("recall", report.overall_recall), ("far", report.segment_far),
                        ("precision", report.record_precision)):
        if value is not None:
            print(f"{name}={value:.6f}")


def cmd_gen_data(args) -> int:
    out = _need_out(args)
    records = synth.default_corpus(args.machine.split(":", 1)[-1], seed=args.seed)
    dataset.write_dataset(out, records)
    print(f"wrote {len(records)} records to {out}")
    return 0


def cmd_train_gan(args) -> int:
    out = _need_out(args)
    gan_cfg, _, _, mode = _configs(args)
    result, chosen, holdout = P.train_gan(resolve_records(args.source), gan_cfg, mode)
    P.write_gan(out, result, chosen)
    print(f"holdout_speed={holdout}")
    print(f"checkpoint_iteration={chosen.iteration}")
    print(f"checkpoint_val_loss={chosen.val_loss!r}")
    if result.diverged:
        print("diverged=True")
    return 0


def cmd_synthesize(args) -> int:
    out = _need_out(args)
    gan_cfg, det_cfg, fraction, _ = _configs(args)
    spec, params = model_io.load_model(args.model)
    train_pool, _, _ = _target_pools(args.data, det_cfg, fraction)
    segments = G.synthesize_faults(spec, params, train_pool, seed=gan_cfg.seed)
    path = os.path.join(out, "synthetic_segments.npz")
    dataset.save_segments(path, segments)
    print(f"wrote {len(segments)} synthetic segments to {path}")
    return 0


def cmd_train_detector(args) -> int:
    out = _need_out(args)
    _, det_cfg, fraction, _ = _configs(args)
    train_pool, _, _ = _target_pools(args.healthy, det_cfg, fraction)
    synthetic = dataset.load_segments(args.synthetic)
    P.write_detector(out, *P.train_detector(train_pool, synthetic, det_cfg))
    print(f"trained on {len(train_pool)} healthy + {len(synthetic)} synthetic")
    return 0


def cmd_evaluate(args) -> int:
    out = _need_out(args)
    _, det_cfg, fraction, _ = _configs(args)
    spec, params = model_io.load_model(args.model)
    _, test_pool, faulty = _target_pools(args.data, det_cfg, fraction)
    report = D.evaluate(spec, params, test_pool, faulty)
    _print_report(P.write_report(out, report), report)
    return 0


def cmd_pipeline(args) -> int:
    out = _need_out(args)
    gan_cfg, det_cfg, fraction, mode = _configs(args)
    result = P.run_pipeline(resolve_records(args.source), resolve_records(args.target),
                            gan_cfg, det_cfg, seed=args.seed, checkpoint_mode=mode,
                            out_dir=out, fraction=fraction)
    _print_report(result.paths["report"], result.report)
    return 0


def cmd_inspect(args) -> int:
    spec, params = model_io.load_model(args.model)
    sys.stdout.write(model_io.spec_to_text(spec))
    print(f"parameters={N.count_params(spec)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output directory")
    stage = argparse.ArgumentParser(add_help=False, parents=[out])
    stage.add_argument("--seed", type=int, default=None,
                       help="override every config seed")
    stage.add_argument("--config", default=None,
                       help="key=value config file (gan.*, detector.*, pipeline.*)")

    p = argparse.ArgumentParser(prog="opfault",
                                description="zero-shot bearing fault detection")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("gen-data", parents=[out],
                       help="write a synthetic machine corpus to --out")
    q.add_argument("--machine", required=True, help="M1, M2 or synth:M1 form")
    q.add_argument("--seed", type=int, default=0,
                   help="corpus seed (default 0, the corpus synth:M1/synth:M2 name)")
    q.set_defaults(fn=cmd_gen_data)

    q = sub.add_parser("train-gan", parents=[stage],
                       help="train the healthy->faulty generator on a source corpus")
    q.add_argument("--source", required=True, help="dataset dir or synth:M1")
    q.add_argument("--select", dest="checkpoint_mode", choices=("loss", "detection"),
                   default=None)
    q.set_defaults(fn=cmd_train_gan)

    q = sub.add_parser("synthesize", parents=[stage],
                       help="generate faulty segments from a target corpus")
    q.add_argument("--model", required=True, help="generator .sonn file")
    q.add_argument("--data", required=True, help="target dataset dir or synth:M2")
    q.set_defaults(fn=cmd_synthesize)

    q = sub.add_parser("train-detector", parents=[stage],
                       help="train the detector on real-healthy + synthetic faults")
    q.add_argument("--healthy", required=True, help="target dataset dir or synth:M2")
    q.add_argument("--synthetic", required=True, help="segment archive (.npz)")
    q.set_defaults(fn=cmd_train_detector)

    q = sub.add_parser("evaluate", parents=[stage],
                       help="score a detector on held-out target data")
    q.add_argument("--model", required=True, help="detector .sonn file")
    q.add_argument("--data", required=True, help="target dataset dir or synth:M2")
    q.set_defaults(fn=cmd_evaluate)

    q = sub.add_parser("pipeline", parents=[stage],
                       help="run all four stages source -> target")
    q.add_argument("--source", required=True)
    q.add_argument("--target", required=True)
    q.add_argument("--checkpoint-mode", choices=("loss", "detection"), default=None)
    q.set_defaults(fn=cmd_pipeline)

    q = sub.add_parser("inspect", help="print a model's layer spec and parameter count")
    q.add_argument("model")
    q.set_defaults(fn=cmd_inspect)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, P.PipelineError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
