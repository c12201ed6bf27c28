"""Pipeline orchestration, config files, segment archives, and the CLI."""

from pathlib import Path

import numpy as np
import pytest

from opfault import blas, dataset, model_io, synth
from opfault import network as N
from opfault.cli import main, resolve_records
from opfault.config import build_configs, load_config, parse_kv_text
from opfault.detector import DetectorConfig
from opfault.gan import GanConfig, build_generator
from opfault.pipeline import (TRAIN_FRACTION, PipelineError, build_source_pairs,
                              run_pipeline, target_pools)


def micro_corpus(machine="M1", seed=0):
    params = synth.DEFAULT_MACHINES[machine]
    return synth.build_corpus(params, speeds=(400.0, 800.0), load=0.1,
                              healthy_duration_s=4.0, faulty_duration_s=2.0,
                              defects=(1.2, 1.8), seed=seed)


def micro_gan_cfg(**kw):
    base = dict(gen_width=4, disc_width=4, q=2, batch=4, max_iters=2,
                checkpoint_every=1, lr=1e-3, lambda_weight=100.0)
    base.update(kw)
    return GanConfig(**base)


def micro_det_cfg(**kw):
    base = dict(channels=4, dense_hidden=8, epochs=2, batch=8, q=2)
    base.update(kw)
    return DetectorConfig(**base)


# --------------------------------------------------------------------- stages

def test_build_source_pairs_holds_out_highest_speed():
    records = micro_corpus()
    pairs, val_pairs, holdout = build_source_pairs(records, micro_gan_cfg(), 0)
    assert holdout == 800.0
    assert pairs and val_pairs
    assert all(p.healthy.condition.speed_rpm != 800.0 for p in pairs)
    assert all(p.healthy.condition.speed_rpm == 800.0 for p in val_pairs)
    assert all(p.healthy.condition.key == p.faulty.condition.key
               for p in pairs + val_pairs)


def test_build_source_pairs_needs_two_speeds():
    records = [r for r in micro_corpus()
               if r.condition.speed_rpm == 400.0]
    with pytest.raises(ValueError):
        build_source_pairs(records, micro_gan_cfg(), 0)


def test_target_pools_split():
    records = micro_corpus("M2")
    train_pool, test_pool, faulty = target_pools(records, 4096, seed=3)
    healthy_records, faulty_records = dataset.healthy_faulty_split(records)
    total = sum(r.samples.size // 4096 for r in healthy_records)
    assert len(train_pool) + len(test_pool) == total
    assert len(faulty) == len(faulty_records)
    ids = lambda pool: {(s.source_record, s.index) for s in pool}
    assert not ids(train_pool) & ids(test_pool)
    again_train, again_test, _ = target_pools(records, 4096, seed=3)
    assert ids(again_train) == ids(train_pool)


def test_run_pipeline_micro_and_determinism(tmp_path):
    source = micro_corpus("M1")
    target = micro_corpus("M2")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = run_pipeline(source, target, micro_gan_cfg(), micro_det_cfg(),
                      seed=5, out_dir=str(out1))
    r2 = run_pipeline(source, target, micro_gan_cfg(), micro_det_cfg(),
                      seed=5, out_dir=str(out2))

    assert r1.report.segment_far is not None
    assert r1.report.overall_recall is not None
    assert r1.checkpoint in r1.gan_result.checkpoints
    for key in ("report", "generator", "detector", "gan_metrics", "ledger"):
        assert (out1 / (r1.paths[key].split("/")[-1])).exists()

    assert r1.report.to_csv_text() == r2.report.to_csv_text()
    for name in ("report.csv", "generator.sonn", "detector.sonn",
                 "gan_metrics.csv", "run_ledger.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    ledger = (out1 / "run_ledger.txt").read_text()
    for needle in ("pipeline.seed=5", "gan.max_iters=2", "detector.epochs=2",
                   "checkpoint.iteration=", "pipeline.holdout_speed=800.0",
                   "pipeline.checkpoint_mode=loss"):
        assert needle in ledger, needle


def test_run_pipeline_different_seed_changes_models(tmp_path):
    source = micro_corpus("M1")
    target = micro_corpus("M2")
    r1 = run_pipeline(source, target, micro_gan_cfg(max_iters=1),
                      micro_det_cfg(epochs=1), seed=1)
    r2 = run_pipeline(source, target, micro_gan_cfg(max_iters=1),
                      micro_det_cfg(epochs=1), seed=2)
    w1 = r1.checkpoint.gen_params[0][0]
    w2 = r2.checkpoint.gen_params[0][0]
    assert not np.array_equal(w1, w2)


def test_pipeline_stage_errors():
    source = micro_corpus("M1")
    target = micro_corpus("M2")
    healthy_only = [r for r in source if r.fault_type == "healthy"]
    with pytest.raises(PipelineError, match="stage train-gan"):
        run_pipeline(healthy_only, target, micro_gan_cfg(), micro_det_cfg())
    no_healthy = [r for r in target if r.fault_type != "healthy"]
    with pytest.raises(PipelineError, match="stage synthesize"):
        run_pipeline(source, no_healthy, micro_gan_cfg(), micro_det_cfg())
    with pytest.raises(PipelineError, match="stage config"):
        run_pipeline(source, target, micro_gan_cfg(),
                     micro_det_cfg(segment_len=4096 // 2))


# -------------------------------------------------------------------- configs

def test_parse_kv_text():
    kv = parse_kv_text("# comment\n\ngan.max_iters=7\n detector.lr = 2e-3 \n")
    assert kv == {"gan.max_iters": "7", "detector.lr": "2e-3"}
    with pytest.raises(ValueError, match="malformed"):
        parse_kv_text("gan.max_iters 7")
    with pytest.raises(ValueError, match="duplicate"):
        parse_kv_text("a=1\na=2")
    with pytest.raises(ValueError, match="empty key"):
        parse_kv_text("=3")


def test_build_configs_overrides_and_rejects():
    gan_cfg, det_cfg, popts = build_configs({
        "gan.max_iters": "9", "gan.lambda_weight": "5.5",
        "gan.iteration_unit": "batch", "detector.kernels": "9,5",
        "detector.strides": "4,2", "detector.epochs": "3",
        "pipeline.checkpoint_mode": "detection", "pipeline.fraction": "0.5"})
    assert gan_cfg.max_iters == 9
    assert gan_cfg.lambda_weight == 5.5
    assert gan_cfg.iteration_unit == "batch"
    assert det_cfg.kernels == (9, 5) and det_cfg.strides == (4, 2)
    assert det_cfg.epochs == 3
    assert popts == {"checkpoint_mode": "detection", "fraction": 0.5}

    with pytest.raises(ValueError, match="unknown config key"):
        build_configs({"gan.widht": "3"})
    with pytest.raises(ValueError, match="unknown config key"):
        build_configs({"pipeline.mode": "loss"})
    with pytest.raises(ValueError, match="unknown config keys"):
        build_configs({"generator.width": "3"})
    with pytest.raises(ValueError, match="cannot parse"):
        build_configs({"gan.max_iters": "many"})


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gan.gen_width=4\ndetector.channels=4\n")
    gan_cfg, det_cfg, popts = load_config(str(path))
    assert gan_cfg.gen_width == 4
    assert det_cfg.channels == 4
    assert popts == {}


# ----------------------------------------------------------- segment archives

def test_segment_archive_round_trip(tmp_path):
    records = micro_corpus("M2")
    segments = dataset.records_to_segments(
        [r for r in records if r.fault_type == "healthy"][:2])
    path = str(tmp_path / "segs.npz")
    dataset.save_segments(path, segments)
    back = dataset.load_segments(path)
    assert len(back) == len(segments)
    for a, b in zip(segments, back):
        assert np.array_equal(a.samples, b.samples)
        assert a.condition.key == b.condition.key
        assert a.source_record == b.source_record
        assert a.index == b.index
        assert a.normalized == b.normalized
        assert a.degenerate == b.degenerate
        assert b.samples.dtype == np.float32

    with pytest.raises(ValueError):
        dataset.save_segments(str(tmp_path / "e.npz"), [])


# ------------------------------------------------------------------------ CLI

def _write_micro_sets(tmp_path):
    src_dir, tgt_dir = str(tmp_path / "src"), str(tmp_path / "tgt")
    dataset.write_dataset(src_dir, micro_corpus("M1"))
    dataset.write_dataset(tgt_dir, micro_corpus("M2"))
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(
        "gan.gen_width=4\ngan.disc_width=4\ngan.q=2\ngan.batch=4\n"
        "gan.max_iters=1\ngan.checkpoint_every=1\ngan.lr=1e-3\n"
        "detector.channels=4\ndetector.dense_hidden=8\ndetector.epochs=1\n"
        "detector.batch=8\ndetector.q=2\n")
    return src_dir, tgt_dir, str(cfg)


def _untrained_generator(tmp_path) -> str:
    spec = build_generator(GanConfig(gen_width=4, q=2))
    model = str(tmp_path / "generator.sonn")
    model_io.save_model(model, spec, N.init_params(spec, np.random.default_rng(0)))
    return model


def test_cli_resolve_records():
    assert len(resolve_records("synth:M1")) == 42
    with pytest.raises(ValueError):
        resolve_records("synth:M9")


def test_cli_gen_data(tmp_path, capsys):
    out = str(tmp_path / "corpus")
    assert main(["gen-data", "--machine", "M2", "--out", out]) == 0
    records, rows = dataset.load_dataset(out)
    assert len(records) == 42
    assert "wrote 42 records" in capsys.readouterr().out


def test_cli_stagewise_chain(tmp_path, capsys):
    src_dir, tgt_dir, cfg = _write_micro_sets(tmp_path)
    gan_out = str(tmp_path / "gan")
    assert main(["train-gan", "--source", src_dir, "--config", cfg,
                 "--seed", "4", "--out", gan_out]) == 0
    assert "checkpoint_iteration=" in capsys.readouterr().out

    syn_out = str(tmp_path / "syn")
    assert main(["synthesize", "--model", f"{gan_out}/generator.sonn",
                 "--data", tgt_dir, "--config", cfg, "--seed", "4",
                 "--out", syn_out]) == 0

    det_out = str(tmp_path / "det")
    assert main(["train-detector", "--healthy", tgt_dir,
                 "--synthetic", f"{syn_out}/synthetic_segments.npz",
                 "--config", cfg, "--seed", "4", "--out", det_out]) == 0

    eval_out = str(tmp_path / "eval")
    assert main(["evaluate", "--model", f"{det_out}/detector.sonn",
                 "--data", tgt_dir, "--config", cfg, "--seed", "4",
                 "--out", eval_out]) == 0
    out = capsys.readouterr().out
    assert "recall=" in out and "far=" in out
    report = (tmp_path / "eval" / "report.csv").read_text()
    assert report.startswith("sensor_id,detected,total,recall")

    assert main(["inspect", f"{det_out}/detector.sonn"]) == 0
    assert "parameters=" in capsys.readouterr().out


def test_cli_pipeline_command(tmp_path, capsys):
    src_dir, tgt_dir, cfg = _write_micro_sets(tmp_path)
    out = str(tmp_path / "run")
    code = main(["pipeline", "--source", src_dir, "--target", tgt_dir,
                 "--config", cfg, "--seed", "3", "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "report=" in stdout and "recall=" in stdout
    assert (tmp_path / "run" / "run_ledger.txt").exists()


def test_cli_pipeline_honours_config_fraction(tmp_path, capsys):
    src_dir, tgt_dir, cfg = _write_micro_sets(tmp_path)
    half = tmp_path / "half.cfg"
    half.write_text(Path(cfg).read_text() + "pipeline.fraction=0.5\n")
    out = tmp_path / "run"
    assert main(["pipeline", "--source", src_dir, "--target", tgt_dir,
                 "--config", str(half), "--seed", "3", "--out", str(out)]) == 0
    far_row = next(ln for ln in (out / "report.csv").read_text().splitlines()
                   if ln.startswith("far,"))
    records, _ = dataset.load_dataset(tgt_dir)
    held_out = lambda fraction: len(target_pools(records, 4096, 3, fraction)[1])
    assert int(far_row.split(",")[2]) == held_out(0.5) != held_out(TRAIN_FRACTION)


def test_cli_synthesize_splits_with_detector_seed(tmp_path):
    _, tgt_dir, cfg = _write_micro_sets(tmp_path)
    seeds = tmp_path / "seeds.cfg"
    seeds.write_text(Path(cfg).read_text() + "gan.seed=7\ndetector.seed=8\n")
    model = _untrained_generator(tmp_path)
    syn_out = tmp_path / "syn"
    assert main(["synthesize", "--model", model, "--data", tgt_dir,
                 "--config", str(seeds), "--out", str(syn_out)]) == 0
    synthetic = dataset.load_segments(str(syn_out / "synthetic_segments.npz"))
    records, _ = dataset.load_dataset(tgt_dir)
    _, test_pool, _ = target_pools(records, 4096, seed=8)  # what evaluate holds out
    inputs = {(s.source_record.removeprefix("synth:"), s.index) for s in synthetic}
    assert inputs and not inputs & {(s.source_record, s.index) for s in test_pool}


def test_cli_train_detector_rejects_an_archive_from_another_split(tmp_path, capsys):
    _, tgt_dir, cfg = _write_micro_sets(tmp_path)
    model = _untrained_generator(tmp_path)
    syn_out = tmp_path / "syn"
    assert main(["synthesize", "--model", model, "--data", tgt_dir, "--config", cfg,
                 "--seed", "1", "--out", str(syn_out)]) == 0
    capsys.readouterr()
    # seed 2 holds out segments that the seed-1 archive was synthesized from
    assert main(["train-detector", "--healthy", tgt_dir,
                 "--synthetic", str(syn_out / "synthetic_segments.npz"), "--config", cfg,
                 "--seed", "2", "--out", str(tmp_path / "det")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "det" / "detector.sonn").exists()


def test_cli_inspect_takes_no_seed(tmp_path):
    model = _untrained_generator(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["inspect", "--seed", "3", model])
    assert exc.value.code == 2


def test_cli_error_contract(tmp_path, capsys):
    assert main(["gen-data", "--machine", "M9",
                 "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("error: ")

    assert main(["inspect", str(tmp_path / "missing.sonn")]) == 1
    assert capsys.readouterr().err.startswith("error: ")

    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--target", "synth:M2"])
    assert exc.value.code != 0

    assert main(["gen-data", "--machine", "M1"]) == 1   # no --out
    assert "error: " in capsys.readouterr().err


def test_cli_pipeline_without_seed_keeps_both_config_seeds(tmp_path):
    src_dir, tgt_dir, cfg = _write_micro_sets(tmp_path)
    seeds = tmp_path / "seeds.cfg"
    seeds.write_text(Path(cfg).read_text()
                     + "gan.seed=7\ndetector.seed=8\npipeline.fraction=0.6\n")
    run, ev = tmp_path / "run", tmp_path / "eval"
    assert main(["pipeline", "--source", src_dir, "--target", tgt_dir,
                 "--config", str(seeds), "--out", str(run)]) == 0
    ledger = (run / "run_ledger.txt").read_text().splitlines()
    assert "gan.seed=7" in ledger and "detector.seed=8" in ledger
    # the stage command holds out the same segments as the one-shot run
    assert main(["evaluate", "--model", str(run / "detector.sonn"), "--data", tgt_dir,
                 "--config", str(seeds), "--out", str(ev)]) == 0
    assert (ev / "report.csv").read_bytes() == (run / "report.csv").read_bytes()

    # the four stage commands write the same models, curves and report
    stages = tmp_path / "stages"
    common = ["--config", str(seeds), "--out", str(stages)]
    assert main(["train-gan", "--source", src_dir, *common]) == 0
    assert main(["synthesize", "--model", str(stages / "generator.sonn"),
                 "--data", tgt_dir, *common]) == 0
    assert main(["train-detector", "--healthy", tgt_dir,
                 "--synthetic", str(stages / "synthetic_segments.npz"), *common]) == 0
    assert main(["evaluate", "--model", str(stages / "detector.sonn"),
                 "--data", tgt_dir, *common]) == 0
    for name in ("report.csv", "generator.sonn", "detector.sonn", "gan_metrics.csv"):
        assert (stages / name).read_bytes() == (run / name).read_bytes(), name


def test_ledger_records_the_environment_under_an_old_numpy(tmp_path, monkeypatch):
    # numpy before 1.26 has show_config() with no mode argument; the run
    # must still write its ledger, with the BLAS name unknown
    monkeypatch.setattr(np, "show_config", lambda: None)
    run_pipeline(micro_corpus("M1"), micro_corpus("M2"), micro_gan_cfg(max_iters=1),
                 micro_det_cfg(epochs=1), seed=1, out_dir=str(tmp_path))
    ledger = (tmp_path / "run_ledger.txt").read_text().splitlines()
    for line in ("env.blas=None", "env.blas_version=None", f"env.numpy={np.__version__}",
                 f"env.blas_threads={blas.threads()}",
                 f"env.shard_min_macs={N.SHARD_MIN_MACS}",
                 f"env.block_macs={N.BLOCK_MACS}"):
        assert line in ledger, line
    assert any(line.startswith("env.python=3.") for line in ledger)
