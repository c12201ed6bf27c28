import numpy as np
import pytest

from opfault import dataset as D
from opfault import signal as S
from opfault import synth as Y


def _cond(machine="M1", sensor=1, speed=480.0, load=0.15):
    return D.WorkingCondition(machine=machine, sensor=sensor, speed_rpm=speed, load=load)


def test_determinism_same_inputs_identical_samples():
    r1 = Y.synth_machine(Y.M1, _cond(), 2.0, "inner", 1.5, extra_seed=4)
    r2 = Y.synth_machine(Y.M1, _cond(), 2.0, "inner", 1.5, extra_seed=4)
    assert np.array_equal(r1.samples, r2.samples)
    r3 = Y.synth_machine(Y.M1, _cond(), 2.0, "inner", 1.5, extra_seed=5)
    assert not np.array_equal(r1.samples, r3.samples)


def test_invalid_conditions_rejected():
    with pytest.raises(ValueError, match="machine"):
        Y.synth_machine(Y.M1, _cond(machine="M2"))
    with pytest.raises(ValueError, match="sensor"):
        Y.synth_machine(Y.M1, _cond(sensor=3))
    with pytest.raises(ValueError):
        Y.synth_machine(Y.M1, _cond(), fault_type="healthy", defect_mm=1.0)
    with pytest.raises(ValueError):
        Y.synth_machine(Y.M1, _cond(), fault_type="outer", defect_mm=0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        Y.SynthMachineParams(name="bad", harmonic_amplitudes=(1.0, -0.5),
                             resonance_hz=900.0, impulse_decay=300.0).validate()
    with pytest.raises(ValueError):
        Y.SynthMachineParams(name="bad", harmonic_amplitudes=(1.0,),
                             resonance_hz=3000.0, impulse_decay=300.0).validate()


def test_faulty_rms_exceeds_healthy_from_one_mm():
    for params, speeds in ((Y.M1, Y.DEFAULT_SPEEDS["M1"]), (Y.M2, Y.DEFAULT_SPEEDS["M2"])):
        for sensor in (1, 2):
            for speed in speeds:
                cond = _cond(params.name, sensor, speed)
                healthy = Y.synth_machine(params, cond, 4.0)
                h_rms = float(np.sqrt(np.mean(healthy.samples.astype(np.float64) ** 2)))
                for fault in ("inner", "outer"):
                    for defect in (1.0, 1.5, 2.35):
                        rec = Y.synth_machine(params, cond, 4.0, fault, defect)
                        rms = float(np.sqrt(np.mean(rec.samples.astype(np.float64) ** 2)))
                        assert rms > h_rms, (params.name, sensor, speed, fault, defect)


def test_healthy_energy_sits_on_programmed_harmonics():
    # >= 90% of spectral energy within +-2 bins of each shaft harmonic
    bin_hz = D.FS / S.SPEC_WINDOW
    for params in (Y.M1, Y.M2):
        for speed in Y.DEFAULT_SPEEDS[params.name]:
            cond = _cond(params.name, 1, speed)
            rec = Y.synth_machine(params, cond, 4.0)
            p = S.spectral_features(rec.samples.astype(np.float64))
            f_rot = speed / 60.0
            mask = np.zeros(p.shape[1], dtype=bool)
            for h in range(1, len(params.harmonic_amplitudes) + 1):
                center = int(round(h * f_rot / bin_hz))
                mask[max(0, center - 2):center + 3] = True
            frac = p[:, mask].sum() / p.sum()
            assert frac > 0.9, (params.name, speed, frac)


def test_fault_energy_concentrates_near_resonance():
    cond = _cond("M1", 1, 480.0)
    healthy = Y.synth_machine(Y.M1, cond, 4.0)
    faulty = Y.synth_machine(Y.M1, cond, 4.0, "outer", 1.5)
    ph = S.spectral_features(healthy.samples.astype(np.float64)).mean(axis=0)
    pf = S.spectral_features(faulty.samples.astype(np.float64)).mean(axis=0)
    bin_hz = D.FS / S.SPEC_WINDOW
    res_bin = int(round(Y.M1.resonance_hz / bin_hz))
    band = slice(res_bin - 8, res_bin + 9)
    assert pf[band].sum() > 5.0 * ph[band].sum()


def test_machines_distinguishable_beyond_within_machine_variability():
    # L1 between M1 and M2 healthy spectra exceeds the spread between two
    # fresh draws of the same machine at the same condition
    speed, load = 480.0, 0.15
    a = Y.synth_machine(Y.M1, _cond("M1", 1, speed, load), 2.0, extra_seed=1)
    b = Y.synth_machine(Y.M1, _cond("M1", 1, speed, load), 2.0, extra_seed=2)
    c = Y.synth_machine(Y.M2, _cond("M2", 1, speed, load), 2.0, extra_seed=1)

    def spec(r):
        return S.spectral_features(r.samples.astype(np.float64))

    within = np.abs(spec(a) - spec(b)).mean()
    across = np.abs(spec(a) - spec(c)).mean()
    assert across > 2.0 * within


def test_sensor_chains_differ():
    r1 = Y.synth_machine(Y.M1, _cond(sensor=1), 1.0)
    r2 = Y.synth_machine(Y.M1, _cond(sensor=2), 1.0)
    assert not np.allclose(r1.samples, r2.samples)


def test_one_pole_lowpass_matches_recursive_definition():
    rng = np.random.default_rng(8)
    x = rng.normal(size=400)
    a = 0.2
    y = Y._one_pole_lowpass(x, a)
    ref = np.zeros_like(x)
    acc = 0.0
    for k in range(x.size):
        acc = (1 - a) * x[k] + a * acc
        ref[k] = acc
    assert np.allclose(y, ref, atol=1e-7)
    assert Y._one_pole_lowpass(x, 0.0) is x


def test_default_corpus_shape():
    recs = Y.default_corpus("M1")
    healthy = [r for r in recs if r.fault_type == "healthy"]
    faulty = [r for r in recs if r.fault_type != "healthy"]
    assert len(healthy) == 6           # 2 sensors x 3 speeds
    assert len(faulty) == 36           # x 2 fault types x 3 defects
    assert all(r.samples.size == 50 * D.FS for r in healthy)
    assert all(r.samples.size == 15 * D.FS for r in faulty)
    names = [r.name for r in recs]
    assert len(set(names)) == len(names)
    for r in recs:
        r.validate()
    with pytest.raises(ValueError):
        Y.default_corpus("M7")


def test_corpus_round_trips_through_dataset(tmp_path):
    recs = Y.build_corpus(Y.M2, speeds=(300.0,), load=0.18,
                          healthy_duration_s=2.0, faulty_duration_s=1.0,
                          defects=(1.0,), fault_types=("outer",))
    D.write_dataset(tmp_path / "m2", recs)
    back, _ = D.load_dataset(tmp_path / "m2")
    assert len(back) == len(recs)
    by_name = {r.name: r for r in back}
    for rec in recs:
        assert np.array_equal(by_name[rec.name].samples, rec.samples)
