import numpy as np
import pytest

from opfault import signal as S

from _utils import frame_count, naive_dft, numerical_grad, rel_err


def test_segment_counts():
    assert len(S.segment_record(np.zeros(122880, dtype=np.float32))) == 30
    assert len(S.segment_record(np.zeros(8192, dtype=np.float32))) == 2
    assert len(S.segment_record(np.zeros(4095, dtype=np.float32))) == 0
    segs = S.segment_record(np.arange(10000, dtype=np.float32))
    assert len(segs) == 2
    assert segs[1].index == 1
    assert segs[1].samples[0] == 4096.0  # windows do not overlap


def test_segment_requires_1d():
    with pytest.raises(ValueError):
        S.segment_record(np.zeros((2, 4096)))


def test_normalize_hand_values():
    y, degen = S.normalize_segment(np.array([0.0, 2.0, 4.0], dtype=np.float32))
    assert not degen
    assert np.allclose(y, [-1.0, 0.0, 1.0])
    assert y.dtype == np.float32


def test_normalize_constant_is_degenerate():
    y, degen = S.normalize_segment(np.full(8, 3.5, dtype=np.float32))
    assert degen
    assert np.all(y == 0.0)


def test_normalize_segments_keeps_metadata():
    segs = S.segment_record(np.arange(8192, dtype=np.float32), source_record="r1")
    normed = S.normalize_segments(segs)
    assert all(s.normalized for s in normed)
    assert normed[1].source_record == "r1" and normed[1].index == 1
    assert normed[0].samples.min() == pytest.approx(-1.0)
    assert normed[0].samples.max() == pytest.approx(1.0)


def test_hann_window_hand_values():
    w = S.hann_window(4)
    assert np.allclose(w, [0.0, 0.75, 0.75, 0.0])
    with pytest.raises(ValueError):
        S.hann_window(1)
    w256 = S.hann_window(256)
    assert w256[0] == 0.0 and w256[255] == 0.0  # symmetric, zero endpoints
    assert np.allclose(w256, w256[::-1])
    k = np.arange(256)
    assert np.allclose(w256, 0.5 * (1 - np.cos(2 * np.pi * k / 255)))


def test_normalize_idempotent_and_affine_invariant():
    rng = np.random.default_rng(33)
    x = rng.normal(size=4096)
    once, _ = S.normalize_segment(x)
    twice, _ = S.normalize_segment(once)
    assert np.allclose(once, twice)
    scaled, _ = S.normalize_segment(3.0 * x + 11.0)
    assert np.allclose(scaled, once)


def test_fft_path_matches_naive_dft():
    rng = np.random.default_rng(17)
    x = rng.normal(size=32)
    ref = naive_dft(x)
    fft = np.fft.rfft(x)
    assert np.allclose(fft, ref, atol=1e-10)


def test_spectrogram_shape_and_frame_count():
    x = np.zeros(4096)
    p = S.spectral_features(x)
    assert p.shape == (31, 129)
    assert frame_count(4096, 256, 128) == 31
    assert frame_count(255, 256, 128) == 0
    with pytest.raises(ValueError):
        S.spectral_features(np.zeros(100))


def test_spectrogram_matches_naive_dft_per_frame():
    rng = np.random.default_rng(18)
    x = rng.normal(size=512)
    p = S.spectral_features(x, window=256, hop=128)
    w = S.hann_window(256)
    for j in range(p.shape[0]):
        frame = x[j * 128:j * 128 + 256] * w
        ref = np.abs(naive_dft(frame)) ** 2
        assert np.allclose(p[j], ref, atol=1e-8)


def test_pure_tone_concentrates_at_its_bin():
    # cosine exactly on bin 16 of a 256-point window; the Hann window spreads
    # the line over the two neighbouring bins (0.25, 0.5, 0.25 amplitude), so
    # the peak sits at bin 16 and bins 15..17 hold essentially all energy
    n = np.arange(4096)
    x = np.cos(2 * np.pi * 16 * n / 256)
    p = S.spectral_features(x)
    for j in range(p.shape[0]):
        assert int(np.argmax(p[j])) == 16
        assert p[j, 15:18].sum() / p[j].sum() > 0.99


def test_spectrogram_batched_matches_single():
    rng = np.random.default_rng(19)
    xs = rng.normal(size=(3, 512))
    batched = S.spectral_features(xs)
    assert batched.shape == (3, 3, 129)
    for i in range(3):
        assert np.allclose(batched[i], S.spectral_features(xs[i]))


def test_power_spectrogram_gradcheck():
    rng = np.random.default_rng(20)
    x = rng.normal(size=96)
    # an odd window has no Nyquist bin, so its last bin is an interior one
    for window, hop in ((32, 16), (31, 15)):
        p, cache = S.spectral_features(x, window=window, hop=hop, want_cache=True)
        proj = rng.normal(size=p.shape)
        gx = S.spectral_features_grad(proj, cache)

        def f():
            return float(np.sum(S.spectral_features(x, window=window, hop=hop) * proj))

        assert rel_err(gx, numerical_grad(f, x, h=1e-5)) < 1e-8


def test_spectrogram_grad_preserves_dtype():
    x = np.zeros(512, dtype=np.float32)
    p, cache = S.spectral_features(x, want_cache=True)
    g = S.spectral_features_grad(np.ones_like(p), cache)
    assert g.dtype == np.float32 and g.shape == x.shape
