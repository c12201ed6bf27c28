import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfault import detector as D
from opfault import gan as G
from opfault import network as N

from _utils import numerical_grad, rel_err


def toy_spec():
    # conv halving, tconv doubling with a skip from the input-side layer,
    # then a dense head; exercises every composition rule at once
    return N.NetworkSpec(
        layers=[
            N.LayerSpec("op_conv", 1, 3, kernel=4, q=2, stride=2, padding=1),
            N.LayerSpec("op_conv", 3, 4, kernel=4, q=2, stride=2, padding=1),
            N.LayerSpec("op_tconv", 4, 3, kernel=4, q=2, stride=2, padding=1),
            N.LayerSpec("op_tconv", 6, 2, kernel=4, q=2, stride=2, padding=1),
            N.dense_layer(2 * 16, 5, activation="none"),
        ],
        skips={3: 0},
        input_len=16,
    ).validate()


def test_trace_shapes_chains_lengths():
    shapes = toy_spec().trace_shapes()
    assert shapes == [(3, 8), (4, 4), (3, 8), (2, 16), (5, None)]


def test_trace_rejects_channel_mismatch():
    spec = N.NetworkSpec(layers=[
        N.LayerSpec("op_conv", 1, 3, kernel=3),
        N.LayerSpec("op_conv", 4, 1, kernel=3),
    ], input_len=16)
    with pytest.raises(ValueError):
        spec.validate()


def test_trace_rejects_skip_length_mismatch():
    spec = N.NetworkSpec(layers=[
        N.LayerSpec("op_conv", 1, 2, kernel=2, stride=2),
        N.LayerSpec("op_conv", 2, 2, kernel=2, stride=2),
        N.LayerSpec("op_conv", 4, 2, kernel=1),
    ], skips={2: 0}, input_len=16)
    with pytest.raises(ValueError):
        spec.validate()


def test_skip_must_point_backwards():
    spec = N.NetworkSpec(layers=[N.LayerSpec("op_conv", 1, 1, kernel=1)], skips={0: 0})
    with pytest.raises(ValueError):
        spec.validate()


def test_count_params_hand_values():
    one_op = N.NetworkSpec(layers=[N.LayerSpec("op_conv", 1, 1, kernel=3, q=2)])
    assert N.count_params(one_op) == 7  # 1*1*3*2 + 1
    one_dense = N.NetworkSpec(layers=[N.dense_layer(4, 2)])
    assert N.count_params(one_dense) == 10  # 2*4 + 2


def test_count_params_matches_initialized_sizes():
    spec = toy_spec()
    params = N.init_params(spec, np.random.default_rng(0))
    total = sum(w.size + b.size for w, b in params)
    assert total == N.count_params(spec)
    for (w, b), (ws, bs) in zip(params, N.param_shapes(spec)):
        assert w.shape == ws and b.shape == bs
        assert w.dtype == np.float32 and b.dtype == np.float32


def test_init_params_respects_fan_in_bound():
    spec = N.NetworkSpec(layers=[N.LayerSpec("op_conv", 4, 8, kernel=5, q=3)])
    params = N.init_params(spec, np.random.default_rng(1))
    bound = np.sqrt(1.0 / (4 * 5 * 3))
    w, b = params[0]
    assert np.all(np.abs(w) <= bound)
    assert np.all(b == 0)


def test_identity_dense_network():
    spec = N.NetworkSpec(layers=[N.dense_layer(3, 3, activation="none")])
    params = [(np.eye(3, dtype=np.float32), np.zeros(3, dtype=np.float32))]
    x = np.array([1.0, -2.0, 0.5], dtype=np.float32)
    # feature vector enters as (channels, length 1)
    assert np.allclose(N.forward_network(spec, params, x.reshape(3, 1)), x)


def test_forward_batched_equals_stacked_single():
    spec = toy_spec()
    rng = np.random.default_rng(5)
    params = N.init_params(spec, rng)
    xs = rng.normal(scale=0.5, size=(3, 1, 16)).astype(np.float32)
    batched = N.forward_network(spec, params, xs)
    singles = np.stack([N.forward_network(spec, params, xs[i]) for i in range(3)])
    assert np.allclose(batched, singles, atol=1e-6)


def test_network_gradcheck_with_skip_and_dense():
    spec = toy_spec()
    rng = np.random.default_rng(6)
    params = [(w.astype(np.float64), b.astype(np.float64))
              for w, b in N.init_params(spec, rng)]
    x = rng.normal(scale=0.5, size=(2, 1, 16))
    proj = rng.normal(size=(2, 5))

    def f():
        out = N.forward_network(spec, params, x)
        return float(np.sum(out * proj))

    out, cache = N.forward_network(spec, params, x, want_cache=True)
    gx, grads = N.backward_network(spec, params, cache, proj)

    assert rel_err(gx, numerical_grad(f, x, h=1e-5)) < 1e-6
    for j, (gw, gb) in enumerate(grads):
        w, b = params[j]
        assert rel_err(gw, numerical_grad(f, w, h=1e-5)) < 1e-6, f"layer {j} weights"
        assert rel_err(gb, numerical_grad(f, b, h=1e-5)) < 1e-6, f"layer {j} bias"


def test_forward_rejects_wrong_input_channels():
    spec = toy_spec()
    params = N.init_params(spec, np.random.default_rng(0))
    with pytest.raises(ValueError):
        N.forward_network(spec, params, np.zeros((2, 16)))


def _small_net(net, width):
    gan_cfg = G.GanConfig(gen_width=width, disc_width=width, segment_len=64)
    if net == "generator":
        return G.build_generator(gan_cfg)
    if net == "discriminator":
        return G.build_discriminator(gan_cfg)
    return D.build_detector(D.DetectorConfig(channels=width, dense_hidden=4, kernels=(9, 5),
                                             strides=(4, 2), segment_len=128))


@pytest.mark.parametrize("net", ["generator", "discriminator", "detector"])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(width=st.integers(1, 4), batch=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_backward_without_input_grad_keeps_param_grads(net, width, batch, seed):
    spec = _small_net(net, width)
    rng = np.random.default_rng(seed)
    params = N.init_params(spec, rng)
    x = rng.uniform(-1, 1, (batch, spec.layers[0].in_channels, spec.input_len))
    x = x.astype(np.float32)
    if batch == 1:
        x = x[0]  # the unbatched (channels, length) path
    out, cache = N.forward_network(spec, params, x, want_cache=True)
    g = rng.normal(size=out.shape).astype(np.float32)
    gx, grads = N.backward_network(spec, params, cache, g)
    none, grads_skip = N.backward_network(spec, params, cache, g, need_input_grad=False)
    assert gx.shape == x.shape and none is None
    for (gw, gb), (sw, sb) in zip(grads, grads_skip):
        assert np.array_equal(gw, sw) and np.array_equal(gb, sb)
