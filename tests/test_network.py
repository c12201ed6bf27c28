import sys
import threading
import time
import tracemalloc
from concurrent import futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfault import blas
from opfault import detector as D
from opfault import gan as G
from opfault import layers as L
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


def _batch(spec, batch, rng):
    x = rng.uniform(-1, 1, (batch, spec.layers[0].in_channels, spec.input_len))
    return x.astype(np.float32)


@pytest.fixture
def shard_small_nets(monkeypatch):
    """Split every pass of two or more rows, so small nets take the shard
    path, and run forward-only shards in one-row blocks."""
    monkeypatch.setattr(N, "SHARD_MIN_MACS", 0)
    monkeypatch.setattr(N, "BLOCK_MACS", 0)


def test_row_macs_counts_each_weight_at_each_position():
    spec = N.NetworkSpec(layers=[
        N.LayerSpec("op_conv", 1, 3, kernel=4, q=2, stride=2, padding=1),   # 16 -> 8
        N.LayerSpec("op_tconv", 3, 2, kernel=4, q=2, stride=2, padding=1),  # 8 -> 16
        N.dense_layer(2 * 16, 5, activation="none"),
    ], input_len=16).validate()
    assert N._row_macs(spec, 16) == 3 * 1 * 4 * 2 * 8 + 2 * 3 * 4 * 2 * 8 + 5 * 32


def test_passes_split_at_the_shard_work_threshold(monkeypatch):
    spec = _small_net("generator", 2)
    rng = np.random.default_rng(4)
    params = N.init_params(spec, rng)
    x = _batch(spec, 5, rng)                 # shards of 3 and 2 rows
    shard_macs = 2 * N._row_macs(spec, spec.input_len)
    for threshold, rows in ((shard_macs, [3, 2]), (shard_macs + 1, [5])):
        monkeypatch.setattr(N, "SHARD_MIN_MACS", threshold)
        _, cache = N.forward_network(spec, params, x, want_cache=True)
        assert [len(c["outs"][-1]) for c in cache["shards"]] == rows


def test_default_threshold_keeps_tiny_passes_whole():
    spec = _small_net("detector", 3)
    params = N.init_params(spec, np.random.default_rng(5))
    _, cache = N.forward_network(spec, params, _batch(spec, 8, np.random.default_rng(6)),
                                 want_cache=True)
    assert len(cache["shards"]) == 1


@pytest.mark.usefixtures("shard_small_nets")
@pytest.mark.parametrize("net", ["generator", "discriminator", "detector"])
@pytest.mark.parametrize("batch", [1, 2, 3, 8])
def test_sharded_pass_equals_serial_shard_passes(net, batch):
    spec = _small_net(net, 3)
    rng = np.random.default_rng(batch)
    params = N.init_params(spec, rng)
    x = _batch(spec, batch, rng)
    out, cache = N.forward_network(spec, params, x, want_cache=True)
    g = rng.normal(size=out.shape).astype(np.float32)
    gx, grads = N.backward_network(spec, params, cache, g)

    # rows [0, ceil(B/2)) and [ceil(B/2), B); one shard below two rows
    half = -(-batch // 2)
    bounds = [(0, half), (half, batch)] if batch > 1 else [(0, 1)]
    assert [len(c["outs"][-1]) for c in cache["shards"]] == [b - a for a, b in bounds]
    whole, _ = N._forward(spec, params, x, False)
    assert np.allclose(out, whole, rtol=1e-5, atol=1e-6)

    outs, serial = [], []
    for a, b in bounds:
        y, c = N._forward(spec, params, x[a:b], True)
        outs.append(y)
        serial.append(N._backward(spec, params, c, g[a:b], True))
    assert np.array_equal(out, np.concatenate(outs))
    assert np.array_equal(gx, np.concatenate([s[0] for s in serial]))
    want = serial[0][1]
    if len(serial) == 2:
        want = [(w0 + w1, b0 + b1) for (w0, b0), (w1, b1) in zip(want, serial[1][1])]
    for (gw, gb), (sw, sb) in zip(grads, want):
        assert np.array_equal(gw, sw) and np.array_equal(gb, sb)
    assert blas.threads() in (None, 1)


def test_single_row_passes_skip_the_shard_pool(monkeypatch):
    spec = _small_net("detector", 2)
    rng = np.random.default_rng(0)
    params = N.init_params(spec, rng)

    def no_pool():
        raise AssertionError("a one-row pass reached the shard pool")

    monkeypatch.setattr(N, "_shard_pool", no_pool)
    for x in (_batch(spec, 1, rng), _batch(spec, 1, rng)[0]):
        out, cache = N.forward_network(spec, params, x, want_cache=True)
        gx, _ = N.backward_network(spec, params, cache, np.ones_like(out))
        assert gx.shape == x.shape


@pytest.mark.usefixtures("shard_small_nets")
def test_shard_one_errors_reach_the_caller(monkeypatch):
    spec = _small_net("detector", 2)
    rng = np.random.default_rng(1)
    params = N.init_params(spec, rng)
    x = _batch(spec, 3, rng)                 # shards of 2 and 1 rows
    out, cache = N.forward_network(spec, params, x, want_cache=True)
    conv_fwd, conv_bwd = L.op_conv1d_forward, L.op_conv1d_backward
    caller = threading.current_thread()      # runs shard 0; the pool runs shard 1

    def fwd(x, *args, **kwargs):
        if threading.current_thread() is not caller:
            raise RuntimeError("shard 1 forward")
        return conv_fwd(x, *args, **kwargs)

    def bwd(x, w, g, *args, **kwargs):
        if threading.current_thread() is not caller:
            raise RuntimeError("shard 1 backward")
        return conv_bwd(x, w, g, *args, **kwargs)

    monkeypatch.setattr(L, "op_conv1d_forward", fwd)
    monkeypatch.setattr(L, "op_conv1d_backward", bwd)
    with pytest.raises(RuntimeError, match="shard 1 forward"):
        N.forward_network(spec, params, x)
    with pytest.raises(RuntimeError, match="shard 1 backward"):
        N.backward_network(spec, params, cache, np.ones_like(out))


@pytest.mark.usefixtures("shard_small_nets")
def test_shard_zero_error_waits_for_shard_one(monkeypatch):
    spec = _small_net("detector", 2)
    rng = np.random.default_rng(2)
    params = N.init_params(spec, rng)
    forward = N._forward
    finished = []
    caller = threading.current_thread()      # runs shard 0; the pool runs shard 1

    def slow_or_failing(spec, params, h, want_cache):
        if threading.current_thread() is caller:
            raise RuntimeError("shard 0")
        time.sleep(0.2)
        out = forward(spec, params, h, want_cache)
        finished.append(len(h))
        return out

    monkeypatch.setattr(N, "_forward", slow_or_failing)
    with pytest.raises(RuntimeError, match="shard 0"):
        N.forward_network(spec, params, _batch(spec, 3, rng))
    assert finished == [1]


@pytest.mark.usefixtures("shard_small_nets")
def test_error_in_a_later_block_of_shard_one_reaches_the_caller(monkeypatch):
    spec = _small_net("detector", 2)
    rng = np.random.default_rng(7)
    params = N.init_params(spec, rng)
    x = _batch(spec, 5, rng)                 # shards of 3 and 2 rows, one-row blocks
    forward = N._forward
    caller = threading.current_thread()
    shard_one = []

    def second_block_fails(spec, params, h, want_cache):
        if threading.current_thread() is not caller:
            shard_one.append(len(h))
            if len(shard_one) == 2:
                raise RuntimeError("shard 1, block 1")
        return forward(spec, params, h, want_cache)

    monkeypatch.setattr(N, "_forward", second_block_fails)
    with pytest.raises(RuntimeError, match="shard 1, block 1"):
        N.forward_network(spec, params, x)
    assert shard_one == [1, 1]
    monkeypatch.setattr(N, "_forward", forward)
    assert N.forward_network(spec, params, x).shape == (5, 2)  # the pool still serves


def _row_offsets(x, h):
    """(first row, rows) of a row slice h of x."""
    start = h.__array_interface__["data"][0] - x.__array_interface__["data"][0]
    return start // x.strides[0], len(h)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
def test_block_edges_are_equal_contiguous_and_at_most_r_rows(n):
    for rows in range(1, 20):
        edges = N._block_edges(n, rows)
        sizes = np.diff(edges)
        assert edges[0] == 0 and edges[-1] == n
        assert len(sizes) == -(-n // rows)                   # the fewest blocks
        assert sizes.min() >= 1 and sizes.max() <= rows
        assert sizes.max() - sizes.min() <= 1                 # as equal as they go
        assert list(sizes) == sorted(sizes, reverse=True)     # larger ones first


@pytest.mark.parametrize("batch", [1, 2, 3, 8, 17])
def test_forward_only_shards_run_in_the_rules_blocks(monkeypatch, batch):
    spec = _small_net("discriminator", 2)
    rng = np.random.default_rng(batch)
    params = N.init_params(spec, rng)
    x = _batch(spec, batch, rng)
    macs = N._row_macs(spec, spec.input_len)
    monkeypatch.setattr(N, "SHARD_MIN_MACS", 0)
    monkeypatch.setattr(N, "BLOCK_MACS", 3 * macs + macs // 2)  # R = 3 rows
    forward = N._forward
    calls = []

    def record(spec, params, h, want_cache):
        calls.append(_row_offsets(x, h))
        return forward(spec, params, h, want_cache)

    monkeypatch.setattr(N, "_forward", record)
    N.forward_network(spec, params, x)
    half = -(-batch // 2)
    shards = [(0, half), (half, batch)] if batch > 1 else []
    want = [(0, 1)] if batch == 1 else []
    for a, b in shards:
        edges = N._block_edges(b - a, 3)
        want += [(a + lo, hi - lo) for lo, hi in zip(edges, edges[1:])]
    assert sorted(calls) == want


@pytest.mark.parametrize("net", ["generator", "discriminator", "detector"])
@pytest.mark.parametrize("batch", [2, 3, 8, 17])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_blocked_pass_equals_serial_block_passes(monkeypatch, net, batch, rows):
    spec = _small_net(net, 3)
    rng = np.random.default_rng(batch)
    params = N.init_params(spec, rng)
    x = _batch(spec, batch, rng)
    whole = N.forward_network(spec, params, x)                # below both thresholds
    monkeypatch.setattr(N, "SHARD_MIN_MACS", 0)
    monkeypatch.setattr(N, "BLOCK_MACS", rows * N._row_macs(spec, spec.input_len))
    out = N.forward_network(spec, params, x)

    half = -(-batch // 2)
    serial = []
    for a, b in ((0, half), (half, batch)):
        edges = N._block_edges(b - a, rows)
        serial += [N._forward(spec, params, x[a + lo:a + hi], False)[0]
                   for lo, hi in zip(edges, edges[1:])]
    assert np.array_equal(out, np.concatenate(serial))
    assert np.allclose(out, whole, rtol=1e-5, atol=1e-6)


@pytest.mark.usefixtures("shard_small_nets")
def test_cached_pass_keeps_two_whole_shards(monkeypatch):
    spec = _small_net("generator", 2)
    rng = np.random.default_rng(8)
    params = N.init_params(spec, rng)
    x = _batch(spec, 5, rng)
    forward = N._forward
    calls = []

    def record(spec, params, h, want_cache):
        calls.append((_row_offsets(x, h), want_cache))
        return forward(spec, params, h, want_cache)

    monkeypatch.setattr(N, "_forward", record)
    _, cache = N.forward_network(spec, params, x, want_cache=True)
    assert [len(c["outs"][-1]) for c in cache["shards"]] == [3, 2]
    assert sorted(calls) == [((0, 3), True), ((3, 2), True)]


@pytest.mark.parametrize("net", ["generator", "detector"])
def test_forward_only_memory_does_not_grow_with_the_batch(net):
    # Blocks keep a pass's intermediates to a few rows per shard, so the
    # traced peak of the larger batch stays near that of the smaller one
    # (unblocked, the default generator's grew from 67 to 267 MB at 16 and
    # 64 rows). Both sizes run at least 4 blocks per shard: with one block
    # per shard (the detector's 8-row blocks at B = 16) the peak depends on
    # whether the two shard threads overlap, not on the batch.
    if net == "generator":
        spec, small, large = G.build_generator(G.GanConfig()), 16, 64
    else:
        spec, small, large = D.build_detector(D.DetectorConfig()), 64, 256
    rng = np.random.default_rng(9)
    params = N.init_params(spec, rng)
    xs = {b: _batch(spec, b, rng) for b in (small, large)}
    N.forward_network(spec, params, xs[small][:4])            # makes the pool, pins BLAS
    peaks = {}
    for b, x in xs.items():
        tracemalloc.start()
        try:
            N.forward_network(spec, params, x)
            peaks[b] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[large] <= 1.25 * peaks[small], peaks


@pytest.mark.usefixtures("shard_small_nets")
def test_concurrent_callers_share_one_shard_pool(monkeypatch):
    spec = _small_net("generator", 2)
    rng = np.random.default_rng(3)
    params = N.init_params(spec, rng)
    xs = [_batch(spec, 3, rng) for _ in range(4)]
    want = [N.forward_network(spec, params, x) for x in xs]
    made = []

    class CountingPool(futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            time.sleep(0.05)  # widens the window between checking and setting the pool
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(N, "_pool", None)    # the callers race to make it
    got = [None] * len(xs)

    def call(k):
        for _ in range(5):
            got[k] = N.forward_network(spec, params, xs[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=call, args=(k,)) for k in range(len(xs))]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        for pool in made:
            pool.shutdown()
    assert not any(t.is_alive() for t in threads)
    assert len(made) == 1
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
