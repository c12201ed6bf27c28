import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from opfault import layers as L
from opfault import network as N

from _utils import numerical_grad, rel_err


# -- naive references: straight loops over the defining sums -----------------

def naive_op_conv(x, w, bias, stride=1, padding=0):
    out_ch, in_ch, kernel, q_order = w.shape
    length = x.shape[1]
    xp = np.zeros((in_ch, length + 2 * padding), dtype=np.float64)
    xp[:, padding:padding + length] = x
    out_len = (length + 2 * padding - kernel) // stride + 1
    y = np.zeros((out_ch, out_len))
    for o in range(out_ch):
        for m in range(out_len):
            acc = float(bias[o]) if bias is not None else 0.0
            for i in range(in_ch):
                for r in range(kernel):
                    v = xp[i, m * stride + r]
                    for q in range(q_order):
                        acc += w[o, i, r, q] * v ** (q + 1)
            y[o, m] = acc
    return y


def naive_op_tconv(x, w, bias, stride=1, padding=0, trim=0):
    out_ch, in_ch, kernel, q_order = w.shape
    length = x.shape[1]
    full = (length - 1) * stride + kernel
    y = np.zeros((out_ch, full))
    for o in range(out_ch):
        for i in range(in_ch):
            for t in range(length):
                for r in range(kernel):
                    for q in range(q_order):
                        y[o, t * stride + r] += w[o, i, r, q] * x[i, t] ** (q + 1)
    y = y[:, padding: full - padding]
    if bias is not None:
        y = y + np.asarray(bias, dtype=np.float64)[:, None]
    if trim > 0:
        y = np.pad(y, ((0, 0), (0, trim)))
    elif trim < 0:
        y = y[:, : y.shape[1] + trim]
    return y


def naive_op_conv_grad_x(x, w, grad_out, stride=1, padding=0):
    """d/dx of sum(grad_out * naive_op_conv(x, w)), for one (channels, length) x."""
    out_ch, in_ch, kernel, q_order = w.shape
    length = x.shape[1]
    gx = np.zeros((in_ch, length))
    for o in range(out_ch):
        for m in range(grad_out.shape[1]):
            for i in range(in_ch):
                for r in range(kernel):
                    n = m * stride + r - padding
                    if not 0 <= n < length:
                        continue
                    for q in range(q_order):
                        gx[i, n] += grad_out[o, m] * w[o, i, r, q] * (q + 1) * x[i, n] ** q
    return gx


def test_powers_stacks_monomials():
    x = np.array([[[2.0, -1.0, 0.5]]])
    p = L.powers(x, 3)
    assert p.shape == (1, 1, 3, 3)
    assert np.allclose(p[0, 0, 0], [2.0, -1.0, 0.5])
    assert np.allclose(p[0, 0, 1], [4.0, 1.0, 0.25])
    assert np.allclose(p[0, 0, 2], [8.0, -1.0, 0.125])


@pytest.mark.parametrize("ch", [1, 2, 3, 8, 36])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_powers_bitwise_equal_to_repeated_products(ch, dtype):
    # channel counts on both sides of POWERS_VOID_MAX_CH
    rng = np.random.default_rng(ch)
    x = rng.standard_normal((3, 37, ch)).astype(dtype)
    for q_order in (1, 2, 3, 4):
        stack = [x]
        for _ in range(1, q_order):
            stack.append(stack[-1] * x)
        want = np.stack(stack, axis=2)
        for arr in (x, np.asfortranarray(x)):
            got = L.powers(arr, q_order)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_quadratic_single_tap_hand_value():
    # one sample, one tap, Q=2, unit weights: 0.5 + 0.5^2 = 0.75
    x = np.array([[0.5]], dtype=np.float32)
    w = np.ones((1, 1, 1, 2), dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    y = L.op_conv1d_forward(x, w, b)
    assert y.shape == (1, 1)
    assert y[0, 0] == pytest.approx(0.75)


def test_q1_reduces_to_plain_correlation():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1, 40))
    w = rng.normal(size=(1, 1, 5, 1))
    y = L.op_conv1d_forward(x, w, None)
    ref = np.correlate(x[0], w[0, 0, :, 0], mode="valid")
    assert np.allclose(y[0], ref, atol=1e-12)


def test_conv_matches_naive_reference():
    rng = np.random.default_rng(21)
    cases = [
        dict(in_ch=1, out_ch=1, kernel=3, q=1, stride=1, padding=0, length=12),
        dict(in_ch=2, out_ch=3, kernel=5, q=3, stride=2, padding=2, length=17),
        dict(in_ch=3, out_ch=2, kernel=4, q=2, stride=4, padding=0, length=24),
        dict(in_ch=2, out_ch=2, kernel=6, q=3, stride=2, padding=2, length=16),
    ]
    for c in cases:
        x = rng.normal(scale=0.7, size=(c["in_ch"], c["length"]))
        w = rng.normal(scale=0.5, size=(c["out_ch"], c["in_ch"], c["kernel"], c["q"]))
        b = rng.normal(size=c["out_ch"])
        y = L.op_conv1d_forward(x, w, b, c["stride"], c["padding"])
        ref = naive_op_conv(x, w, b, c["stride"], c["padding"])
        assert y.shape == ref.shape
        assert np.allclose(y, ref, atol=1e-10), c


def test_tconv_matches_naive_reference():
    rng = np.random.default_rng(22)
    cases = [
        dict(in_ch=1, out_ch=1, kernel=3, q=1, stride=1, padding=0, length=9, trim=0),
        dict(in_ch=2, out_ch=3, kernel=5, q=3, stride=2, padding=2, length=8, trim=1),
        dict(in_ch=3, out_ch=1, kernel=5, q=2, stride=2, padding=2, length=8, trim=-1),
        dict(in_ch=2, out_ch=2, kernel=6, q=3, stride=2, padding=2, length=10, trim=0),
    ]
    for c in cases:
        x = rng.normal(scale=0.7, size=(c["in_ch"], c["length"]))
        w = rng.normal(scale=0.5, size=(c["out_ch"], c["in_ch"], c["kernel"], c["q"]))
        b = rng.normal(size=c["out_ch"])
        y = L.op_tconv1d_forward(x, w, b, c["stride"], c["padding"], c["trim"])
        ref = naive_op_tconv(x, w, b, c["stride"], c["padding"], c["trim"])
        assert y.shape == ref.shape
        assert np.allclose(y, ref, atol=1e-10), c


def test_tconv_trim_pads_exact_zeros():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(1, 6))
    w = rng.normal(size=(1, 1, 5, 1))
    y = L.op_tconv1d_forward(x, w, np.array([0.5]), stride=2, padding=2, output_trim=1)
    assert y.shape[1] == L.tconv_output_len(6, 5, 2, 2, 1)
    assert y[0, -1] == 0.0  # padded sample carries no bias


def test_output_length_formulas():
    assert L.conv_output_len(4096, 5, 2, 2) == 2048
    assert L.conv_output_len(4096, 81, 8, 0) == 502
    assert L.tconv_output_len(128, 5, 2, 2, 1) == 256
    assert L.tconv_output_len(2048, 6, 2, 2) == 4096


def test_conv_rejects_bad_shapes():
    x = np.zeros((2, 10))
    w = np.zeros((1, 3, 3, 1))
    with pytest.raises(ValueError):
        L.op_conv1d_forward(x, w, None)
    with pytest.raises(ValueError):
        L.op_conv1d_forward(np.zeros((1, 2)), np.zeros((1, 1, 5, 1)), None)


def test_tconv_is_adjoint_of_conv_at_q1():
    # <conv(x), u> == <x, tconv(u)> when tconv uses the transposed kernel.
    # Holds whenever trim == 0 or padding == 0; with both positive the
    # symmetric crop drops a real tail sample, so those configs sit outside
    # the adjoint domain by construction.
    rng = np.random.default_rng(31)
    for length, kernel, stride, padding in [(15, 5, 2, 2), (16, 4, 2, 1),
                                            (17, 4, 4, 0), (20, 3, 1, 1)]:
        x = rng.normal(size=(2, length))
        w = rng.normal(size=(3, 2, kernel, 1))
        y = L.op_conv1d_forward(x, w, None, stride, padding)
        out_len = y.shape[1]
        trim = length - L.tconv_output_len(out_len, kernel, stride, padding)
        assert trim == 0 or padding == 0
        u = rng.normal(size=(3, out_len))
        xt = L.op_tconv1d_forward(u, w.transpose(1, 0, 2, 3), None, stride, padding,
                                  output_trim=trim)
        assert xt.shape == x.shape
        assert np.vdot(y, u) == pytest.approx(np.vdot(x, xt), rel=1e-10)


def _proj_loss(out, proj):
    return float(np.sum(np.asarray(out, dtype=np.float64) * proj))


def test_conv_gradcheck():
    rng = np.random.default_rng(41)
    cases = [
        dict(in_ch=2, out_ch=3, kernel=5, q=3, stride=2, padding=2, length=12, batch=2),
        dict(in_ch=1, out_ch=2, kernel=4, q=2, stride=4, padding=0, length=16, batch=1),
        dict(in_ch=3, out_ch=1, kernel=3, q=1, stride=1, padding=1, length=7, batch=2),
    ]
    for c in cases:
        x = rng.normal(scale=0.6, size=(c["batch"], c["in_ch"], c["length"]))
        w = rng.normal(scale=0.5, size=(c["out_ch"], c["in_ch"], c["kernel"], c["q"]))
        b = rng.normal(size=c["out_ch"])
        y = L.op_conv1d_forward(x, w, b, c["stride"], c["padding"])
        proj = rng.normal(size=y.shape)
        gx, gw, gb = L.op_conv1d_backward(x, w, proj, c["stride"], c["padding"])

        def f():
            return _proj_loss(L.op_conv1d_forward(x, w, b, c["stride"], c["padding"]), proj)

        assert rel_err(gx, numerical_grad(f, x, h=1e-5)) < 1e-7, c
        assert rel_err(gw, numerical_grad(f, w, h=1e-5)) < 1e-7, c
        assert rel_err(gb, numerical_grad(f, b, h=1e-5)) < 1e-7, c


def test_tconv_gradcheck():
    rng = np.random.default_rng(42)
    cases = [
        dict(in_ch=2, out_ch=3, kernel=5, q=3, stride=2, padding=2, length=8, trim=1, batch=2),
        dict(in_ch=3, out_ch=1, kernel=5, q=2, stride=2, padding=2, length=9, trim=-1, batch=1),
        dict(in_ch=1, out_ch=2, kernel=6, q=3, stride=2, padding=2, length=6, trim=0, batch=2),
    ]
    for c in cases:
        x = rng.normal(scale=0.6, size=(c["batch"], c["in_ch"], c["length"]))
        w = rng.normal(scale=0.5, size=(c["out_ch"], c["in_ch"], c["kernel"], c["q"]))
        b = rng.normal(size=c["out_ch"])
        y = L.op_tconv1d_forward(x, w, b, c["stride"], c["padding"], c["trim"])
        proj = rng.normal(size=y.shape)
        gx, gw, gb = L.op_tconv1d_backward(x, w, proj, c["stride"], c["padding"], c["trim"])

        def f():
            return _proj_loss(
                L.op_tconv1d_forward(x, w, b, c["stride"], c["padding"], c["trim"]), proj)

        assert rel_err(gx, numerical_grad(f, x, h=1e-5)) < 1e-7, c
        assert rel_err(gw, numerical_grad(f, w, h=1e-5)) < 1e-7, c
        assert rel_err(gb, numerical_grad(f, b, h=1e-5)) < 1e-7, c


def test_backward_cache_path_matches_recompute():
    rng = np.random.default_rng(43)
    x = rng.normal(size=(2, 2, 14)).astype(np.float32)
    w = rng.normal(scale=0.4, size=(3, 2, 5, 3)).astype(np.float32)
    b = np.zeros(3, dtype=np.float32)
    y, cache = L.op_conv1d_forward(x, w, b, 2, 2, want_cache=True)
    g = rng.normal(size=y.shape).astype(np.float32)
    with_cache = L.op_conv1d_backward(None, w, g, 2, 2, cache=cache)
    without = L.op_conv1d_backward(x, w, g, 2, 2)
    for a, bb in zip(with_cache, without):
        assert np.array_equal(a, bb)


@st.composite
def conv_geometry(draw):
    kernel = draw(st.integers(1, 9))
    stride = draw(st.integers(1, 5))
    padding = draw(st.integers(0, 3))
    min_len = max(1, kernel - 2 * padding)
    return dict(kernel=kernel, stride=stride, padding=padding,
                length=draw(st.integers(min_len, min_len + 3 * stride + 4)),
                q=draw(st.integers(1, 3)), in_ch=draw(st.integers(1, 3)),
                out_ch=draw(st.integers(1, 3)), batch=draw(st.integers(1, 2)),
                seed=draw(st.integers(0, 2 ** 32 - 1)))


def _geometry(kernel, stride, padding, length, trim=0, batch=2):
    return dict(kernel=kernel, stride=stride, padding=padding, length=length,
                q=3, in_ch=2, out_ch=3, batch=batch, seed=0, trim=trim)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(c=conv_geometry())
@example(c=_geometry(kernel=2, stride=4, padding=0, length=13))  # K < stride, uncovered tail
@example(c=_geometry(kernel=4, stride=4, padding=1, length=10))  # K == stride
@example(c=_geometry(kernel=5, stride=3, padding=2, length=9))   # padded, uncovered tail
def test_conv_input_grad_matches_naive_and_adjoint(c):
    rng = np.random.default_rng(c["seed"])
    x = rng.uniform(-1, 1, (c["batch"], c["in_ch"], c["length"]))
    w = rng.normal(size=(c["out_ch"], c["in_ch"], c["kernel"], c["q"]))
    geo = (c["stride"], c["padding"])
    g = rng.normal(size=L.op_conv1d_forward(x, w, None, *geo).shape)
    gx, _, _ = L.op_conv1d_backward(x, w, g, *geo)
    ref = np.stack([naive_op_conv_grad_x(x[b], w, g[b], *geo) for b in range(c["batch"])])
    assert np.allclose(gx, ref, rtol=1e-10, atol=1e-12), c

    # at Q = 1 the conv is linear in x, so its input gradient is its adjoint
    w1 = w[..., :1]
    gx1, _, _ = L.op_conv1d_backward(x, w1, g, *geo)
    assert np.vdot(g, L.op_conv1d_forward(x, w1, None, *geo)) == \
        pytest.approx(np.vdot(gx1, x), rel=1e-10, abs=1e-12), c
    trim = c["length"] - L.tconv_output_len(g.shape[2], c["kernel"], *geo)
    if trim == 0 or c["padding"] == 0:  # the tconv's adjoint domain
        for b in range(c["batch"]):
            xt = naive_op_tconv(g[b], w1.transpose(1, 0, 2, 3), None, *geo, trim)
            assert np.allclose(gx1[b], xt, rtol=1e-10, atol=1e-12), c


@settings(max_examples=40, deadline=None, derandomize=True)
@given(c=conv_geometry())
def test_conv_backward_without_input_grad_keeps_param_grads(c):
    rng = np.random.default_rng(c["seed"])
    x = rng.uniform(-1, 1, (c["batch"], c["in_ch"], c["length"])).astype(np.float32)
    w = rng.normal(size=(c["out_ch"], c["in_ch"], c["kernel"], c["q"])).astype(np.float32)
    b = rng.normal(size=c["out_ch"]).astype(np.float32)
    geo = (c["stride"], c["padding"])
    y, cache = L.op_conv1d_forward(x, w, b, *geo, want_cache=True)
    g = rng.normal(size=y.shape).astype(np.float32)
    for kwargs in (dict(cache=cache), {}):
        full = L.op_conv1d_backward(None if kwargs else x, w, g, *geo, **kwargs)
        gx, gw, gb = L.op_conv1d_backward(None if kwargs else x, w, g, *geo,
                                          need_input_grad=False, **kwargs)
        assert gx is None and full[0] is not None
        assert gw.dtype == full[1].dtype and np.array_equal(gw, full[1]), c
        assert gb.dtype == full[2].dtype and np.array_equal(gb, full[2]), c


@st.composite
def layer_geometry(draw):
    c = draw(conv_geometry())
    c["trim"] = draw(st.integers(-3, 3))
    return c


def _tconv_trim(c):
    """The drawn trim, raised so the tconv output keeps at least one sample;
    rejects geometries whose nominal tconv output is empty."""
    nominal = L.tconv_output_len(c["length"], c["kernel"], c["stride"], c["padding"])
    assume(nominal >= 1)
    return max(c["trim"], 1 - nominal)


def _layer_case(c):
    rng = np.random.default_rng(c["seed"])
    x = rng.uniform(-1, 1, (c["batch"], c["in_ch"], c["length"]))
    w = rng.normal(scale=0.5, size=(c["out_ch"], c["in_ch"], c["kernel"], c["q"]))
    b = rng.normal(size=c["out_ch"])
    return rng, x, w, b


_EXAMPLES = (
    _geometry(kernel=5, stride=2, padding=2, length=7, trim=1, batch=1),  # batch 1
    _geometry(kernel=2, stride=4, padding=0, length=6, trim=-2),          # K < stride
    _geometry(kernel=4, stride=4, padding=1, length=5, trim=0),           # K == stride
    _geometry(kernel=1, stride=3, padding=0, length=4, trim=3, batch=1),  # K < stride, batch 1
)


def _with_examples(test):
    for c in _EXAMPLES:
        test = example(c=c)(test)
    return test


@settings(max_examples=80, deadline=None, derandomize=True)
@given(c=layer_geometry())
@_with_examples
def test_conv_and_tconv_forward_match_naive_and_adjoint(c):
    rng, x, w, b = _layer_case(c)
    geo = (c["stride"], c["padding"])
    trim = _tconv_trim(c)
    y = L.op_conv1d_forward(x, w, b, *geo)
    yt = L.op_tconv1d_forward(x, w, b, *geo, trim)
    for k in range(c["batch"]):
        assert np.allclose(y[k], naive_op_conv(x[k], w, b, *geo), rtol=1e-10, atol=1e-12), c
        ref_t = naive_op_tconv(x[k], w, b, *geo, trim)
        assert yt[k].shape == ref_t.shape, c
        assert np.allclose(yt[k], ref_t, rtol=1e-10, atol=1e-12), c
    if c["batch"] == 1:  # the unbatched (channels, length) form agrees
        assert np.array_equal(L.op_conv1d_forward(x[0], w, b, *geo), y[0])
        assert np.array_equal(L.op_tconv1d_forward(x[0], w, b, *geo, trim), yt[0])

    # Q = 1: <conv(x), u> == <x, tconv(u)> when the tconv trim restores the
    # input length and the symmetric crop drops no real sample
    w1 = w[..., :1]
    u = rng.normal(size=y.shape)
    adj_trim = c["length"] - L.tconv_output_len(y.shape[2], c["kernel"], *geo)
    if adj_trim == 0 or c["padding"] == 0:
        xt = L.op_tconv1d_forward(u, w1.transpose(1, 0, 2, 3), None, *geo, adj_trim)
        assert xt.shape == x.shape
        assert np.vdot(L.op_conv1d_forward(x, w1, None, *geo), u) == \
            pytest.approx(np.vdot(x, xt), rel=1e-10, abs=1e-12), c


@settings(max_examples=40, deadline=None, derandomize=True)
@given(c=layer_geometry())
@_with_examples
def test_layer_grads_match_central_differences(c):
    rng, x, w, b = _layer_case(c)
    geo = (c["stride"], c["padding"])
    trim = _tconv_trim(c)

    proj = rng.normal(size=L.op_conv1d_forward(x, w, b, *geo).shape)
    _, gw, gb = L.op_conv1d_backward(x, w, proj, *geo)

    def conv_loss():
        return _proj_loss(L.op_conv1d_forward(x, w, b, *geo), proj)

    assert rel_err(gw, numerical_grad(conv_loss, w, h=1e-5)) < 1e-7, c
    assert rel_err(gb, numerical_grad(conv_loss, b, h=1e-5)) < 1e-7, c

    proj = rng.normal(size=L.op_tconv1d_forward(x, w, b, *geo, trim).shape)
    gx, gw, gb = L.op_tconv1d_backward(x, w, proj, *geo, trim)

    def tconv_loss():
        return _proj_loss(L.op_tconv1d_forward(x, w, b, *geo, trim), proj)

    assert rel_err(gx, numerical_grad(tconv_loss, x, h=1e-5)) < 1e-7, c
    assert rel_err(gw, numerical_grad(tconv_loss, w, h=1e-5)) < 1e-7, c
    assert rel_err(gb, numerical_grad(tconv_loss, b, h=1e-5)) < 1e-7, c


def test_dense_hand_value_and_gradcheck():
    w = np.array([[1.0, 2.0], [0.0, -1.0]])
    b = np.array([0.5, 0.0])
    y = L.dense_forward(np.array([3.0, 1.0]), w, b)
    assert np.allclose(y, [5.5, -1.0])

    rng = np.random.default_rng(44)
    x = rng.normal(size=(3, 4))
    wr = rng.normal(size=(2, 4))
    br = rng.normal(size=2)
    proj = rng.normal(size=(3, 2))
    gx, gw, gb = L.dense_backward(x, wr, proj)

    def f():
        return _proj_loss(L.dense_forward(x, wr, br), proj)

    assert rel_err(gx, numerical_grad(f, x, h=1e-5)) < 1e-8
    assert rel_err(gw, numerical_grad(f, wr, h=1e-5)) < 1e-8
    assert rel_err(gb, numerical_grad(f, br, h=1e-5)) < 1e-8


def test_activation_gradients():
    rng = np.random.default_rng(45)
    x = rng.normal(size=10)
    g = rng.normal(size=10)
    h = 1e-6
    for act in ("tanh", "sigmoid", "none"):
        out = N._activate(x, act)
        slope = (N._activate(x + h, act) - N._activate(x - h, act)) / (2 * h)
        assert np.allclose(N._activation_grad(out, g, act), g * slope, atol=1e-8), act
    assert N._activate(np.array([0.0]), "sigmoid")[0] == pytest.approx(0.5)


def test_dtype_preserved():
    x = np.zeros((1, 8), dtype=np.float32)
    w = np.zeros((1, 1, 3, 2), dtype=np.float32)
    y = L.op_conv1d_forward(x, w, np.zeros(1, dtype=np.float32))
    assert y.dtype == np.float32
    yt = L.op_tconv1d_forward(x, w, np.zeros(1, dtype=np.float32))
    assert yt.dtype == np.float32
