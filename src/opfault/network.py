"""Network specs and composed forward/backward over operational layers.

A NetworkSpec is an ordered layer list plus named skip connections
(source layer output concatenated onto a later layer's input, channel-wise).
Parameters live outside the spec as a list of (weights, bias) pairs in layer
order, so specs stay cheap to build, count and serialize. A pass over a
large enough batch runs its two halves on two threads. A forward-only pass
keeps no intermediates, so each half runs in row blocks small enough that a
block's layer outputs and power stacks stay in the per-core cache: on a
2-vCPU Xeon box with 2 MB of L2 per core, one BLAS thread and no split, the
default generator cost 5.7 ms per row at B = 2 and 7.8 ms at B = 32, the
default detector 0.41 and 0.53 ms at B = 4 and 64 (best of 7).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import blas
from . import layers as L

LAYER_KINDS = ("op_conv", "op_tconv", "dense")
ACTIVATIONS = ("tanh", "sigmoid", "none")

# A pass runs as two batch shards only when each carries at least this many
# multiply-adds. Below it the pool hop and the GIL hand-offs of many small
# numpy calls cost more than the second core saves: on a 2-vCPU box a
# forward and backward pass of the default detector ran 1.34-1.43x slower
# split at 6e6 per shard (B = 2) and 1.14x faster at 2.4e7 (B = 8). The
# split depends on the net and the batch alone, so it is part of the math,
# not of the worker count: the shards give the same bytes whichever thread
# runs them.
SHARD_MIN_MACS = 20_000_000
# A forward-only pass that splits runs each shard as the fewest equal,
# contiguous row blocks of at most max(1, BLOCK_MACS // row multiply-adds)
# rows: 1 row for the default generator, 4 for the discriminator and 8 for
# the detector, whose 15-row per-record passes stay whole. On the 2-vCPU
# box, in ms per row of a forward-only pass (best of 7; generator and
# discriminator at B = 32, detector at B = 64), 1e7 / 5e7 / whole shards
# gave generator 2.95 / 2.89 / 3.87, discriminator 0.80 / 0.58 / 0.56 and
# detector 0.48 / 0.24 / 0.28; from 1e8 up the detector slowed (0.26 at
# 1e8, 0.28 at 2e8) and the other two moved within 5%. Cached training
# passes keep each shard whole, and so their gradient summation order:
# blocked, the two shards of a discriminator forward and backward at B = 8
# took 21.9 ms against 18.7 (1-row blocks) and a detector one at B = 32
# 26.7 against 22.5 (4-row blocks, best of 25). Like the split, the blocks
# depend on the net and the batch alone.
BLOCK_MACS = 50_000_000
_pool = None           # runs shard 1; made on the first sharded pass
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_channels: int
    out_channels: int
    kernel: int
    q: int = 1
    stride: int = 1
    padding: int = 0
    output_trim: int = 0
    activation: str = "tanh"

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if self.kind != "dense" and (self.kernel < 1 or self.q < 1):
            raise ValueError("kernel size and Q must be >= 1")
        if self.kind != "dense" and (self.stride < 1 or self.padding < 0):
            raise ValueError("stride must be >= 1 and padding >= 0")


def dense_layer(in_features: int, out_features: int, activation: str = "tanh") -> LayerSpec:
    # For dense layers the "kernel" is the flattened input length itself.
    return LayerSpec(kind="dense", in_channels=in_features, out_channels=out_features,
                     kernel=in_features, q=1, activation=activation)


@dataclass
class NetworkSpec:
    """Ordered layers plus skips: dest layer index -> source layer index.

    The input to layer d with a skip is concat(output of layer d-1,
    output of layer skips[d]) along channels; in_channels of that layer
    must account for both.
    """

    layers: list
    skips: dict = field(default_factory=dict)
    input_len: int | None = None

    def validate(self):
        for d, s in self.skips.items():
            if not (0 <= s < d < len(self.layers)):
                raise ValueError(f"skip {s}->{d} out of order or out of range")
        self.trace_shapes()
        return self

    def trace_shapes(self, input_len: int | None = None):
        """Chain output shapes through the net; raises on any mismatch.

        Returns a list of (channels, length) per layer; dense layers yield
        (features, None). Unknown lengths propagate as None until a dense
        layer requires a concrete flatten size.
        """
        length = input_len if input_len is not None else self.input_len
        shapes = []
        for j, spec in enumerate(self.layers):
            if j == 0:
                in_ch, in_len = spec.in_channels, length
            else:
                prev_ch, prev_len = shapes[j - 1]
                in_ch, in_len = prev_ch, prev_len
                if j in self.skips:
                    src_ch, src_len = shapes[self.skips[j]]
                    if in_len is not None and src_len is not None and in_len != src_len:
                        raise ValueError(
                            f"skip {self.skips[j]}->{j} length mismatch: {src_len} vs {in_len}")
                    in_ch += src_ch
            if spec.kind == "dense":
                if j > 0 and self.layers[j - 1].kind == "dense":
                    flat = in_ch
                elif in_len is not None:
                    flat = in_ch * in_len
                else:
                    flat = None
                if flat is not None and flat != spec.in_channels:
                    raise ValueError(
                        f"layer {j}: dense expects {spec.in_channels} features, got {flat}")
                shapes.append((spec.out_channels, None))
                continue
            if in_ch != spec.in_channels:
                raise ValueError(
                    f"layer {j}: expects {spec.in_channels} channels, got {in_ch}")
            if in_len is None:
                shapes.append((spec.out_channels, None))
                continue
            if spec.kind == "op_conv":
                out_len = L.conv_output_len(in_len, spec.kernel, spec.stride, spec.padding)
            else:
                out_len = L.tconv_output_len(in_len, spec.kernel, spec.stride,
                                             spec.padding, spec.output_trim)
            if out_len < 1:
                raise ValueError(f"layer {j}: output length {out_len} < 1")
            shapes.append((spec.out_channels, out_len))
        return shapes


def count_params(spec: NetworkSpec) -> int:
    """Total learnable parameters: out*in*K*Q + out per operational layer,
    out*in + out per dense layer."""
    total = 0
    for ls in spec.layers:
        if ls.kind == "dense":
            total += ls.out_channels * ls.in_channels + ls.out_channels
        else:
            total += ls.out_channels * ls.in_channels * ls.kernel * ls.q + ls.out_channels
    return total


def param_shapes(spec: NetworkSpec) -> list:
    shapes = []
    for ls in spec.layers:
        if ls.kind == "dense":
            shapes.append(((ls.out_channels, ls.in_channels), (ls.out_channels,)))
        else:
            shapes.append(((ls.out_channels, ls.in_channels, ls.kernel, ls.q),
                           (ls.out_channels,)))
    return shapes


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> list:
    """Uniform init in +-sqrt(1/fan_in) with fan_in = in*K*Q (op) or in (dense)."""
    params = []
    for ls in spec.layers:
        if ls.kind == "dense":
            bound = np.sqrt(1.0 / ls.in_channels)
            w = rng.uniform(-bound, bound, size=(ls.out_channels, ls.in_channels))
        else:
            bound = np.sqrt(1.0 / (ls.in_channels * ls.kernel * ls.q))
            w = rng.uniform(-bound, bound,
                            size=(ls.out_channels, ls.in_channels, ls.kernel, ls.q))
        params.append((w.astype(np.float32), np.zeros(ls.out_channels, dtype=np.float32)))
    return params


def copy_params(params: list) -> list:
    return [(w.copy(), b.copy()) for w, b in params]


def _activate(pre, activation):
    if activation == "tanh":
        return np.tanh(pre)
    if activation == "sigmoid":
        return 1.0 / (1.0 + np.exp(-pre))
    return pre


def _activation_grad(out, grad, activation):
    if activation == "tanh":
        return grad * (1.0 - out * out)
    if activation == "sigmoid":
        return grad * out * (1.0 - out)
    return grad


def forward_network(spec: NetworkSpec, params: list, x, want_cache: bool = False):
    """Composed forward pass. x: (C, L) or (B, C, L); returns same rank.

    A batch of two or more rows whose floor(B/2) rows carry SHARD_MIN_MACS
    runs as two contiguous shards of ceil(B/2) and floor(B/2) rows, the
    second on a worker thread; the outputs are concatenated in shard order.
    Without want_cache each shard runs as the fewest equal, contiguous
    blocks of at most max(1, BLOCK_MACS // row multiply-adds) rows, one
    after the other, their outputs concatenated in order (see _block_edges).
    Layer caches (power stacks, window matrices) are built and kept only
    when want_cache is true, for whole shards."""
    if len(params) != len(spec.layers):
        raise ValueError("params list does not match layer count")
    x = np.asarray(x)
    squeeze = x.ndim == 2
    h = x[None] if squeeze else x
    if h.shape[1] != spec.layers[0].in_channels:
        raise ValueError(f"input has {h.shape[1]} channels, "
                         f"network expects {spec.layers[0].in_channels}")
    blas.pin_one_thread()  # one BLAS thread per shard, and bytes free of the environment
    row_macs = _row_macs(spec, h.shape[2]) if len(h) > 1 else 0
    if len(h) > 1 and len(h) // 2 * row_macs >= SHARD_MIN_MACS:
        half = -(-len(h) // 2)
        if want_cache:
            (y0, c0), (y1, c1) = _run_shards(_forward, (spec, params, h[:half], True),
                                             (spec, params, h[half:], True))
            shards = [c0, c1]
        else:
            rows = max(1, BLOCK_MACS // row_macs)
            y0, y1 = _run_shards(_forward_blocks, (spec, params, h[:half], rows),
                                 (spec, params, h[half:], rows))
        y = np.concatenate([y0, y1])
    else:
        y, shard_cache = _forward(spec, params, h, want_cache)
        shards = [shard_cache]
    if squeeze:
        y = y[0]
    if want_cache:
        return y, {"shards": shards, "squeeze": squeeze}
    return y


def _block_edges(n, rows):
    """Edges of the fewest contiguous blocks of at most `rows` rows that
    cover n rows, as equal as they go: sizes differ by at most one, the
    larger ones first."""
    count = -(-n // rows)
    size, extra = divmod(n, count)
    return [k * size + min(k, extra) for k in range(count + 1)]


def _forward_blocks(spec, params, h, rows):
    """Forward-only output of one shard, run block by block."""
    edges = _block_edges(len(h), rows)
    return np.concatenate([_forward(spec, params, h[a:b], False)[0]
                           for a, b in zip(edges, edges[1:])])


def _forward(spec, params, h, want_cache):
    """Serial forward of one (B, C, L) shard: (output, shard cache or None)."""
    outs = []
    caches = []
    for j, (ls, (w, b)) in enumerate(zip(spec.layers, params)):
        inp = h if j == 0 else outs[j - 1]
        if j in spec.skips:
            src = outs[spec.skips[j]]
            if src.shape[2] != inp.shape[2]:
                raise ValueError(f"skip {spec.skips[j]}->{j} length mismatch: "
                                 f"{src.shape[2]} vs {inp.shape[2]}")
            inp = np.concatenate([inp, src], axis=1)
        cache = {"skip_prev_ch": inp.shape[1] - (outs[spec.skips[j]].shape[1]
                                                 if j in spec.skips else 0)}
        if ls.kind == "dense":
            cache["unflatten"] = inp.shape
            flat = inp.reshape(inp.shape[0], -1)
            if flat.shape[1] != ls.in_channels:
                raise ValueError(f"layer {j}: dense expects {ls.in_channels} features, "
                                 f"got {flat.shape[1]}")
            pre = L.dense_forward(flat, w, b)
            cache["inp"] = flat
        elif ls.kind == "op_conv":
            pre = L.op_conv1d_forward(inp, w, b, ls.stride, ls.padding,
                                      want_cache=want_cache)
        else:
            pre = L.op_tconv1d_forward(inp, w, b, ls.stride, ls.padding,
                                       ls.output_trim, want_cache=want_cache)
        if want_cache and ls.kind != "dense":
            pre, cache["lc"] = pre
        outs.append(_activate(pre, ls.activation))
        if want_cache:
            caches.append(cache)
    return outs[-1], ({"outs": outs, "caches": caches} if want_cache else None)


def backward_network(spec: NetworkSpec, params: list, cache: dict, grad_out,
                     need_input_grad: bool = True):
    """Backward through a cached forward pass.

    Returns (grad_x, grads) with grads a list of (grad_w, grad_b) per layer;
    grad_x is None, and an op_conv layer 0 skips it, when need_input_grad is
    false. Skip connections split their incoming gradient channel-wise and add
    the tail onto the skip source. A sharded forward is undone shard by
    shard: parameter gradients are summed as shard 0 + shard 1 and the
    input gradients concatenated.
    """
    grad_out = np.asarray(grad_out)
    if cache["squeeze"]:
        grad_out = grad_out[None]
    shards = cache["shards"]
    if len(shards) == 1:
        grad_x, grads = _backward(spec, params, shards[0], grad_out, need_input_grad)
    else:
        half = len(shards[0]["outs"][-1])
        (gx0, g0), (gx1, g1) = _run_shards(
            _backward, (spec, params, shards[0], grad_out[:half], need_input_grad),
            (spec, params, shards[1], grad_out[half:], need_input_grad))
        grads = [(w0 + w1, b0 + b1) for (w0, b0), (w1, b1) in zip(g0, g1)]
        grad_x = None if gx0 is None else np.concatenate([gx0, gx1])
    if cache["squeeze"] and grad_x is not None:
        grad_x = grad_x[0]
    return grad_x, grads


def _backward(spec, params, cache, grad_out, need_input_grad):
    """Serial backward of one shard: (grad_x or None, grads)."""
    outs = cache["outs"]
    caches = cache["caches"]
    n = len(spec.layers)
    grad_buf = [None] * n
    grad_buf[n - 1] = grad_out
    grad_x = None
    grads = [None] * n

    for j in range(n - 1, -1, -1):
        ls = spec.layers[j]
        w, b = params[j]
        lc = caches[j]
        g = _activation_grad(outs[j], grad_buf[j], ls.activation)
        if ls.kind == "dense":
            gi, gw, gb = L.dense_backward(lc["inp"], w, g)
            gi = gi.reshape(lc["unflatten"])
        elif ls.kind == "op_conv":
            gi, gw, gb = L.op_conv1d_backward(None, w, g, ls.stride, ls.padding,
                                              cache=lc["lc"],
                                              need_input_grad=need_input_grad or j > 0)
        else:
            gi, gw, gb = L.op_tconv1d_backward(None, w, g, ls.stride, ls.padding,
                                               ls.output_trim, cache=lc["lc"])
        grads[j] = (gw, gb)
        if j in spec.skips:
            prev_ch = lc["skip_prev_ch"]
            g_prev, g_src = gi[:, :prev_ch], gi[:, prev_ch:]
            s = spec.skips[j]
            grad_buf[s] = g_src if grad_buf[s] is None else grad_buf[s] + g_src
        else:
            g_prev = gi
        if j == 0:
            grad_x = g_prev if need_input_grad else None
        else:
            grad_buf[j - 1] = g_prev if grad_buf[j - 1] is None else grad_buf[j - 1] + g_prev
    return grad_x, grads


def _row_macs(spec, length):
    """Multiply-adds of one row's forward pass at this input length: each
    weight times the positions it is applied at."""
    macs = 0
    for ls, (_, out_len) in zip(spec.layers, spec.trace_shapes(length)):
        if ls.kind == "dense":
            macs += ls.out_channels * ls.in_channels
        else:  # a conv slides over its output, a tconv scatters from its input
            taps = ls.out_channels * ls.in_channels * ls.kernel * ls.q
            macs += taps * (out_len if ls.kind == "op_conv" else length)
        length = out_len
    return macs


def _shard_pool():
    global _pool
    with _pool_lock:  # callers on several threads share one pool
        if _pool is None:
            # imported on first use: concurrent.futures loads logging,
            # which nothing before the first sharded pass needs
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="opfault-shard")
        return _pool


def _run_shards(fn, args0, args1):
    """(fn(*args0), fn(*args1)): shard 1 on the pool, shard 0 here.

    fn must not itself submit to the one-worker pool. When shard 0 raises,
    shard 1 is waited for first; an exception of shard 1 reaches the caller
    through its result."""
    future = _shard_pool().submit(fn, *args1)
    try:
        r0 = fn(*args0)
    except BaseException:
        future.exception()  # waits for shard 1 without raising its error
        raise
    return r0, future.result()
