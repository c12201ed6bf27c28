"""Span tracer around opfault's public functions, from outside the program.

While installed, the tracer replaces each function in TRACED by a wrapper
that records a span (name, tag, phase, start, end, self time, parent,
whether it ran inside a training step) and
puts the original back on uninstall. A function that other opfault modules
imported by name is replaced in those modules too, so every call site is
seen. Layer calls
are tagged with their network layer ("gen.L3"), found from the weight shape
and the input length; network calls are tagged with their network.

A span's self time is its duration minus the durations of its child spans.
Spans are kept in memory and summarized into per-layer metrics at the end.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# module, attribute path, phase whose spans the metric reads
TRACED = (
    ("layers", "op_conv1d_forward", "rounds"),
    ("layers", "op_conv1d_backward", "rounds"),
    ("layers", "op_tconv1d_forward", "rounds"),
    ("layers", "op_tconv1d_backward", "rounds"),
    ("layers", "dense_forward", "rounds"),
    ("layers", "dense_backward", "rounds"),
    ("layers", "powers", "rounds"),
    ("network", "forward_network", "rounds"),
    ("network", "backward_network", "rounds"),
    ("signal", "spectral_features", "rounds"),
    ("signal", "spectral_features_grad", "rounds"),
    ("tensor", "AdamOptimizer.step", "rounds"),
    ("gan", "generator_objective", "rounds"),
    ("gan", "discriminator_objective", "rounds"),
    ("gan", "validation_loss", "rounds"),
    ("gan", "train_opgan", "rounds"),
    ("gan", "synthesize_faults", "rounds"),
    ("detector", "train_detector", "rounds"),
    ("detector", "classify_segments", "rounds"),
    ("detector", "classify_segment", "rounds"),
    ("detector", "evaluate", "rounds"),
    ("dataset", "record_to_segments", "rounds"),
    ("dataset", "records_to_segments", "setup"),
    ("dataset", "split_segments", "setup"),
    ("synth", "default_corpus", "setup"),
    ("model_io", "load_model", "setup"),
    ("pipeline", "build_source_pairs", "setup"),
    ("pipeline", "target_pools", "setup"),
)

LAYER_FUNCS = {
    "op_conv1d_forward": ("op_conv", "fwd"), "op_conv1d_backward": ("op_conv", "bwd"),
    "op_tconv1d_forward": ("op_tconv", "fwd"), "op_tconv1d_backward": ("op_tconv", "bwd"),
    "dense_forward": ("dense", "fwd"), "dense_backward": ("dense", "bwd"),
}
NETWORK_FUNCS = ("forward_network", "backward_network")
NETS = {"gen": 10, "disc": 6, "det": 7}

# spans under these, outside NOT_TRAINING, belong to a training step: they
# make forwards_per_step and the layer times of the training workloads
TRAINING = ("gan.train_opgan", "detector.train_detector")
NOT_TRAINING = ("gan.validation_loss",)

# functions reported by self time; the rest by inclusive time (equal for leaves)
SELF_TIMED = {
    "network.forward_network", "network.backward_network",
    "gan.generator_objective", "gan.discriminator_objective", "gan.train_opgan",
    "gan.synthesize_faults", "detector.train_detector", "detector.classify_segments",
    "detector.classify_segment", "detector.evaluate",
}


def qualname(module, attr):
    return f"{module}.{attr}"


def time_metric(q):
    return f"{q}.self_ms" if q in SELF_TIMED else f"{q}_ms"


def metric_units():
    """{per-layer metric: unit}, in the order BENCHMARK.json lists them."""
    names = []
    for net, n in NETS.items():
        for j in range(n):
            names += [f"layers.{net}.L{j}.fwd_ms", f"layers.{net}.L{j}.bwd_ms"]
    for module, attr, _ in TRACED:
        q = qualname(module, attr)
        if module == "layers" and attr != "powers":
            continue
        names.append(time_metric(q))
    units = dict.fromkeys(names, "ms")
    units.update((f"network.{net}.forwards_per_step", "count") for net in NETS)
    units.update((f"{qualname(m, a)}.calls", "count") for m, a, _ in TRACED)
    units.update({"trace.overhead_ms": "ms", "trace.overhead_pct": "%"})
    return units


def layer_keys(net, spec):
    """{(kind, weight shape, input length): "net.Lj"} for one NetworkSpec;
    dense layers key on their weight shape alone."""
    shapes = spec.trace_shapes()
    keys = {}
    for j, ls in enumerate(spec.layers):
        if ls.kind == "dense":
            key = ("dense", (ls.out_channels, ls.in_channels), None)
        else:
            in_len = spec.input_len if j == 0 else shapes[j - 1][1]
            key = (ls.kind, (ls.out_channels, ls.in_channels, ls.kernel, ls.q), in_len)
        keys[key] = f"{net}.L{j}"
    return keys


def spec_key(spec):
    return tuple(spec.layers)


class Tracer:
    """Records spans while installed; phase names the part of the run
    ("setup" or "rounds") that new spans belong to."""

    def __init__(self, networks):
        self.layers = {}
        self.nets = {}
        for net, spec in networks.items():
            keys = layer_keys(net, spec)
            clash = set(keys) & set(self.layers)
            if clash:
                raise ValueError(f"layer keys of {net} clash with another network: {clash}")
            self.layers.update(keys)
            self.nets[spec_key(spec)] = net
        self.spans = []       # [name, tag, phase, start, end, self_s, parent, training]
        self._stack = []      # (span index, child seconds so far)
        self._open = defaultdict(int)
        self.training_forwards = defaultdict(int)
        self.phase = "setup"
        self._saved = []

    # -- tagging ---------------------------------------------------------
    def _layer_tag(self, attr, args, kwargs):
        kind, direction = LAYER_FUNCS[attr]
        x, w = args[0], args[1]
        if kind == "dense":
            key = ("dense", tuple(w.shape), None)
        else:
            if x is None:  # backward from a forward cache: (x3, pows, cols)
                x = (kwargs.get("cache") or args[-1])[0]
            key = (kind, tuple(w.shape), x.shape[-1])
        return f"{self.layers.get(key, 'other')}.{direction}"

    def _tag(self, module, attr, args, kwargs):
        if module == "layers" and attr in LAYER_FUNCS:
            return self._layer_tag(attr, args, kwargs)
        if module == "network" and attr in NETWORK_FUNCS:
            return self.nets.get(spec_key(args[0]), "other")
        return None

    # -- wrapping --------------------------------------------------------
    def _wrap(self, name, module, attr, fn):
        tracer = self

        def traced(*args, **kwargs):
            tag = tracer._tag(module, attr, args, kwargs)
            training = (tracer.phase == "rounds"
                        and any(tracer._open[t] for t in TRAINING)
                        and not any(tracer._open[t] for t in NOT_TRAINING))
            if training and attr == "forward_network":
                tracer.training_forwards[tag] += 1
            idx = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append([name, tag, tracer.phase, 0.0, 0.0, 0.0, parent, training])
            tracer._stack.append([idx, 0.0])
            tracer._open[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._open[name] -= 1
                _, child = tracer._stack.pop()
                span = tracer.spans[idx]
                span[3], span[4], span[5] = t0, t1, (t1 - t0) - child
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, _ in TRACED:
            mod = importlib.import_module(f"opfault.{module}")
            name = qualname(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                fn = owner.__dict__[meth]
                self._saved.append((owner, meth, fn))
                setattr(owner, meth, self._wrap(name, module, attr, fn))
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(name, module, attr, fn)
            for other_name, other in list(sys.modules.items()):
                if other_name.split(".")[0] != "opfault" or other is None:
                    continue
                for key, value in list(vars(other).items()):
                    if value is fn:
                        self._saved.append((other, key, fn))
                        setattr(other, key, wrapped)

    def uninstall(self):
        for owner, key, fn in reversed(self._saved):
            setattr(owner, key, fn)
        self._saved = []

    # -- summary ---------------------------------------------------------
    def summary(self, rounds, steps, overhead_ms, overhead_pct):
        """Per-layer metrics: network layer self ms per training step, inside
        the training call with validation excluded, or per round where the
        rounds train nothing (steps == 0); ms and calls per round for the
        other functions of the measured rounds, totals for set-up functions;
        forwards per training step; tracing overhead per round."""
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        layer_s = defaultdict(float)
        phase_of = {qualname(m, a): p for m, a, p in TRACED}
        for name, tag, phase, t0, t1, own, _, training in self.spans:
            if phase != phase_of[name]:
                continue
            self_s[name] += own
            incl_s[name] += t1 - t0
            calls[name] += 1
            if name.startswith("layers.") and tag is not None and (training or not steps):
                layer_s[tag] += own
        metrics = {}

        def per(name, value):
            return value / rounds if phase_of[name] == "rounds" else value

        for net, n in NETS.items():
            for j in range(n):
                for d in ("fwd", "bwd"):
                    metrics[f"layers.{net}.L{j}.{d}_ms"] = (
                        1e3 * layer_s[f"{net}.L{j}.{d}"] / (steps or rounds))
        for module, attr, _ in TRACED:
            q = qualname(module, attr)
            if module == "layers" and attr != "powers":
                continue
            metrics[time_metric(q)] = 1e3 * per(q, (self_s if q in SELF_TIMED else incl_s)[q])
        for net in NETS:
            metrics[f"network.{net}.forwards_per_step"] = (
                self.training_forwards[net] / steps if steps else 0.0)
        for module, attr, _ in TRACED:
            q = qualname(module, attr)
            metrics[f"{q}.calls"] = per(q, calls[q])
        metrics["trace.overhead_ms"] = overhead_ms
        metrics["trace.overhead_pct"] = overhead_pct
        return metrics
