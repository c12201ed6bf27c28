"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gan_train --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; the program is imported from ./src.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics of a traced run instead. Earlier lines give the machine fingerprint
and the details, which also go to perfbench/out/.

The BLAS thread count is pinned to 1 before numpy loads, whatever the
environment says. A run whose OpenBLAS does not report one thread refuses
to start, because the bytes and the timings depend on the count.
"""

import time

# setup_s is one cold set-up timed from here: imports, inputs, models
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Refused(Exception):
    """The run cannot give a valid measurement and must not start."""


def nproc():
    return len(os.sched_getaffinity(0))


def pin_blas_threads():
    """Set the BLAS thread variables before numpy loads."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def blas_library():
    """ctypes handle of the OpenBLAS that numpy loaded, found in the maps of
    this process, and the prefix of its exported names."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                return lib, prefix, suffix
    raise Refused("no OpenBLAS library with a thread-count query is loaded")


def fingerprint():
    import ctypes

    import numpy as np

    lib, prefix, suffix = blas_library()
    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
    get_threads.restype = ctypes.c_int
    actual = get_threads()
    if actual != BLAS_THREADS:
        raise Refused(f"BLAS reports {actual} threads, the run pinned {BLAS_THREADS}")
    get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
    config = ""
    if get_config is not None:
        get_config.restype = ctypes.c_char_p
        config = get_config().decode()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": config, "blas_threads": actual, "nproc": nproc(),
            "machine": platform.machine()}


class OpFailed(Exception):
    """An operation of a round raised; the round is dropped."""


class Ops:
    """Times the operations of the rounds and counts attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def time(self, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as e:
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {e!r}")
            raise OpFailed from e
        return out, time.perf_counter() - t0


def measure(workload, seconds, ops):
    """Whole rounds while the next one, as long as the last, still fits in
    `seconds`; at least one."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        try:
            r = workload.round(ops)
            r.wall_s = time.perf_counter() - t_round
            rounds.append(r)
        except OpFailed:
            pass
        now = time.perf_counter()
        if now - t0 + (now - t_round) > seconds:
            return rounds


def end_to_end(rounds, setup_s, peak_rss_mb):
    """Each rate from its fastest call and the latency from the fastest
    burst: other tenants of a shared machine only ever add time, so the
    fastest of several identical calls is the steadiest estimate of the
    program's own cost."""
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "samples_per_s": {"value": max(r.samples / r.samples_s for r in rounds),
                          "unit": "samples/s"},
        "forward_segments_per_s": {"value": max(n / t for r in rounds for n, t in r.forward),
                                   "unit": "segments/s"},
        "latency_ms": {"value": 1e3 * min(statistics.median(b) for r in rounds for b in r.bursts),
                       "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "opfault", "__init__.py")):
        raise Refused(f"no opfault sources under {os.path.join(ROOT, 'src')}")
    pin_blas_threads()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    fp = fingerprint()

    import workloads
    from tracing import Tracer, metric_units

    if args.workload not in workloads.WORKLOADS:
        raise Refused(f"unknown workload {args.workload!r}; "
                      f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload, args.seed, OUT_DIR)
    tracer = None
    if args.trace:
        tracer = Tracer(workload.networks())
        tracer.install()
    workload.setup()
    setup_s = time.perf_counter() - T_START

    ops = Ops()
    if tracer is None:
        rounds = measure(workload, args.seconds, ops)
    else:
        tracer.uninstall()
        plain = measure(workload, args.seconds / 2, ops)
        tracer.phase = "rounds"
        tracer.install()
        try:
            rounds = measure(workload, args.seconds / 2, ops)
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not rounds or (tracer is not None and not plain):
        print("\n".join(ops.errors[:5]), file=sys.stderr)
        print(f"no round of {args.workload} completed", file=sys.stderr)
        return 1

    t_check = time.perf_counter()
    try:
        failures = workload.check()
    except Exception as e:  # a check that cannot run is a failed check
        failures = [f"check raised {e!r}"]
    check_s = time.perf_counter() - t_check

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fp, "rounds": len(rounds),
              "ops_per_round": workload.ops_per_round(),
              "latency_samples": sum(len(b) for r in rounds for b in r.bursts),
              "round_wall_s": [r.wall_s for r in rounds], "check_s": check_s,
              "failures": failures, "errors": ops.errors[:20]}
    if tracer is None:
        metrics = end_to_end(rounds, setup_s, peak_rss_mb)
    else:
        untraced = min(r.wall_s for r in plain)
        traced = min(r.wall_s for r in rounds)
        summary = tracer.summary(len(rounds), len(rounds) * workload.steps_per_round(),
                                 1e3 * (traced - untraced), 100.0 * (traced - untraced) / untraced)
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in metric_units().items()}
        detail["untraced_round_wall_s"] = [r.wall_s for r in plain]
    result = {"correct": not failures, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**detail, "result": result}, fh, indent=1)
    if tracer is not None:
        with open(stem + "_spans.json", "w") as fh:
            json.dump(tracer.spans, fh)

    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"{args.workload}: {len(rounds)} rounds, {detail['latency_samples']} latency samples")
    for msg in failures:
        print("CHECK FAILED: " + msg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Refused as e:
        print(f"refused: {e}", file=sys.stderr)
        sys.exit(2)
