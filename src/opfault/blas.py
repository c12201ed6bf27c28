"""The OpenBLAS that numpy loaded: its thread count and a description.

The library is found in this process's memory maps, on first use and so
only on Linux; elsewhere, or when numpy links another BLAS, `threads`
reports None and `pin_one_thread` does nothing.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

_NAMES = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
          ("openblas_", "64_"), ("openblas_", ""))


@functools.cache
def _library():
    """(ctypes handle, prefix, suffix of the exported names) of the loaded
    OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _NAMES:
            if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                return lib, prefix, suffix
    return None


def _function(name: str, argtypes: list, restype):
    found = _library()
    if found is None:
        return None
    lib, prefix, suffix = found
    fn = getattr(lib, f"{prefix}{name}{suffix}", None)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, restype
    return fn


@functools.cache
def pin_one_thread():
    """Set the loaded OpenBLAS to one thread, once per process; a no-op
    without one."""
    fn = _function("set_num_threads", [ctypes.c_int], None)
    if fn is not None:
        fn(1)


def threads():
    """The loaded OpenBLAS's thread count in effect, or None."""
    fn = _function("get_num_threads", [], ctypes.c_int)
    return None if fn is None else fn()


def describe() -> dict:
    """numpy's build name and version of its BLAS (None where numpy cannot
    say), and the thread count in effect."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 only prints its config
        blas = {}
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads()}
