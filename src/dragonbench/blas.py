"""One OpenBLAS thread for the whole process.

Importing dragonbench sets numpy's bundled OpenBLAS to one thread, so fits,
predictions and estimates compute with one thread and do not depend on the
machine's BLAS thread setting; parallelism comes only from the bench's
process pool, whose workers inherit the setting or re-import the package.
When numpy exports no OpenBLAS thread functions, threading is left alone.
"""

from __future__ import annotations

import ctypes

import numpy as np

# Symbol prefixes and suffixes of numpy's bundled OpenBLAS and of system builds.
_NAMES = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))


def _thread_functions():
    """OpenBLAS's (set_num_threads, get_num_threads), or None when numpy has none."""
    core = getattr(np, "_core", None) or np.core  # np.core before numpy 2
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except OSError:
        return None
    for prefix, suffix in _NAMES:
        setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


_FUNCTIONS = _thread_functions()
if _FUNCTIONS is not None:
    _FUNCTIONS[0](1)


def blas_threads() -> int | None:
    """The number of threads OpenBLAS computes with, or None when no OpenBLAS
    thread function was found and threading was left alone."""
    return None if _FUNCTIONS is None else _FUNCTIONS[1]()
