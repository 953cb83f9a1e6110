"""Machine block attached to every benchmark result.

Everything is read from what is installed: the interpreter, numpy's build
configuration, and the OpenBLAS library numpy has loaded, queried through
ctypes for its effective thread count.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_openblas():
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None, None
    for path in sorted(paths):
        try:
            return os.path.basename(path), ctypes.CDLL(path)
        except OSError:
            continue
    return None, None


def _blas_call(lib, name: str, restype):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}{name}{suffix}", None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                return fn()
    return None


def machine_block() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lib_name, lib = _loaded_openblas()
    threads = config = None
    if lib is not None:
        threads = _blas_call(lib, "get_num_threads", ctypes.c_int)
        raw = _blas_call(lib, "get_config", ctypes.c_char_p)
        config = raw.decode() if raw else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_library": lib_name,
        "blas_runtime_config": config,
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
