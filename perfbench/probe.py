"""Run in a child process with the benchmark's environment; prints one JSON line.

Reports what the CLI processes import: the graphcalc module path, library
versions, and the BLAS library with its thread count.
"""

import ctypes
import json
import platform
from importlib import metadata

import numpy
import scipy.linalg  # noqa: F401  (loads scipy's BLAS as the CLI does)

import graphcalc


def blas_libraries():
    """Each loaded OpenBLAS with its configuration string and thread count."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) >= 6 and "openblas" in fields[-1].rsplit("/", 1)[-1].lower():
                paths.add(fields[-1])
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": path.rsplit("/", 1)[-1]}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas_", "openblas_"):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and "threads" not in entry:
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = get_threads()
                if get_config is not None and "config" not in entry:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
        found.append(entry)
    return found


print(
    json.dumps(
        {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": metadata.version("scipy"),
            "click": metadata.version("click"),
            "graphcalc_version": graphcalc.__version__,
            "graphcalc_file": graphcalc.__file__,
            "blas": blas_libraries(),
        }
    )
)
