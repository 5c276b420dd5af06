"""Record of the machine a benchmark run measured.

Everything comes from the interpreter, numpy and the C library's
``sysconf``; no system file is read.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time

import numpy as np

_SC_LEVEL3_CACHE_SIZE = 194  # glibc <bits/confname.h>
COPY_REPEATS = 5


def llc_bytes() -> int | None:
    """Last-level (L3) cache size from glibc's sysconf, or None if unknown."""
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return None
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    size = libc.sysconf(_SC_LEVEL3_CACHE_SIZE)
    return size if size > 0 else None


def copy_gbps(nbytes: int) -> float:
    """Sustainable copy bandwidth, read plus write bytes, median of COPY_REPEATS."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    times = []
    for _ in range(COPY_REPEATS):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def record(bandwidth: bool) -> dict:
    """Machine facts; with ``bandwidth`` also the copy rate over 4x the LLC."""
    llc = llc_bytes()
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "llc_mib": llc / 2**20 if llc else None,
    }
    if bandwidth:
        nbytes = 4 * (llc or 64 * 2**20)
        info["copy_array_mib"] = nbytes / 2**20
        info["copy_gbps"] = round(copy_gbps(nbytes), 2)
    return info
