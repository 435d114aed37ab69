"""The reference kernel, its sampler, and the environment record of a run.

The kernel is a few milliseconds of fixed work of the same kind as
pluripot's hot paths: interpreter-bound enumeration of small point subsets,
each scored by a 4x4 log-determinant, plus one small Cholesky solve.  The
machine alternates between fast and slow spells of a fraction of a second,
and the share of slow spells drifts over minutes.  So ``KernelSampler``
runs the kernel every ``period`` seconds of the timed phase, from a SIGALRM
handler in the workload's own thread, and its samples follow the spells the
workload runs in.  The wall time of a workload divided by the mean kernel
time is the drift-normalized time ``wall_ref``; set-up time, sampled
the same way during the import, is normalized and given in seconds at
``NOMINAL_KERNEL_S``.  Nothing here imports pluripot.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import platform
import signal
import time

import numpy as np

_SUBSET_POINTS = 20
_SUBSET_SIZE = 4
_SUBSETS = 300
_GRAM_SIZE = 24
# The kernel's time on the reference machine (2-core Xeon, 2.0 GHz), whose
# samples range over 3.8-8.0 ms; a time divided by the mean kernel time and
# multiplied by this is in seconds at that reference speed.
NOMINAL_KERNEL_S = 0.005

_k = np.arange(_SUBSET_POINTS)
_POINTS = (1.0 + _k / (4.0 * _SUBSET_POINTS)) * np.exp(2j * np.pi * _k / _SUBSET_POINTS)
_COMBOS = [list(c) for c in itertools.islice(
    itertools.combinations(range(_SUBSET_POINTS), _SUBSET_SIZE), _SUBSETS)]
_x = np.linspace(-1.0, 1.0, 4 * _GRAM_SIZE)
_V = np.vander(_x, _GRAM_SIZE, increasing=True) / np.sqrt(np.arange(1, _GRAM_SIZE + 1))
_GRAM = _V.T @ _V + np.eye(_GRAM_SIZE)


def reference_kernel() -> tuple[float, float]:
    """Run the kernel once; return (wall seconds, checksum of its result)."""
    start = time.perf_counter()
    best = -math.inf
    for combo in _COMBOS:
        sub = _POINTS[combo]
        mat = np.vander(sub, _SUBSET_SIZE, increasing=True)
        _, logabs = np.linalg.slogdet(mat)
        if logabs > best:
            best = logabs
    chol = np.linalg.cholesky(_GRAM)
    sol = np.linalg.solve(chol, _V[:_GRAM_SIZE].T)
    checksum = float(best + np.sum(sol * sol))
    return time.perf_counter() - start, checksum


class KernelSampler:
    """Run the reference kernel every ``period`` seconds while active.

    ``samples`` holds the kernel times and ``busy_s`` the total time spent
    in the handler, which callers subtract from the intervals they time.
    Use in the main thread only; it owns SIGALRM while active, from
    ``start`` to ``stop`` or within a ``with`` block.
    """

    def __init__(self, period: float):
        self.period = period
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_kernel()[0])
        self.busy_s += time.perf_counter() - start

    def start(self) -> "KernelSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "KernelSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS library will use, by library file name."""
    out = {}
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def environment() -> dict:
    """Cores, BLAS vendor and effective threads, and library versions."""
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
