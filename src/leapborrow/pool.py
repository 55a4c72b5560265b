"""Process pools whose workers run single-threaded BLAS.

Replication and enumeration workers already split the work across cores, so
each one keeping OpenBLAS's own thread pool (one thread per core) only makes
the workers contend for the same cores.  Every pool in the package starts
its workers through :func:`worker_pool`, whose initializer sets each OpenBLAS
loaded in the worker to one thread.

The libraries are found in the process's memory map and driven through their
exported thread-count functions with ``ctypes``.  Where no OpenBLAS is
loaded, or the platform has no ``/proc/self/maps``, the initializer does
nothing.

OpenBLAS stops its helper threads at ``fork`` and its thread-count setter
starts them again in the child, where they would spin idle for tens of
milliseconds before sleeping.  With one thread they are never used, so the
initializer stops them again through ``blas_thread_shutdown_`` where the
library exports it; a single-threaded library does not restart them.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor

# (setter, getter) symbol pairs: numpy's 64-bit-integer build, scipy's, then
# the unprefixed names of a system or conda OpenBLAS
_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _loaded_openblas_paths() -> list:
    """Files of the OpenBLAS libraries mapped into this process, sorted."""
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
            paths.add(fields[5])
    return sorted(paths)


def _openblas_thread_functions() -> list:
    """``(set_num_threads, get_num_threads, shutdown or None)`` of every loaded OpenBLAS."""
    found = []
    for path in _loaded_openblas_paths():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for set_name, get_name in _THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter = getattr(lib, set_name)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                getter = getattr(lib, get_name)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.argtypes = []
                    shutdown.restype = ctypes.c_int
                found.append((setter, getter, shutdown))
                break
    return found


def openblas_thread_counts() -> list:
    """Thread count of each loaded OpenBLAS, in library path order."""
    return [getter() for _, getter, _ in _openblas_thread_functions()]


def single_thread_blas():
    """Set every loaded OpenBLAS to one thread (a pool initializer)."""
    for setter, _, shutdown in _openblas_thread_functions():
        setter(1)
        if shutdown is not None:
            shutdown()


def pool_size(workers: int, tasks: int) -> int:
    """Processes to start for ``tasks`` independent tasks: ``min(workers, tasks, CPUs)``.

    A size of 1 means the tasks run in the calling process, with no pool.
    """
    if workers < 1:
        from .core import ValidationError

        raise ValidationError(f"workers must be >= 1, got {workers}")
    return max(1, min(workers, tasks, os.cpu_count() or 1))


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """Process pool of ``workers`` processes, each with single-threaded BLAS."""
    return ProcessPoolExecutor(max_workers=workers, initializer=single_thread_blas)
