"""Work dealt to one thread per CPU, numpy's OpenBLAS held at one thread meanwhile, and the memory left for it."""

import contextlib
import os
import threading

import numpy as np


def cpus():
    """The number of CPUs this process may run on (every CPU where the platform keeps no affinity mask)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run(workers, work):
    """Call ``work(w)`` for w = 0..workers-1: w = 0 on this thread, each other on a thread of its own.

    An exception of any worker is raised here, that of the lowest w, once every started thread has ended.
    """
    errors = [None] * workers

    def guarded(w):
        try:
            work(w)
        except BaseException as exc:  # raised on the calling thread below
            errors[w] = exc

    started = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=guarded, args=(w,))
            thread.start()
            started.append(thread)
        guarded(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


#: ``(get, set)`` names of the OpenBLAS thread count: as numpy's wheels build it, and unprefixed
_BLAS_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _blas_threads():
    """``(get, set)`` of the thread count of numpy's OpenBLAS, or None where no pair of names resolves.

    They are looked up through numpy's own linear-algebra module, so they act on the OpenBLAS that
    ``eigh`` calls.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for names in _BLAS_NAMES:
        get, set_ = (getattr(lib, name, None) for name in names)
        if get is not None and set_ is not None:
            return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, process-wide, and give its old count back on leaving.

    Yields True; where no setter resolves it changes nothing and yields False. Per-thread counts
    (``openblas_set_num_threads_local``) are not used: they gave different bits from run to run.
    """
    blas = _blas_threads()
    if blas is None:
        yield False
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        yield True
    finally:
        set_(threads)


def available_bytes():
    """``MemAvailable`` of ``/proc/meminfo`` in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None
