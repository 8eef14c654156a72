"""Process set-up shared by the benchmark and its set-up probe.

``pin_blas_threads`` must run before numpy is imported.  ``import_harness``
imports qmcpricer from this checkout's ``src`` and nowhere else, so a
checkout without the program fails instead of measuring another copy.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

_SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name; answered from cpuid on x86


def pin_blas_threads() -> int:
    """Cap OpenBLAS at one thread per core available to this process."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or not 1 <= int(current) <= nproc:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    return nproc


def import_harness():
    """The qmcpricer harness module of this checkout."""
    sys.path.insert(0, SRC)
    try:
        import qmcpricer.harness as harness
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qmcpricer from {SRC}: {exc}")
    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: qmcpricer was imported from {harness.__file__}, not {SRC}")
    return harness


def child_env() -> dict:
    """Environment for subprocesses: same BLAS threads, this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# (configuration, thread count) symbol pairs of the OpenBLAS builds numpy
# and scipy ship, with and without the 64-bit integer suffix
_OPENBLAS_SYMBOLS = [
    (f"{prefix}get_config{suffix}", f"{prefix}get_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
]


def _openblas() -> list[dict]:
    """Configuration and live thread count of each OpenBLAS loaded."""
    with open("/proc/self/maps") as fh:
        paths = [line.split()[-1] for line in fh if "openblas" in line and "/" in line]
    found = []
    for path in dict.fromkeys(paths):
        lib = ctypes.CDLL(path)
        for config_name, threads_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                get_config, get_threads = getattr(lib, config_name), getattr(lib, threads_name)
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                found.append(
                    {
                        "lib": os.path.basename(path),
                        "config": get_config().decode().strip(),
                        "threads": int(get_threads()),
                    }
                )
                break
    return found


def environment() -> dict:
    """Machine and library record printed with every result."""
    import numpy
    import scipy

    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    llc = libc.sysconf(_SC_LEVEL3_CACHE_SIZE)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "llc_bytes": llc if llc > 0 else None,
    }
