"""Launcher environment: one BLAS/OpenMP thread, the package from ``src/``,
and the provenance recorded with every result.

Import this module before numpy: the thread settings only take effect if
they are in the environment when OpenBLAS loads.  Child processes inherit
them.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "roundmoments")


class MissingPackageError(RuntimeError):
    """The checkout holds no ``src/roundmoments`` to benchmark."""


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_package():
    """Put ``src/`` first on the path; refuse to fall back to an installed copy."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise MissingPackageError(f"no package source at {PACKAGE}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for i in range(8):
        d = os.path.join(base, f"index{i}")
        level, kind, size = (_read(os.path.join(d, f)) for f in ("level", "type", "size"))
        if level is None or size is None:
            continue
        name = f"L{level.strip()}" + ({"Data": "d", "Instruction": "i"}.get((kind or "").strip(), ""))
        out[name] = size.strip()
    return out


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """sha256 over every file of ``src/``, so a checkout without git is identified too."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance() -> dict:
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_version,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _commit(),
        "src_sha256": src_digest(),
    }
