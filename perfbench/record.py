"""Environment record kept with every benchmark result, and the rule
for which results may be compared."""

from __future__ import annotations

import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(root: Path) -> dict:
    """Versions, kernel backend and machine facts of this process."""
    from groupiso import kernels

    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "backend": kernels.BACKEND,
        "has_numba": kernels.HAS_NUMBA,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(root),
    }


def comparable(a: dict, b: dict) -> str | None:
    """Why two environment records must not be compared, or None.

    The numba and numpy kernels are different programs, so their times
    say nothing about a change.
    """
    if a.get("backend") != b.get("backend"):
        return f"backend differs: {a.get('backend')!r} vs {b.get('backend')!r}"
    return None


def env_line(env: dict) -> str:
    return "env " + " ".join(f"{k}={v!r}" if k == "cpu" else f"{k}={v}" for k, v in env.items())
