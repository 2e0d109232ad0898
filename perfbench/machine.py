"""The machine a run measures on: environment record, roofs and import times.

Everything here reads only the checkout and the local system description; the
only processes it starts are short ``python`` children that it waits for.
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: upper bound on any child process the benchmark starts, in seconds
CHILD_TIMEOUT_S = 60


def llc_bytes() -> int:
    """Size of the largest cache level cpu0 reports, in bytes (0 if unknown)."""
    best_level, best_size = -1, 0
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        match = re.fullmatch(r"(\d+)([KMG]?)", text)
        if not match:
            continue
        size = int(match.group(1)) * {"": 1, "K": 1 << 10, "M": 1 << 20,
                                      "G": 1 << 30}[match.group(2)]
        if level > best_level or (level == best_level and size > best_size):
            best_level, best_size = level, size
    return best_size


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 2 prints instead of returning
        return {"name": None, "version": None}


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(root: Path, seed: int, nproc: int, threads: int) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
        "nproc": nproc,
        "llc_bytes": llc_bytes(),
        "qolct_threads": threads,
        "seed": seed,
        "git_commit": _git_commit(root),
    }


def child_env(root: Path) -> dict:
    """Environment for a qolct child process: the checkout's sources, and the
    thread pin the parent already set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv, root: Path):
    """Run a child to completion (killed and reaped on timeout).

    Returns ``(completed_process_or_None, wall_seconds)``.
    """
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=root, env=child_env(root),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None  # subprocess.run kills and waits for the child
    return proc, time.perf_counter() - t0


def time_import(root: Path) -> float:
    """Wall seconds of a fresh interpreter importing the package."""
    proc, wall = run_child([sys.executable, "-c", "import qolct"], root)
    if proc is None or proc.returncode != 0:
        raise RuntimeError("a fresh interpreter could not import qolct: "
                           + ("timeout" if proc is None else proc.stderr[-500:]))
    return wall


# ---------------------------------------------------------------------------
# ``python -X importtime`` split.

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def _family(name: str, root: str) -> bool:
    return name == root or name.startswith(root + ".")


def parse_importtime(text: str) -> dict:
    """Cumulative import ms of the outermost numpy, scipy and qolct modules.

    Lines are printed children first, indented two spaces per level; an
    entry's parent is the next entry at a shallower level.
    """
    rows = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((int(m.group(2)), (len(m.group(3)) - 1) // 2, m.group(4)))
    parent = [None] * len(rows)
    open_rows = []  # indices still waiting for their parent
    for i, (_, level, _) in enumerate(rows):
        while open_rows and rows[open_rows[-1]][1] > level:
            parent[open_rows.pop()] = i
        open_rows.append(i)
    out = {}  # name -> (value, unit)
    for fam in ("qolct", "scipy", "numpy"):
        total_us = 0
        for i, (cum, _, name) in enumerate(rows):
            if not _family(name, fam):
                continue
            p = parent[i]
            while p is not None and not _family(rows[p][2], fam):
                p = parent[p]
            if p is None:
                total_us += cum
        out[f"import.{fam}_ms"] = (total_us / 1e3, "ms")
    return out


def import_split(root: Path) -> dict:
    proc, _ = run_child([sys.executable, "-X", "importtime", "-c",
                         "import qolct.cli"], root)
    if proc is None or proc.returncode != 0:
        raise RuntimeError("python -X importtime -c 'import qolct.cli' failed")
    return parse_importtime(proc.stderr)


# ---------------------------------------------------------------------------
# Roofs the per-layer figures are compared against.

def copy_roof(llc: int, reps: int = 3) -> dict:
    """numpy copy bandwidth over arrays four times the last-level cache."""
    nbytes = 4 * (llc or 32 << 20)
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    del src, dst
    # a copy reads and writes every byte once
    return {"machine.copy_gbs": (2 * nbytes / statistics.median(times) / 1e9, "GB/s"),
            "machine.copy_array_bytes": (nbytes, "B"),
            "machine.llc_bytes": (llc, "B")}


def fft2_floor(n: int, reps: int = 5) -> dict:
    """Bare single-threaded complex fft2 of an n x n array, median ms."""
    x = np.exp(1j * np.linspace(0.0, 1.0, n * n)).reshape(n, n)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.fft.fft2(x)
        times.append(time.perf_counter() - t0)
    return {"qft.fft2_floor_ms": (statistics.median(times) * 1e3, "ms")}
