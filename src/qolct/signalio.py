"""File formats: the QSIG1 binary signal container, JSON parameter files,
and CSV signal import.

QSIG1 layout (little-endian throughout):

    bytes 0..5    magic "QSIG1\\0"
    bytes 6..13   u32 n1, u32 n2
    bytes 14..45  f64 center1, center2, spacing1, spacing2
    bytes 46..    4 * n1 * n2 f64 samples, component-major: all q0 in
                  row-major order, then q1, q2, q3

Total size is exactly 46 + 32*n1*n2 bytes and a read/write round trip is
byte-identical.
"""

from __future__ import annotations

import csv
import json
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .field import Grid2D, QField
from .olct import OffsetParams
from .quat import PureUnit

MAGIC = b"QSIG1\0"
_HEADER = struct.Struct("<6sII4d")


def write_signal(path, f: QField) -> None:
    g = f.grid
    payload = np.ascontiguousarray(
        np.moveaxis(f.samples, -1, 0), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, g.n1, g.n2, g.center1, g.center2,
                              g.spacing1, g.spacing2))
        payload.tofile(fh)


def read_signal(path) -> QField:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, n1, n2, c1, c2, h1, h2 = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        data = fh.read()
    expected = 32 * n1 * n2
    if len(data) != expected:
        raise ValueError(f"{path}: payload is {len(data)} bytes, "
                         f"expected {expected}")
    comps = np.frombuffer(data, dtype="<f8").reshape(4, n1, n2)
    _require_finite(path, comps)
    try:
        grid = Grid2D(n1, n2, c1, c2, h1, h2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return QField(grid, np.moveaxis(comps, 0, -1))


def _require_finite(path, samples: np.ndarray) -> None:
    """Reject NaN or infinite values where they enter the program."""
    if not np.isfinite(samples).all():
        bad = int(np.count_nonzero(~np.isfinite(samples)))
        raise ValueError(f"{path}: {bad} non-finite value(s)")


@dataclass(frozen=True)
class TransformParams:
    A1: OffsetParams
    A2: OffsetParams
    lam: PureUnit
    mu: PureUnit


def _floats(values, error: str) -> list:
    """``values`` as floats, each a JSON number within the float range (json
    reads true and false as the ints 1 and 0); else ValueError(error)."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               and abs(v) <= sys.float_info.max for v in values):
        raise ValueError(error)
    return [float(v) for v in values]


def _parse_matrix(obj, label: str) -> OffsetParams:
    expected = f"{label}: expected keys a, b, c, d (tau, eta optional) holding numbers"
    try:
        values = [obj[k] for k in ("a", "b", "c", "d")]
        values += [obj.get(k, 0.0) for k in ("tau", "eta")]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{expected}: {exc}") from None
    a, b, c, d, tau, eta = _floats(values, f"{expected}, got {obj!r}")
    det = a * d - b * c
    if abs(det - 1.0) > 1e-9:
        raise ValueError(f"{label}: determinant {det!r} is not 1 (tol 1e-9)")
    # renormalize d so the construction-time 1e-12 invariant holds
    if a != 0.0:
        d = (1.0 + b * c) / a
    elif c != 0.0:
        b = (a * d - 1.0) / c
    return OffsetParams(a, b, c, d, tau, eta)


def _parse_axis(obj, label: str) -> PureUnit:
    error = f"{label}: expected a list of three numbers, got {obj!r}"
    if not (isinstance(obj, list) and len(obj) == 3):
        raise ValueError(error)
    x, y, z = _floats(obj, error)
    if x == 0.0 and y == 0.0 and z == 0.0:
        raise ValueError(f"{label}: axis vector must be nonzero")
    return PureUnit(x, y, z)


def read_params(path) -> TransformParams:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    for key in ("A1", "A2", "lambda", "mu"):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    return TransformParams(
        _parse_matrix(doc["A1"], "A1"),
        _parse_matrix(doc["A2"], "A2"),
        _parse_axis(doc["lambda"], "lambda"),
        _parse_axis(doc["mu"], "mu"),
    )


def params_doc(params: TransformParams) -> dict:
    """The JSON document of a parameter file, as ``read_params`` reads it."""
    def matrix(A):
        return {"a": A.a, "b": A.b, "c": A.c, "d": A.d,
                "tau": A.tau, "eta": A.eta}

    return {"A1": matrix(params.A1), "A2": matrix(params.A2),
            "lambda": [params.lam.x, params.lam.y, params.lam.z],
            "mu": [params.mu.x, params.mu.y, params.mu.z]}


def write_params(path, params: TransformParams) -> None:
    with open(path, "w") as fh:
        json.dump(params_doc(params), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv_signal(path) -> QField:
    """Import a signal from CSV columns t1, t2, q0, q1, q2, q3.

    The rows must describe a complete regular grid (every (t1, t2) pair
    present exactly once, uniform spacing); anything else is rejected.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        cols = [c.strip().lower() for c in header]
        want = ["t1", "t2", "q0", "q1", "q2", "q3"]
        if cols != want:
            raise ValueError(f"{path}: header must be {','.join(want)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 columns")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows)
    _require_finite(path, data)
    t1_vals = np.unique(data[:, 0])
    t2_vals = np.unique(data[:, 1])
    n1, n2 = t1_vals.size, t2_vals.size
    if n1 * n2 != data.shape[0]:
        raise ValueError(f"{path}: {data.shape[0]} rows do not fill a "
                         f"{n1} x {n2} grid")

    def _uniform_spacing(vals, label):
        if vals.size < 2:
            raise ValueError(f"{path}: need at least 2 distinct {label} values")
        diffs = np.diff(vals)
        h = float(diffs.mean())
        if h <= 0 or np.abs(diffs - h).max() > 1e-9 * max(abs(h), 1.0):
            raise ValueError(f"{path}: {label} coordinates are not uniformly spaced")
        return h

    h1 = _uniform_spacing(t1_vals, "t1")
    h2 = _uniform_spacing(t2_vals, "t2")
    grid = Grid2D(n1, n2,
                  float(t1_vals.mean()), float(t2_vals.mean()), h1, h2)

    i1 = np.searchsorted(t1_vals, data[:, 0])
    i2 = np.searchsorted(t2_vals, data[:, 1])
    seen = np.zeros((n1, n2), dtype=bool)
    seen[i1, i2] = True
    if not seen.all():  # a duplicate pair always leaves some cell unfilled
        raise ValueError(f"{path}: grid has missing (t1, t2) combinations")
    samples = np.zeros((n1, n2, 4))
    samples[i1, i2] = data[:, 2:6]
    return QField(grid, samples)
