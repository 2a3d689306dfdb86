"""An independent, NumPy-only reader of a model directory.

Every answer the benchmark checks is compared against the dense
reconstruction ``U Λ Vᵀ + Δ`` built here from the files on disk, not
against the program's own readers or a stored copy of earlier output.
The reader knows only the documented file formats:

- ``u.mat``: one header page (``RPRMTX02`` magic, rows, cols, page
  size, dtype code) followed by the row-major rows, one padded row per
  page;
- ``lambda.npy`` and ``v.npy``: the k retained singular values and the
  ``M x k`` right factor;
- ``deltas.bin``: a 20-byte header (magic, record count, CRC) followed
  by ``(int64 cell key, value)`` records;
- ``zero_rows.npy``: rows flagged all-zero.

:class:`Reference` also carries the row and column profiles the
full-axis and group-by checks use, and :func:`close_enough` is the one
tolerance rule every comparison goes through.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FUNCTIONS = ("sum", "avg", "count", "min", "max", "stddev")

#: Structural bucket widths of the time levels (days per bucket); the
#: trailing bucket is clipped at the last day.
LEVEL_DAYS = {"day": 1, "week": 7, "month": 28}

_U_HEADER = np.dtype(
    [("magic", "S8"), ("rows", "<u8"), ("cols", "<u8"), ("page", "<u4"),
     ("code", "u1"), ("crc", "<u4")]
)
_U_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_DELTA_HEADER = np.dtype([("magic", "S8"), ("count", "<u8"), ("crc", "<u4")])
_DELTA_RECORDS = {
    b"RPRDLT01": np.dtype([("k", "<i8"), ("d", "<f8")]),
    b"RPRDLT02": np.dtype([("k", "<i8"), ("d", "<f4")]),
}

#: Relative tolerance of a checked answer, against the magnitude of the
#: cells it aggregates.  The program sums in another order (blocked,
#: through factor space or precomputed rollups), so answers agree to
#: float64 rounding, far inside this.
RTOL = 1e-9
#: ``stddev`` is finalized from sums of squares, which loses digits
#: when the spread is small next to the mean.
RTOL_STDDEV = 1e-6


class ModelFiles:
    """The raw arrays of one model directory, read without the program."""

    def __init__(self, directory: str | Path) -> None:
        directory = Path(directory)
        self.meta = json.loads((directory / "meta.json").read_text())
        raw = np.fromfile(directory / "u.mat", dtype=np.uint8)
        header = np.frombuffer(raw, dtype=_U_HEADER, count=1)[0]
        if header["magic"] != b"RPRMTX02":
            raise ValueError(f"{directory}/u.mat: bad magic {header['magic']!r}")
        rows, cols, page = int(header["rows"]), int(header["cols"]), int(header["page"])
        dtype = _U_DTYPES[int(header["code"])]
        self.u = np.frombuffer(
            raw, dtype=dtype, count=rows * cols, offset=page
        ).reshape(rows, cols).astype(np.float64)
        self.lam = np.load(directory / "lambda.npy").astype(np.float64)
        self.v = np.load(directory / "v.npy").astype(np.float64)
        self.keys = np.empty(0, dtype=np.int64)
        self.deltas = np.empty(0, dtype=np.float64)
        delta_path = directory / "deltas.bin"
        if delta_path.exists():
            body = np.fromfile(delta_path, dtype=np.uint8)
            head = np.frombuffer(body, dtype=_DELTA_HEADER, count=1)[0]
            records = np.frombuffer(
                body,
                dtype=_DELTA_RECORDS[bytes(head["magic"])],
                count=int(head["count"]),
                offset=_DELTA_HEADER.itemsize,
            )
            self.keys = records["k"].astype(np.int64)
            self.deltas = records["d"].astype(np.float64)
        zero_path = directory / "zero_rows.npy"
        self.zero_rows = (
            np.load(zero_path).astype(np.int64)
            if zero_path.exists()
            else np.empty(0, dtype=np.int64)
        )
        self.directory = directory

    @property
    def shape(self) -> tuple[int, int]:
        return int(self.meta["rows"]), int(self.meta["cols"])

    def dense(self, with_deltas: bool = True) -> np.ndarray:
        """The reconstruction ``U Λ Vᵀ (+ Δ)``, zero rows forced to 0."""
        k = int(self.meta["cutoff"])
        out = (self.u[:, :k] * self.lam[:k]) @ self.v[:, :k].T
        if self.zero_rows.size:
            out[self.zero_rows] = 0.0
        if with_deltas and self.keys.size:
            out.ravel()[self.keys] += self.deltas
        return out

    def logical_bytes(self) -> int:
        """Eq. 9 size of the model: ``(N k + k + k M) b`` plus one
        ``(8-byte key, b-byte value)`` record per delta."""
        rows, cols = self.shape
        k = int(self.meta["cutoff"])
        b = int(self.meta.get("bytes_per_value", 8))
        return (rows * k + k + k * cols) * b + self.keys.size * (8 + b)


def _stats(values: np.ndarray, function: str) -> float:
    if function == "sum":
        return float(values.sum())
    if function == "avg":
        return float(values.mean())
    if function == "count":
        return float(values.size)
    if function == "min":
        return float(values.min())
    if function == "max":
        return float(values.max())
    if function == "stddev":
        return float(values.std())
    raise ValueError(f"unknown function {function!r}")


def _from_profile(total, total_sq, low, high, count, function: str) -> float:
    if function == "sum":
        return float(total)
    if function == "avg":
        return float(total / count)
    if function == "count":
        return float(count)
    if function == "min":
        return float(low)
    if function == "max":
        return float(high)
    mean = total / count
    return float(np.sqrt(max(total_sq / count - mean * mean, 0.0)))


def close_enough(answer: float, expected: float, function: str, scale: float) -> bool:
    """One comparison rule: ``count`` must match exactly, every other
    answer within a relative tolerance of the cells' magnitude."""
    if function == "count":
        return answer == expected
    rtol = RTOL_STDDEV if function == "stddev" else RTOL
    return bool(abs(answer - expected) <= rtol * max(scale, 1.0))


class Reference:
    """Reference answers for one model state.

    Holds the dense reconstruction plus per-column and per-row profiles
    (sum, sum of squares, min, max), from which full-axis aggregates
    and group-by series are answered without rescanning the matrix.
    """

    def __init__(self, files: ModelFiles) -> None:
        self.files = files
        self.dense = files.dense()
        self.shape = self.dense.shape
        d = self.dense
        self.col = (d.sum(axis=0), (d * d).sum(axis=0), d.min(axis=0), d.max(axis=0))
        self.row = (d.sum(axis=1), (d * d).sum(axis=1), d.min(axis=1), d.max(axis=1))
        self.col_abs = np.abs(d).sum(axis=0)
        self.row_abs = np.abs(d).sum(axis=1)

    # -- expected answers --------------------------------------------------

    def cell(self, row: int, col: int) -> tuple[float, float]:
        value = float(self.dense[row, col])
        return value, abs(value)

    def rect(self, r0, r1, c0, c1, function) -> tuple[float, float]:
        block = self.dense[r0:r1, c0:c1]
        return _stats(block, function), _scale(block, function)

    def span(self, axis: str, lo: int, hi: int, function: str) -> tuple[float, float]:
        """Full-axis aggregate: all customers over days ``[lo, hi)``
        (``axis="days"``) or customers ``[lo, hi)`` over all days."""
        profile, absolute, other = (
            (self.col, self.col_abs, self.shape[0])
            if axis == "days"
            else (self.row, self.row_abs, self.shape[1])
        )
        total, total_sq, low, high = (p[lo:hi] for p in profile)
        count = (hi - lo) * other
        value = _from_profile(
            total.sum(), total_sq.sum(), low.min(), high.max(), count, function
        )
        return value, _profile_scale(
            absolute[lo:hi].sum(), total_sq.sum(), low.min(), high.max(), count, function
        )

    def edges(self, by: str) -> np.ndarray:
        width = LEVEL_DAYS[by]
        cols = self.shape[1]
        return np.asarray(list(range(0, cols, width)) + [cols], dtype=np.int64)

    def series(self, by: str, function: str) -> tuple[np.ndarray, list[float], list[float]]:
        edges = self.edges(by)
        values, scales = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            value, scale = self.span("days", int(lo), int(hi), function)
            values.append(value)
            scales.append(scale)
        return edges, values, scales

    # -- checks ----------------------------------------------------------

    def check(self, op, answer) -> bool:
        """True when the program's ``answer`` to ``op`` matches."""
        kind = op.kind
        if kind == "groupby":
            edges, values, scales = self.series(op.by, op.fn)
            got_edges, got_values = answer
            if list(got_edges) != edges.tolist() or len(got_values) != len(values):
                return False
            return all(
                close_enough(float(g), e, op.fn, s)
                for g, e, s in zip(got_values, values, scales)
            )
        if kind == "cell":
            expected, scale = self.cell(op.r0, op.c0)
            return close_enough(float(answer), expected, "sum", scale)
        if kind == "rect":
            expected, scale = self.rect(op.r0, op.r1, op.c0, op.c1, op.fn)
        elif kind == "dash":
            lo, hi = (op.c0, op.c1) if op.axis == "days" else (op.r0, op.r1)
            expected, scale = self.span(op.axis, lo, hi, op.fn)
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        return close_enough(float(answer), expected, op.fn, scale)


def _scale(block: np.ndarray, function: str) -> float:
    if function == "sum":
        return float(np.abs(block).sum())
    if function == "stddev":
        return float(np.sqrt((block * block).mean()))
    return float(np.abs(block).max())


def _profile_scale(abs_total, total_sq, low, high, count, function: str) -> float:
    if function == "sum":
        return float(abs_total)
    if function == "avg":
        return float(abs_total / count)
    if function == "stddev":
        return float(np.sqrt(total_sq / count))
    return float(max(abs(low), abs(high)))


def rmspe(data: np.ndarray, approx: np.ndarray) -> float:
    """The paper's Def. 5.1 error: RMS error over the data's std."""
    spread = np.sqrt(((data - data.mean()) ** 2).sum())
    return float(np.sqrt(((approx - data) ** 2).sum()) / spread)


def model_properties(files: ModelFiles, ref: Reference, data: np.ndarray,
                     budget: float) -> tuple[dict, list[str]]:
    """Properties the method must have, checked against generated data.

    Returns ``(figures, violations)``: the figures are the model's
    RMSPE with and without Δ and its Eq. 9 size; every violation is a
    one-line description.
    """
    violations: list[str] = []
    flat = data.ravel()
    if files.keys.size:
        stored = ref.dense.ravel()[files.keys]
        raw = flat[files.keys]
        bad = np.abs(stored - raw) > RTOL * np.maximum(np.abs(raw), 1.0)
        if bad.any():
            violations.append(
                f"{int(bad.sum())} of {files.keys.size} stored delta cells "
                "do not reproduce the generated value"
            )
    with_deltas = rmspe(data, ref.dense)
    without = rmspe(data, files.dense(with_deltas=False))
    if with_deltas > without:
        violations.append(f"RMSPE with Δ {with_deltas:.6g} > without {without:.6g}")
    rows, cols = files.shape
    raw_bytes = rows * cols * 8
    logical = files.logical_bytes()
    if logical > budget * raw_bytes:
        violations.append(
            f"Eq. 9 size {logical} B exceeds budget {budget} x {raw_bytes} B"
        )
    return {"rmspe": with_deltas, "rmspe_svd_only": without,
            "logical_bytes": logical}, violations
