"""Inputs: the customer-by-day matrix and the seeded query stream.

The matrix is the repository's own stand-in for the paper's
``phone100K`` data, :func:`repro.data.phone.phone_matrix` on its fixed
default seed, so every seed builds the same model; the workload's seed
draws only the query stream.  The program under test receives only the
arrays and queries made here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reference import FUNCTIONS

from repro.data.phone import PhoneConfig, phone_matrix

BASE_DAYS = 366
#: Rectangle shape of the ``rect`` query (customers x days).
RECT_SHAPE = (120, 80)
#: Functions of the timed ``rect`` and ``dash`` queries: one route and
#: one cost class per latency metric (count/min/max price differently
#: in the planner, so they run in the untimed coverage battery only).
TIMED_FUNCTIONS = ("sum", "avg", "stddev")
GROUP_LEVELS = ("day", "week", "month")
#: One round of the timed stream: every query type equally often (the
#: paper gives no query mix), one group-by per level.  Every run
#: attempts whole rounds, so each type's share is the same in every run.
ROUND = ("cell", "rect", "dash", "groupby") * len(GROUP_LEVELS)
#: Zipf exponent of the hot-customer skew of ``http-2k-mapped`` cells,
#: the one the repository's cell-throughput benchmark uses
#: (``benchmarks/bench_query_throughput.py``).
ZIPF_S = 1.3


def matrix(rows: int, days: int) -> np.ndarray:
    """The first ``rows`` customers of the phone data over ``days`` days.

    Rows are prefix-stable, so the customers an append adds are the
    next rows of the same matrix; the appended days are its last
    columns.
    """
    return phone_matrix(rows, PhoneConfig(num_days=days))


@dataclass(frozen=True)
class Op:
    """One query.  ``cell``: customer ``r0``, day ``c0``.  ``rect``:
    ``[r0, r1) x [c0, c1)``.  ``dash``: a full-axis aggregate, all
    customers over days ``[c0, c1)`` (``axis="days"``) or customers
    ``[r0, r1)`` over all days.  ``groupby``: the ``by`` series."""

    kind: str
    fn: str = ""
    r0: int = 0
    r1: int = 0
    c0: int = 0
    c1: int = 0
    axis: str = ""
    by: str = ""


class Stream:
    """The seeded stream of timed rounds for one model shape.

    ``zipf`` skews cell customers toward a seeded set of hot customers
    (rank ``i`` drawn with probability proportional to ``i ** -zipf``);
    without it cells are uniform.
    """

    def __init__(self, seed: int, shape: tuple[int, int], zipf: float | None = None):
        self.rng = np.random.default_rng([seed, 23])
        self.shape = shape
        rows = shape[0]
        self._hot = None
        if zipf is not None:
            weights = 1.0 / np.arange(1, rows + 1) ** zipf
            self._cdf = np.cumsum(weights / weights.sum())
            self._hot = self.rng.permutation(rows)

    def _row(self) -> int:
        if self._hot is None:
            return int(self.rng.integers(0, self.shape[0]))
        rank = int(np.searchsorted(self._cdf, self.rng.uniform()))
        return int(self._hot[min(rank, self.shape[0] - 1)])

    def op(self, kind: str, by: str = "") -> Op:
        rng = self.rng
        rows, cols = self.shape
        if kind == "cell":
            return Op("cell", r0=self._row(), c0=int(rng.integers(0, cols)))
        if kind == "rect":
            height, width = RECT_SHAPE
            r0 = int(rng.integers(0, rows - height + 1))
            c0 = int(rng.integers(0, cols - width + 1))
            return Op("rect", str(rng.choice(TIMED_FUNCTIONS)), r0, r0 + height, c0, c0 + width)
        if kind == "dash":
            span = int(rng.integers(7, 92))
            c0 = int(rng.integers(0, cols - span + 1))
            return Op("dash", str(rng.choice(TIMED_FUNCTIONS)), 0, rows, c0, c0 + span, "days")
        return Op("groupby", str(rng.choice(FUNCTIONS)), by=by)

    def round(self) -> list[Op]:
        levels = iter(GROUP_LEVELS)
        ops = [self.op(kind, next(levels) if kind == "groupby" else "") for kind in ROUND]
        order = self.rng.permutation(len(ops))
        return [ops[i] for i in order]


def battery(seed: int, shape: tuple[int, int], delta_keys: np.ndarray,
            zero_rows: np.ndarray) -> list[Op]:
    """The untimed coverage battery for one model state.

    Every function on rectangles and on both full-axis shapes, every
    group-by level with every function, cells with and without stored
    deltas and on zero rows, and the full-matrix total.  Its size is
    fixed, so it adds the same number of operations to every run.
    """
    rng = np.random.default_rng([seed, 31, shape[0], shape[1]])
    rows, cols = shape
    stream = Stream(seed + 7919, shape)
    ops = [stream.op("cell") for _ in range(8)]
    picks = rng.choice(delta_keys, size=8, replace=False)
    ops += [Op("cell", r0=int(k // cols), c0=int(k % cols)) for k in picks]
    ops += [Op("cell", r0=int(r), c0=int(rng.integers(0, cols)))
            for r in rng.choice(zero_rows, size=min(4, zero_rows.size), replace=False)]
    height, width = RECT_SHAPE
    for _ in range(2):
        r0 = int(rng.integers(0, rows - height + 1))
        c0 = int(rng.integers(0, cols - width + 1))
        ops += [Op("rect", fn, r0, r0 + height, c0, c0 + width) for fn in FUNCTIONS]
        span = int(rng.integers(7, 92))
        d0 = int(rng.integers(0, cols - span + 1))
        ops += [Op("dash", fn, 0, rows, d0, d0 + span, "days") for fn in FUNCTIONS]
        size = int(rng.integers(rows // 10, rows // 2))
        s0 = int(rng.integers(0, rows - size + 1))
        ops += [Op("dash", fn, s0, s0 + size, 0, cols, "customers") for fn in FUNCTIONS]
    ops += [Op("groupby", fn, by=by) for by in GROUP_LEVELS for fn in FUNCTIONS]
    ops.append(Op("dash", "sum", 0, rows, 0, cols, "days"))
    return ops
