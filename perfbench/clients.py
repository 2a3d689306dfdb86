"""The two ways the benchmark asks the program a query.

:class:`InProcess` calls ``QueryEngine`` and ``bucket_series`` on an
open store; :class:`OverHttp` sends the same query to a running
``QueryServer``.  Both return plain answers — a float, or the
``(edges, values)`` of a group-by series — so one checker serves both.
"""

from __future__ import annotations

import http.client
import json

from repro.query.engine import AggregateQuery, CellQuery, QueryEngine
from repro.query.groupby import bucket_series
from repro.query.selection import Selection


def selection(op) -> Selection:
    if op.kind == "rect":
        return Selection(rows=range(op.r0, op.r1), cols=range(op.c0, op.c1))
    if op.axis == "days":
        return Selection(cols=range(op.c0, op.c1))
    return Selection(rows=range(op.r0, op.r1))


def engine_query(op):
    """The engine query object of a cell, rect or dash op."""
    if op.kind == "cell":
        return CellQuery(op.r0, op.c0)
    return AggregateQuery(op.fn, selection(op))


class InProcess:
    """Answers ops through the engine of one open ``CompressedMatrix``."""

    def __init__(self, store) -> None:
        self.store = store
        self.engine = QueryEngine(store)

    def run(self, op):
        if op.kind == "groupby":
            series = bucket_series(self.store, op.by, op.fn)
            return series["edges"], series["values"]
        if op.kind == "cell":
            return self.engine.cell((op.r0, op.c0)).value
        return self.engine.aggregate(engine_query(op)).value


def http_path(op) -> str:
    if op.kind == "cell":
        return f"/cell?row={op.r0}&col={op.c0}"
    if op.kind == "groupby":
        return f"/groupby?by={op.by}&fn={op.fn}"
    if op.kind == "rect":
        return f"/aggregate?fn={op.fn}&rows={op.r0}:{op.r1}&cols={op.c0}:{op.c1}"
    if op.axis == "days":
        return f"/aggregate?fn={op.fn}&cols={op.c0}:{op.c1}"
    return f"/aggregate?fn={op.fn}&rows={op.r0}:{op.r1}"


class OverHttp:
    """Answers ops with one loopback GET each (the server closes every
    connection after its reply)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status} {body[:200]!r}")
        return json.loads(body)

    def run(self, op):
        payload = self.get(http_path(op))
        if op.kind == "groupby":
            return payload["edges"], payload["values"]
        return payload["value"]
