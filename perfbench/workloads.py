"""The two workloads, each driven from this one process.

``engine-20k-paged``
    20,000 customers x 366 days, built with ``build_compressed`` and
    opened paged with the default 64-page buffer pool; queries go in
    process through ``QueryEngine`` and ``bucket_series`` with cells
    drawn uniformly.  After the timed phase, days and customers are
    appended in turn, and the model is reopened and re-checked after
    each append.  Per-query work here grows with the model: the delta
    scan, the Bloom filter built at open, the planner pricing every
    selected row on a paged store, and a U file far larger than the
    pool.

``http-2k-mapped``
    2,000 customers x 366 days; days and customers are appended before
    serving, and the appended model is served by ``QueryServer`` over
    loopback with one worker process that maps ``u.mat``.  Cell
    customers are Zipf-skewed toward hot customers.  Here the HTTP and
    IPC layers dominate each request.

Load is a closed loop: one client, one query in flight.  Query types
are interleaved in one seeded stream of whole rounds, each type gets
an untimed warm-up, and every answer is checked against the NumPy-only
reconstruction of the model files (:mod:`reference`).
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from clients import InProcess, OverHttp
from inputs import BASE_DAYS, ROUND, ZIPF_S, Stream, battery, matrix
from reference import ModelFiles, Reference, model_properties

from repro.core.build import build_compressed
from repro.core.store import CompressedMatrix
from repro.core.update import append_columns, append_rows
from repro.query.engine import QueryEngine
from repro.obs.registry import registry

#: Space budget of every model: 10% of the raw float64 bytes.
BUDGET = 0.10
#: Untimed warm-up rounds before the timed phase.
WARMUP_ROUNDS = 3
KINDS = ("cell", "rect", "dash", "groupby")
#: Days and customers added by one append.
ADD_DAYS = 7
ADD_ROWS = 100


@dataclass(frozen=True)
class Spec:
    rows: int
    #: Append rounds; each appends ``ADD_DAYS`` days, then ``ADD_ROWS``
    #: customers.
    rounds: int
    #: Cold builds timed.
    builds: int
    #: Timings of each append (see :class:`Appender`).
    append_samples: int
    http: bool
    zipf: float | None


SPECS = {
    "engine-20k-paged": Spec(rows=20_000, rounds=1, builds=1, append_samples=2,
                             http=False, zipf=None),
    "http-2k-mapped": Spec(rows=2_000, rounds=3, builds=3, append_samples=3,
                           http=True, zipf=ZIPF_S),
}


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Tally:
    """Operations attempted and failed, plus property violations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []

    def check(self, ref: Reference, records) -> None:
        for op, answer in records:
            self.attempted += 1
            if answer is _FAILED or not ref.check(op, answer):
                self.failed += 1
                note(f"failed: {op} -> {answer!r:.200}")

    def violation(self, message: str) -> None:
        self.violations.append(message)
        note(f"violation: {message}")


class _Failed:
    def __repr__(self) -> str:
        return "<raised>"


_FAILED = _Failed()


def attempt(client, op):
    try:
        return client.run(op)
    except Exception as exc:  # an operation that raises is counted failed
        note(f"raised: {op}: {type(exc).__name__}: {exc}")
        return _FAILED


def run_ops(client, ops):
    return [(op, attempt(client, op)) for op in ops]


def check_properties(tally: Tally, ref: Reference, data: Data, answers) -> dict:
    """Method properties of one model state (see :mod:`reference`)."""
    rows, cols = ref.shape
    figures, violations = model_properties(
        ref.files, ref, data.block(rows, 0, cols), BUDGET
    )
    for message in violations:
        tally.violation(message)
    by_fn: dict[tuple, dict] = {}
    for op, answer in answers:
        if answer is _FAILED:
            continue
        if op.kind in ("rect", "dash"):
            by_fn.setdefault((op.kind, op.r0, op.r1, op.c0, op.c1), {})[op.fn] = answer
            if op.fn == "count" and answer != (op.r1 - op.r0) * (op.c1 - op.c0):
                tally.violation(f"count {answer} != |R||C| for {op}")
    for key, values in by_fn.items():
        if {"min", "avg", "max"} <= values.keys() and not (
            values["min"] <= values["avg"] <= values["max"]
        ):
            tally.violation(f"min <= avg <= max fails for {key}: {values}")
    total = next((a for op, a in answers if op.kind == "dash" and op.fn == "sum"
                  and op.r1 - op.r0 == rows and op.c1 - op.c0 == cols), None)
    for op, answer in answers:
        if op.kind == "groupby" and op.fn == "sum" and answer is not _FAILED and total is not None:
            if abs(sum(answer[1]) - total) > 1e-9 * max(abs(total), 1.0):
                tally.violation(f"{op.by} buckets sum to {sum(answer[1])}, total {total}")
    return figures


def verify_state(tally: Tally, client, model: Path, seed: int, data: Data) -> dict:
    """Run the coverage battery against ``client`` and check it and the
    model's properties against a fresh reference."""
    ref = Reference(ModelFiles(model))
    ops = battery(seed, ref.shape, ref.files.keys, ref.files.zero_rows)
    answers = run_ops(client, ops)
    tally.check(ref, answers)
    return check_properties(tally, ref, data, answers)


#: Each type's latencies are cut, in the order they were taken, into
#: spans of at least this many (40 rounds); a quantile is taken within
#: each span, so a p90 has at least 12 samples beyond it.
SPAN_SAMPLES = 120


class Timed:
    """Per-op latencies of the timed phase, by type, in time order."""

    def __init__(self) -> None:
        self.latencies = {kind: [] for kind in KINDS}
        self.records = []

    def run(self, client, stream: Stream, seconds: float) -> None:
        """Whole rounds until ``seconds`` have passed."""
        start = time.perf_counter_ns()
        while True:
            for op in stream.round():
                began = time.perf_counter_ns()
                answer = attempt(client, op)
                self.latencies[op.kind].append((time.perf_counter_ns() - began) / 1e6)
                self.records.append((op, answer))
            if (time.perf_counter_ns() - start) / 1e9 >= seconds:
                break

    def quantile(self, kind: str, q: float) -> float:
        """The lowest of the per-span quantiles.

        Load from outside the benchmark arrives in spells of seconds
        that raise every span they cover (a run's span p90s of the HTTP
        rectangle read 8 to 21 ms); the least disturbed span still
        carries every cost the program itself adds.
        """
        values = self.latencies[kind]
        spans = np.array_split(values, max(1, len(values) // SPAN_SAMPLES))
        return float(min(np.quantile(span, q) for span in spans))

    def samples(self) -> dict:
        return {kind: len(values) for kind, values in self.latencies.items()}


def pss_mb(pids) -> float:
    """Proportional set size of ``pids`` in MB; shared pages count once
    across them.

    Heap the benchmark freed (its data and reference arrays) is handed
    back to the system first, so the figure is the program's memory.
    """
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def child_pids(pid: int) -> list[int]:
    pids = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as handle:
            pids += [int(child) for child in handle.read().split()]
    return pids


class Served:
    """A model served over loopback by ``serve_model.py`` in a process
    of its own: ``QueryServer`` with one worker process that maps
    ``u.mat``."""

    def __init__(self, model: Path) -> None:
        script = Path(__file__).with_name("serve_model.py")
        self.proc = subprocess.Popen(
            [sys.executable, str(script), str(model)], stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError(f"serving {model} failed before it was ready")
        info = json.loads(line)
        self.began = info["began"]
        self.client = OverHttp("127.0.0.1", info["port"])

    def pids(self) -> list[int]:
        return [self.proc.pid] + child_pids(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def dir_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


class Data:
    """The generated matrix, kept on disk and mapped only while a block
    is read, so the process holds none of it when memory is measured."""

    def __init__(self, path: Path, matrix: np.ndarray) -> None:
        np.save(path, matrix)
        self.path = path

    def block(self, rows: int, col_lo: int, col_hi: int, first_row: int = 0) -> np.ndarray:
        mapped = np.load(self.path, mmap_mode="r")
        return np.array(mapped[first_row:rows, col_lo:col_hi])


class Appender:
    """Feeds the model the next block of generated days or customers.

    Each append is first timed ``spec.append_samples - 1`` times on
    throwaway copies of the model, then made for real; the append
    metrics are the lowest of all of these (see :func:`lowest`).
    """

    def __init__(self, spec: Spec, data: Data, model: Path) -> None:
        self.spec, self.data, self.model = spec, data, model
        self.rows, self.cols = spec.rows, BASE_DAYS
        self.days_s: list[float] = []
        self.customers_s: list[float] = []

    def days_block(self) -> np.ndarray:
        return self.data.block(self.rows, self.cols, self.cols + ADD_DAYS)

    def _timed(self, append, block, samples: list[float]) -> None:
        copy = self.model.with_name("append-copy")
        for _ in range(self.spec.append_samples - 1):
            shutil.copytree(self.model, copy)
            samples.append(seconds_of(append, copy, block))
            shutil.rmtree(copy)
        samples.append(seconds_of(append, self.model, block))

    def days(self) -> None:
        self._timed(append_columns, self.days_block(), self.days_s)
        self.cols += ADD_DAYS

    def customers(self) -> None:
        block = self.data.block(self.rows + ADD_ROWS, 0, self.cols,
                                first_row=self.rows)
        self._timed(append_rows, block, self.customers_s)
        self.rows += ADD_ROWS


def seconds_of(fn, *args, **kwargs) -> float:
    began = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - began


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, clock) -> dict:
    """Run workload ``name``; returns the result object to print."""
    spec = SPECS[name]
    if trace:
        registry.enable()
    tally = Tally()
    total_rows = spec.rows + spec.rounds * ADD_ROWS
    # One more block of days than the workload appends: the traced run
    # times one further append on copies of the final model.
    total_days = BASE_DAYS + (spec.rounds + 1) * ADD_DAYS
    data = Data(work / "data.npy", matrix(total_rows, total_days))
    model = work / "model"

    base = data.block(spec.rows, 0, BASE_DAYS)
    builds = []
    for attempt_dir in [model] + [work / f"rebuild{i}" for i in range(spec.builds - 1)]:
        builds.append(seconds_of(lambda: build_compressed(base, attempt_dir, BUDGET).close()))
        if attempt_dir != model:
            shutil.rmtree(attempt_dir)
    del base

    appender = Appender(spec, data, model)
    server = None
    store = None
    opens: list[float] = []

    def serve() -> Served:
        served = Served(model)
        served.client.get("/cell?row=0&col=0")
        opens.append(time.time() - served.began)
        return served

    def open_paged() -> CompressedMatrix:
        began = time.perf_counter()
        opened = CompressedMatrix.open(model)
        QueryEngine(opened).cell((0, 0))
        opens.append(time.perf_counter() - began)
        return opened

    try:
        if spec.http:
            with CompressedMatrix.open(model, mapped=True) as first:
                verify_state(tally, InProcess(first), model, seed, data)
            server = serve()
            verify_state(tally, server.client, model, seed, data)
            server.stop()
            server = None
            for _ in range(spec.rounds):
                for step in (appender.days, appender.customers):
                    step()
                    with CompressedMatrix.open(model, mapped=True) as current:
                        verify_state(tally, InProcess(current), model, seed, data)
            server = serve()
            verify_state(tally, server.client, model, seed, data)
            server.stop()
            server = serve()
            client = server.client
        else:
            store = open_paged()
            client = InProcess(store)
            verify_state(tally, client, model, seed, data)

        ref = Reference(ModelFiles(model))
        stream = Stream(seed, ref.shape, zipf=spec.zipf)
        warm = [op for _ in range(WARMUP_ROUNDS) for op in stream.round()]
        tally.check(ref, run_ops(client, warm))

        if trace:
            import layers  # imported here: layers imports this module

            return layers.measure(
                seed=seed, seconds=seconds, work=work, model=model, server=server,
                store=store, ref=ref, appender=appender, tally=tally,
            )

        setup_s = clock()
        timed = Timed()
        timed.run(client, stream, seconds)
        records = timed.records
        tally.check(ref, records)
        cells = [(op.r0, op.c0) for op, _ in records if op.kind == "cell"]
        note(
            f"{name} seed={seed}: k={ref.files.meta['cutoff']} "
            f"D={ref.files.keys.size} shape={ref.shape} rounds="
            f"{len(records) // len(ROUND)} samples="
            f"{timed.samples()} "
            f"repeated_cells={1 - len(set(cells)) / len(cells):.3f}"
        )
        # Release what the benchmark holds, so the figure is the program's.
        del records, cells
        timed.records = ref = None
        gc.collect()
        mem_mb = pss_mb(server.pids() if server is not None else [os.getpid()])

        figures = {}
        if spec.http:
            server.stop()
            server = None
            rows, cols = appender.rows, appender.cols
            final = Reference(ModelFiles(model))
            figures, violations = model_properties(
                final.files, final, data.block(rows, 0, cols), BUDGET
            )
            for message in violations:
                tally.violation(message)
        else:
            for _ in range(spec.rounds):
                for step in (appender.days, appender.customers):
                    step()
                    store.close()
                    store = open_paged()
                    figures = verify_state(tally, InProcess(store), model, seed, data)
        space_ratio = dir_bytes(model) / (appender.rows * appender.cols * 8)
    finally:
        if server is not None:
            server.stop()
        if store is not None:
            store.close()

    metrics = {
        "setup_s": (setup_s, "s"),
        "build_s": (lowest(builds), "s"),
        "ready_s": (lowest(opens), "s"),
        "cell_p50_ms": (timed.quantile("cell", 0.5), "ms"),
        "cell_p90_ms": (timed.quantile("cell", 0.9), "ms"),
        "rect_p50_ms": (timed.quantile("rect", 0.5), "ms"),
        "rect_p90_ms": (timed.quantile("rect", 0.9), "ms"),
        "dash_p50_ms": (timed.quantile("dash", 0.5), "ms"),
        "dash_p90_ms": (timed.quantile("dash", 0.9), "ms"),
        "groupby_p50_ms": (timed.quantile("groupby", 0.5), "ms"),
        "append_days_s": (lowest(appender.days_s), "s"),
        "append_customers_s": (lowest(appender.customers_s), "s"),
        "mem_mb": (mem_mb, "MB"),
        "space_ratio": (space_ratio, "bytes/byte"),
        "rmspe": (figures["rmspe"], "fraction"),
    }
    return result(tally, metrics)


def lowest(seconds: list[float]) -> float:
    """The least disturbed of a run's repeats of one cost.

    Repeats do the same work; what differs between them is mostly the
    load on the host's disk (appends fsync their files) and CPUs: the
    median of nine 2k appends moved from 0.16 to 0.44 s between runs.
    """
    return float(min(seconds))


def result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": not tally.violations,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def work_dir(root: Path, name: str, seed: int) -> Path:
    path = root / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
