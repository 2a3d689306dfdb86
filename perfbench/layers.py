"""Per-layer metrics of the traced run.

Two sources, both on the workload's own seeded model and queries:

- timing, from these files, of calls into each layer's public
  functions (``QueryEngine.plan``, ``DeltaIndex.select``,
  ``BloomFilter.update``, ``MatrixStore.open``, ``SummaryStore.plan``,
  an HTTP round trip against the same call on ``RobustDispatcher``...);
  a layer's figure is the difference of two medians where the layer is
  the part one call makes on top of the other;
- counters the program already keeps: ``QueryProfile`` phase times and
  page counts, the ``build.passN.seconds`` gauges, buffer-pool stats and
  ``DeltaIndex.stats``.

The registry is enabled only around the probes that read program
counters; every timing probe runs with it off, as the end-to-end runs
do.  ``obs.overhead_ratio`` is the cost of turning it on: the same
query rounds timed with the registry on, divided by off.
"""

from __future__ import annotations

import json
import shutil
import time

import numpy as np

from clients import InProcess, OverHttp, engine_query, selection
from inputs import ZIPF_S, Stream
from workloads import KINDS, note, result, run_ops, seconds_of

from repro.core.store import CompressedMatrix
from repro.core.update import append_columns
from repro.obs.registry import registry
from repro.obs.tracing import span
from repro.query.engine import CellQuery, QueryEngine
from repro.query.fastpath import factor_aggregate
from repro.query.groupby import bucket_series
from repro.query.process_executor import ProcessQueryExecutor
from repro.serve import QueryServer, ServeConfig
from repro.storage.delta_file import DeltaFile
from repro.storage.integrity import load_manifest
from repro.storage.matrix_store import MatrixStore
from repro.structures.bloom import BloomFilter
from repro.summaries.compute import materialize_summaries
from repro.summaries.store import SummaryStore

#: Queries per type in each probe sample.
SAMPLE = 40
#: Calls per timed batch for calls too short to time one by one.
BATCH = 2000


def _ms(fn, *args) -> float:
    return 1e3 * seconds_of(fn, *args)


def median_ms(fn, items) -> float:
    return float(np.median([_ms(fn, item) for item in items]))


def repeat_ms(fn, times: int) -> float:
    return float(np.median([_ms(fn) for _ in range(times)]))


def batch_us(fn, items) -> float:
    began = time.perf_counter_ns()
    for item in items:
        fn(item)
    return (time.perf_counter_ns() - began) / 1e3 / len(items)


def meta_of(model) -> dict:
    return json.loads((model / "meta.json").read_text())


class Samples:
    """Seeded probe queries, separate from the timed stream's."""

    def __init__(self, seed: int, shape, zipf) -> None:
        stream = Stream(seed + 101, shape, zipf=zipf)
        self.ops = {kind: [] for kind in KINDS}
        while min(len(v) for v in self.ops.values()) < SAMPLE:
            for op in stream.round():
                if len(self.ops[op.kind]) < SAMPLE:
                    self.ops[op.kind].append(op)


def serve_layers(model, samples: Samples, metrics: dict) -> None:
    """HTTP round trip against ``RobustDispatcher``, dispatch against the
    executor round trip, and that against an in-process engine on a
    mapped open — interleaved query by query."""
    server = QueryServer(model, ServeConfig(workers=1)).start()
    local = CompressedMatrix.open(model, mapped=True)
    try:
        http = OverHttp(server.config.host, server.port)
        dispatcher = server.dispatcher
        engine = QueryEngine(local)
        for kind in KINDS:
            times = {"http": [], "dispatch": [], "executor": [], "engine": []}
            for op in samples.ops[kind]:
                if kind == "groupby":
                    calls = {
                        "http": lambda: http.run(op),
                        "dispatch": lambda: dispatcher.groupby(op.by, op.fn),
                        "engine": lambda: bucket_series(local, op.by, op.fn),
                    }
                else:
                    query = engine_query(op)
                    calls = {
                        "http": lambda: http.run(op),
                        "dispatch": lambda: dispatcher.dispatch(query),
                        "executor": lambda: dispatcher.executor.submit(query).result(),
                        "engine": lambda: engine.execute(query),
                    }
                for name, call in calls.items():
                    times[name].append(_ms(call))
            med = {name: float(np.median(v)) for name, v in times.items() if v}
            metrics[f"serve.http_ms.{kind}"] = (med["http"] - med["dispatch"], "ms")
            if kind != "groupby":
                metrics[f"serve.dispatch_ms.{kind}"] = (med["dispatch"] - med["executor"], "ms")
                metrics[f"proc.ipc_ms.{kind}"] = (med["executor"] - med["engine"], "ms")
    finally:
        local.close()
        server.stop()
    began = time.perf_counter()
    executor = ProcessQueryExecutor(model, max_workers=1)
    try:
        executor.submit(CellQuery(0, 0)).result()
        metrics["proc.warm_s"] = (time.perf_counter() - began, "s")
    finally:
        executor.shutdown()


def engine_layers(store, samples: Samples, metrics: dict) -> None:
    engine = QueryEngine(store)
    ops = samples.ops
    metrics["engine.cell_ms"] = (median_ms(lambda op: engine.cell((op.r0, op.c0)), ops["cell"]), "ms")
    for kind in ("rect", "dash"):
        queries = [engine_query(op) for op in ops[kind]]
        metrics[f"engine.{kind}_ms"] = (median_ms(engine.aggregate, queries), "ms")
        metrics[f"plan.{kind}_ms"] = (median_ms(engine.plan, queries), "ms")
    metrics["engine.groupby_ms"] = (
        median_ms(lambda op: bucket_series(store, op.by, op.fn), ops["groupby"]), "ms"
    )
    # Planner calibration per executed route.  Rectangles and full-axis
    # queries cover the routes the planner picks; the same rectangles
    # with summaries off and with the fast path off make the factor and
    # stream routes execute on every workload.
    errors: dict[str, list[float]] = {}
    engines = (engine, QueryEngine(store, use_summaries=False),
               QueryEngine(store, use_fast_path=False))
    for probe in engines:
        for op in ops["rect"] + ops["dash"]:
            query = engine_query(op)
            plan = probe.plan(query)
            measured = _ms(probe.aggregate, query)
            errors.setdefault(plan.route.name, []).append(
                abs(np.log(measured / plan.route.cost_ms))
            )
    for route in ("factor", "stream", "summary"):
        metrics[f"plan.log_error.{route}"] = (float(np.median(errors[route])), "ln")
    note(f"planner routes executed: { {r: len(v) for r, v in errors.items()} }")


def path_layers(store, samples: Samples, metrics: dict) -> None:
    """Factor and stream phases per rectangle, from the spans and
    ``QueryProfile`` the program records while the registry is on."""
    rects = samples.ops["rect"]
    registry.enable()
    try:
        phases = {"gather": [], "gemm": [], "delta": []}
        for op in rects:
            rows, cols = selection(op).resolve(store.shape)
            with span("perfbench.factor") as root:
                factor_aggregate(store, rows, cols, op.fn)
            for phase in phases:
                phases[phase].append(root.total_ns(f"query.factor.{phase}") / 1e6)
        for phase, values in phases.items():
            metrics[f"fastpath.{phase}_ms"] = (float(np.median(values)), "ms")
        streamer = QueryEngine(store, use_fast_path=False, use_summaries=False)
        scans = [streamer.aggregate(engine_query(op)).profile.stream_ns / 1e6 for op in rects]
        metrics["stream.scan_ms"] = (float(np.median(scans)), "ms")
    finally:
        registry.disable()


def delta_layers(store, samples: Samples, seed: int, metrics: dict) -> None:
    index = store.delta_index
    rects = [selection(op).resolve(store.shape) for op in samples.ops["rect"]]
    before = index.stats["keys_probed"]
    metrics["delta.select_ms"] = (median_ms(lambda rc: index.select(*rc), rects), "ms")
    metrics["delta.keys_probed"] = (
        (index.stats["keys_probed"] - before) / len(rects), "count"
    )
    rng = np.random.default_rng([seed, 41])
    stored = rng.choice(index.keys, size=BATCH // 2)
    cells = rng.integers(0, store.shape[0] * store.shape[1], size=BATCH // 2)
    probes = [int(k) for k in np.concatenate([stored, cells])]
    metrics["delta.get_us"] = (batch_us(index.get, probes), "us")
    fpr = float(meta_of(store.directory).get("bloom_fpr") or 0.01)
    began = time.perf_counter_ns()
    bloom = BloomFilter(max(1, len(index)), fpr)
    bloom.update(int(key) for key in index.keys)
    metrics["bloom.build_ms"] = ((time.perf_counter_ns() - began) / 1e6, "ms")
    metrics["bloom.probe_us"] = (batch_us(bloom.__contains__, probes), "us")


def storage_layers(model, store, samples: Samples, work, mapped: bool, metrics: dict) -> None:
    opens = 1 if store.shape[0] > 5000 else 3

    def open_close():
        CompressedMatrix.open(model, mapped=mapped).close()

    metrics["store.open_ms"] = (repeat_ms(open_close, opens), "ms")
    metrics["store.cell_us"] = (
        1e3 * median_ms(lambda op: store.cell(op.r0, op.c0), samples.ops["cell"]), "us"
    )
    metrics["storage.manifest_ms"] = (repeat_ms(lambda: load_manifest(model), 5), "ms")
    meta = meta_of(model)
    num_cells = int(meta["rows"]) * int(meta["cols"])
    metrics["storage.delta_read_ms"] = (repeat_ms(
        lambda: DeltaFile.read_arrays(model / "deltas.bin", num_cells=num_cells,
                                      expected_count=int(meta["num_deltas"])), 3), "ms")
    metrics["storage.u_open_ms"] = (
        repeat_ms(lambda: MatrixStore.open(model / "u.mat", pool_capacity=64).close(), 5), "ms"
    )
    index = store.delta_index
    records = list(zip(index.keys.tolist(), index.values.tolist()))
    metrics["storage.delta_write_ms"] = (
        repeat_ms(lambda: DeltaFile.write(work / "deltas.copy", records), 3), "ms"
    )
    # Page accounting on a paged open (the mapped path bypasses the pool).
    paged = CompressedMatrix.open(model)
    registry.enable()
    try:
        engine = QueryEngine(paged)
        pages = {"cell": [], "rect": []}
        hits = total = 0
        for kind in pages:
            for op in samples.ops[kind]:
                query = (op.r0, op.c0) if kind == "cell" else engine_query(op)
                profile = (engine.cell(query) if kind == "cell" else engine.aggregate(query)).profile
                pages[kind].append(profile.pages_read)
                hits += profile.pool_hits
                total += profile.pages_read
        metrics["storage.pool_hit_rate"] = (hits / total, "fraction")
        metrics["storage.pages_per_cell"] = (float(np.mean(pages["cell"])), "pages")
        metrics["storage.pages_per_rect"] = (float(np.mean(pages["rect"])), "pages")
    finally:
        registry.disable()
        paged.close()


def summary_layers(model, store, samples: Samples, work, appender, metrics: dict) -> None:
    metrics["summary.load_ms"] = (repeat_ms(lambda: SummaryStore.load(model), 5), "ms")
    summaries = store.summaries
    dashes = [selection(op).resolve(store.shape) for op in samples.ops["dash"]]
    metrics["summary.plan_ms"] = (median_ms(lambda rc: summaries.plan(*rc), dashes), "ms")
    metrics["summary.bucket_ms"] = (median_ms(
        lambda op: summaries.bucket_values(op.by, op.fn), samples.ops["groupby"]), "ms")
    copies = [work / f"copy{i}" for i in range(3)]
    for copy in copies:
        shutil.copytree(model, copy)
    began = time.perf_counter()
    materialize_summaries(copies[0])
    metrics["summary.rebuild_s"] = (time.perf_counter() - began, "s")
    block = appender.days_block()
    fresh = seconds_of(append_columns, copies[1], block)
    deferred = seconds_of(append_columns, copies[2], block, refresh_summaries=False)
    metrics["summary.refresh_s"] = (fresh - deferred, "s")
    for copy in copies:
        shutil.rmtree(copy)


def overhead(client, stream: Stream, rounds: int, tally, ref) -> float:
    """Registry-on over registry-off time for the same query rounds,
    alternating blocks so a slow spell falls on both."""
    spent = {True: 0, False: 0}
    for block in range(rounds):
        ops = [op for _ in range(2) for op in stream.round()]
        for enabled in ((True, False) if block % 2 else (False, True)):
            (registry.enable if enabled else registry.disable)()
            began = time.perf_counter_ns()
            answers = run_ops(client, ops)
            spent[enabled] += time.perf_counter_ns() - began
            tally.check(ref, answers)
    registry.disable()
    return spent[True] / spent[False]


def measure(*, seed, seconds, work, model, server, store, ref, appender, tally) -> dict:
    """Every per-layer metric of one workload's traced run, on the
    workload's store: the paged one of ``engine-20k-paged``, a mapped
    open of the served model of ``http-2k-mapped``."""
    metrics: dict = {}
    for number in (1, 2, 3):
        value = registry.gauge(f"build.pass{number}.seconds").value
        metrics[f"build.pass{number}_s"] = (value, "s")
    registry.disable()
    zipf = None
    if server is not None:
        server.stop()
        zipf = ZIPF_S
    local = store if store is not None else CompressedMatrix.open(model, mapped=True)
    try:
        client = InProcess(local)
        stream = Stream(seed, ref.shape, zipf=zipf)
        began = time.perf_counter()
        ratios = []
        while time.perf_counter() - began < seconds or len(ratios) < 2:
            ratios.append(overhead(client, stream, 2, tally, ref))
        metrics["obs.overhead_ratio"] = (float(np.median(ratios)), "ratio")

        samples = Samples(seed, local.shape, zipf)
        tally.check(ref, run_ops(client, [op for ops in samples.ops.values() for op in ops]))
        engine_layers(local, samples, metrics)
        path_layers(local, samples, metrics)
        delta_layers(local, samples, seed, metrics)
        storage_layers(model, local, samples, work, store is None, metrics)
        summary_layers(model, local, samples, work, appender, metrics)
    finally:
        if store is None:
            local.close()
    serve_layers(model, samples, metrics)
    return result(tally, metrics)
