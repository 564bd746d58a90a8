"""The traced pass: every Spark job attributed to a backend phase.

Each backend call splits into the phases ``pre`` (shadow rewrite,
Parquet or vertex-table build), ``L0``, ``L1`` (one MapReduce round or
one Pregel superstep each) and ``head`` (prediction slice; for Pregel
also the driver round-trip). :class:`PhaseTracer` wraps the entry
points a backend calls at each boundary:

* ``mapreduce.scatter_messages`` -> ``L{k}`` (k-th round of the call)
* ``Pregel.superstep`` -> ``L{step}``
* ``mapreduce.apply_head`` and ``pregel.apply_head`` -> ``head``

On entry the wrapper switches the thread's Spark job tag to the new
phase; the tag stays on until the next entry point, so jobs that a
lazily built plan triggers later still land in the phase that built
it. Counting jobs the trace adds itself (``count_comm``, hub and
partial counts, storage reads) run under a separate ``instr`` tag and
are excluded from the phase figures. Every job Spark starts while a
call runs must carry one of the call's tags, or reading the call's
totals raises.
"""
from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.backends import mapreduce, pregel
from repro.graphs import shadow
from workloads import build_model

PHASES = ("pre", "L0", "L1", "head")
LAYERS = PHASES[1:-1]  # the workloads' models have two GAS layers
PHASE_METRICS = {  # name -> unit
    "wall_s": "s",
    "slot_s": "s",
    "shuffle_bytes": "bytes",
    "shuffle_records": "count",
    "task_skew": "ratio",
    "py_run_s": "s",
    "py_init_s": "s",
    "py_sent_bytes": "bytes",
}
BACKENDS = ("mr", "pregel")
# Always 0, so left out of the printed per-layer metrics (the per-call
# trace rows keep them): no Python UDF runs in ``pre`` (shadow rewrite,
# Parquet writes, vertex build), and no workload's MapReduce ``pre``
# shuffles.
UNREPORTED = {
    *((b, "pre", k) for b in BACKENDS for k in ("py_run_s", "py_init_s", "py_sent_bytes")),
    *(("mr", "pre", k) for k in ("shuffle_bytes", "shuffle_records")),
}


def _per_layer() -> dict[str, str]:
    units = {
        f"{b}.{p}.{k}": u
        for b in BACKENDS
        for p in PHASES
        for k, u in PHASE_METRICS.items()
        if (b, p, k) not in UNREPORTED
    }
    for b in BACKENDS:
        for layer in LAYERS:
            units[f"{b}.{layer}.modeled_msg_bytes"] = "bytes"
            units[f"{b}.{layer}.measured_over_modeled"] = "ratio"
    units.update(
        {
            "gather.combine_ratio": "ratio",
            "mr.io_write_bytes": "bytes",
            "mr.io_read_bytes": "bytes",
            "pregel.resident_bytes": "bytes",
            "pregel.superstep.p50_s": "s",
            "pregel.superstep.last_s": "s",
            "pregel.superstep.growth": "ratio",
            "core.sage.apply_node_s": "s",
            "core.sage.apply_node_flop": "flop",
            "core.gat.apply_node_union_s": "s",
            "core.gat.apply_node_union_flop": "flop",
            "trace_overhead_s": "s",
        }
    )
    return units


PER_LAYER = _per_layer()  # every metric a traced run prints -> its unit


@dataclass
class CallTrace:
    """What the tracer saw of one call."""

    idx: int
    backend: str
    spans: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    supersteps: list[float] = field(default_factory=list)
    jobs: range = range(0)  # ids of the jobs Spark started during the call
    resident_bytes: int = 0
    combine_in: int = 0  # messages scattered, in rounds that shuffle them
    combine_out: int = 0  # rows entering the gather shuffle in those rounds
    shadow_hubs: int = 0
    shadow_extra_edges: int = 0

    def tag(self, phase: str) -> str:
        return f"pb.t{self.idx}.{phase}"


class PhaseTracer:
    """Context manager installing the phase wrappers; :meth:`call`
    brackets one backend call."""

    def __init__(self, spark, reader):
        self._sc = spark.sparkContext
        self._reader = reader
        self.calls: list[CallTrace] = []
        self._cur: CallTrace | None = None
        self._phase: str | None = None
        self._t0 = 0.0
        self._rounds = 0
        self._baseline_rdds: set[int] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- tag switching ------------------------------------------------------
    def _enter(self, phase: str | None) -> None:
        now = time.perf_counter()
        c = self._cur
        if self._phase is not None:
            c.spans[self._phase] += now - self._t0
            self._sc.removeJobTag(c.tag(self._phase))
        self._phase, self._t0 = phase, now
        if phase is not None:
            self._sc.addJobTag(c.tag(phase))

    @contextlib.contextmanager
    def _instrumenting(self):
        back = self._phase
        self._enter("instr")
        try:
            yield
        finally:
            self._enter(back)

    @contextlib.contextmanager
    def call(self, backend: str):
        c = CallTrace(len(self.calls), backend)
        self.calls.append(c)
        self._cur, self._rounds = c, 0
        self._baseline_rdds = self._reader.persisted_rdd_ids()
        first = self._reader.jobs_submitted()
        self._enter("pre")
        try:
            yield c
        finally:
            self._enter(None)
            c.jobs = range(first, self._reader.jobs_submitted())
            self._cur = None

    # -- wrappers -----------------------------------------------------------
    def _patch(self, owner, name: str, make) -> None:
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def __enter__(self) -> "PhaseTracer":
        def scatter(orig):
            def wrapped(*a, **kw):
                self._enter(f"L{self._rounds}")
                self._rounds += 1
                return orig(*a, **kw)

            return wrapped

        def head(orig):
            def wrapped(*a, **kw):
                self._enter("head")
                return orig(*a, **kw)

            return wrapped

        def superstep(orig):
            def wrapped(eng, step, *a, **kw):
                self._enter(f"L{step}")
                t0 = time.perf_counter()
                out = orig(eng, step, *a, **kw)
                self._cur.supersteps.append(time.perf_counter() - t0)
                with self._instrumenting():
                    held = self._reader.resident_bytes(self._baseline_rdds)
                    self._cur.resident_bytes = max(self._cur.resident_bytes, held)
                return out

            return wrapped

        def count_comm(orig):
            def wrapped(msgs, bcast, layer, *, partial_gather):
                with self._instrumenting():
                    rows, floats = orig(msgs, bcast, layer, partial_gather=partial_gather)
                    if bcast is None:  # broadcast rounds shuffle ids, not messages
                        combined = layer.partial and partial_gather
                        self._cur.combine_in += int(msgs.count()) if combined else rows
                        self._cur.combine_out += rows
                return rows, floats

            return wrapped

        def shadow_rewrite(orig):
            def wrapped(nodes, edges, *, threshold):
                out = orig(nodes, edges, threshold=threshold)
                with self._instrumenting():
                    self._cur.shadow_hubs += out[2]
                    self._cur.shadow_extra_edges += out[1].count() - edges.count()
                return out

            return wrapped

        self._patch(mapreduce, "scatter_messages", scatter)
        self._patch(mapreduce, "apply_head", head)
        self._patch(pregel, "apply_head", head)
        self._patch(pregel.Pregel, "superstep", superstep)
        self._patch(mapreduce, "count_comm", count_comm)
        self._patch(pregel, "count_comm", count_comm)
        self._patch(shadow, "apply_shadow_nodes", shadow_rewrite)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    # -- reading ------------------------------------------------------------
    def phase_totals(self, sql_from: int) -> dict[tuple[int, str], object]:
        """Spark totals per (call index, phase); raises if a job Spark
        started during a traced call carries none of the call's tags
        (for example one submitted from another thread)."""
        tags = [c.tag(p) for c in self.calls for p in (*PHASES, "instr")]
        totals = self._reader.totals(tags, sql_from=sql_from, skew=True)
        for c in self.calls:
            phased = set()
            for p in (*PHASES, "instr"):
                phased.update(self._reader.job_ids(c.tag(p)))
            if untagged := sorted(set(c.jobs) - phased):
                raise RuntimeError(f"traced call {c.idx}: jobs {untagged} carry no phase tag")
        return {(c.idx, p): totals[c.tag(p)] for c in self.calls for p in PHASES}


def traced_calls(runner, reader, calls):
    """Runs ``calls`` one after another, each instrumented and inside
    :meth:`PhaseTracer.call`; returns their CallResults, CallTraces and
    Spark totals per (call index, phase)."""
    sql_from = reader.sql_execution_count()
    with PhaseTracer(runner.spark, reader) as tracer:
        results = [
            runner.execute(c, instrument=True, around=lambda b=c.backend: tracer.call(b))
            for c in calls
        ]
    return results, tracer.calls, tracer.phase_totals(sql_from)


def phase_metrics(results, traces, totals) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metrics summed over a traced pass, and one row per call.

    ``results`` are the pass's CallResults (with ``RunStats`` from
    ``instrument=True``), ``traces`` the matching CallTraces. The
    metrics hold every phase metric of :data:`PER_LAYER` and more;
    ``shadow.*`` only if a shadow-node call ran.
    """
    m: dict[str, float] = defaultdict(float)
    measured = defaultdict(float)
    rows = []
    for r, c in zip(results, traces):
        b = r.call.backend
        row = {
            "call": r.call.name,
            "backend": b,
            "model": r.call.model,
            "strategy": r.call.strategy,
            "graph": r.call.graph,
            "wall_s": r.wall_s,
            "error": r.error,
        }
        for p in PHASES:
            t = totals[c.idx, p]
            vals = {k: getattr(t, k) for k in PHASE_METRICS if k != "wall_s"}
            vals["wall_s"] = c.spans.get(p, 0.0)
            for k, v in vals.items():
                row[f"{p}.{k}"] = v
                key = f"{b}.{p}.{k}"
                m[key] = max(m[key], v) if k == "task_skew" else m[key] + v
        row["instr_s"] = c.spans.get("instr", 0.0)
        for rs in r.stats.rounds if r.stats else ():
            layer = f"L{rs.layer}"
            shuffled = totals[c.idx, layer].shuffle_bytes
            m[f"{b}.{layer}.modeled_msg_bytes"] += rs.msg_bytes
            measured[b, layer] += shuffled
            row[f"{layer}.modeled_msg_bytes"] = rs.msg_bytes
            row[f"{layer}.measured_over_modeled"] = shuffled / rs.msg_bytes if rs.msg_bytes else None
        row.update(
            supersteps_s=c.supersteps,
            resident_bytes=c.resident_bytes,
            combine_ratio=c.combine_out / c.combine_in if c.combine_in else None,
            shadow_hubs=c.shadow_hubs,
            shadow_extra_edges=c.shadow_extra_edges,
        )
        rows.append(row)
    for b in BACKENDS:
        for layer in LAYERS:
            modeled = m[f"{b}.{layer}.modeled_msg_bytes"]
            m[f"{b}.{layer}.measured_over_modeled"] = (
                measured[b, layer] / modeled if modeled else 0.0
            )
    c_in = sum(c.combine_in for c in traces)
    m["gather.combine_ratio"] = sum(c.combine_out for c in traces) / c_in if c_in else 0.0
    if any(r.call.strategy == "sn" for r in results):
        m["shadow.hubs"] = float(sum(c.shadow_hubs for c in traces))
        m["shadow.extra_edges"] = float(sum(c.shadow_extra_edges for c in traces))
    mr_totals = [totals[c.idx, p] for c in traces if c.backend == "mr" for p in PHASES]
    m["mr.io_write_bytes"] = float(sum(t.output_bytes for t in mr_totals))
    m["mr.io_read_bytes"] = float(sum(t.input_bytes for t in mr_totals))
    m["pregel.resident_bytes"] = float(max((c.resident_bytes for c in traces), default=0))
    return dict(m), rows


def superstep_metrics(series: list[list[float]]) -> dict[str, float]:
    """p50 over all supersteps, and the median over engine runs of each
    run's last superstep; ``growth`` is their ratio."""
    steps = [s for run in series for s in run]
    p50 = statistics.median(steps) if steps else 0.0
    last = statistics.median(run[-1] for run in series if run) if steps else 0.0
    return {
        "pregel.superstep.p50_s": p50,
        "pregel.superstep.last_s": last,
        "pregel.superstep.growth": last / p50 if p50 else 0.0,
    }


def time_kernels(runner, reps: int = 5) -> dict[str, float]:
    """Median time of the ``core`` kernels called directly on arrays of
    the size of the workload's first graph, with their FLOP counts
    (dense terms only)."""
    spec = next(iter(runner.workload.graphs.values()))
    n, d = spec.n_nodes, spec.feat_dim
    e = int(n * spec.avg_degree)
    rng = np.random.default_rng(runner.seed)
    h = rng.standard_normal((n, d))
    sage = build_model("sage", d, runner.seed).layers[0]
    gat = build_model("gat", d, runner.seed).layers[0]
    aggr = rng.standard_normal((n, d))
    msgs = rng.standard_normal((e, d))
    dst = np.sort(rng.integers(0, n, e))
    out = sage.out_dim

    def med(fn) -> float:
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
        return statistics.median(ts)

    return {
        "core.sage.apply_node_s": med(lambda: sage.apply_node(h, aggr)),
        "core.sage.apply_node_flop": float(2 * 2 * n * d * out),
        "core.gat.apply_node_union_s": med(lambda: gat.apply_node_union(h, msgs, dst)),
        # projection of every message and self row, then scores and
        # the attention-weighted sum
        "core.gat.apply_node_union_flop": float(2 * (e + n) * d * out + 6 * (e + n) * out),
    }
