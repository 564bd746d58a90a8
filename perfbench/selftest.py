"""Self-test of the benchmark's readers and checks, on a tiny graph.

    python3 perfbench/selftest.py

Checks that every metric reader returns nonzero values, that every
Spark job of a traced call carries a phase tag and that an untagged one
raises, that the correctness check catches a logit perturbed by 1e-6,
that a job missing from the status store raises, and that the metrics
the benchmark prints are those ``BENCHMARK.json`` lists. Exits 0 when
all hold.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
import threading
import traceback

import run


class Expect:
    """Prints each check and keeps the failed ones."""

    def __init__(self):
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        print(f"selftest: {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failures.append(what)


def check_parsing(expect: Expect) -> None:
    from sparkstats import parse_sql_metric

    expect(parse_sql_metric("1.8 s") == 1.8, "parse '1.8 s'")
    expect(parse_sql_metric("806 ms") == 0.806, "parse '806 ms'")
    expect(
        parse_sql_metric("total (min, med, max (stageId: taskId))\n2.0 MiB (1.0 KiB, ...)")
        == 2.0 * 2**20,
        "parse a multi-task size metric",
    )


def check_logit_check(expect: Expect, runner, call) -> None:
    import numpy as np

    from workloads import check_logits

    ref = runner.reference(call)
    ids = np.arange(len(ref))
    expect(check_logits(ids, ref.copy(), ref) is None, "reference logits pass the check")
    bad = ref.copy()
    bad[len(bad) // 2, 1] += 1e-6
    expect(check_logits(ids, bad, ref) is not None, "a logit perturbed by 1e-6 fails the check")
    expect(check_logits(ids[:-1], ref[:-1], ref) is not None, "a missing row fails the check")


def check_declared(expect: Expect) -> None:
    from phases import PER_LAYER

    path = run.ROOT / "BENCHMARK.json"
    bench = json.loads(path.read_text())
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        expect(declared == printed, f"{key} metrics and units match {path.name}")


def check_untagged_job(expect: Expect, spark, reader) -> None:
    """A job started inside a traced call from another thread carries
    none of the call's tags; reading the call's totals must raise."""
    from phases import PhaseTracer

    sc = spark.sparkContext
    sql_from = reader.sql_execution_count()
    with PhaseTracer(spark, reader) as tracer, tracer.call("mr"):
        sc.parallelize(range(8), 2).count()
        t = threading.Thread(target=lambda: sc.parallelize(range(8), 2).count())
        t.start()
        t.join()
    try:
        tracer.phase_totals(sql_from)
        expect(False, "a job without a phase tag inside a traced call raises")
    except RuntimeError:
        expect(True, "a job without a phase tag inside a traced call raises")


def main() -> int:
    if not (run.SRC / "repro").is_dir():
        print(f"selftest: no source tree at {run.SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from phases import PHASES, phase_metrics, traced_calls
    from proctree import PeakRSS
    from sparkstats import StatusReader, StoreEvicted
    from workloads import Call, GraphSpec, Runner, Workload

    expect = Expect()
    check_parsing(expect)
    check_declared(expect)
    tiny = Workload(
        "tiny",
        {"g": GraphSpec(300, 6, "both", 1.2, 8)},
        (
            Call("mr", "sage", "pg", "g"),
            Call("mr", "gat", "bc", "g"),
            Call("pregel", "sage", "sn", "g"),
            Call("pregel", "gat", "none", "g"),
        ),
    )
    run.OUT.mkdir(exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        with PeakRSS() as rss:
            spark = run.start_session(run.task_slots(), run.Path(rundir))
            reader = StatusReader(spark)
            runner = Runner(spark, tiny, 7, run.Path(rundir))
            runner.setup_graphs()

            sql_from = reader.sql_execution_count()
            rss.reset()
            results, tags = run.run_pass(runner, spark.sparkContext, "s")
            expect(rss.peak_bytes > 0, "peak memory of the process tree")
            totals = reader.totals(tags, sql_from=sql_from, skew=True)
            for tag, r in zip(tags, results):
                t = totals[tag]
                name = r.call.name
                expect(r.error is None, f"{name}: result matches the reference")
                expect(t.jobs > 0 and t.slot_s > 0, f"{name}: jobs and executor time")
                expect(t.shuffle_bytes > 0 and t.shuffle_records > 0, f"{name}: shuffle writes")
                expect(t.task_skew >= 1, f"{name}: task skew")
                expect(
                    t.py_run_s > 0 and t.py_init_s > 0 and t.py_sent_bytes > 0,
                    f"{name}: Python worker SQL metrics",
                )
            m = run.pass_metrics(runner, results, totals, rss.peak_bytes)
            expect(all(v > 0 for v in m.values()), "every end-to-end pass metric is nonzero")

            try:
                traced, traces, phase_totals = traced_calls(runner, reader, tiny.calls)
                expect(True, "every job of a traced call carries a phase tag")
            except RuntimeError as e:
                expect(False, f"every job of a traced call carries a phase tag ({e})")
                raise
            for c, r in zip(traces, traced):
                for p in PHASES:
                    expect(phase_totals[c.idx, p].jobs > 0, f"{r.call.name}: phase {p} ran jobs")
            check_untagged_job(expect, spark, reader)
            layer, rows = phase_metrics(traced, traces, phase_totals)
            for key in (
                "mr.io_write_bytes",
                "mr.io_read_bytes",
                "pregel.resident_bytes",
                "shadow.hubs",
                "shadow.extra_edges",
                "gather.combine_ratio",
                "mr.L0.modeled_msg_bytes",
                "pregel.L1.measured_over_modeled",
                "mr.L1.py_run_s",
                "pregel.head.wall_s",
            ):
                expect(layer[key] > 0, f"per-layer {key} = {layer[key]:.4g}")
            expect(len(rows) == len(tiny.calls), "one trace row per call")

            check_logit_check(expect, runner, tiny.calls[0])
            try:
                reader.totals(["pb.none"], sql_from=0)
                reader._job(10**9)
                expect(False, "a job missing from the status store raises")
            except StoreEvicted:
                expect(True, "a job missing from the status store raises")
            expect(runner.failed == 0, f"no failed calls ({runner.errors})")
    except Exception:
        traceback.print_exc()
        expect.failures.append("exception")
    finally:
        run.stop_jvm()
        shutil.rmtree(rundir, ignore_errors=True)
    failed = expect.failures
    print(f"selftest: {f'FAILED {len(failed)}' if failed else 'all checks passed'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
