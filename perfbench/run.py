"""InferTurbo inference benchmark.

Runs one workload (see ``workloads.py``) on local Spark with half the
available CPUs as task slots and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload mag-both --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all             # every workload, as a table
    python3 perfbench/selftest.py              # checks the metric readers

A run starts a Spark session, generates and checkpoints the workload's
graphs and warms up with one pass over every call (together:
``setup_s``). The warm-up pays for Python-worker start and JIT
compilation.

Each task slot feeds a Python worker, so ``local[N]`` keeps about 2N
processes busy. With N = nproc/2 they fit the CPUs, and a pass is no
slower than with N = nproc: the calls are bound by per-job latency, not
by throughput. BLAS and OpenMP pools are held to one thread per process
for the same reason.

* ``--trace 0`` then makes measured passes, at least two, until their
  summed wall time reaches ``--seconds``, and reports each end-to-end
  metric as the median over those passes.
* ``--trace 1`` makes one traced pass and reports its per-layer
  metrics (see ``phases.py``); on mag-both
  it adds a 20-superstep PageRank. A JSON trace with one row per call is
  written under ``perfbench/out/``.

Every call's logits are checked against the dense reference outside the
timed region, and bit for bit against the same call's result in the
warm-up pass; a failed check or an exception counts in ``failed``.
Spark metrics are read from Spark's status stores by job tag, after
each pass.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DRIVER_MEMORY = "1g"
PAGERANK_STEPS = 20
MIN_PASSES = 2

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "mr_wall_s": "s",
    "pregel_wall_s": "s",
    "edges_per_s": "edges/s",
    "slot_s": "s",
    "shuffle_bytes": "bytes",
    "shuffle_records": "count",
    "peak_rss_mb": "MB",
}


def cores() -> int:
    return len(os.sched_getaffinity(0))


def task_slots() -> int:
    """Spark's ``local[N]``: half the CPUs, see the module docstring."""
    return max(1, cores() // 2)


# -- Spark session -------------------------------------------------------------


def start_session(n_cores: int, rundir: Path):
    """A local SparkSession configured like ``jobs/_session.py``, with
    status-store limits raised so no tagged job is evicted, and every
    file it writes kept under ``rundir``."""
    tmp = rundir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # inherited by the JVM and its Python workers
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(rundir / "spark-local")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    # no hsperfdata files under /tmp, from the launcher JVM or the driver
    jvm_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{n_cores}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(jvm_opts)} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{n_cores}]")
        .appName("perfbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", "1000000")
        .config("spark.ui.retainedStages", "1000000")
        .config("spark.sql.ui.retainedExecutions", "1000000")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm() -> None:
    """Stop the session, end the JVM and wait for every child process."""
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    from proctree import reap

    if (spark := SparkSession.getActiveSession()) is not None:
        spark.stop()
    gw = SparkContext._gateway
    if gw is not None:
        proc = getattr(gw, "proc", None)
        gw.shutdown()
        if proc is not None:
            proc.stdin.close()  # the JVM exits at end of its stdin
            proc.wait(timeout=60)
    reap()


def environment(spark, args) -> dict:
    import pyarrow
    import pyspark

    sha = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = r.stdout.strip() or sha
    sc = spark.sparkContext
    return {
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "nproc": cores(),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory", DRIVER_MEMORY),
        "spark": spark.version,
        "pyspark": pyspark.__version__,
        "pyarrow": pyarrow.__version__,
        "python": sys.version.split()[0],
    }


# -- passes ----------------------------------------------------------------------


@contextlib.contextmanager
def job_tag(sc, tag: str):
    """Spark jobs of this thread carry ``tag`` inside the block."""
    sc.addJobTag(tag)
    try:
        yield
    finally:
        sc.removeJobTag(tag)


def run_pass(runner, sc, label: str):
    """One untraced pass; each call's jobs carry ``pb.<label>.c<i>``."""
    tags = [f"pb.{label}.c{i}" for i in range(len(runner.workload.calls))]
    results = [
        runner.execute(call, around=lambda t=tag: job_tag(sc, t))
        for call, tag in zip(runner.workload.calls, tags)
    ]
    return results, tags


def pass_metrics(runner, results, totals, peak_bytes: int) -> dict[str, float]:
    wall = sum(r.wall_s for r in results)
    edge_layers = sum(
        runner.graphs[r.call.graph].n_edges * runner.model_for(r.call).n_layers for r in results
    )
    return {
        "wall_s": wall,
        "mr_wall_s": sum(r.wall_s for r in results if r.call.backend == "mr"),
        "pregel_wall_s": sum(r.wall_s for r in results if r.call.backend == "pregel"),
        "edges_per_s": edge_layers / wall if wall > 0 else 0.0,
        "slot_s": sum(t.slot_s for t in totals.values()),
        "shuffle_bytes": float(sum(t.shuffle_bytes for t in totals.values())),
        "shuffle_records": float(sum(t.shuffle_records for t in totals.values())),
        "peak_rss_mb": peak_bytes / 2**20,
    }


def measure(runner, spark, reader, rss, seconds: float) -> tuple[dict, int]:
    """Untraced passes, at least ``MIN_PASSES``, until their summed wall
    time reaches ``seconds``; returns the median of each metric and the
    number of passes."""
    samples: list[dict[str, float]] = []
    measured = 0.0
    while len(samples) < MIN_PASSES or measured < seconds:
        sql_from = reader.sql_execution_count()
        rss.reset()
        results, tags = run_pass(runner, spark.sparkContext, f"p{len(samples)}")
        peak = rss.peak_bytes
        totals = reader.totals(tags, sql_from=sql_from)
        samples.append(pass_metrics(runner, results, totals, peak))
        measured += samples[-1]["wall_s"]
        calls = {r.call.name: round(r.wall_s, 3) for r in results}
        print(f"perfbench: pass {len(samples)}: {json.dumps(samples[-1])} {calls}", file=sys.stderr)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}, len(samples)


def traced(runner, spark) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus the trace document.

    ``trace_overhead_s`` is the time the traced pass spent in the
    trace's own counting and storage-reading jobs (its ``instr`` spans).
    """
    from sparkstats import StatusReader
    from phases import phase_metrics, superstep_metrics, time_kernels, traced_calls
    from workloads import extra_calls

    reader = StatusReader(spark)
    results, traces, totals = traced_calls(runner, reader, runner.workload.calls)
    metrics, rows = phase_metrics(results, traces, totals)
    metrics["trace_overhead_s"] = sum(c.spans.get("instr", 0.0) for c in traces)
    metrics.update(time_kernels(runner))

    if extra := extra_calls(runner.workload):
        _, extra_rows = phase_metrics(*traced_calls(runner, reader, extra))
        rows += [{**r, "trace_only": True} for r in extra_rows]
    doc: dict = {"calls": rows}

    series = [c.supersteps for c in traces if c.backend == "pregel"]
    if runner.workload.name == "mag-both":
        series, doc["pagerank"] = pagerank_probe(runner, spark, reader)
    metrics.update(superstep_metrics(series))
    return metrics, doc


def pagerank_probe(runner, spark, reader):
    """``pregel.pagerank`` for PAGERANK_STEPS supersteps, traced, and
    checked against a NumPy power iteration."""
    import numpy as np

    from repro.backends.pregel import pagerank
    from phases import PhaseTracer

    key = next(iter(runner.workload.graphs))
    g = runner.graphs[key]
    runner.attempted += 1
    try:
        with PhaseTracer(spark, reader) as tracer, tracer.call("pregel"):
            t0 = time.perf_counter()
            ranks = pagerank(spark, g.nodes, g.edges, iterations=PAGERANK_STEPS)
            wall = time.perf_counter() - t0
        pdf = ranks.toPandas().sort_values("id")
    except Exception as e:  # a failing call is counted, not fatal
        traceback.print_exc()
        runner.failed += 1
        runner.errors.append(f"pagerank: {type(e).__name__}: {e}")
        return [], {"error": str(e)}
    local = runner.local(key)
    r = np.full(local.n, 1.0 / local.n)
    outdeg = np.bincount(local.src, minlength=local.n)
    for _ in range(PAGERANK_STEPS):
        inc = np.zeros(local.n)
        np.add.at(inc, local.dst, (r / np.maximum(outdeg, 1))[local.src])
        r = 0.15 / local.n + 0.85 * inc
    ids = pdf["id"].to_numpy()
    err = float(np.max(np.abs(pdf["rank"].to_numpy() - r[ids]))) if len(ids) == local.n else np.inf
    if not err <= 1e-10:
        runner.failed += 1
        runner.errors.append(f"pagerank: max |rank - reference| = {err:.3g}")
    steps = tracer.calls[0].supersteps
    return [steps], {"wall_s": wall, "supersteps_s": steps, "max_abs_err": err}


# -- entry points ------------------------------------------------------------------


def run_one(args) -> int:
    from proctree import PeakRSS
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    workdir = rundir / "mr"
    workdir.mkdir()
    try:
        with PeakRSS() as rss:
            t0 = time.perf_counter()
            spark = start_session(task_slots(), rundir)
            t_session = time.perf_counter() - t0

            from sparkstats import StatusReader
            from workloads import Runner

            env = environment(spark, args)
            print("perfbench: env " + json.dumps(env), file=sys.stderr)
            runner = Runner(spark, workload, args.seed, workdir)
            t0 = time.perf_counter()
            runner.setup_graphs()
            t_graphs = time.perf_counter() - t0
            warm, _ = run_pass(runner, spark.sparkContext, "w")
            t_warm = sum(r.wall_s for r in warm)
            setup_s = t_session + t_graphs + t_warm
            print(
                f"perfbench: setup {setup_s:.2f} s = session {t_session:.2f} + graphs "
                f"{t_graphs:.2f} + warm-up pass {t_warm:.2f}",
                file=sys.stderr,
            )

            if args.trace:
                from phases import PER_LAYER

                metrics, doc = traced(runner, spark)
                units = PER_LAYER
                doc.update(env=env, per_layer=metrics)
                path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
                path.write_text(json.dumps(doc, indent=1, default=float))
                print(f"perfbench: trace written to {path.relative_to(ROOT)}", file=sys.stderr)
            else:
                metrics, n_passes = measure(
                    runner, spark, StatusReader(spark), rss, args.seconds
                )
                metrics["setup_s"] = setup_s
                units = END_TO_END
                print(f"perfbench: medians over {n_passes} passes", file=sys.stderr)
    finally:
        stop_jvm()
        shutil.rmtree(rundir, ignore_errors=True)
    for e in runner.errors:
        print(f"perfbench: FAILED {e}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints every metric by name
    with its unit, and the share of calls that failed."""
    from workloads import WORKLOADS

    status = 0
    print("| workload | metric | value | unit |\n|---|---|---|---|")
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            *("--workload", name, "--seed", str(args.seed)),
            *("--seconds", str(args.seconds), "--trace", str(args.trace)),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"| {name} | (run failed, exit {proc.returncode}) | | |")
            status = 1
            continue
        res = json.loads(lines[-1])
        for k, v in res["metrics"].items():
            print(f"| {name} | {k} | {v['value']:.6g} | {v['unit']} |")
        print(f"| {name} | failed_frac | {res['failed'] / res['attempted']:.6g} | share |")
        if m := re.search(r"medians over (\d+) passes", proc.stderr):
            print(f"| {name} | samples per median | {m.group(1)} | passes |")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="mag-both")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no source tree at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.all:
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {list(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
