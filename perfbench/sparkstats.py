"""Spark's own status stores, read per job tag.

Every number here comes from the JVM-side stores that back the Spark
UI (they are populated with ``spark.ui.enabled=false`` too):

* the core ``AppStatusStore``: jobs, stages, task-time quantiles;
* the SQL ``SQLAppStatusStore``: per-operator SQL metrics, among them
  the Python-worker metrics of ``applyInPandas`` operators.

Metrics are attributed to a tag through the jobs that carried it. A
stage shared by several jobs (a reused shuffle shows up as "skipped" in
the later jobs) is counted once, for the earliest job. Whole-store totals
are never differenced, and a tagged job or stage missing from the store
(evicted by the ``spark.ui.retained*`` limits) raises instead of being
read as zero.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields

PY_METRICS = {
    "time to run Python workers": "py_run_s",
    "time to initialize Python workers": "py_init_s",
    "data sent to Python workers": "py_sent_bytes",
}

# SQLMetrics.stringValue renders sizes with Utils.bytesToString and
# times with Utils.msDurationToString.
_UNITS = {
    "B": 1.0,
    "KiB": 2.0**10,
    "MiB": 2.0**20,
    "GiB": 2.0**30,
    "TiB": 2.0**40,
    "ms": 1e-3,
    "s": 1.0,
    "m": 60.0,
    "h": 3600.0,
}
_VALUE = re.compile(r"^\s*(-?[0-9][0-9.,]*)\s*([A-Za-z]+)")


class StoreEvicted(RuntimeError):
    """A tagged job, stage or SQL execution is no longer in the store."""


@dataclass
class Totals:
    """Metrics of all stages attributed to one tag."""

    slot_s: float = 0.0  # sum of task executorRunTime
    shuffle_bytes: int = 0  # shuffle write
    shuffle_records: int = 0
    input_bytes: int = 0  # read from files (Parquet)
    output_bytes: int = 0  # written to files
    task_skew: float = 0.0  # max/median task time of the largest stage
    py_run_s: float = 0.0
    py_init_s: float = 0.0
    py_sent_bytes: float = 0.0
    jobs: int = 0

    def add(self, other: "Totals") -> None:
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            setattr(self, f.name, max(a, b) if f.name == "task_skew" else a + b)


def parse_sql_metric(text: str) -> float:
    """Value of a formatted SQL metric in bytes or seconds.

    A metric updated by one task reads ``"1.8 s"``; one updated by
    several reads ``"total (min, med, max ...)\\n1.8 s (...)"``.
    """
    line = text.strip().splitlines()[-1]
    m = _VALUE.match(line)
    if m is None or m.group(2) not in _UNITS:
        raise ValueError(f"unparseable SQL metric value {text!r}")
    return float(m.group(1).replace(",", "")) * _UNITS[m.group(2)]


def _seq(jseq) -> list:
    return [jseq.apply(i) for i in range(jseq.size())]


class StatusReader:
    """Reads the status stores of one SparkSession through Py4J."""

    def __init__(self, spark):
        self._sc = spark.sparkContext
        self._jsc = self._sc._jsc.sc()
        self._store = self._jsc.statusStore()
        self._sql = spark._jsparkSession.sharedState().statusStore()

    def drain(self) -> None:
        """Wait until the listener bus has delivered every event."""
        self._jsc.listenerBus().waitUntilEmpty()

    def sql_execution_count(self) -> int:
        return int(self._sql.executionsCount())

    def jobs_submitted(self) -> int:
        """Jobs submitted so far in this SparkContext; job ids count up
        from 0, so this is also the id the next job will get."""
        return int(self._jsc.dagScheduler().numTotalJobs())

    def job_ids(self, tag: str) -> list[int]:
        return sorted(int(j) for j in self._jsc.statusTracker().getJobIdsForTag(tag))

    def _job(self, job_id: int):
        try:
            return self._store.job(job_id)
        except Exception as e:  # Py4JJavaError wrapping NoSuchElementException
            raise StoreEvicted(f"job {job_id} is not in the status store") from e

    def _check_jobs_retained(self) -> None:
        jobs = self._store.jobsList(None)
        n = jobs.size()
        top = max((jobs.apply(i).jobId() for i in range(n)), default=-1)
        if n != top + 1:
            raise StoreEvicted(
                f"status store holds {n} of {top + 1} jobs; raise spark.ui.retainedJobs"
            )

    def _stage_totals(self, stage_id: int) -> tuple[Totals, float]:
        try:
            sd = self._store.lastStageAttempt(stage_id)
        except Exception as e:
            raise StoreEvicted(f"stage {stage_id} is not in the status store") from e
        t = Totals()
        if str(sd.status()) != "COMPLETE":
            return t, 0.0
        t.slot_s = sd.executorRunTime() / 1e3
        t.shuffle_bytes = int(sd.shuffleWriteBytes())
        t.shuffle_records = int(sd.shuffleWriteRecords())
        t.input_bytes = int(sd.inputBytes())
        t.output_bytes = int(sd.outputBytes())
        return t, t.slot_s

    def _task_skew(self, stage_id: int) -> float:
        sd = self._store.lastStageAttempt(stage_id)
        q = self._sc._gateway.new_array(self._sc._jvm.double, 2)
        q[0], q[1] = 0.5, 1.0
        summary = self._store.taskSummary(sd.stageId(), sd.attemptId(), q)
        if not summary.isDefined():
            raise StoreEvicted(f"task metrics of stage {stage_id} are not in the store")
        run = summary.get().executorRunTime()
        med, top = float(run.apply(0)), float(run.apply(1))
        return top / max(med, 1.0)

    def _python_metrics(self, sql_from: int, job_tag: dict[int, str]) -> dict[str, Totals]:
        out: dict[str, Totals] = {}
        n = self.sql_execution_count() - sql_from
        if n <= 0:
            return out
        executions = _seq(self._sql.executionsList(sql_from, n))
        if len(executions) != n:
            raise StoreEvicted(
                f"SQL store holds {len(executions)} of {n} executions; "
                "raise spark.sql.ui.retainedExecutions"
            )
        for ex in executions:
            ours = [j for j in (int(x) for x in _seq(ex.jobs().keys().toSeq())) if j in job_tag]
            if not ours:
                continue
            tag = job_tag[min(ours)]
            values = self._sql.executionMetrics(ex.executionId())
            seen: set[int] = set()
            t = out.setdefault(tag, Totals())
            for m in _seq(ex.metrics()):
                name, acc = str(m.name()), int(m.accumulatorId())
                if name not in PY_METRICS or acc in seen:
                    continue
                seen.add(acc)
                v = values.get(acc)
                if v.isDefined():
                    attr = PY_METRICS[name]
                    setattr(t, attr, getattr(t, attr) + parse_sql_metric(str(v.get())))
        return out

    def totals(self, tags: list[str], *, sql_from: int, skew: bool = False) -> dict[str, Totals]:
        """Totals per tag. ``sql_from`` is :meth:`sql_execution_count`
        taken before the tagged jobs ran; ``skew`` adds ``task_skew``."""
        self.drain()
        self._check_jobs_retained()
        job_tag: dict[int, str] = {}
        for tag in tags:
            for j in self.job_ids(tag):
                if j in job_tag:
                    raise ValueError(f"job {j} carries two of the tags read together")
                job_tag[j] = tag
        out = {tag: Totals() for tag in tags}
        claimed: set[int] = set()
        largest: dict[str, tuple[float, int]] = {}
        for j in sorted(job_tag):
            tag = job_tag[j]
            out[tag].jobs += 1
            for s in sorted(int(x) for x in _seq(self._job(j).stageIds())):
                if s in claimed:
                    continue
                claimed.add(s)
                t, run = self._stage_totals(s)
                out[tag].add(t)
                if run > largest.get(tag, (-1.0, -1))[0]:
                    largest[tag] = (run, s)
        if skew:
            for tag, (_, s) in largest.items():
                out[tag].task_skew = self._task_skew(s)
        for tag, py in self._python_metrics(sql_from, job_tag).items():
            for attr in PY_METRICS.values():
                setattr(out[tag], attr, getattr(out[tag], attr) + getattr(py, attr))
        return out

    def resident_bytes(self, exclude: set[int]) -> int:
        """Memory and disk held by persisted RDD blocks, other than the
        RDD ids in ``exclude``."""
        return sum(
            int(i.memSize()) + int(i.diskSize())
            for i in self._jsc.getRDDStorageInfo()
            if int(i.id()) not in exclude
        )

    def persisted_rdd_ids(self) -> set[int]:
        return {int(i.id()) for i in self._jsc.getRDDStorageInfo()}
