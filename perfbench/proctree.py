"""The benchmark's process tree, read from ``/proc``.

A local-mode Spark application is three kinds of process: this Python
driver, the JVM it launched, and the Python workers the JVM forks. Peak
memory is the peak of their summed resident memory, sampled by a
background thread. Each process counts its proportional set size (PSS):
pages that forked workers share are split among them rather than
counted once per worker, so the sum is the memory the tree holds.
"""
from __future__ import annotations

import os
import signal
import threading
import time


def _parents() -> dict[int, int]:
    out: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:  # exited while listing
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parens
        out[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def descendants(root: int) -> list[int]:
    """Every live process below ``root`` (not ``root`` itself)."""
    children: dict[int, list[int]] = {}
    for pid, ppid in _parents().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _pss(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):  # exited, or no smaps
        pass
    return 0


def tree_rss(root: int) -> int:
    """Summed proportional resident bytes of ``root`` and its descendants."""
    return sum(_pss(p) for p in [root, *descendants(root)])


class PeakRSS:
    """Samples :func:`tree_rss` of this process every ``interval`` s.

    ``reset()`` starts a new window; ``peak_bytes`` is the largest sum
    seen since then.
    """

    def __init__(self, interval: float = 0.1):
        self._interval = interval
        self._root = os.getpid()
        self._lock = threading.Lock()
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="peak-rss", daemon=True)

    def __enter__(self) -> "PeakRSS":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            rss = tree_rss(self._root)
            with self._lock:
                self._peak = max(self._peak, rss)

    def reset(self) -> None:
        with self._lock:
            self._peak = tree_rss(self._root)

    @property
    def peak_bytes(self) -> int:
        with self._lock:
            return max(self._peak, tree_rss(self._root))


def reap(timeout: float = 30.0) -> None:
    """Wait for every descendant of this process to exit; kill what
    is left after ``timeout`` seconds."""
    me = os.getpid()
    deadline = time.monotonic() + timeout
    while (left := descendants(me)) and time.monotonic() < deadline:
        time.sleep(0.2)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while left and descendants(me) and time.monotonic() < deadline + 5:
        time.sleep(0.1)
