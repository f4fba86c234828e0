"""Host context and process bookkeeping: the same-window capacity probe,
a memory sampler over the driver's process tree, and the wait for every
started process to end."""

from __future__ import annotations

import os
import signal
import sys
import threading
import time


class _Count:
    """Stands in for the probe kernels' result queue."""

    def put(self, n: int) -> None:
        self.n = n


def host_probe(root: str, seconds: float = 0.5) -> dict:
    """Single-process rates of the ``tools/host_capacity.py`` kernels:
    100k-step register loops per second and 64 MB copy passes per
    second. Run outside the timed windows, in the same window as them."""
    sys.path.insert(0, os.path.join(root, "tools"))
    try:
        from host_capacity import cpu_work, mem_work
    finally:
        sys.path.pop(0)
    out = {}
    for name, fn in (("cpu_rate", cpu_work), ("mem_stream_rate", mem_work)):
        c = _Count()
        fn(seconds, c)
        out[name] = c.n / seconds
    return out


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants(pid: int | None = None) -> list[int]:
    """Every live descendant of ``pid`` (default: this process)."""
    kids = _children_map()
    out, todo = [], [pid or os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _pss_kb(pid: int) -> int:
    """Proportional set size: shared pages (the object store) split
    between the processes mapping them, so a sum over processes does not
    count them twice."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class MemorySampler:
    """Peak summed PSS of this process and all its descendants (Ray's
    daemons, workers and actors), sampled on a background thread.

    A sample costs ~30 ms of CPU with Ray's ~15 processes (the kernel
    walks each one's page tables for ``smaps_rollup``), so it is taken
    once a second: more often, the sampler itself slows what it runs
    beside."""

    def __init__(self, interval: float = 1.0):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        me = os.getpid()
        total = sum(_pss_kb(p) for p in [me, *descendants(me)])
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def __enter__(self) -> "MemorySampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def wait_ended(pids: list[int], timeout: float = 20.0) -> None:
    """Wait for ``pids`` to end; kill what is left after ``timeout``."""
    deadline = time.monotonic() + timeout
    left = list(pids)
    while left and time.monotonic() < deadline:
        _reap()
        left = [p for p in left if _alive(p)]
        if left:
            time.sleep(0.1)
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while left and time.monotonic() < deadline:
        _reap()
        left = [p for p in left if _alive(p)]
        if left:
            time.sleep(0.05)
    if left:
        raise RuntimeError(f"processes {left} outlived SIGKILL")
