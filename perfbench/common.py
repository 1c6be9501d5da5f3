"""Shared plumbing of the benchmark: statistics, child processes, and
the per-layer timing recorder.

Nothing here imports ``repro``: the helpers are usable (and tested)
without the package under test on the path.
"""

from __future__ import annotations

import functools
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Percentiles the tail metric may report, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


class CheckFailed(Exception):
    """A program output failed one of the benchmark's own checks."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def mean(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of no samples")
    return sum(values) / len(values)


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(p, len(ordered)) - 1])


def _rank(p: float, n: int) -> int:
    # the epsilon keeps float noise (99.9 / 100 * 10000 = 9990.000...02)
    # from pushing an exact rank one sample up
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def tail(values, beyond: int = 10) -> tuple[float, float]:
    """The highest percentile of :data:`TAIL_LADDER` that has at least
    ``beyond`` samples strictly above its rank, as ``(percentile,
    value)``.  Falls back to the median when even p90 has too few
    samples beyond it."""
    n = len(values)
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= beyond:
            return p, percentile(values, p)
    return 50.0, median(values)


# ----------------------------------------------------------------------
# per-layer recorder
# ----------------------------------------------------------------------

class Layers:
    """Accumulates busy time and call counts per layer name, and
    installs timing wrappers around a module's public functions."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._undo: list = []

    def add(self, name: str, amount: float) -> None:
        """Count one call of layer ``name`` that took ``amount``
        (seconds, or bytes for the size counters)."""
        self.busy[name] = self.busy.get(name, 0.0) + amount
        self.calls[name] = self.calls.get(name, 0) + 1

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - t0)
        return wrapper

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`undo`."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as layer ``name``."""
        self.patch(owner, attr, self.timed(name, getattr(owner, attr)))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def mean_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e3 * self.busy.get(name, 0.0) / calls if calls else 0.0


# ----------------------------------------------------------------------
# cold starts spread over a timed loop
# ----------------------------------------------------------------------

class SideRuns:
    """Cold-start measurements spread evenly over a timed loop, with the
    loop's clock stopped while each one runs.

    Samples taken back to back all land in one phase of the host's
    speed; spread over the run, their median follows the run as a
    whole.  Call :meth:`start` when the loop starts, :meth:`tick`
    between its operations, :meth:`elapsed` for its own time and
    :meth:`finish` after it."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.plan: list = []  # (due loop time, kind, index, fn)
        self.times: dict[str, list[float]] = {}
        self.paused = 0.0
        self.t_start = time.perf_counter()

    def add(self, kind: str, count: int, fn) -> None:
        """Take ``count`` samples of ``fn(index)``, which returns the
        time it measured, at even spacing over the loop."""
        self.times.setdefault(kind, [])
        for index in range(count):
            due = (index + 0.5) / count * self.seconds
            self.plan.append((due, kind, index, fn))
        self.plan.sort(key=lambda item: item[0])

    def start(self) -> None:
        self.paused = 0.0
        self.t_start = time.perf_counter()

    def elapsed(self) -> float:
        """Loop time so far, side runs excluded."""
        return time.perf_counter() - self.t_start - self.paused

    def tick(self) -> None:
        while self.plan and self.elapsed() >= self.plan[0][0]:
            self._run_next()

    def finish(self) -> float:
        """Take the samples still due; returns the loop's own time."""
        loop_time = self.elapsed()
        while self.plan:
            self._run_next()
        return loop_time

    def _run_next(self) -> None:
        _, kind, index, fn = self.plan.pop(0)
        t0 = time.perf_counter()
        self.times[kind].append(fn(index))
        self.paused += time.perf_counter() - t0


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

def pin_to_one_cpu() -> int:
    """Keep this process and every child it starts on one CPU (the
    highest-numbered one it may use).  A closed-loop client and its
    server then hand over by local context switches instead of
    cross-CPU wake-ups, whose latency on a virtual machine follows the
    host's load."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_TRACE", None)
    return env


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def peak_rss_mb(pid: "int | None" = None) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM in {path}")


class Fleet:
    """The child processes of one workload: started together, always
    stopped and reaped (context manager)."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, env=child_env(), cwd=str(ROOT),
            stdin=subprocess.DEVNULL, **kwargs,
        )
        self.procs.append(proc)
        return proc

    def spawn_serve(self, *args: str) -> subprocess.Popen:
        """Start ``repro serve --port 0 ARGS``; read the port with
        :func:`serve_port`."""
        return self.spawn(
            repro_argv("serve", "--port", "0", *args),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

    def rss_mb(self) -> float:
        return sum(peak_rss_mb(p.pid) for p in self.procs
                   if p.poll() is None)

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self.procs.clear()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_port(proc: subprocess.Popen) -> int:
    """The port ``repro serve`` reports on its banner line."""
    banner = proc.stdout.readline()
    match = re.search(r"http://[\w.\-]+:(\d+)", banner)
    if not match:
        raise CheckFailed(f"repro serve printed no address: {banner!r}")
    return int(match.group(1))


def cold_start_s(argv: list[str]) -> float:
    """Wall time of one child process run to completion; a non-zero
    exit is a failed check."""
    t0 = time.perf_counter()
    done = subprocess.run(
        argv, env=child_env(), cwd=str(ROOT), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - t0
    check(done.returncode == 0,
          f"{' '.join(argv[2:])} exited {done.returncode}:"
          f" {done.stdout[-400:]}")
    return elapsed
