"""The ``fleet`` workload: ``solve_many`` batches of small solve tasks
through a :class:`DistributedExecutor` coordinator (in this process)
and one authenticated ``repro worker`` subprocess.
"""

from __future__ import annotations

import importlib
import subprocess
import time

from .checks import check_same_results, fingerprint
from .common import (
    CheckFailed, Fleet, Layers, SideRuns, check, mean, median, peak_rss_mb,
    repro_argv, tail,
)

SIZES = (8, 10, 12)
ALPHA = 1.5
BATCH = 16
SECRET = "perfbench-fleet-secret"
#: Cold starts per untraced run, spread over the batches:
#: SETUP_STARTS coordinator+worker set-ups, and CLI_STARTS
#: ``repro worker --max-tasks 1`` processes.
SETUP_STARTS = 5
CLI_STARTS = 9
SIDE_OFFSET = 1 << 19
#: A traced run times the solver stages on this many batches again.
SOLVER_BATCHES = 40


def _requests(seed: int, first: int, n: int, *, traced: bool = False):
    from repro.api import InstanceSpec, SolveRequest
    from repro.telemetry import new_trace_id

    out = []
    for index in range(first, first + n):
        request_seed = (seed << 20) + index
        out.append(SolveRequest(
            spec=InstanceSpec(n_operators=SIZES[index % len(SIZES)],
                              alpha=ALPHA, seed=request_seed),
            seed=request_seed,
            trace_id=new_trace_id() if traced else None,
        ))
    return out


def _executor():
    from repro.distributed import DistributedExecutor

    return DistributedExecutor(port=0, secret=SECRET)


def _worker_argv(executor, *extra: str) -> list[str]:
    return repro_argv("worker", "--connect", executor.address,
                      "--secret", SECRET, *extra)


def _first_result(executor, request) -> None:
    from repro.api import solve_many

    check(executor.wait_for_workers(1, timeout=60),
          "the worker never registered")
    [result] = solve_many([request], executor=executor)
    check(getattr(result, "ok", False), f"first fleet task failed: {result}")


def _cli_start(seed: int, index: int) -> float:
    """Wall time of one ``repro worker --max-tasks 1`` process, from
    launch to exit, serving one task from a fresh coordinator."""
    from repro.api import solve_many

    with _executor() as executor, Fleet() as procs:
        t0 = time.perf_counter()
        proc = procs.spawn(_worker_argv(executor, "--max-tasks", "1"),
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
        [result] = solve_many(_requests(seed, index, 1), executor=executor)
        code = proc.wait(timeout=60)
        elapsed = time.perf_counter() - t0
    check(getattr(result, "ok", False) and code == 0,
          f"repro worker --max-tasks 1 exited {code}: {result}")
    return elapsed


def _instrument(layers: Layers) -> None:
    wire = importlib.import_module("repro.api.wire")
    coordinator = importlib.import_module("repro.distributed.coordinator")
    encode_frame, decode_frame = wire.encode_frame, wire.decode_frame

    def sized_encode(*args, **kwargs):
        t0 = time.perf_counter()
        frame = encode_frame(*args, **kwargs)
        layers.add("fabric.encode", time.perf_counter() - t0)
        layers.add("fabric.bytes", len(frame))
        return frame

    def sized_decode(body, *args, **kwargs):
        t0 = time.perf_counter()
        payload = decode_frame(body, *args, **kwargs)
        layers.add("fabric.decode", time.perf_counter() - t0)
        layers.add("fabric.bytes", len(body) + 4)
        return payload

    layers.patch(wire, "encode_frame", sized_encode)
    layers.patch(wire, "decode_frame", sized_decode)
    layers.wrap(coordinator, "encode_task", "fabric.encode")
    layers.wrap(coordinator, "decode_result", "fabric.decode")


def _cold_fleet(seed: int, attempt: int, procs: Fleet):
    """Start a coordinator and a worker (in ``procs``) and wait for the
    first task's result; returns the executor and the time taken."""
    t0 = time.perf_counter()
    executor = _executor()
    try:
        procs.spawn(_worker_argv(executor), stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL)
        _first_result(executor, _requests(
            seed, SIDE_OFFSET + CLI_STARTS + attempt, 1)[0])
    except BaseException:
        executor.close()
        raise
    return executor, time.perf_counter() - t0


def _side_runs(seed: int, seconds: float, first_setup: float) -> SideRuns:
    """The cold starts of an untraced run, spread over its batches:
    further coordinator + worker set-ups beside the measured one, and
    ``repro worker --max-tasks 1`` processes."""
    def setup(index: int) -> float:
        with Fleet() as procs:
            executor, elapsed = _cold_fleet(seed, index + 1, procs)
            executor.close()
        return elapsed

    side = SideRuns(seconds)
    side.times["setup"] = [first_setup]
    side.add("setup", SETUP_STARTS - 1, setup)
    side.add("cli", CLI_STARTS,
             lambda index: _cli_start(seed, SIDE_OFFSET + index))
    return side


def run(seed: int, seconds: float, trace: bool) -> dict:
    """One run; a traced run measures the layers instead of the
    end-to-end metrics, and skips the repeated cold starts."""
    from repro.api import SerialExecutor, solve_many
    from repro.telemetry.trace import TRACE_STORE

    from .serve import instrument_solver, solver_metrics

    procs = Fleet()
    executor = None
    try:
        executor, first_setup = _cold_fleet(seed, 0, procs)
        side = SideRuns(seconds) if trace else _side_runs(
            seed, seconds, first_setup)
        layers = Layers()
        if trace:
            _instrument(layers)
        # fingerprints, not results: holding every result would grow
        # the coordinator's resident memory with the run's throughput
        latencies, results = [], []
        execute_spans = []
        try:
            side.start()
            while side.elapsed() < seconds:
                batch = _requests(seed, len(results) * BATCH, BATCH,
                                  traced=trace)
                t0 = time.perf_counter()
                got = solve_many(batch, executor=executor)
                latencies.append(time.perf_counter() - t0)
                results.append([fingerprint(r) for r in got])
                if trace:
                    execute_spans += [
                        s.duration_s for r in batch
                        for s in TRACE_STORE.get(r.trace_id)
                        if s.name == "worker.execute"
                    ]
                side.tick()
            wall = side.finish()
        finally:
            layers.undo()
        stats = executor.stats()
        rss = peak_rss_mb() + procs.rss_mb()
    finally:
        if executor is not None:
            executor.close()
        procs.stop()

    n_tasks = len(results) * BATCH
    check(stats["completed"] >= n_tasks and stats["poisoned"] == 0,
          f"coordinator counters disagree with the run: {stats}")
    serial = SerialExecutor()
    batches = [_requests(seed, i * BATCH, BATCH)
               for i in range(len(results))]
    t0 = time.perf_counter()
    for batch, got in zip(batches, results):
        check_same_results(got, solve_many(batch, executor=serial), "fleet")
    serial_wall = time.perf_counter() - t0
    if trace:
        instrument_solver(layers)
        try:
            for batch in batches[:SOLVER_BATCHES]:
                solve_many(batch, executor=serial)
        finally:
            layers.undo()

    pct, tail_value = tail(latencies)
    out = {"attempted": n_tasks, "failed": 0,
           "notes": {"batch": BATCH, "p50_ms": 1e3 * median(latencies),
                     f"p{pct:g}_ms": 1e3 * tail_value,
                     "samples": len(latencies),
                     "ops_per_s": n_tasks / wall}}
    if trace:
        if not execute_spans:
            raise CheckFailed("no worker.execute spans came back")
        frames = layers.calls.get("fabric.bytes", 0)
        out["layers"] = {
            "fabric.encode_us": 1e6 * layers.busy["fabric.encode"] / n_tasks,
            "fabric.decode_us": 1e6 * layers.busy["fabric.decode"] / n_tasks,
            "fabric.frame_bytes": layers.busy["fabric.bytes"] / frames,
            "fabric.frames_per_task": frames / n_tasks,
            "worker.execute_ms": 1e3 * median(execute_spans),
            "fabric.task_overhead_ms": 1e3 * (wall - serial_wall) / n_tasks,
            "coord.requeued": stats["requeued"],
            **solver_metrics(layers),
        }
        return out
    out["notes"]["cold_starts_s"] = side.times
    out["metrics"] = {
        "setup_s": median(side.times["setup"]),
        "latency_mean_ms": 1e3 * mean(latencies),
        "ops_per_s": n_tasks / wall,
        "client_start_s": median(side.times["cli"]),
        "peak_rss_mb": rss,
    }
    return out
