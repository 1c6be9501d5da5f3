"""The ``serve`` and ``serve-routed`` workloads: one closed-loop client
sends synchronous ``/v1/submit`` solves to ``repro serve`` over HTTP,
directly or through a shard router in front of two shard processes.
"""

from __future__ import annotations

import gc
import http.client
import json
import time

from .checks import check_solve_response
from .common import (
    CheckFailed, Fleet, Layers, SideRuns, check, cold_start_s, mean, median,
    repro_argv, serve_port, tail,
)

TENANTS = ("t0", "t1", "t2")
#: serve-routed pins the tenants so both shards carry traffic whatever
#: ports the shards bind (rendezvous hashing is keyed on the address).
SHARD_MAP = "t0=0,t1=1,t2=0"
SIZES = (12, 18, 24)
ALPHA = 1.5
#: The timed stream takes seeds below this offset, warm-up and CLI
#: requests above it, so the timed stream never hits the result cache.
SIDE_OFFSET = 1 << 19
#: Cold starts per untraced run, spread over the stream.
SETUP_STARTS = 5
CLI_STARTS = 9
#: serve-routed scrapes /stats or /metrics after every this many
#: requests, alternating.
SCRAPE_EVERY = 25
#: The traced run fetches the trace of every TRACE_EVERY-th request,
#: TRACE_LAG requests later (a shard writes its spans only after the
#: router has answered; the trace store keeps the last 256 traces).
TRACE_EVERY = 10
TRACE_LAG = 3


def _request(seed: int, index: int, *, traced: bool):
    from repro.api import InstanceSpec, SolveRequest
    from repro.telemetry import new_trace_id

    request_seed = (seed << 20) + index
    return SolveRequest(
        spec=InstanceSpec(n_operators=SIZES[index % len(SIZES)],
                          alpha=ALPHA, seed=request_seed),
        seed=request_seed,
        trace_id=new_trace_id() if traced else None,
    )


def _tenant(index: int) -> str:
    # every tenant sends every instance size
    return TENANTS[(index // len(SIZES)) % len(TENANTS)]


def _deploy(procs: Fleet, routed: bool) -> int:
    """Start a single ``repro serve``, or a router over two shard
    processes; returns the port clients talk to."""
    if not routed:
        return serve_port(procs.spawn_serve())
    shards = [procs.spawn_serve() for _ in range(2)]  # boot concurrently
    args = []
    for proc in shards:
        args += ["--shard", f"127.0.0.1:{serve_port(proc)}"]
    return serve_port(procs.spawn_serve(*args, "--shard-map", SHARD_MAP))


def _client(port: int):
    from repro.service import HttpServiceClient

    return HttpServiceClient(f"http://127.0.0.1:{port}", timeout=60.0)


def _first_accepted(client, request, tenant: str) -> None:
    """Retry until the deployment accepts its first submit (a router
    answers before its shards can)."""
    from repro.service import ServiceError

    deadline = time.monotonic() + 60.0
    while True:
        try:
            check(client.submit(request, tenant=tenant)["result"]["ok"],
                  "warm-up solve failed")
            return
        except (ServiceError, OSError):
            if time.monotonic() > deadline:
                raise CheckFailed("service never accepted a request")
            time.sleep(0.01)


def _cold_deploy(seed: int, routed: bool, attempt: int
                 ) -> tuple[Fleet, int, float]:
    """Start a deployment and wait for its first accepted submit;
    returns its processes, its port and the time that took."""
    procs = Fleet()
    t0 = time.perf_counter()
    try:
        port = _deploy(procs, routed)
        _first_accepted(
            _client(port),
            _request(seed, SIDE_OFFSET + attempt, traced=False),
            TENANTS[attempt % len(TENANTS)],
        )
    except BaseException:
        procs.stop()
        raise
    return procs, port, time.perf_counter() - t0


def _side_runs(seed: int, seconds: float, routed: bool, port: int,
               first_setup: float) -> SideRuns:
    """The cold starts of an untraced run, spread over its stream:
    further deployments started beside the measured one (idle while
    they boot), and ``repro submit`` calls against it."""
    def setup(index: int) -> float:
        procs, _, elapsed = _cold_deploy(seed, routed, index + 1)
        procs.stop()
        return elapsed

    def cli(index: int) -> float:
        return cold_start_s(repro_argv(
            "submit", "--url", f"http://127.0.0.1:{port}",
            "--tenant", TENANTS[index % len(TENANTS)], "-n", "12",
            "-a", str(ALPHA), "-s",
            str((seed << 20) + SIDE_OFFSET + SETUP_STARTS + index),
        ))

    side = SideRuns(seconds)
    side.times["setup"] = [first_setup]
    side.add("setup", SETUP_STARTS - 1, setup)
    side.add("cli", CLI_STARTS, cli)
    return side


class _Tracer:
    """Traced-run bookkeeping: wire sizes and client codec times
    measured on the same requests, and spans fetched from the
    service's trace store."""

    def __init__(self, client, layers: Layers) -> None:
        self.client = client
        self.layers = layers
        self.pending: list = []  # (due index, trace id, latency s)
        self.overhead: list = []
        self.spans: dict[str, list] = {}

    def on_request(self, index: int, request, tenant: str,
                   response: dict, latency: float) -> None:
        from repro.api.wire import request_to_wire

        t0 = time.perf_counter()
        body = json.dumps({"tenant": tenant, "priority": 0,
                           "request": request_to_wire(request)})
        self.layers.add("client.encode", time.perf_counter() - t0)
        raw = json.dumps(response)
        t0 = time.perf_counter()
        json.loads(raw)
        self.layers.add("client.decode", time.perf_counter() - t0)
        self.layers.add("http.request_bytes", len(body.encode()))
        self.layers.add("http.response_bytes", len(raw.encode()))
        if index % TRACE_EVERY == 0:
            self.pending.append((index + TRACE_LAG, request.trace_id,
                                 latency))
        while self.pending and self.pending[0][0] <= index:
            self.fetch(*self.pending.pop(0)[1:])

    def fetch(self, trace_id: str, latency: float) -> None:
        spans = {}
        for s in self.client.trace(trace_id)["spans"]:
            spans.setdefault(s["name"], s["duration_s"])
        needed = ("service.admission", "service.queue", "service.execute",
                  "api.solve")
        check(all(name in spans for name in needed),
              f"trace {trace_id} lacks spans: {sorted(spans)}")
        for name, duration in spans.items():
            self.spans.setdefault(name, []).append(duration)
        shard = sum(spans[name] for name in needed[:3])
        self.overhead.append(latency - shard)
        if "router.route" in spans:
            self.spans.setdefault("router.hop", []).append(
                spans["router.route"] - shard)

    def metrics(self, n_requests: int) -> dict:
        def ms(name: str) -> float:
            values = self.spans.get(name)
            return 1e3 * median(values) if values else 0.0

        execute = self.spans["service.execute"]
        solve = self.spans["api.solve"]
        out = {
            "client.encode_ms": self.layers.mean_ms("client.encode"),
            "client.decode_ms": self.layers.mean_ms("client.decode"),
            "http.request_bytes":
                self.layers.busy["http.request_bytes"] / n_requests,
            "http.response_bytes":
                self.layers.busy["http.response_bytes"] / n_requests,
            "http.overhead_ms": 1e3 * median(self.overhead),
            "service.admission_ms": ms("service.admission"),
            "service.queue_ms": ms("service.queue"),
            "service.executor_hop_ms": 1e3 * median(
                [e - s for e, s in zip(execute, solve)]),
            "api.solve_ms": ms("api.solve"),
        }
        if "router.route" in self.spans:
            out["router.route_ms"] = ms("router.route")
            out["router.hop_ms"] = ms("router.hop")
        return out


def instrument_solver(layers: Layers) -> None:
    """Time the solver pipeline's stages inside in-process solves."""
    from repro.core import pipeline

    def place_and_select(make, attr, name):
        def build(*args, **kwargs):
            obj = make(*args, **kwargs)
            setattr(obj, attr, layers.timed(name, getattr(obj, attr)))
            return obj
        return build

    layers.patch(pipeline, "make_heuristic", place_and_select(
        pipeline.make_heuristic, "place", "solver.place"))
    layers.patch(pipeline, "default_server_selection", place_and_select(
        pipeline.default_server_selection, "select", "solver.server_select"))
    layers.wrap(pipeline, "downgrade_processors", "solver.downgrade")
    layers.wrap(pipeline, "verify", "solver.verify")
    layers.wrap(pipeline, "max_throughput", "solver.throughput")


def solver_metrics(layers: Layers) -> dict:
    return {
        f"solver.{stage}_ms": layers.mean_ms(f"solver.{stage}")
        for stage in ("place", "server_select", "downgrade", "verify",
                      "throughput")
    }


def _stream(client, seed, seconds, routed, layers, tracer, side):
    """The timed closed loop; returns what was sent and answered, the
    latencies, the scrape times, the loop's own wall time and the TCP
    connects made by submits."""
    sent = []  # (request, tenant, response)
    latencies = []
    scrapes = {"stats": [], "metrics": []}
    submit_connects = 0
    # the load generator's own garbage (every request and response is
    # kept for the checks) must not pause the timed loop
    gc.disable()
    try:
        side.start()
        index = 0
        while side.elapsed() < seconds:
            request = _request(seed, index, traced=tracer is not None)
            tenant = _tenant(index)
            connects = layers.calls.get("client.connect", 0)
            t0 = time.perf_counter()
            response = client.submit(request, tenant=tenant)
            latency = time.perf_counter() - t0
            submit_connects += layers.calls.get("client.connect", 0) \
                - connects
            latencies.append(latency)
            sent.append((request, tenant, response))
            if tracer is not None:
                tracer.on_request(index, request, tenant, response,
                                  latency)
            index += 1
            if routed and index % SCRAPE_EVERY == 0:
                kind = ("stats", "metrics")[(index // SCRAPE_EVERY) % 2]
                t0 = time.perf_counter()
                getattr(client, kind)()
                scrapes[kind].append(time.perf_counter() - t0)
            side.tick()
        wall = side.finish()
    finally:
        gc.enable()
    return sent, latencies, scrapes, wall, submit_connects


def run(seed: int, seconds: float, trace: bool, *, routed: bool) -> dict:
    """One run; a traced run measures the layers instead of the
    end-to-end metrics, and skips the repeated cold starts."""
    from repro.api import solve

    procs, port, first_setup = _cold_deploy(seed, routed, 0)
    try:
        client = _client(port)
        layers = Layers()
        tracer = _Tracer(client, layers) if trace else None
        side = SideRuns(seconds) if trace else _side_runs(
            seed, seconds, routed, port, first_setup)
        if trace:
            layers.wrap(http.client.HTTPConnection, "connect",
                        "client.connect")
        sent, latencies, scrapes, wall, submit_connects = _stream(
            client, seed, seconds, routed, layers, tracer, side)
        layers.undo()

        stats = client.stats()
        check(stats["service"]["cache"]["hits"] == 0,
              f"timed stream hit the result cache: {stats['service']}")
        completed = {name: row["completed"]
                     for name, row in stats["tenants"].items()}
        split = {name: entry["totals"]["completed"]
                 for name, entry in stats.get("shards", {}).items()}
        check(not routed or (len(split) == 2 and min(split.values()) > 0),
              f"both shards must carry traffic: {split}")
        rss = procs.rss_mb()
    finally:
        procs.stop()

    if trace:
        instrument_solver(layers)
    try:
        for request, tenant, response in sent:
            check_solve_response(response, solve(request), tenant)
    finally:
        layers.undo()

    for tenant in TENANTS:
        share = sum(1 for _, t, _ in sent if t == tenant)
        check(completed.get(tenant, 0) >= share,
              f"/stats shows {completed.get(tenant)} completed for"
              f" {tenant}, sent {share}")
    pct, tail_value = tail(latencies)
    out = {
        "attempted": len(sent),
        "failed": 0,
        "notes": {"completed_per_tenant": completed,
                  "completed_per_shard": split,
                  "p50_ms": 1e3 * median(latencies),
                  f"p{pct:g}_ms": 1e3 * tail_value,
                  "samples": len(latencies),
                  "ops_per_s": len(sent) / wall},
    }
    if trace:
        out["layers"] = {
            **tracer.metrics(len(sent)),
            **solver_metrics(layers),
            "client.connects_per_request": submit_connects / len(sent),
        }
        if routed:
            out["layers"]["router.stats_ms"] = 1e3 * median(
                scrapes["stats"])
            out["layers"]["router.metrics_ms"] = 1e3 * median(
                scrapes["metrics"])
        return out
    out["notes"]["cold_starts_s"] = side.times
    out["metrics"] = {
        "setup_s": median(side.times["setup"]),
        "latency_mean_ms": 1e3 * mean(latencies),
        "ops_per_s": len(sent) / wall,
        "client_start_s": median(side.times["cli"]),
        "peak_rss_mb": rss,
    }
    return out
