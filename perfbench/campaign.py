"""The ``campaign`` workload: an in-process serial ``replay_many`` of
simulator-validated replays with state-size migration pricing and
simulated transitions.
"""

from __future__ import annotations

import importlib
import sys
import time

from .checks import check_market, check_replay
from .common import (
    Layers, SideRuns, check, cold_start_s, mean, median, peak_rss_mb,
    repro_argv, tail,
)

POLICIES = ("resolve", "harvest", "trade", "market")
#: Replays whose trace seed is fixed.  Per-replay cost of the ramp,
#: diurnal and churn families swings up to 20x between trace seeds, so
#: seed-varied copies would make the throughput measure the seed; they
#: run at the repository's reference seed.  ramp/harvest at this seed
#: is the known validation fault (see README), counted as failed.
FIXED_SEED = 2009
FIXED = (
    ("ramp", "harvest"),
    ("ramp", "resolve"),
    ("diurnal", "resolve"),
) + tuple(("churn", policy) for policy in POLICIES)
#: multi-app replays cost about the same on every trace seed, so they
#: carry the --seed variation: this many trace seeds, the policies in
#: turn (one seed's epochs can cost 1.5x another's, so more seeds
#: rather than more policies per seed).
SEEDED = 8
#: A traced run of another workload replays these plus the last
#: seeded replay (multi-app under market): together they reach every
#: stage, the numpy fill and the auction included.
PROBE = (("diurnal", "market", FIXED_SEED),)
#: Cold starts per untraced run, spread over the replays.
SETUP_STARTS = 5
CLI_STARTS = 9


def _trace_seed(seed: int, k: int) -> int:
    return (seed << 5) + k


def round_plan(seed: int, probe: bool = False) -> list[tuple[str, str, int]]:
    """The (trace, policy, trace seed) triples of one round."""
    seeded = [("multi-app", POLICIES[k % len(POLICIES)], _trace_seed(seed, k))
              for k in range(SEEDED)]
    if probe:
        return seeded[-1:] + list(PROBE)
    return [(t, p, FIXED_SEED) for t, p in FIXED] + seeded


def _request(trace: str, policy: str, trace_seed: int, kernel="warm"):
    from repro.api import ReplayRequest

    return ReplayRequest(
        trace=trace, policy=policy, seed=trace_seed, validate=True,
        sim_warmup=True, migration_model="state-size",
        sim_transitions=True, sim_kernel=kernel,
    )


class _EpochClock:
    """Times each epoch of every replay: the interval between the
    trace handing an epoch to the replay engine and the engine asking
    for the next one."""

    def __init__(self) -> None:
        from repro.dynamic.traces import WorkloadTrace

        self.samples: list[float] = []
        self._cls = WorkloadTrace
        self._original = WorkloadTrace.epochs
        samples, original = self.samples, self._original

        def epochs(trace):
            for item in original(trace):
                t0 = time.perf_counter()
                yield item
                samples.append(time.perf_counter() - t0)

        WorkloadTrace.epochs = epochs

    def close(self) -> None:
        self._cls.epochs = self._original


def _instrument(layers: Layers) -> dict:
    """Wrap the replay engine's stages; returns counter baselines."""
    from repro.telemetry import get_registry

    # the packages re-export functions named like some of their modules
    simulator = importlib.import_module("repro.simulator")
    engine = importlib.import_module("repro.dynamic.replay")
    auction = importlib.import_module("repro.market.auction")
    flows = importlib.import_module("repro.simulator.flows")

    make_policy = engine.make_policy

    def timed_policy(*args, **kwargs):
        policy = make_policy(*args, **kwargs)
        for attr in ("initial", "react"):
            setattr(policy, attr,
                    layers.timed("replay.policy", getattr(policy, attr)))
        policy.settle = layers.timed("replay.settle", policy.settle)
        return policy

    layers.patch(engine, "make_policy", timed_policy)
    layers.wrap(engine, "reconcile_plan", "replay.reconcile")
    layers.wrap(engine, "verify", "replay.verify")
    layers.wrap(engine, "simulate_transition", "sim.transition")
    layers.wrap(simulator, "simulate_allocation", "sim.validate")
    layers.wrap(auction.PriceSearchAuction, "run", "market.auction")
    layers.wrap(auction.FixedPricing, "run", "market.auction")
    layers.wrap(flows, "_progressive_fill", "flows.fill_python")
    layers.wrap(flows, "_progressive_fill_vectorized", "flows.fill_numpy")
    registry = get_registry()
    return {name: registry.get(name).value for name in _COUNTERS}


_COUNTERS = ("repro_sim_events_total", "repro_sim_warm_hits_total",
             "repro_sim_warm_fallbacks_total")


def _layer_metrics(layers: Layers, before: dict, n_replays: int) -> dict:
    from repro.telemetry import get_registry

    registry = get_registry()
    delta = {name: registry.get(name).value - before[name]
             for name in _COUNTERS}
    events = delta["repro_sim_events_total"]
    sim_busy = (layers.busy.get("sim.validate", 0.0)
                + layers.busy.get("sim.transition", 0.0))
    refills = (delta["repro_sim_warm_hits_total"]
               + delta["repro_sim_warm_fallbacks_total"])
    out = {
        name + "_ms": layers.mean_ms(name)
        for name in ("replay.policy", "replay.reconcile", "replay.verify",
                     "replay.settle", "market.auction", "sim.validate",
                     "sim.transition", "flows.fill_python",
                     "flows.fill_numpy")
    }
    out.update({
        "sim.events": events / n_replays,
        "sim.us_per_event": 1e6 * sim_busy / events if events else 0.0,
        "flows.warm_hit_ratio": (
            delta["repro_sim_warm_hits_total"] / refills if refills else 0.0),
        "flows.fills_python":
            layers.calls.get("flows.fill_python", 0) / n_replays,
        "flows.fills_numpy":
            layers.calls.get("flows.fill_numpy", 0) / n_replays,
    })
    return out


def _side_runs(seed: int, seconds: float) -> SideRuns:
    """The cold starts of an untraced run, spread over its replays: a
    fresh interpreter resolving a replay's trace, and a ``repro
    dynamic`` CLI replay."""
    def setup(index: int) -> float:
        return cold_start_s([
            sys.executable, "-c",
            "from repro.api import ReplayRequest, replay_many;"
            f" ReplayRequest(trace='multi-app', policy='market',"
            f" seed={_trace_seed(seed, index)}).resolve_trace()",
        ])

    def cli(index: int) -> float:
        return cold_start_s(repro_argv(
            "dynamic", "--trace", "multi-app", "-P", "resolve",
            "-s", str(_trace_seed(seed, SEEDED + index)),
        ))

    side = SideRuns(seconds)
    side.add("setup", SETUP_STARTS, setup)
    side.add("cli", CLI_STARTS, cli)
    return side


def run(seed: int, seconds: float, trace: bool, probe: bool = False) -> dict:
    """One run; a traced run measures the layers instead of the
    end-to-end metrics, and skips the cold starts.  A probe
    (a traced run of another workload) replays :data:`PROBE`."""
    from repro.api import replay_many
    from repro.dynamic.traces import make_trace

    side = SideRuns(seconds) if trace else _side_runs(seed, seconds)

    plan = round_plan(seed, probe)
    layers = Layers()
    before = _instrument(layers) if trace else None
    clock = _EpochClock()
    results = []
    try:
        side.start()
        while True:
            for item in plan:
                results += replay_many([_request(*item)])
                side.tick()
            if side.elapsed() >= seconds:
                break
        wall = side.finish()
    finally:
        clock.close()
        layers.undo()
    rss = peak_rss_mb()

    failed = 0
    lengths = {}
    for (name, policy, trace_seed), result in zip(
            plan * (len(results) // len(plan)), results):
        key = (name, trace_seed)
        if key not in lengths:
            lengths[key] = len(make_trace(name, seed=trace_seed))
        check_replay(result, lengths[key])
        if policy == "market":
            check_market(result)
        if result.sim_violation_epochs:
            failed += 1
    reference = plan[-1]
    naive = replay_many([_request(*reference, kernel="naive")])[0]
    check(naive.to_json() == results[len(plan) - 1].to_json(),
          f"{reference}: naive kernel replay differs from the warm one")

    pct, tail_value = tail(clock.samples)
    out = {"attempted": len(results), "failed": failed,
           "notes": {"rounds": len(results) // len(plan),
                     "epoch_p50_ms": 1e3 * median(clock.samples),
                     f"epoch_p{pct:g}_ms": 1e3 * tail_value,
                     "epochs": len(clock.samples),
                     "ops_per_s": len(results) / wall}}
    if trace:
        out["layers"] = _layer_metrics(layers, before, len(results))
        return out
    out["notes"]["cold_starts_s"] = side.times
    out["metrics"] = {
        "setup_s": median(side.times["setup"]),
        "latency_mean_ms": 1e3 * mean(clock.samples),
        "ops_per_s": len(results) / wall,
        "client_start_s": median(side.times["cli"]),
        "peak_rss_mb": rss,
    }
    return out
