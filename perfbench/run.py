"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  A failed output check prints
the reason on standard error and exits 1 without a result.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.common import (  # noqa: E402
    CheckFailed, cold_start_s, median, pin_to_one_cpu,
)

WORKLOADS = ("serve", "serve-routed", "campaign", "fleet")
#: Length of the other workloads' runs inside a traced run, which
#: measures every layer (see README: "Traced runs").
PROBE_SECONDS = 1.5
STARTUP_SAMPLES = 3


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 probe: bool = False) -> dict:
    if name in ("serve", "serve-routed"):
        from perfbench import serve

        return serve.run(seed, seconds, trace, routed=name != "serve")
    if name == "campaign":
        from perfbench import campaign

        return campaign.run(seed, seconds, trace, probe=probe)
    from perfbench import fleet

    return fleet.run(seed, seconds, trace)


def startup_layers() -> dict:
    def imports(module: str) -> float:
        return median(
            cold_start_s([sys.executable, "-c", f"import {module}"])
            for _ in range(STARTUP_SAMPLES)
        )

    return {
        "startup.import_s": imports("repro"),
        "startup.client_import_s": imports("repro.service.client"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro to benchmark under"
              f" {ROOT}", file=sys.stderr)
        return 2
    spec = _spec()
    cpu = pin_to_one_cpu()

    try:
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
        if args.trace:
            measured = startup_layers()
            for other in WORKLOADS:
                if other != args.workload:
                    probe = run_workload(other, args.seed, PROBE_SECONDS,
                                         True, probe=True)
                    for key, value in probe["layers"].items():
                        measured.setdefault(key, value)
            measured.update(out["layers"])
            wanted = spec["per_layer"]
        else:
            measured = out["metrics"]
            wanted = spec["end_to_end"]
    except CheckFailed as err:
        print(f"perfbench: {args.workload}: check failed: {err}",
              file=sys.stderr)
        return 1

    names = [entry["name"] for entry in wanted]
    if sorted(measured) != sorted(names):
        print(f"perfbench: measured {sorted(measured)},"
              f" BENCHMARK.json lists {sorted(names)}", file=sys.stderr)
        return 1
    metrics = {
        entry["name"]: {"value": measured[entry["name"]],
                        "unit": entry["unit"]}
        for entry in wanted
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "cpu": cpu, **out.get("notes", {})}), file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
