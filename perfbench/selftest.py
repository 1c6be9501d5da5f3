"""The benchmark's own tests.

    python3 perfbench/selftest.py   # or: python3 -m pytest perfbench/selftest.py

The file is not named ``test_*.py`` so that the repository's test
suite does not collect it; the last two tests start real processes and
take about half a minute.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import types
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks  # noqa: E402
from perfbench.common import (  # noqa: E402
    CheckFailed, SideRuns, percentile, tail,
)


def _solved(seed: int = 5):
    from repro.api import InstanceSpec, SolveRequest, solve

    return solve(SolveRequest(
        spec=InstanceSpec(n_operators=12, alpha=1.5, seed=seed), seed=seed))


def _response(result, cost=None, tenant="t0") -> dict:
    payload = {"kind": "solve", "tenant": tenant,
               "result": result.to_dict()}
    if cost is not None:
        payload["result"]["cost"] = cost
    return payload


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 1001))  # rank of p99 is 990: ten beyond
        self.assertEqual(tail(values), (99.0, 990.0))
        values = list(range(1, 1000))  # p99 would leave nine beyond
        self.assertEqual(tail(values), (90.0, 900.0))
        values = list(range(1, 10001))
        self.assertEqual(tail(values), (99.9, 9990.0))

    def test_few_samples_fall_back_to_the_median(self):
        self.assertEqual(tail(list(range(1, 100))), (50.0, 50.0))
        self.assertEqual(tail([3.0]), (50.0, 3.0))

    def test_tail_value_has_ten_samples_beyond(self):
        for n in (100, 457, 1000, 2345, 20000):
            values = [float(v) for v in range(n)]
            p, value = tail(values)
            self.assertGreaterEqual(sum(v > value for v in values), 10)
            self.assertEqual(value, percentile(values, p))


class SideRunSpacing(unittest.TestCase):
    def test_samples_are_spread_and_left_out_of_the_loop_time(self):
        side = SideRuns(10.0)
        side.add("a", 2, lambda index: float(index))
        side.add("b", 1, lambda index: 7.0)
        self.assertEqual([due for due, *_ in side.plan], [2.5, 5.0, 7.5])
        side.start()
        side.t_start -= 6.0  # six seconds of loop time have passed
        side.tick()
        self.assertEqual(side.times, {"a": [0.0], "b": [7.0]})
        self.assertAlmostEqual(side.elapsed(), 6.0, places=2)
        self.assertAlmostEqual(side.finish(), 6.0, places=2)
        self.assertEqual(side.times["a"], [0.0, 1.0])


class SolveChecks(unittest.TestCase):
    def setUp(self):
        self.result = _solved()

    def test_accepts_the_library_answer(self):
        checks.check_solve_response(_response(self.result), self.result,
                                    "t0")

    def test_rejects_a_different_cost(self):
        with self.assertRaises(CheckFailed):
            checks.check_solve_response(
                _response(self.result, cost=self.result.cost + 1.0),
                self.result, "t0")

    def test_rejects_a_cost_below_the_bound(self):
        bound = checks.cost_lower_bound(self.result.allocation.instance)
        self.assertGreater(self.result.cost, bound)
        fake = types.SimpleNamespace(ok=True, cost=0.5 * bound,
                                     allocation=self.result.allocation)
        with self.assertRaisesRegex(CheckFailed, "lower bound"):
            checks.check_solve_response(
                _response(self.result, cost=0.5 * bound), fake, "t0")

    def test_rejects_a_wrong_tenant(self):
        with self.assertRaises(CheckFailed):
            checks.check_solve_response(_response(self.result, tenant="t1"),
                                        self.result, "t0")

    def test_rejects_an_unplaced_operator(self):
        alloc = self.result.allocation
        assignment = dict(alloc.assignment)
        assignment.pop(next(iter(assignment)))
        broken = types.SimpleNamespace(
            instance=alloc.instance, processors=alloc.processors,
            assignment=assignment)
        with self.assertRaisesRegex(CheckFailed, "unplaced"):
            checks.check_allocation(broken)

    def test_rejects_an_overloaded_processor(self):
        alloc = self.result.allocation
        heavy = dataclasses.replace(alloc.instance,
                                    rho=alloc.instance.rho * 1e3)
        broken = types.SimpleNamespace(
            instance=heavy, processors=alloc.processors,
            assignment=alloc.assignment)
        with self.assertRaisesRegex(CheckFailed, "above its speed"):
            checks.check_allocation(broken)

    def test_fleet_results_must_equal_serial(self):
        mine = [checks.fingerprint(self.result)]
        checks.check_same_results(mine, [self.result], "fleet")
        with self.assertRaises(CheckFailed):
            checks.check_same_results(mine, [_solved(seed=6)], "fleet")
        with self.assertRaises(CheckFailed):
            checks.check_same_results(mine, [], "fleet")
        lost = [checks.fingerprint(object())]
        with self.assertRaisesRegex(CheckFailed, "failed"):
            checks.check_same_results(lost, [self.result], "fleet")


class ReplayChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from repro.api import ReplayRequest, replay

        cls.result = replay(ReplayRequest(
            trace="multi-app", policy="market", seed=3,
            migration_model="state-size"))

    def test_accepts_the_replay(self):
        checks.check_replay(self.result, self.result.n_epochs)
        checks.check_market(self.result)

    def test_rejects_a_flipped_epoch_record(self):
        records = list(self.result.records)
        records[1], records[2] = records[2], records[1]
        flipped = dataclasses.replace(self.result, records=tuple(records))
        with self.assertRaisesRegex(CheckFailed, "epochs"):
            checks.check_replay(flipped, self.result.n_epochs)

    def test_rejects_a_missing_epoch(self):
        with self.assertRaises(CheckFailed):
            checks.check_replay(self.result, self.result.n_epochs + 1)

    def test_rejects_a_violating_epoch(self):
        records = list(self.result.records)
        records[-1] = dataclasses.replace(records[-1], n_violations=1)
        bad = dataclasses.replace(self.result, records=tuple(records))
        with self.assertRaisesRegex(CheckFailed, "violated"):
            checks.check_replay(bad, self.result.n_epochs)

    def test_rejects_a_charge_that_does_not_add_up(self):
        records = list(self.result.records)
        first = records[0]
        market = json.loads(json.dumps(first.market))
        app = next(iter(market["charges"]))
        market["charges"][app]["purchase"] += 1.0
        records[0] = dataclasses.replace(first, market=market)
        bad = dataclasses.replace(self.result, records=tuple(records))
        with self.assertRaisesRegex(CheckFailed, "reconfig cost"):
            checks.check_market(bad)

    def test_rejects_money_that_leaks_from_the_accounts(self):
        summary = json.loads(json.dumps(self.result.market))
        app = next(iter(summary["tenants"]))
        summary["tenants"][app]["earned"] += 1.0
        bad = dataclasses.replace(self.result, market=summary)
        with self.assertRaisesRegex(CheckFailed, "accounts moved"):
            checks.check_market(bad)


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--seed", "4",
         *args], cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        timeout=175, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _names(kind: str) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf8") as fh:
        return sorted(m["name"] for m in json.load(fh)[kind])


class PrintedNames(unittest.TestCase):
    def test_end_to_end_names_match_benchmark_json(self):
        out = _run("--workload", "fleet", "--seconds", "0.3", "--trace", "0")
        self.assertEqual(sorted(out["metrics"]), _names("end_to_end"))
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})

    def test_per_layer_names_match_benchmark_json(self):
        out = _run("--workload", "serve", "--seconds", "0.5", "--trace", "1")
        self.assertEqual(sorted(out["metrics"]), _names("per_layer"))


if __name__ == "__main__":
    unittest.main()
