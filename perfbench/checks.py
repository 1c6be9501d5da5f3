"""Output checks made apart from the program: each recomputes a
property from the inputs or compares against an independent run,
instead of trusting the program's own verdicts or a stored copy of
its output.
"""

from __future__ import annotations

from .common import CheckFailed, check

#: Relative slack for float comparisons of sums the program rounds.
REL = 1e-9
#: Absolute slack per rounded money amount (the market rounds each
#: charge to 1e-6).
MONEY_ULP = 1e-6


def cost_lower_bound(instance) -> float:
    """ρ·Σw·min(price/speed): the cost of buying exactly the compute
    the operators demand at the catalog's cheapest price per op/s.
    Any feasible platform costs at least this much."""
    tree = instance.tree
    work = sum(tree[i].work for i in tree.operator_indices)
    cheapest = min(spec.cost / spec.speed_ops for spec in instance.catalog)
    return instance.rho * work * cheapest


def check_allocation(allocation) -> None:
    """Every operator placed; every processor's ρ·Σw within its speed."""
    instance = allocation.instance
    tree = instance.tree
    check(set(allocation.assignment) == set(tree.operator_indices),
          "allocation leaves an operator unplaced")
    load: dict[int, float] = {}
    for i, uid in allocation.assignment.items():
        load[uid] = load.get(uid, 0.0) + instance.rho * tree[i].work
    for proc in allocation.processors:
        check(load.get(proc.uid, 0.0) <= proc.speed_ops * (1 + REL),
              f"processor {proc.uid} computes {load.get(proc.uid)}"
              f" ops/s above its speed {proc.speed_ops}")


def check_solve_response(response: dict, reference, tenant: str) -> None:
    """A service answer against an in-process ``solve()`` of the same
    request."""
    check(response.get("kind") == "solve",
          f"not a solve response: {response.get('kind')!r}")
    check(response.get("tenant") == tenant,
          f"answered for tenant {response.get('tenant')!r}, sent {tenant!r}")
    result = response["result"]
    check(result.get("ok") is True, f"solve failed: {result}")
    if not reference.ok:
        raise CheckFailed(
            f"in-process solve failed: {reference.failure_summary()}")
    check(result["cost"] == reference.cost,
          f"service cost {result['cost']} != library cost"
          f" {reference.cost}")
    bound = cost_lower_bound(reference.allocation.instance)
    check(result["cost"] >= bound * (1 - REL),
          f"cost {result['cost']} below the lower bound {bound}")
    check_allocation(reference.allocation)


def check_replay(result, n_epochs: int) -> None:
    """One record per trace epoch, numbered in order, and no epoch
    whose allocation violates Eq. 1–5."""
    epochs = [r.epoch for r in result.records]
    check(epochs == list(range(n_epochs)),
          f"{result.trace}/{result.policy}: epochs {epochs},"
          f" expected 0..{n_epochs - 1}")
    bad = [r.epoch for r in result.records
           if not r.feasible or r.n_violations]
    check(not bad, f"{result.trace}/{result.policy}: Eq. 1-5 violated"
                   f" at epochs {bad}")


def check_market(result) -> None:
    """Money is conserved: each epoch's non-rent charges sum to its
    reconfiguration cost, and over the replay Σ(spent − earned) equals
    the cumulative cost plus Σ rent."""
    rent = 0.0
    n_amounts = 0
    for record in result.records:
        check(record.market is not None,
              f"{result.trace}/{result.policy}: epoch {record.epoch}"
              f" has no settlement")
        net = 0.0
        for row in record.market["charges"].values():
            net += row.get("purchase", 0.0) + row.get("migration", 0.0)
            net -= row.get("salvage", 0.0)
            rent += row.get("rent", 0.0)
            n_amounts += len(row)
        slack = MONEY_ULP * (1 + len(record.market["charges"]) * 3) \
            + REL * abs(record.reconfig_cost)
        check(abs(net - record.reconfig_cost) <= slack,
              f"{result.trace}/{result.policy}: epoch {record.epoch}"
              f" charges {net} != reconfig cost {record.reconfig_cost}")
    tenants = result.market["tenants"].values()
    flow = sum(t["spent"] - t["earned"] for t in tenants)
    expected = result.cumulative_cost + rent
    slack = MONEY_ULP * (n_amounts + 2 * len(tenants)) + REL * abs(expected)
    check(abs(flow - expected) <= slack,
          f"{result.trace}/{result.policy}: accounts moved {flow},"
          f" expected cumulative cost + rent = {expected}")


def fingerprint(result) -> str:
    """What a solve computed, without the timing provenance, as one
    string (no garbage-collected objects pile up while a run keeps
    thousands); a fleet slot that resolved to a failure record
    fingerprints as failed."""
    if not getattr(result, "ok", False):
        return f"failed: {result!r}"
    return repr((result.cost, result.seed, result.heuristic,
                 result.n_processors,
                 sorted(result.allocation.assignment.items())))


def check_same_results(got: list, want: list, what: str) -> None:
    """Fleet result fingerprints against the serial executor's results
    on the same batch."""
    check(len(got) == len(want),
          f"{what}: {len(got)} results for {len(want)} tasks")
    for i, (a, b) in enumerate(zip(got, want)):
        check(not a.startswith("failed"), f"{what}: task {i} {a}")
        check(a == fingerprint(b),
              f"{what}: task {i} differs from the serial executor")
