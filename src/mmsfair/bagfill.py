"""Bag-filling allocation for ordered instances.

With n agents and at least 2n real goods, bag k starts with the goods at
ranks k and 2n+1-k (pairing a strong good with a weak one).  While some
agent is unsatisfied: if any unsatisfied agent values an unassigned bag
at least alpha, the lowest such agent takes the lowest such bag;
otherwise the lowest-ranked spare good is added to the lowest-indexed
unassigned bag.  Running out of spare goods while nobody is satisfied is
a failure and returns nothing.

Dummy goods are ignored entirely: they are never placed in bags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Allocation, Instance, Value, ZERO, format_value, validate_allocation
from .errors import ContractError
from .transforms import is_ordered


@dataclass(frozen=True)
class TraceEvent:
    """One bag-fill step: kind is "fill" (good -> bag) or "assign" (bag -> agent)."""

    kind: str
    good: Optional[str]
    bag: int
    agent: Optional[int]
    bag_value: Optional[Value]

    def to_json(self) -> dict:
        return {
            "event": self.kind,
            "good": self.good,
            "bag": self.bag,
            "agent": self.agent,
            "bag_value": None if self.bag_value is None else format_value(self.bag_value),
        }


@dataclass(frozen=True)
class BagState:
    """Final loop state: bag contents plus whatever remained unassigned."""

    bags: tuple            # bag index k -> frozenset of goods (index 0 = bag 1)
    unassigned_goods: tuple
    unsatisfied_agents: tuple
    unassigned_bags: tuple
    assignments: dict      # agent -> 1-based bag index


@dataclass(frozen=True)
class BagFillRun:
    """Outcome of one bag-fill invocation; allocation is None on failure."""

    allocation: Optional[Allocation]
    state: BagState
    trace: tuple


def run_bag_fill(instance: Instance, alpha: Value) -> BagFillRun:
    """Bag filling with a full event trace (see module docstring)."""
    if not is_ordered(instance):
        raise ContractError("bag filling requires an ordered instance")
    n, m = instance.n, instance.m
    if m < 2 * n:
        raise ContractError(f"bag filling needs at least {2 * n} real goods, have {m}")
    goods = instance.goods
    bags = [[goods[k - 1], goods[2 * n - k]] for k in range(1, n + 1)]
    sums = {a: [instance.value(a, bags[k][0]) + instance.value(a, bags[k][1])
                for k in range(n)]
            for a in instance.agents}
    spare = list(goods[2 * n:])
    spare_at = 0
    unsatisfied = sorted(instance.agents)
    open_bags = list(range(1, n + 1))
    assignments = {}
    trace = []

    while unsatisfied:
        chosen = None
        for a in unsatisfied:
            for k in open_bags:
                if sums[a][k - 1] >= alpha:
                    chosen = (a, k)
                    break
            if chosen:
                break
        if chosen:
            a, k = chosen
            assignments[a] = k
            unsatisfied.remove(a)
            open_bags.remove(k)
            trace.append(TraceEvent("assign", None, k, a, sums[a][k - 1]))
        elif spare_at < len(spare):
            g = spare[spare_at]
            spare_at += 1
            k = open_bags[0]
            bags[k - 1].append(g)
            for a in instance.agents:
                sums[a][k - 1] += instance.value(a, g)
            trace.append(TraceEvent("fill", g, k, None, None))
        else:
            state = BagState(bags=tuple(frozenset(b) for b in bags),
                             unassigned_goods=tuple(spare[spare_at:]),
                             unsatisfied_agents=tuple(unsatisfied),
                             unassigned_bags=tuple(open_bags),
                             assignments=dict(assignments))
            return BagFillRun(allocation=None, state=state, trace=tuple(trace))

    bundles = {a: frozenset(bags[assignments[a] - 1]) for a in instance.agents}
    allocation = Allocation(bundles=bundles, complete=False)
    validate_allocation(instance, allocation)
    state = BagState(bags=tuple(frozenset(b) for b in bags),
                     unassigned_goods=tuple(spare[spare_at:]),
                     unsatisfied_agents=(),
                     unassigned_bags=(),
                     assignments=dict(assignments))
    return BagFillRun(allocation=allocation, state=state, trace=tuple(trace))


def complete_allocation(instance: Instance, partial: Allocation) -> Allocation:
    """Hand each leftover real good to the agent who values it most.

    Ties go to the lowest agent id.  Every agent must already have a
    bundle in ``partial``; nobody's value decreases.
    """
    if set(partial.bundles) != set(instance.agents):
        raise ContractError("partial allocation must cover every agent")
    validate_allocation(instance, Allocation(partial.bundles, complete=False))
    taken = {g for bundle in partial.bundles.values() for g in bundle}
    bundles = {a: set(partial.bundles[a]) for a in instance.agents}
    agents = sorted(instance.agents)
    for g in instance.goods:
        if g in taken:
            continue
        best, best_value = None, ZERO
        for a in agents:
            v = instance.value(a, g)
            if best is None or v > best_value:
                best, best_value = a, v
        bundles[best].add(g)
    result = Allocation(bundles={a: frozenset(b) for a, b in bundles.items()},
                        complete=True)
    validate_allocation(instance, result)
    return result
