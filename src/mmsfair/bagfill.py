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

from .core import (
    Instance,
    Value,
    check_agents,
    check_shares,
    format_value,
    parse_field,
    validate_allocation,
)
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
class BagFillRun:
    """Outcome of one bag-fill invocation.

    ``bundles`` maps each agent to its bag, or is None when the spare goods
    ran out; ``assignments`` maps each satisfied agent to its 1-based bag.
    """

    bundles: Optional[dict]
    assignments: dict
    trace: tuple


def run_bag_fill(instance: Instance, alpha: Value) -> BagFillRun:
    """Bag filling with a full event trace (see module docstring).

    ``alpha`` is read by ``parse_field``, so a negative, float or bool one
    raises ValidationError naming ``alpha``, as do agents out of the order
    ``check_agents`` requires, naming ``agents``.
    """
    check_agents(instance)
    alpha = parse_field(alpha, "alpha")
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
    unsatisfied = list(instance.agents)
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
            break

    bundles = None
    if not unsatisfied:
        bundles = {a: frozenset(bags[assignments[a] - 1]) for a in instance.agents}
    return BagFillRun(bundles=bundles, assignments=assignments, trace=tuple(trace))


def complete_allocation(instance: Instance, bundles: dict) -> dict:
    """Hand each leftover real good to the agent who values it most.

    Ties go to the lowest agent id.  ``bundles`` must be keyed by exactly
    the instance's agents (``check_shares``, ContractError); nobody's
    value decreases.  The result is validated, so bundles
    that share a good or hold a dummy or unknown id raise ValidationError,
    as do agents out of the order ``check_agents`` requires.
    """
    check_agents(instance)
    check_shares(instance, bundles, "bundles")
    completed = {a: set(bundles[a]) for a in instance.agents}
    taken = set().union(*bundles.values())
    for g in instance.goods:
        if g not in taken:
            # max keeps the first of equal values: the lowest agent id.
            completed[max(instance.agents, key=lambda a: instance.value(a, g))].add(g)
    result = {a: frozenset(b) for a, b in completed.items()}
    validate_allocation(instance, result)
    return result
