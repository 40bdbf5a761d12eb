"""Share-preserving instance transformations.

Three transformations underpin the solver, each preserving the ratio of
any bundle's value to the owner's maximin share:

* ordering     -- relabel goods so every agent's values are non-increasing
                  along a common index order, with a per-agent permutation
                  (``OrderingMap``) that lets a finished allocation be
                  lifted back by a picking procedure;
* normalization-- rescale each agent's values by the cell values of the
                  maximin partition the caller hands in (no search runs),
                  so every maximin share becomes exactly 1;
* reduction    -- repeatedly give one of four fixed prefix/suffix bundles
                  (rules R1..R4) to an agent who values it at least
                  alpha times their maximin share, shrinking the instance
                  while no surviving agent's maximin share drops.

Rule R4 at thresholds above 3/4 additionally creates a *dummy good* worth
max(0, v_j(S4) - MMS_j) to each survivor; dummies keep later maximin
computations honest but are never allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .core import (
    Bundle,
    Instance,
    Value,
    ZERO,
    bundle_value,
    format_value,
    fresh_id,
    is_partition,
    scaled,
    validate_allocation,
)
from .errors import ContractError, InternalInvariantError
from .oracle import DEFAULT_MAX_GOODS, instance_mms_all

RULES = (1, 2, 3, 4)


def alpha_limit(n: int) -> Fraction:
    """Largest threshold with a proven guarantee: 3/4 + min(1/36, 3/(16n-4))."""
    if n < 1:
        raise ContractError(f"agent count must be >= 1, got {n}")
    return Fraction(3, 4) + min(Fraction(1, 36), Fraction(3, 16 * n - 4))


def is_ordered(instance: Instance) -> bool:
    """True if every agent's values are non-increasing along the good order."""
    for a in instance.agents:
        row = instance.valuations[a]
        weights, _ = scaled([row[g] for g in instance.goods])
        if any(weights[i] < weights[i + 1] for i in range(len(weights) - 1)):
            return False
    return True


@dataclass(frozen=True)
class OrderingMap:
    """Per-agent bridge between an ordered instance and its original.

    ``rank_goods`` lists the ordered instance's real good ids by rank;
    ``by_agent[a]`` lists the original real good ids in agent a's own
    non-increasing value order (ties broken by original position).
    """

    rank_goods: tuple
    by_agent: dict


def to_ordered(instance: Instance) -> tuple:
    """Sort every agent's values non-increasingly onto common rank ids.

    Returns (ordered instance, OrderingMap).  Rank r's value for agent a
    is a's r-th largest value over the real goods.  Dummy goods keep their
    ids and values.  Certificates are carried across through each agent's
    own permutation, which preserves that agent's cell values.
    """
    m = instance.m
    dummy_set = set(instance.dummies)
    base = "r"
    while any(f"{base}{t}" in dummy_set for t in range(1, m + 1)):
        base += "r"
    rank_goods = tuple(f"{base}{t}" for t in range(1, m + 1))

    by_agent = {}
    valuations = {}
    for a in instance.agents:
        row = instance.valuations[a]
        # Sort by the row's values as integers over their common denominator:
        # they order as the values do.  A reverse sort is stable, so equal
        # values keep their canonical order.
        weights, _ = scaled([row[g] for g in instance.goods])
        perm = [instance.goods[i] for i in
                sorted(range(m), key=weights.__getitem__, reverse=True)]
        by_agent[a] = tuple(perm)
        new_row = {rank_goods[t]: row[perm[t]] for t in range(m)}
        for d in instance.dummies:
            new_row[d] = row[d]
        valuations[a] = new_row

    certificates = {}
    for a, cells in instance.certificates.items():
        to_rank = {g: rank_goods[t] for t, g in enumerate(by_agent[a])}
        certificates[a] = tuple(
            frozenset(to_rank.get(g, g) for g in cell) for cell in cells)

    ordered = Instance(agents=instance.agents, goods=rank_goods,
                       dummies=instance.dummies, valuations=valuations,
                       certificates=certificates)
    return ordered, OrderingMap(rank_goods=rank_goods, by_agent=by_agent)


def lift_ordered(mapping: OrderingMap, original: Instance, ordered_alloc: dict) -> dict:
    """Lift an allocation of the ordered instance back to the original.

    Picking procedure: walk ranks in increasing order; the agent holding
    that rank picks their most valued original good still available (ties
    by original position).  Each agent ends up with a bundle worth at
    least their ordered bundle, since the pick at rank t is at least that
    agent's t-th largest value.
    """
    if set(ordered_alloc) != set(mapping.by_agent):
        raise ContractError("ordered allocation agents do not match the map")
    owner_of_rank = {}
    for a, bundle in ordered_alloc.items():
        for g in bundle:
            owner_of_rank[g] = a
    if sum(map(len, ordered_alloc.values())) != len(owner_of_rank):
        raise ContractError("ordered allocation holds a rank good more than once")
    if set(owner_of_rank) != set(mapping.rank_goods):
        raise ContractError("ordered allocation does not cover the rank goods")

    taken = set()
    cursor = {a: 0 for a in mapping.by_agent}
    bundles = {a: set() for a in mapping.by_agent}
    for rank in mapping.rank_goods:
        a = owner_of_rank[rank]
        prefs = mapping.by_agent[a]
        i = cursor[a]
        while prefs[i] in taken:
            i += 1
        cursor[a] = i + 1
        taken.add(prefs[i])
        bundles[a].add(prefs[i])
    lifted = {a: frozenset(b) for a, b in bundles.items()}
    validate_allocation(original, lifted)
    return lifted


def normalize(instance: Instance, shares: Mapping) -> Instance:
    """Rescale so every agent's maximin share over goods + dummies is 1.

    ``shares`` is the instance's {agent: MmsResult} table; no search runs.
    Each agent's values are divided cell-wise by the cell values of their
    maximin partition, which becomes the output's certificate (every cell
    then worth exactly 1).  Requires every share to be positive (peel
    zero-share agents first).
    """
    _check_shares(instance, shares)
    valuations = {}
    certificates = {}
    for a in instance.agents:
        partition = shares[a].partition
        row = instance.valuations[a]
        if len(partition) != instance.n or not is_partition(partition, instance.all_goods):
            raise ContractError(
                f"agent {a}: maximin partition does not split all goods "
                f"into {instance.n} cells")
        cell_values = [sum((row[g] for g in cell), ZERO) for cell in partition]
        if min(cell_values) != shares[a].value:
            raise ContractError(
                f"agent {a}: maximin partition's smallest cell is "
                f"{min(cell_values)}, not the share {shares[a].value}")
        new_row = {}
        for cell, cell_value in zip(partition, cell_values):
            if not cell or cell_value == 0:
                raise ContractError(
                    f"agent {a} has an empty or zero-value maximin cell; "
                    "remove zero-share agents before normalizing")
            for g in cell:
                new_row[g] = row[g] / cell_value
        valuations[a] = new_row
        certificates[a] = partition
    return Instance(agents=instance.agents, goods=instance.goods,
                    dummies=instance.dummies, valuations=valuations,
                    certificates=certificates)


def _check_shares(instance: Instance, shares: Mapping) -> None:
    if set(shares) != set(instance.agents):
        raise ContractError(
            f"shares are given for agents {sorted(shares)}, but the instance "
            f"has agents {list(instance.agents)}")


def rule_bundle(instance: Instance, k: int) -> tuple:
    """The goods rule k would give away, or () when too few real goods.

    With n agents and goods ranked by value: rule 1 takes the top good,
    rule 2 the pair at ranks n and n+1, rule 3 the triple at ranks
    2n-1..2n+1, rule 4 the top good plus rank 2n+1.  Ranks count real
    goods only.
    """
    if k not in RULES:
        raise ContractError(f"rule index must be in {RULES}, got {k}")
    n, m, gs = instance.n, instance.m, instance.goods
    if k == 1:
        return tuple(gs[:1])
    if k == 2:
        return (gs[n - 1], gs[n]) if m >= n + 1 else ()
    if k == 3:
        return (gs[2 * n - 2], gs[2 * n - 1], gs[2 * n]) if m >= 2 * n + 1 else ()
    return (gs[0], gs[2 * n]) if m >= 2 * n + 1 else ()


def rule_target(instance: Instance, alpha: Value, k: int,
                mms_values: Mapping) -> Optional[int]:
    """Lowest-id agent valuing rule k's bundle at >= alpha times their MMS.

    Returns None when no agent qualifies (the instance is rule-k
    irreducible at this threshold).
    """
    goods = rule_bundle(instance, k)
    for a in sorted(instance.agents):
        if bundle_value(instance, a, goods) >= alpha * mms_values[a]:
            return a
    return None


@dataclass(frozen=True)
class ReductionRecord:
    """One applied reduction, with everything needed to replay or lift it.

    ``dummy_created`` is (dummy id, {survivor: value}) for rule 4 above
    threshold 3/4, else None.  ``pre_mms`` snapshots every agent's maximin
    share just before the reduction (over goods + dummies).
    """

    rule: str
    agent: int
    removed_goods: Bundle
    dummy_created: Optional[tuple]
    pre_mms: dict

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "agent": self.agent,
            "removed_goods": sorted(self.removed_goods),
            "dummy": None if self.dummy_created is None else {
                "id": self.dummy_created[0],
                "values": {str(a): format_value(v)
                           for a, v in sorted(self.dummy_created[1].items())},
            },
            "pre_mms": {str(a): format_value(v)
                        for a, v in sorted(self.pre_mms.items())},
        }


@dataclass(frozen=True)
class ReductionLog:
    """An ordered reduction history from ``initial`` down to ``final``."""

    records: tuple
    initial: Instance
    final: Instance
    shares: Optional[dict] = None  # final's {agent: MmsResult}; None at one agent

    def to_json(self) -> list:
        return [rec.to_json() for rec in self.records]


def apply_reduction(instance: Instance, alpha: Value,
                    mms_values: Mapping) -> Optional[tuple]:
    """Apply the first rule in ``RULES`` order that fits; None if none does.

    The rule's bundle goes to the agent ``rule_target`` reports, so rule 4
    only fires when rules 1 to 3 all fail.  Above threshold 3/4, rule 4
    appends a fresh dummy good worth max(0, v_j(S4) - MMS_j) to each
    survivor j.  Returns (new instance, ReductionRecord).  The new
    instance is built by ``Instance.without``, which drops certificates.
    """
    for k in RULES:
        agent = rule_target(instance, alpha, k, mms_values)
        if agent is not None:
            break
    else:
        return None
    removed = frozenset(rule_bundle(instance, k))
    dummy_created = None
    if k == 4 and alpha > Fraction(3, 4):
        dummy_created = (fresh_id("d", instance.all_goods), {
            a: max(ZERO, bundle_value(instance, a, removed) - mms_values[a])
            for a in instance.agents if a != agent
        })
    reduced = instance.without(agents=(agent,), goods=removed, dummy=dummy_created)
    record = ReductionRecord(rule=f"R{k}", agent=agent,
                             removed_goods=removed,
                             dummy_created=dummy_created,
                             pre_mms=dict(mms_values))
    return reduced, record


def reduce(
    instance: Instance,
    alpha: Value,
    shares: Mapping,
    *,
    max_goods: int = DEFAULT_MAX_GOODS,
) -> ReductionLog:
    """Apply reduction rules until none fits or one agent remains.

    ``shares`` is the instance's {agent: MmsResult} table.  Each round is
    one ``apply_reduction`` step, which probes the rules afresh in the
    fixed order 1, 2, 3, 4.
    Each reduced instance with more than one agent is searched once; a
    survivor's share shrinking below the value the reduction used would
    break the reduction's validity and raises InternalInvariantError.
    """
    if not is_ordered(instance):
        raise ContractError("reduce requires an ordered instance")
    if not (0 < alpha <= alpha_limit(instance.n)):
        raise ContractError(
            f"threshold {alpha} outside (0, {alpha_limit(instance.n)}] "
            f"for {instance.n} agents")
    _check_shares(instance, shares)
    records = []
    current = instance
    while current.n > 1:
        values = {a: shares[a].value for a in current.agents}
        step = apply_reduction(current, alpha, values)
        if step is None:
            break
        current, record = step
        records.append(record)
        if current.n == 1:
            break
        shares = instance_mms_all(current, max_goods=max_goods)
        for a in current.agents:
            if shares[a].value < values[a]:
                raise InternalInvariantError(
                    f"agent {a}'s maximin share dropped from "
                    f"{values[a]} to {shares[a].value} after a reduction",
                    payload=(ReductionLog(records=tuple(records), initial=instance,
                                          final=current), None))
    return ReductionLog(records=tuple(records), initial=instance, final=current,
                        shares=shares if current.n > 1 else None)


def replay_log(log: ReductionLog) -> list:
    """Reconstruct every intermediate instance from the log's records.

    Each step is the ``Instance.without`` call ``apply_reduction`` made.
    Returns [initial, after record 1, ..., final'].  The last element must
    equal the log's final instance; used for audit and validity checks.
    """
    instances = [log.initial]
    for rec in log.records:
        instances.append(instances[-1].without(
            agents=(rec.agent,), goods=rec.removed_goods, dummy=rec.dummy_created))
    return instances


def lift_reductions(log: ReductionLog, sub_alloc: dict) -> dict:
    """Reinstate reduced agents, newest first, each with their given bundle.

    ``sub_alloc`` must be an allocation of the log's final instance; any
    other raises ValidationError.
    Dummy goods are never allocated; the result is an allocation of the
    initial instance's real goods.
    """
    validate_allocation(log.final, sub_alloc)
    lifted = dict(sub_alloc)
    for rec in reversed(log.records):
        lifted[rec.agent] = rec.removed_goods
    validate_allocation(log.initial, lifted)
    return lifted

