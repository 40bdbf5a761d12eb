"""Share-preserving instance transformations.

Three transformations underpin the solver, each preserving the ratio of
any bundle's value to the owner's maximin share:

* ordering     -- relabel goods so every agent's values are non-increasing
                  along a common index order, with a per-agent permutation
                  (``OrderingMap``) that lets a finished allocation be
                  lifted back by a picking procedure;
* normalization-- rescale each agent's values by their own maximin
                  partition's cell values, so every maximin share becomes
                  exactly 1;
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
    Allocation,
    Bundle,
    Instance,
    Value,
    ZERO,
    bundle_value,
    format_value,
    fresh_id,
    validate_allocation,
)
from .errors import ContractError, InternalInvariantError
from .oracle import DEFAULT_MAX_GOODS, instance_mms_all, instance_mms_values

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
        values = [row[g] for g in instance.goods]
        if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
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
        perm = sorted(instance.goods,
                      key=lambda g: (-row[g], instance.good_position[g]))
        by_agent[a] = tuple(perm)
        new_row = {rank_goods[t]: row[perm[t]] for t in range(m)}
        for d in instance.dummies:
            new_row[d] = row[d]
        valuations[a] = new_row

    certificates = None
    if instance.certificates is not None:
        certificates = {}
        for a, cells in instance.certificates.items():
            to_rank = {g: rank_goods[t] for t, g in enumerate(by_agent[a])}
            certificates[a] = tuple(
                frozenset(to_rank.get(g, g) for g in cell) for cell in cells)

    ordered = Instance(agents=instance.agents, goods=rank_goods,
                       dummies=instance.dummies, valuations=valuations,
                       certificates=certificates)
    return ordered, OrderingMap(rank_goods=rank_goods, by_agent=by_agent)


def lift_ordered(mapping: OrderingMap, original: Instance,
                 ordered_alloc: Allocation) -> Allocation:
    """Lift an allocation of the ordered instance back to the original.

    Picking procedure: walk ranks in increasing order; the agent holding
    that rank picks their most valued original good still available (ties
    by original position).  Each agent ends up with a bundle worth at
    least their ordered bundle, since the pick at rank t is at least that
    agent's t-th largest value.
    """
    if not ordered_alloc.complete:
        raise ContractError("lift_ordered needs a complete ordered allocation")
    if set(ordered_alloc.bundles) != set(mapping.by_agent):
        raise ContractError("ordered allocation agents do not match the map")
    owner_of_rank = {}
    for a, bundle in ordered_alloc.bundles.items():
        for g in bundle:
            owner_of_rank[g] = a
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
    lifted = Allocation(bundles={a: frozenset(b) for a, b in bundles.items()},
                        complete=True)
    validate_allocation(original, lifted)
    return lifted


def normalize(instance: Instance, *, max_goods: int = DEFAULT_MAX_GOODS) -> Instance:
    """Rescale so every agent's maximin share over goods + dummies is 1.

    Each agent's values are divided cell-wise by the value of the cell
    containing the good in that agent's maximin partition.  Every cell of
    that partition then has value exactly 1, which the output instance
    records as a certificate.  Requires every agent's maximin share to be
    positive (peel zero-share agents first).
    """
    results = instance_mms_all(instance, max_goods=max_goods)
    valuations = {}
    certificates = {}
    for a in instance.agents:
        partition = results[a].partition
        row = instance.valuations[a]
        new_row = {}
        for cell in partition:
            cell_value = sum((row[g] for g in cell), ZERO)
            if not cell or cell_value == 0:
                raise ContractError(
                    f"agent {a} has an empty or zero-value maximin cell; "
                    "remove zero-share agents before normalizing")
            for g in cell:
                new_row[g] = row[g] / cell_value
        if len(new_row) != len(instance.all_goods):
            raise ContractError(
                f"agent {a}: maximin partition does not cover all goods")
        valuations[a] = new_row
        certificates[a] = partition
    return Instance(agents=instance.agents, goods=instance.goods,
                    dummies=instance.dummies, valuations=valuations,
                    certificates=certificates)


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

    def to_json(self) -> list:
        return [rec.to_json() for rec in self.records]


def apply_reduction(instance: Instance, alpha: Value, k: int, agent: int,
                    mms_values: Mapping) -> tuple:
    """Give rule k's bundle to ``agent`` and shrink the instance.

    ``agent`` must be exactly what rule_target reported; rule 4 requires
    rules 1 and 3 to be inapplicable first.  Above threshold 3/4, rule 4
    appends a fresh dummy good worth max(0, v_j(S4) - MMS_j) to each
    survivor j.  Returns (new instance, ReductionRecord).  The new
    instance is built by ``Instance.without``, which drops certificates.
    """
    if rule_target(instance, alpha, k, mms_values) != agent:
        raise ContractError(
            f"rule {k} does not select agent {agent} at threshold {alpha}")
    if k == 4:
        for blocker in (1, 3):
            if rule_target(instance, alpha, blocker, mms_values) is not None:
                raise ContractError(
                    f"rule 4 applied while rule {blocker} is still applicable")
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
    *,
    max_goods: int = DEFAULT_MAX_GOODS,
) -> ReductionLog:
    """Apply reduction rules until none fits or one agent remains.

    Rules are probed in the fixed order 1, 2, 3, 4 and probing restarts
    after every application, so rule 4 only ever fires when rules 1 and 3
    just failed.  Maximin shares are recomputed from scratch each round;
    a survivor's share shrinking below its previous snapshot would break
    the reduction's validity and raises InternalInvariantError.
    """
    if not is_ordered(instance):
        raise ContractError("reduce requires an ordered instance")
    if not (0 < alpha <= alpha_limit(instance.n)):
        raise ContractError(
            f"threshold {alpha} outside (0, {alpha_limit(instance.n)}] "
            f"for {instance.n} agents")
    records = []
    current = instance
    prev_values = None
    while current.n > 1:
        values = instance_mms_values(current, max_goods=max_goods)
        if prev_values is not None:
            for a in current.agents:
                if values[a] < prev_values[a]:
                    raise InternalInvariantError(
                        f"agent {a}'s maximin share dropped from "
                        f"{prev_values[a]} to {values[a]} after a reduction",
                        payload=tuple(records))
        applied = False
        for k in RULES:
            target = rule_target(current, alpha, k, values)
            if target is not None:
                current, record = apply_reduction(current, alpha, k, target, values)
                records.append(record)
                prev_values = {a: values[a] for a in current.agents}
                applied = True
                break
        if not applied:
            break
    return ReductionLog(records=tuple(records), initial=instance, final=current)


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


def lift_reductions(log: ReductionLog, sub_alloc: Allocation) -> Allocation:
    """Reinstate reduced agents, newest first, each with their given bundle.

    ``sub_alloc`` must be a complete allocation of the log's final
    instance.  Dummy goods are never allocated; the result is a complete
    allocation of the initial instance's real goods.
    """
    if set(sub_alloc.bundles) != set(log.final.agents):
        raise ContractError("sub-allocation agents do not match the log's final instance")
    if not sub_alloc.complete:
        raise ContractError("lift_reductions needs a complete sub-allocation")
    validate_allocation(log.final, sub_alloc)
    bundles = dict(sub_alloc.bundles)
    for rec in reversed(log.records):
        bundles[rec.agent] = rec.removed_goods
    lifted = Allocation(bundles=bundles, complete=True)
    validate_allocation(log.initial, lifted)
    return lifted


def is_totally_irreducible(instance: Instance, alpha: Value,
                           mms_values: Mapping) -> bool:
    """True when no reduction rule applies at the given threshold."""
    return all(rule_target(instance, alpha, k, mms_values) is None for k in RULES)
