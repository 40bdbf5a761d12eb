"""End-to-end approximate maximin-share solver.

The pipeline: remove agents whose maximin share is zero, order the
instance, reduce it at threshold alpha, renormalize and re-order, run bag
filling, hand out leftovers, then lift the allocation back through every
transformation.  The composed output is checked (not assumed) to be
ordered, normalized, and totally irreducible before bag filling, and the
final score is checked against alpha; either failing is an internal
invariant violation, never a silently degraded answer.

The threshold is fixed once from the original agent count.  The proven
guarantee is alpha = 3/4 + min(1/36, 3/(16n-4)); bag filling provably
cannot fail below that, and the runtime checks enforce exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .bagfill import BagFillRun, complete_allocation, run_bag_fill
from .core import (
    Allocation,
    Instance,
    Value,
    allocation_to_json,
    format_value,
    parse_value,
    validate_instance,
)
from .errors import ContractError, InternalInvariantError
from .harness import per_agent_json, verify
from .oracle import DEFAULT_MAX_GOODS, instance_mms_all, instance_mms_values
from .transforms import (
    ReductionLog,
    alpha_limit,
    is_totally_irreducible,
    lift_ordered,
    lift_reductions,
    normalize,
    reduce,
    to_ordered,
)


@dataclass(frozen=True)
class AlphaChoice:
    """A solve threshold: alpha, its excess over 3/4, and the n it came from."""

    n_original: int
    alpha: Value
    delta: Value
    mode: str

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n_original,
            "alpha": format_value(self.alpha),
            "delta": f"{self.delta.numerator}/{self.delta.denominator}",
        }


def alpha_for(n: int, mode: Union[str, Value] = "improved") -> AlphaChoice:
    """Pick the solve threshold for an instance with n agents.

    Modes: "classic" gives 3/4; "improved" gives 3/4 + min(1/36, 3/(16n-4));
    anything else is parsed as an explicit rational, which must lie in
    (0, improved bound] or it is rejected (no guarantee would hold above).
    """
    if n < 1:
        raise ContractError(f"agent count must be >= 1, got {n}")
    bound = alpha_limit(n)
    if mode == "classic":
        alpha = Fraction(3, 4)
    elif mode == "improved":
        alpha = bound
    else:
        alpha = mode if isinstance(mode, Fraction) else parse_value(mode)
        if not (0 < alpha <= bound):
            raise ContractError(
                f"explicit alpha {alpha} is outside (0, {bound}] for n={n}; "
                f"the allocation guarantee only holds up to {bound}")
        return AlphaChoice(n_original=n, alpha=alpha, delta=alpha - Fraction(3, 4),
                           mode="explicit")
    return AlphaChoice(n_original=n, alpha=alpha, delta=alpha - Fraction(3, 4),
                       mode=mode)


@dataclass(frozen=True)
class SolveReport:
    """Everything a solve produced, for scoring, auditing, and testing.

    ``irreducible_instance`` is the ordered, normalized, totally
    irreducible instance that bag filling consumed (None when the
    reductions left a single agent and bag filling was skipped).
    """

    allocation: Allocation
    score: Value
    alpha: AlphaChoice
    reduction_log: ReductionLog
    bagfill: Optional[BagFillRun]
    per_agent: dict   # agent -> (bundle value, mms, ratio or None)
    peeled: tuple     # agents removed up front for having zero maximin share
    irreducible_instance: Optional[Instance]

    def to_json(self, instance: Instance) -> dict:
        return {
            "alpha": self.alpha.to_json(),
            "score": format_value(self.score),
            "allocation": allocation_to_json(instance, self.allocation),
            "peeled_agents": list(self.peeled),
            "per_agent": per_agent_json(self.per_agent),
            "reductions": [
                {"rule": rec.rule, "agent": rec.agent,
                 "goods": sorted(rec.removed_goods),
                 "dummy": None if rec.dummy_created is None else rec.dummy_created[0]}
                for rec in self.reduction_log.records
            ],
            "bagfill": None if self.bagfill is None else {
                "events": len(self.bagfill.trace),
                "fills": sum(1 for e in self.bagfill.trace if e.kind == "fill"),
                "assignments": {str(a): k for a, k in
                                sorted(self.bagfill.state.assignments.items())},
            },
        }


def approx_mms(
    instance: Instance,
    choice: AlphaChoice,
    *,
    max_goods: int = DEFAULT_MAX_GOODS,
) -> SolveReport:
    """Solve one instance at the chosen threshold; the score meets alpha.

    Raises CapacityError if an exact maximin computation would exceed the
    configured search limit, and InternalInvariantError (with the logs
    attached) if any by-construction guarantee fails at runtime.
    """
    validate_instance(instance)
    if choice.n_original != instance.n:
        raise ContractError(
            f"alpha was chosen for {choice.n_original} agents but the "
            f"instance has {instance.n}")
    alpha = choice.alpha

    base = instance_mms_all(instance, max_goods=max_goods)
    base_values = {a: r.value for a, r in base.items()}
    peeled = tuple(a for a in instance.agents if base_values[a] == 0)

    bag_run = irreducible = None
    if len(peeled) == instance.n:
        # Nobody can secure positive value; park all goods on the first agent.
        bundles = {a: frozenset() for a in instance.agents}
        if instance.agents:
            bundles[instance.agents[0]] = frozenset(instance.goods)
        log = ReductionLog(records=(), initial=instance, final=instance)
    else:
        working = instance.without(agents=peeled)
        ordered1, map1 = to_ordered(working)
        log = reduce(ordered1, alpha, max_goods=max_goods)
        final = log.final
        if final.n == 1:
            last = final.agents[0]
            sub_alloc = Allocation(bundles={last: frozenset(final.goods)}, complete=True)
        else:
            renormalized = normalize(final, max_goods=max_goods)
            irreducible, map2 = to_ordered(renormalized)
            oni_values = instance_mms_values(irreducible)
            bad = {a: v for a, v in oni_values.items() if v != 1}
            if bad:
                raise InternalInvariantError(
                    f"normalization did not pin every maximin share to 1: {bad}",
                    payload=log)
            if not is_totally_irreducible(irreducible, alpha, oni_values):
                raise InternalInvariantError(
                    "instance is still reducible after the reduce/normalize/order "
                    "composition", payload=log)
            if irreducible.m < 2 * irreducible.n:
                raise InternalInvariantError(
                    f"only {irreducible.m} goods remain for {irreducible.n} bags",
                    payload=log)
            bag_run = run_bag_fill(irreducible, alpha)
            if bag_run.allocation is None:
                raise InternalInvariantError(
                    "bag filling ran out of goods on a reduced instance; this "
                    "contradicts the solver's guarantee", payload=(log, bag_run))
            completed = complete_allocation(irreducible, bag_run.allocation)
            lifted = lift_ordered(map2, renormalized, completed)
            # Renormalization kept the good ids, so the lifted allocation is
            # directly an allocation of the reduce output.
            sub_alloc = Allocation(bundles=lifted.bundles, complete=True)

        alloc_ordered = lift_reductions(log, sub_alloc)
        alloc_working = lift_ordered(map1, working, alloc_ordered)
        bundles = dict(alloc_working.bundles)
        for a in peeled:
            bundles[a] = frozenset()
    allocation = Allocation(bundles=bundles, complete=True)

    check = verify(instance, allocation, alpha, mms_values=base_values)
    if not check.passed:
        raise InternalInvariantError(
            f"final score {check.score} fell below the threshold {alpha}",
            payload=(log, bag_run))
    return SolveReport(allocation=allocation, score=check.score, alpha=choice,
                       reduction_log=log, bagfill=bag_run, per_agent=check.per_agent,
                       peeled=peeled, irreducible_instance=irreducible)
