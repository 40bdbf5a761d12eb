"""End-to-end approximate maximin-share solver.

The pipeline: order the instance and search every share once, set aside
agents whose share is zero, reduce at threshold alpha, renormalize by the
partitions the reductions left and re-order, run bag filling, hand out
leftovers, then lift the allocation back through reductions and ordering.
The composed output is checked (not assumed) to be ordered, normalized,
and totally irreducible before bag filling, and the final score is
checked against alpha; either failing is an internal invariant
violation, never a silently degraded answer.

The threshold is fixed once from the original agent count, and
``AlphaChoice`` checks it against that count when built.  The proven
guarantee is alpha = 3/4 + min(1/36, 3/(16n-4)); bag filling provably
cannot fail below that, and the runtime checks enforce exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .bagfill import BagFillRun, complete_allocation, run_bag_fill
from .core import (
    Instance,
    Value,
    allocation_to_json,
    format_value,
    validate_instance,
)
from .errors import InternalInvariantError, ValidationError
from .harness import per_agent_json, verify
from .oracle import DEFAULT_MAX_GOODS, instance_mms_all, instance_mms_values
from .transforms import (
    CLASSIC_ALPHA,
    ReductionLog,
    alpha_limit,
    apply_reduction,
    check_alpha,
    lift_ordered,
    lift_reductions,
    normalize,
    reduce,
    to_ordered,
)


@dataclass(frozen=True)
class AlphaChoice:
    """A solve threshold: alpha and the original agent count n it is for.

    It is checked when built: ``alpha`` goes through ``check_alpha`` for
    ``n_original`` and is stored as the Fraction read, so a hand-built
    choice above the proven bound, at most 0, or not an exact rational
    raises ValidationError naming ``alpha``.  ``mode`` and ``delta``, the
    excess over 3/4, are derived from alpha: "classic" at 3/4, "improved"
    at ``alpha_limit(n_original)``, "explicit" at any other alpha.
    """

    n_original: int
    alpha: Value

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha, self.n_original))

    @property
    def mode(self) -> str:
        if self.alpha == CLASSIC_ALPHA:
            return "classic"
        return "improved" if self.alpha == alpha_limit(self.n_original) else "explicit"

    @property
    def delta(self) -> Value:
        return self.alpha - CLASSIC_ALPHA

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n_original,
            "alpha": format_value(self.alpha),
            "delta": format_value(self.delta),
        }


def alpha_for(n: int, mode: Union[str, Value] = "improved") -> AlphaChoice:
    """Pick the solve threshold for an instance with n agents.

    Modes: "classic" gives 3/4; "improved" gives 3/4 + min(1/36, 3/(16n-4));
    anything else is an explicit rational.  ``AlphaChoice`` checks the
    result, so an explicit value outside (0, improved bound] (no guarantee
    would hold above) or not an exact rational raises ValidationError
    naming ``alpha``.
    """
    if mode == "classic":
        return AlphaChoice(n_original=n, alpha=CLASSIC_ALPHA)
    if mode == "improved":
        return AlphaChoice(n_original=n, alpha=alpha_limit(n))
    return AlphaChoice(n_original=n, alpha=mode)


@dataclass(frozen=True)
class SolveReport:
    """Everything a solve produced, for scoring, auditing, and testing.

    ``irreducible_instance`` is the ordered, normalized, totally
    irreducible instance that bag filling consumed (None when bag filling
    was skipped: every agent's share is zero, or the reductions left a
    single agent).
    """

    allocation: dict  # agent -> frozenset of real good ids
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
                                sorted(self.bagfill.assignments.items())},
            },
        }


def approx_mms(
    instance: Instance,
    choice: AlphaChoice,
    *,
    max_goods: int = DEFAULT_MAX_GOODS,
) -> SolveReport:
    """Solve one instance at the chosen threshold; the score meets alpha.

    The instance must have no dummy goods: they count toward every share
    but are never allocated, so the guarantee does not cover them, and one
    raises ValidationError naming ``dummies``.  A ``choice`` made for
    another agent count raises ValidationError too.  Raises CapacityError
    if an exact maximin computation would exceed the configured search
    limit, and InternalInvariantError (with the logs attached) if any
    by-construction guarantee fails at runtime.
    """
    validate_instance(instance)
    if instance.dummies:
        raise ValidationError("dummies: approx_mms solves instances without dummy "
                              f"goods, got {list(instance.dummies)}")
    if choice.n_original != instance.n:
        raise ValidationError(
            f"alpha was chosen for {choice.n_original} agents but the "
            f"instance has {instance.n}")
    alpha = choice.alpha

    order = to_ordered(instance)
    base = instance_mms_all(order.ordered, max_goods=max_goods)
    base_values = {a: r.value for a, r in base.items()}
    peeled = tuple(a for a in instance.agents if base_values[a] == 0)

    bag_run = irreducible = None
    if len(peeled) == instance.n:
        # Nobody can secure positive value; park all goods on the lowest id.
        allocation = {a: frozenset() for a in instance.agents}
        allocation[instance.agents[0]] = frozenset(instance.goods)
        log = ReductionLog(records=(), initial=instance, final=instance)
    else:
        working = order.ordered.without(agents=peeled)
        shares = instance_mms_all(working, max_goods=max_goods) if peeled else base
        log = reduce(working, alpha, shares, max_goods=max_goods)
        final = log.final
        if final.n == 1:
            last = final.agents[0]
            sub_alloc = {last: frozenset(final.goods)}
        else:
            reorder = to_ordered(normalize(final, log.shares))
            irreducible = reorder.ordered
            oni_values = instance_mms_values(irreducible)
            bad = {a: v for a, v in oni_values.items() if v != 1}
            if bad:
                raise InternalInvariantError(
                    f"normalization did not pin every maximin share to 1: {bad}",
                    payload=(log, None))
            if apply_reduction(irreducible, alpha, oni_values) is not None:
                raise InternalInvariantError(
                    "instance is still reducible after the reduce/normalize/order "
                    "composition", payload=(log, None))
            if irreducible.m < 2 * irreducible.n:
                raise InternalInvariantError(
                    f"only {irreducible.m} goods remain for {irreducible.n} bags",
                    payload=(log, None))
            bag_run = run_bag_fill(irreducible, alpha)
            if bag_run.bundles is None:
                raise InternalInvariantError(
                    "bag filling ran out of goods on a reduced instance; this "
                    "contradicts the solver's guarantee", payload=(log, bag_run))
            completed = complete_allocation(irreducible, bag_run.bundles)
            # Renormalization kept the good ids, so this is directly an
            # allocation of the reduce output.
            sub_alloc = lift_ordered(reorder, completed)

        bundles = lift_reductions(log, sub_alloc)
        for a in peeled:
            bundles[a] = frozenset()
        allocation = lift_ordered(order, bundles)

    check = verify(instance, allocation, alpha, mms_values=base_values)
    if not check.passed:
        raise InternalInvariantError(
            f"final score {check.score} fell below the threshold {alpha}",
            payload=(log, bag_run))
    return SolveReport(allocation=allocation, score=check.score, alpha=choice,
                       reduction_log=log, bagfill=bag_run, per_agent=check.per_agent,
                       peeled=peeled, irreducible_instance=irreducible)
