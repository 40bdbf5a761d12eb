"""Instance generators and allocation scoring.

``verify`` is the one place a bundle value is divided by a maximin share:
the CLI's verify and bench commands and the solver's own final check all
score through it.

The tight-family generator builds, for any n >= 2, the identical-valuation
instance with 3n-1 goods on which no rule-or-bag-filling solver can score
better than 3n/(4n-2).  It ships with an equal-valued partition per agent
(two top goods together, then triples pairing ranks i+2, 2n+1-i, 2n+i), so
every maximin share is pinned to exactly 1 without search.

Random generators are fully determined by their seed, so suites and
golden files are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .core import (
    Instance,
    Value,
    bundle_value,
    check_count,
    check_shares,
    format_value,
    make_instance,
    parse_field,
    validate_allocation,
)
from .errors import ContractError
from .oracle import DEFAULT_MAX_GOODS, instance_mms_values


@dataclass(frozen=True)
class GeneratorSpec:
    """A reproducible instance recipe; the seed fully determines the output."""

    kind: str
    n: int
    m: int = 0
    value_bound: int = 0
    seed: int = 0

    def instance_id(self) -> str:
        return f"{self.kind}-n{self.n}-m{self.m}-b{self.value_bound}-s{self.seed}"


def gen_tight_example(n: int) -> Instance:
    """The worst-case identical-valuation instance with 3n-1 goods.

    Good j is worth (2n-1 - floor((j-1)/2)) / (4n-2) for j <= 2n and
    n/(4n-2) beyond; all agents agree.  Carries the equal-valued
    partition certificate, so each agent's maximin share is exactly 1.
    An ``n`` that is not an int of at least 2 raises ContractError.
    """
    check_count(n, "n", 2, ContractError)
    denom = 4 * n - 2
    goods = [f"g{j}" for j in range(1, 3 * n)]
    values = {}
    for j in range(1, 3 * n):
        if j <= 2 * n:
            values[f"g{j}"] = Fraction(2 * n - 1 - (j - 1) // 2, denom)
        else:
            values[f"g{j}"] = Fraction(n, denom)
    cells = [frozenset({"g1", "g2"})]
    for i in range(1, n):
        cells.append(frozenset({f"g{i + 2}", f"g{2 * n + 1 - i}", f"g{2 * n + i}"}))
    valuations = {a: dict(values) for a in range(n)}
    certificates = {a: tuple(cells) for a in range(n)}
    return make_instance(n, goods, valuations, certificates=certificates)


def gen_random(spec: GeneratorSpec) -> Instance:
    """Seeded random instance: integer or rational values per (agent, good).

    uniform-int draws values in [0, bound]; uniform-rational draws p/q
    with p in [0, bound] and q in [1, bound].  Draws go agent by agent,
    good by good, so the same spec always yields the same instance.
    A spec of another kind, or whose ``n``, ``m`` or ``value_bound`` is not
    an int of at least 1, 0 or 0 (1 for uniform-rational), raises
    ContractError.
    """
    if spec.kind not in ("uniform-int", "uniform-rational"):
        raise ContractError(f"gen_random cannot generate kind {spec.kind!r}")
    check_count(spec.n, "n", 1, ContractError)
    check_count(spec.m, "m", 0, ContractError)
    bound = spec.value_bound
    check_count(bound, "value_bound", 1 if spec.kind == "uniform-rational" else 0, ContractError)
    rng = random.Random(spec.seed)
    goods = [f"g{j}" for j in range(1, spec.m + 1)]
    valuations = {}
    for a in range(spec.n):
        row = {}
        for g in goods:
            if spec.kind == "uniform-int":
                row[g] = Fraction(rng.randint(0, bound))
            else:
                row[g] = Fraction(rng.randint(0, bound), rng.randint(1, bound))
        valuations[a] = row
    return make_instance(spec.n, goods, valuations)


@dataclass(frozen=True)
class VerifyReport:
    """Independent per-agent scoring of an allocation against a threshold."""

    alpha: Value
    score: Value
    passed: bool
    per_agent: dict  # agent -> (bundle value, mms, ratio or None)

    def to_json(self) -> dict:
        return {
            "alpha": format_value(self.alpha),
            "score": format_value(self.score),
            "passed": self.passed,
            "per_agent": per_agent_json(self.per_agent),
        }


def per_agent_json(per_agent: Mapping) -> dict:
    """JSON form of a per-agent (bundle value, mms, ratio or None) table."""
    def fmt(v):
        return None if v is None else format_value(v)

    return {
        str(a): {"bundle_value": fmt(bv), "mms": fmt(mv), "ratio": fmt(r)}
        for a, (bv, mv, r) in sorted(per_agent.items())
    }


def verify(
    instance: Instance,
    allocation: dict,
    alpha: Value,
    *,
    mms_values: Optional[Mapping] = None,
    max_goods: int = DEFAULT_MAX_GOODS,
) -> VerifyReport:
    """Score an allocation: per-agent shares, ratios, and pass/fail.

    Maximin shares are ``mms_values`` when given, else they come from the
    exhaustive oracle (or the instance's certificate when it has one).
    Agents with zero maximin share are treated as satisfied; if nobody has
    a positive share the score is 1.

    ``alpha`` and every share are read by ``parse_field``, so a negative,
    float or bool one raises ValidationError naming ``alpha`` or
    ``mms_values[a]``.  A table not keyed by exactly the instance's agents
    raises ContractError (``check_shares``).
    """
    validate_allocation(instance, allocation)
    alpha = parse_field(alpha, "alpha")
    if mms_values is None:
        mms_values = instance_mms_values(instance, max_goods=max_goods)
    check_shares(instance, mms_values, "mms_values")
    per_agent = {}
    ratios = []
    for a in instance.agents:
        bv = bundle_value(instance, a, allocation[a])
        mv = parse_field(mms_values[a], f"mms_values[{a}]")
        ratio = bv / mv if mv > 0 else None
        per_agent[a] = (bv, mv, ratio)
        if ratio is not None:
            ratios.append(ratio)
    score = min(ratios) if ratios else Fraction(1)
    return VerifyReport(alpha=alpha, score=score, passed=score >= alpha,
                        per_agent=per_agent)
