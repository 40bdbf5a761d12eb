"""Deterministic fixture builders shared across test modules."""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import mmsfair as mf
from mmsfair.core import _ids, check_count, scaled_ratios
from mmsfair.oracle import _checked_ratios


def random_instance(seed, n, m, bound=20, min_value=0, rational=False) -> mf.Instance:
    """Seeded random instance; min_value=1 guarantees positive rows."""
    rng = random.Random(seed)
    goods = [f"g{j}" for j in range(1, m + 1)]
    vals = {}
    for a in range(n):
        row = {}
        for g in goods:
            if rational:
                row[g] = Fraction(rng.randint(min_value, bound), rng.randint(1, bound))
            else:
                row[g] = Fraction(rng.randint(min_value, bound))
        vals[a] = row
    return mf.make_instance(n, goods, vals)


def mms_naive(valuation, parts, good_set) -> mf.MmsResult:
    """Independent oracle: try every assignment of goods to cells.

    No memoization, no pruning; limited to 10 goods and 4 parts.  Exists
    solely to cross-check ``mf.mms``, and reads its good set and checks its
    values through the package's own readers, as ``mf.mms`` does.
    """
    check_count(parts, "parts", 1)
    goods = _ids(good_set, "good_set")
    if len(goods) > 10 or parts > 4:
        raise mf.CapacityError("mms_naive is limited to 10 goods / 4 parts")
    weights, denom = scaled_ratios(_checked_ratios(valuation, goods))
    best = -1
    for assign in product(range(parts), repeat=len(goods)):
        sums = [0] * parts
        for i, cell in enumerate(assign):
            sums[cell] += weights[i]
        low = min(sums)
        if low > best:
            best = low
            best_assign = assign
    cells = [set() for _ in range(parts)]
    for i, cell in enumerate(best_assign):
        cells[cell].add(goods[i])
    return mf.MmsResult(value=Fraction(best, denom),
                        partition=tuple(frozenset(c) for c in cells))


def replay_log(log: mf.ReductionLog) -> list:
    """Reconstruct every intermediate instance from the log's records.

    Each step is the ``Instance.without`` call ``apply_reduction`` made.
    Returns [initial, after record 1, ..., final'].  The last element must
    equal the log's final instance.
    """
    instances = [log.initial]
    for rec in log.records:
        instances.append(instances[-1].without(
            agents=(rec.agent,), goods=rec.removed_goods, dummy=rec.dummy_created))
    return instances


def random_complete_allocation(rng: random.Random, instance: mf.Instance) -> dict:
    """Assign every real good to a uniformly random agent."""
    bundles = {a: set() for a in instance.agents}
    for g in instance.goods:
        bundles[rng.choice(instance.agents)].add(g)
    return {a: frozenset(b) for a, b in bundles.items()}


def equal_rows_instance(agents, m) -> mf.Instance:
    """A hand-built, unvalidated instance whose agents, listed as given,
    all value goods g1..gm at 1."""
    goods = tuple(f"g{j}" for j in range(1, m + 1))
    return mf.Instance(agents=agents, goods=goods, dummies=(),
                       valuations={a: dict.fromkeys(goods, Fraction(1)) for a in agents})


def rule4_dummy_instance() -> mf.Instance:
    """Frozen 3-agent instance where only rule 4 applies at alpha = 7/9.

    All rows are [209, 200, 130, 71, 70, 70, 65] with maximin share 270
    (cells {g1,g7}, {g2,g4}, {g3,g5,g6}); rule 4's bundle {g1,g7} is worth
    274, so each survivor's dummy value is 4.
    """
    row = [209, 200, 130, 71, 70, 70, 65]
    goods = [f"g{j}" for j in range(1, 8)]
    vals = {a: {g: Fraction(v) for g, v in zip(goods, row)} for a in range(3)}
    return mf.make_instance(3, goods, vals)


def dummy_survives_to_bagfill_instance() -> mf.Instance:
    """Frozen 3-agent instance whose solve carries a positive dummy into
    bag filling.

    The row sums to 2700 and admits the perfect partition {g1,g8},
    {g2,g3}, {g4,g5,g6,g7}, pinning the maximin share to exactly 900, so
    rule 4's bundle {g1,g7} = 905 yields a dummy worth 5.  The residual
    five goods plus dummy are totally irreducible at alpha = 7/9, so the
    dummy survives normalization into the bag-fill input.
    """
    row = [690, 460, 440, 240, 225, 220, 215, 210]
    goods = [f"g{j}" for j in range(1, 9)]
    vals = {a: {g: Fraction(v) for g, v in zip(goods, row)} for a in range(3)}
    return mf.make_instance(3, goods, vals)


def freeze_golden(path: Path, builders: dict, check=None) -> None:
    """Add to the golden file at ``path`` the cases it lacks, after the
    frozen ones; ``builders`` maps each case name to a zero-argument
    callable that returns its document.

    A frozen case is never rewritten: if its recomputed document differs,
    or its name is gone from ``builders``, every such case is named, the
    process exits non-zero and nothing is written.  ``check``, if given,
    is called with each added case's name and document before anything is
    written; it exits non-zero to refuse them.
    """
    frozen = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    stale = [name for name in frozen
             if name not in builders or builders[name]() != frozen[name]]
    if stale:
        sys.exit(f"{path.name}: frozen cases differ or lost their builder: "
                 f"{', '.join(stale)}")
    docs = dict(frozen)
    for name, build in builders.items():
        if name not in docs:
            docs[name] = build()
            if check is not None:
                check(name, docs[name])
    path.write_text(json.dumps(docs, indent=1) + "\n", encoding="utf-8")
