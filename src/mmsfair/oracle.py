"""Exact maximin-share (MMS) computation.

The maximin share of an agent over a good set S with k parts is the best
min-cell value achievable by partitioning S into k bundles, under that
agent's valuation.  Computing it is NP-hard, so this module provides an
exhaustive search that is exact at desk scale, guarded by an explicit
capacity limit that errors instead of approximating.

Two independent routes are provided:

* ``mms``       -- the production search: values are scaled to integers,
                   the answer is found by binary search over the integer
                   answer range, and each feasibility probe is a complete
                   depth-first packing with symmetry pruning and a per-call
                   transposition table.
* ``mms_naive`` -- a deliberately dumb cross-check that enumerates every
                   assignment of goods to cells, used to test ``mms``.

A third route skips search entirely: a *certificate* is a partition into
equal-valued cells.  If all k cells have the same value c, the maximin
share is exactly c (it is at least the min cell, and at most total/k = c),
so large certified instances stay exact without search.

Scoring an allocation against these shares is ``harness.verify``'s job.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterable, Mapping, Sequence

from .core import Instance, Value, ZERO
from .core import validate_allocation  # noqa: F401  unused; mmsbench's tracer wraps it here
from .errors import CapacityError, ContractError, ValidationError

DEFAULT_MAX_GOODS = 20
MAX_PARTS = 8  # fixed; only a certificate lifts it

NAIVE_MAX_GOODS = 10
NAIVE_MAX_PARTS = 4


@dataclass(frozen=True)
class MmsResult:
    """An exact maximin-share value plus one witnessing partition.

    The partition always has exactly ``parts`` cells (some may be empty
    when there are fewer goods than parts) and its minimum cell value
    equals ``value``.
    """

    value: Value
    partition: tuple  # of frozensets of good ids


def _canonical_goods(good_set: Iterable) -> list:
    """Fix a deterministic good order: keep sequence order, sort bare sets."""
    if isinstance(good_set, (list, tuple)):
        return list(good_set)
    return sorted(good_set, key=str)


def _scaled(values: Sequence[Fraction]) -> tuple:
    """Scale rationals to integers by the lcm of their denominators."""
    denom = 1
    for v in values:
        denom = lcm(denom, v.denominator)
    return [int(v * denom) for v in values], denom


def _lpt_floor(weights: Sequence[int], parts: int) -> int:
    """Greedy longest-processing-time bound: a feasible min-cell sum."""
    sums = [0] * parts
    for w in weights:
        j = min(range(parts), key=lambda j: (sums[j], j))
        sums[j] += w
    return min(sums)


def _pack(weights: Sequence[int], suffix: Sequence[int], parts: int, tau: int):
    """Split every item into ``parts`` cells, each cell summing to >= tau.

    ``weights`` must be positive and non-increasing.  Returns
    (cells as lists of item indices, dumped item indices) or None.
    Dumped items were placed after every cell had already reached tau,
    so they may later be appended to any cell.
    """
    m = len(weights)
    cells = [0] * parts
    owners = [[] for _ in range(parts)]
    dumped = []
    # Failed (item index, clipped cell sums) states.  Cells at or above tau
    # are interchangeable, so their sums are clipped to tau in the key.
    seen = set()

    def rec(i: int) -> bool:
        deficit = 0
        for c in cells:
            if c < tau:
                deficit += tau - c
        if deficit == 0:
            dumped.extend(range(i, m))
            return True
        if i == m or suffix[i] < deficit:
            return False
        key = (i, tuple(sorted(c if c < tau else tau for c in cells)))
        if key in seen:
            return False
        w = weights[i]
        tried = set()
        for j in sorted(range(parts), key=lambda j: (-cells[j], j)):
            s = cells[j]
            if s >= tau or s in tried:
                continue
            tried.add(s)
            cells[j] = s + w
            owners[j].append(i)
            if rec(i + 1):
                return True
            cells[j] = s
            owners[j].pop()
        if any(c >= tau for c in cells):
            dumped.append(i)
            if rec(i + 1):
                return True
            dumped.pop()
        seen.add(key)
        return False

    if rec(0):
        return owners, dumped
    return None


def _max_min_partition(weights: Sequence[int], parts: int) -> tuple:
    """Exact maximin over integer weights: (value, cells as index lists)."""
    m = len(weights)
    if parts == 1:
        return sum(weights), [list(range(m))]
    order = sorted(range(m), key=lambda i: (-weights[i], i))
    positive = [i for i in order if weights[i] > 0]
    zeros = [i for i in order if weights[i] == 0]
    if len(positive) < parts:
        # Some cell is forced to value 0; spread the positives, park the
        # zeros in the last cell so the minimum is witnessed exactly.
        cells = [[] for _ in range(parts)]
        for slot, i in enumerate(positive):
            cells[slot].append(i)
        cells[parts - 1].extend(zeros)
        return 0, cells

    desc = [weights[i] for i in positive]
    suffix = [0] * (len(desc) + 1)
    for i in range(len(desc) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + desc[i]

    lo = _lpt_floor(desc, parts)
    hi = suffix[0] // parts
    packing = None  # the packing at lo, once a probe has succeeded
    while lo < hi:
        mid = (lo + hi + 1) // 2
        probe = _pack(desc, suffix, parts, mid)
        if probe is None:
            hi = mid - 1
        else:
            lo, packing = mid, probe
    if packing is None:  # the LPT floor was already optimal
        packing = _pack(desc, suffix, parts, lo)
    owners, dumped = packing
    cells = [[positive[i] for i in owner] for owner in owners]
    cells[0].extend(positive[i] for i in dumped)
    cells[0].extend(zeros)
    return lo, cells


def _check_capacity(count: int, parts: int, max_goods: int) -> None:
    if count > max_goods or parts > MAX_PARTS:
        raise CapacityError(
            f"exact MMS search over {count} goods / {parts} parts exceeds the "
            f"limit ({max_goods} goods, {MAX_PARTS} parts); raise the good limit "
            f"explicitly, or supply a certificate: only a certificate lifts the "
            f"fixed part limit")


def _certified(valuation: Mapping, parts: int, goods: list, certificate) -> MmsResult:
    cells = [frozenset(cell) for cell in certificate]
    if len(cells) != parts:
        raise ContractError(
            f"certificate has {len(cells)} cells, expected {parts}")
    covered = [g for cell in cells for g in cell]
    if len(covered) != len(set(covered)) or set(covered) != set(goods):
        raise ContractError("certificate cells do not partition the good set")
    cell_values = [sum((valuation[g] for g in cell), ZERO) for cell in cells]
    if any(v != cell_values[0] for v in cell_values):
        raise ContractError(
            "certificate cells are not equal-valued; cannot pin the MMS value")
    return MmsResult(value=cell_values[0], partition=tuple(cells))


def mms(
    valuation: Mapping,
    parts: int,
    good_set: Iterable,
    *,
    certificate=None,
    max_goods: int = DEFAULT_MAX_GOODS,
) -> MmsResult:
    """Exact maximin share of ``good_set`` split into ``parts`` bundles.

    ``valuation`` maps good id -> Value.  With fewer goods than parts the
    value is 0 and some cells are empty.  An equal-valued ``certificate``
    partition short-circuits the search (and the capacity check); an
    invalid certificate raises ContractError rather than falling back.
    """
    if parts < 1:
        raise ContractError(f"parts must be >= 1, got {parts}")
    goods = _canonical_goods(good_set)
    if len(set(goods)) != len(goods):
        raise ValidationError("good set contains duplicate ids")
    values = []
    for g in goods:
        try:
            v = valuation[g]
        except KeyError:
            raise ValidationError(f"good {g!r} missing from valuation") from None
        if v < 0:
            raise ValidationError(f"negative value for good {g!r}")
        values.append(v)
    if certificate is not None:
        return _certified(valuation, parts, goods, certificate)
    _check_capacity(len(goods), parts, max_goods)
    scaled, denom = _scaled(values)
    raw, cells = _max_min_partition(scaled, parts)
    partition = tuple(frozenset(goods[i] for i in cell) for cell in cells)
    return MmsResult(value=Fraction(raw, denom), partition=partition)


def mms_naive(valuation: Mapping, parts: int, good_set: Iterable) -> MmsResult:
    """Independent oracle: try every assignment of goods to cells.

    No memoization, no pruning; limited to 10 goods and 4 parts.  Exists
    solely to cross-check ``mms``.
    """
    if parts < 1:
        raise ContractError(f"parts must be >= 1, got {parts}")
    goods = _canonical_goods(good_set)
    if len(goods) > NAIVE_MAX_GOODS or parts > NAIVE_MAX_PARTS:
        raise CapacityError(
            f"mms_naive is limited to {NAIVE_MAX_GOODS} goods / {NAIVE_MAX_PARTS} parts")
    values = [valuation[g] for g in goods]
    if any(v < 0 for v in values):
        raise ValidationError("negative value in valuation")
    scaled, denom = _scaled(values)
    best = -1
    best_assign = None
    for assign in product(range(parts), repeat=len(goods)):
        sums = [0] * parts
        for i, cell in enumerate(assign):
            sums[cell] += scaled[i]
        low = min(sums)
        if low > best:
            best = low
            best_assign = assign
    if best_assign is None:  # no goods at all
        best, best_assign = 0, ()
    cells = [set() for _ in range(parts)]
    for i, cell in enumerate(best_assign):
        cells[cell].add(goods[i])
    return MmsResult(value=Fraction(best, denom),
                     partition=tuple(frozenset(c) for c in cells))


def instance_mms_all(
    instance: Instance,
    *,
    max_goods: int = DEFAULT_MAX_GOODS,
) -> dict:
    """Each agent's MmsResult over goods + dummies with n parts.

    Uses the instance's certificate for an agent when present; otherwise
    agents with identical valuation rows share a single search.
    """
    results = {}
    row_cache = {}
    for a in instance.agents:
        cert = None
        if instance.certificates is not None:
            cert = instance.certificates.get(a)
        if cert is not None:
            results[a] = mms(instance.valuations[a], instance.n,
                             instance.all_goods, certificate=cert)
            continue
        row = instance.agent_row(a)
        if row not in row_cache:
            row_cache[row] = mms(instance.valuations[a], instance.n,
                                 instance.all_goods, max_goods=max_goods)
        results[a] = row_cache[row]
    return results


def instance_mms_values(instance: Instance, **kwargs) -> dict:
    """Like instance_mms_all but keeping only the values."""
    return {a: r.value for a, r in instance_mms_all(instance, **kwargs).items()}
