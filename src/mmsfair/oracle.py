"""Exact maximin-share (MMS) computation.

The maximin share of an agent over a good set S with k parts is the best
min-cell value achievable by partitioning S into k bundles, under that
agent's valuation.  Computing it is NP-hard, so this module provides an
exhaustive search that is exact at desk scale, guarded by an explicit
limit on the good count alone that errors instead of approximating.

One search route is provided, ``mms``: values are scaled to integers
with integer arithmetic only (each numerator times the lcm of the
denominators over its own denominator), and the value is found by
climbing from a local-search floor (the greedy LPT packing, improved by
moving or swapping items out of its emptiest cell).  Each probe asks
``_covers`` for one more than the floor, and each split it returns is
polished by the same local search: its raised minimum cell is the next
floor.  So thresholds strictly rise, and only the probe that proves the
optimum fails.  ``_covers`` is a bin-completion search: it fills one cell
at a time, opened by the largest weight left and completed by smaller
ones, with a value bound, a cell-size bound and a table of failed states
that every probe of one climb shares.  The witness is the packing the
climb ends on, whose minimum cell is the value: no second search builds
it, and it is mapped to goods only on the partition's first read.  The
independent routes that cross-check the value live in the tests.

A *certificate* skips search entirely: it is a partition into
equal-valued cells.  If all k cells have the same value c, the maximin
share is exactly c (it is at least the min cell, and at most total/k = c),
so large certified instances stay exact without search.

Scoring an allocation against these shares is ``harness.verify``'s job.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping, Sequence

from .core import (
    Instance,
    Value,
    _ids,
    certificate_cells,
    certificate_value,
    check_count,
    scaled_ratios,
)
from .core import validate_allocation  # noqa: F401  unused; mmsbench's tracer wraps it here
from .errors import CapacityError, InternalInvariantError, ValidationError

DEFAULT_MAX_GOODS = 20


class _Deferred:
    """A dataclass field that may be given a zero-argument callable in place
    of its value: the first read calls it and keeps the result in its place.

    It is a data descriptor, so a frozen dataclass's ``__init__`` stores
    through it and every read (``==``, ``hash``, ``repr``,
    ``dataclasses.replace``) goes through it.  It has no class-level
    default, so the field stays required.  Two threads reading at once may
    both call it; each keeps an equal result.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if callable(value):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class MmsResult:
    """An exact maximin-share value plus one witnessing partition.

    The partition always has exactly ``parts`` cells and its minimum cell
    value equals ``value``.  When fewer goods than parts have positive
    value, the value is 0 and some cells are empty (a searched partition
    has one positive good per cell and the zero goods in cell 0).  ``mms``
    defers it: the partition is the packing its climb ends on, mapped to
    goods on its first read (in the package only ``normalize`` and the
    CLI's ``mms`` command read it), then kept.  It may be given as a
    tuple, or as a zero-argument callable that returns one.
    """

    value: Value
    partition: tuple = _Deferred()  # of frozensets of good ids


def _checked_ratios(valuation: Mapping, goods: Sequence) -> list:
    """The integer ratio (numerator, denominator) of each good's value, which
    must be in ``valuation`` and be a non-negative int or Fraction (not a
    bool).  Each value is read once: its ratio gives the sign."""
    ratios = []
    for g in goods:
        try:
            v = valuation[g]
        except KeyError:
            raise ValidationError(f"good {g!r} missing from valuation") from None
        # Most values are Fractions: they skip the two isinstance calls.
        if v.__class__ is not Fraction and (
                isinstance(v, bool) or not isinstance(v, (int, Fraction))):
            raise ValidationError(
                f"value for good {g!r} is not an int or a Fraction: {v!r}")
        ratio = v.as_integer_ratio()
        if ratio[0] < 0:
            raise ValidationError(f"negative value for good {g!r}")
        ratios.append(ratio)
    return ratios


def _lpt_cells(desc: list, parts: int) -> list:
    """Greedy longest-processing-time packing of positive non-increasing
    weights: each of the ``parts`` largest opens a cell of its own, and each
    weight after them joins the emptiest cell (ties to the lower index)."""
    head = desc[:parts]
    cells = [[w] for w in head] + [[] for _ in range(parts - len(head))]
    sums = head + [0] * (parts - len(head))
    for w in desc[parts:]:
        j = sums.index(min(sums))
        cells[j].append(w)
        sums[j] += w
    return cells


def _raise_min(cells: list, cap: int) -> int:
    """Raise a packing's minimum cell sum by local search; returns it.

    ``cells`` are lists of positive weights and are rearranged in place.
    Each step moves one item, or swaps two, between the emptiest cell and
    another cell, taking the move that most raises the pair's smaller sum.
    It stops when no move raises it, or when the minimum reaches ``cap``
    (total // parts, which no packing exceeds).
    """
    sums = [sum(cell) for cell in cells]
    while True:
        low = min(sums)
        if low >= cap:
            return low
        a = sums.index(low)
        mine = (0, *cells[a])  # 0: move an item without swapping one back
        best, move = low, None
        for b, other in enumerate(cells):
            gap = sums[b] - low
            if low + gap // 2 <= best:  # no move here can beat the best one
                continue
            for y in other:
                for x in mine:
                    d = y - x
                    if 0 < d < gap:
                        pair = low + min(d, gap - d)
                        if pair > best:
                            best, move = pair, (b, y, x)
        if move is None:
            return low
        b, y, x = move
        cells[b].remove(y)
        cells[a].append(y)
        if x:
            cells[a].remove(x)
            cells[b].append(x)
        sums[a] += y - x
        sums[b] -= y - x


def _covers(desc: Sequence[int], parts: int, tau: int, seen: set):
    """Split the weights into ``parts`` cells each summing to >= tau, by bin
    completion: returns the cells as lists of indices into ``desc``, or
    None.  At tau <= 0 every index is in cell 0 and the other cells are
    empty; the climb never probes below 1, so only the tests reach that.

    ``desc`` must be positive and non-increasing.  One cell is filled at a
    time: the largest remaining weight opens it (some cell holds it, and
    cells are unordered), and smaller weights complete it in descending
    order, the cell cut off as soon as it reaches tau.  Of the weights that
    would reach tau at once only the smallest is tried (a split closed by a
    larger one stays a split with the two swapped), and a weight equal to a
    skipped one is skipped too.  The last cell takes every weight left.

    ``seen`` holds the failed (remaining weights, cells left) states as int
    keys, filled in place.  A state with no split at tau has none at any
    higher threshold, so one set may be shared by the probes of one search
    as long as their thresholds never fall.  Equal weights are always taken
    first to last, so each remaining multiset has one key.
    """
    n = len(desc)
    if tau <= 0:
        return [list(range(n))] + [[] for _ in range(parts - 1)]
    if n < parts or sum(desc) < tau * parts:
        return None
    starts = []  # the remaining weights at each cell start, as bit masks
    if not _cover(desc, (1 << n) - 1, parts, tau, seen, starts):
        return None
    starts.reverse()  # appended from the last cell back
    masks = [a & ~b for a, b in zip(starts, starts[1:])] + starts[-1:]
    return [[i for i in range(n) if cell >> i & 1] for cell in masks]


def _cover(desc, mask, k, tau, seen, starts) -> bool:
    """Whether the weights ``desc[i]`` with bit i set in ``mask``, which sum
    to at least k * tau, split into k cells each >= tau; on success each
    cell start's mask is appended to ``starts``, the last cell first.
    The largest weight opens each cell, and ``_complete`` closes it.

    The memo key keeps k, so the shared memo's soundness does not rest on
    the unproven claim that a mask that failed with k cells never returns
    with fewer at a higher threshold: once the slack reaches tau (tau up to
    total // (parts + 1)), one mask can close different numbers of cells.
    """
    if k == 1:
        starts.append(mask)
        return True
    key = mask | k << len(desc)
    if key in seen:
        return False
    rest = [i for i in range(len(desc)) if mask >> i & 1]
    ws = [desc[i] for i in rest]
    m = len(ws)
    suffix = [0] * (m + 1)
    for p in range(m - 1, -1, -1):
        suffix[p] = suffix[p + 1] + ws[p]
    # Cell-size bound: every cell needs at least c weights, the fewest of
    # the largest that reach tau, and at most t cells can make do with c,
    # since any t cells of c weights take t * tau from the c * t largest.
    total = suffix[0]
    c = 1
    while total - suffix[c] < tau:
        c += 1
    t = 1
    while t < k and c * (t + 1) <= m and total - suffix[c * (t + 1)] >= (t + 1) * tau:
        t += 1
    if (c + 1) * k - t > m:
        seen.add(key)
        return False
    slack = total - k * tau  # what the cells may overshoot tau by in all
    if _complete(desc, rest, ws, suffix, 1, tau - ws[0], slack,
                 mask & ~(1 << rest[0]), k, tau, seen, starts):
        starts.append(mask)
        return True
    seen.add(key)
    return False


def _complete(desc, rest, ws, suffix, j, deficit, slack, mask, k, tau, seen,
              starts) -> bool:
    """Complete the open cell, short by ``deficit`` (<= 0 when the opener
    alone reaches tau), from ``ws[j:]`` (the weights at indices
    ``rest[j:]``), then cover what is left in k - 1 cells; ``mask`` is
    what is left with the open cell's weights taken.  A cell closes only
    here, and only if its overshoot of tau fits in ``slack``."""
    if deficit <= 0:
        return -deficit <= slack and _cover(desc, mask, k - 1, tau, seen, starts)
    m = len(ws)
    p = j
    while p < m and ws[p] >= deficit:
        p += 1
    if p > j and ws[p - 1] - deficit <= slack:
        # The smallest weight that closes the cell, first of its equal run.
        w = ws[p - 1]
        q = p - 1
        while q > j and ws[q - 1] == w:
            q -= 1
        if _cover(desc, mask & ~(1 << rest[q]), k - 1, tau, seen, starts):
            return True
    last = 0
    for p in range(p, m):
        if suffix[p] < deficit:
            break
        w = ws[p]
        if w == last:
            continue
        last = w
        if _complete(desc, rest, ws, suffix, p + 1, deficit - w, slack,
                     mask & ~(1 << rest[p]), k, tau, seen, starts):
            return True
    return False


def _witness(goods: tuple, weights: list, cells: list) -> tuple:
    """The packing ``cells`` of positive weights as frozensets of ``goods``.

    ``weights`` holds each good's weight.  Equal weights are
    interchangeable, so each weight in a cell takes the next good of that
    weight in index order, and the zero-weight goods join cell 0.
    """
    pools = {}  # each weight's goods, the last index first
    for good, w in zip(reversed(goods), reversed(weights)):
        pools.setdefault(w, []).append(good)
    named = [[pools[w].pop() for w in cell] for cell in cells]
    named[0] += pools.get(0, ())
    return tuple(map(frozenset, named))


def _max_min_partition(weights: Sequence[int], parts: int, goods: tuple) -> tuple:
    """Exact maximin over integer weights, one per good: (value, witness).

    The value is found by a climb.  It starts at a
    local-search floor (the LPT packing improved by ``_raise_min``) and
    asks ``_covers`` only for one above the floor.  ``_covers`` closes each
    cell as soon as it reaches the threshold, so a split's smallest cell
    sits just above it; ``_raise_min`` polishes the split, and the floor
    rises to the polished minimum (at most total // parts).  Feasibility is
    monotone in the threshold, so the first failed probe, or a floor at
    total // parts, proves the floor optimal.  Thresholds strictly rise
    (a split short of its threshold, which would be re-probed forever,
    raises InternalInvariantError before it is polished), so every probe
    of one search shares one failed-state memo and none is probed twice;
    a floor that is already optimal costs at most one failing probe.  With
    fewer positive weights than parts the floor is 0, and a probe at 1
    ends the climb at ``_covers``'s root check.

    The witness is the packing the climb ends on, whose minimum cell is
    the value: the polished LPT cells when no probe succeeds, otherwise
    the last successful split once polished.  ``witness`` is a
    zero-argument callable that maps it to goods (``_witness``); it runs
    no search.
    """
    desc = sorted([w for w in weights if w], reverse=True)
    hi = sum(desc) // parts
    cells = _lpt_cells(desc, parts)
    lo = _raise_min(cells, hi)
    seen = set()
    while lo < hi:
        split = _covers(desc, parts, lo + 1, seen)
        if split is None:
            break
        cells = [[desc[i] for i in cell] for cell in split]
        low = min(map(sum, cells))
        if low <= lo:
            raise InternalInvariantError(
                f"_covers at threshold {lo + 1} into {parts} parts returned the "
                f"cell {min(cells, key=sum)}, which sums to only {low}")
        lo = _raise_min(cells, hi)
    return lo, partial(_witness, goods, weights, cells)


def mms(
    valuation: Mapping,
    parts: int,
    good_set: Iterable,
    *,
    certificate=None,
    max_goods: int = DEFAULT_MAX_GOODS,
) -> MmsResult:
    """Exact maximin share of ``good_set`` split into ``parts`` bundles.

    ``good_set`` is a list, tuple or set of distinct string ids, read by
    ``_ids`` (a set's ids sorted).  ``valuation`` maps good id -> a
    non-negative int or Fraction (not a bool); any other value, a missing
    good or any other ``good_set`` raises ValidationError, as does a
    ``max_goods`` that is not a non-negative int, certificate or not, or a
    ``parts`` that is not a positive int (a bool is not one).  When fewer
    goods than parts have positive value the value is 0, and a searched
    partition has one positive good per cell and the zero goods in cell 0.
    A search over more than ``max_goods``
    goods raises CapacityError, as does a search that recurses past the
    stack (a cell of about a thousand goods); the good count is the only
    limit, whatever the part count.  An equal-valued
    ``certificate`` partition, cells as ``make_instance`` takes them,
    short-circuits the search (and that limit); any other certificate
    raises ValidationError naming it rather than falling back.  A searched
    result's partition is the packing its search ends on, mapped to goods
    on its first read.
    """
    check_count(parts, "parts", 1)
    check_count(max_goods, "max_goods", 0)
    goods = _ids(good_set, "good_set")
    ratios = _checked_ratios(valuation, goods)
    if certificate is not None:
        cells = certificate_cells(certificate, "certificate")
        return MmsResult(certificate_value(valuation, cells, parts, goods, "certificate"), cells)
    if len(goods) > max_goods:
        raise CapacityError(
            f"exact MMS search over {len(goods)} goods exceeds the limit of "
            f"{max_goods} goods; raise it explicitly, or supply a certificate")
    weights, denom = scaled_ratios(ratios)
    try:
        raw, witness = _max_min_partition(weights, parts, goods)
    except RecursionError:
        # _complete recurses once per weight in a cell, so a cell of about
        # a thousand goods passes Python's recursion limit.
        raise CapacityError(
            f"exact MMS search over {len(goods)} goods ran out of stack; lower "
            f"max_goods (--max-goods), or supply a certificate") from None
    return MmsResult(Fraction(raw, denom), witness)


def instance_mms_all(
    instance: Instance,
    *,
    max_goods: int = DEFAULT_MAX_GOODS,
) -> dict:
    """Each agent's MmsResult over goods + dummies with n parts.

    Uses the instance's certificate for an agent when present; otherwise
    agents with identical valuation rows share a single search and result
    (rows are compared, not hashed: they rarely repeat and differ early).
    """
    results = {}
    searched = []  # (row, result) for each row searched so far
    for a in instance.agents:
        row = instance.valuations[a]
        cert = instance.certificates.get(a)
        if cert is not None:
            results[a] = mms(row, instance.n, instance.all_goods, certificate=cert,
                             max_goods=max_goods)
            continue
        for earlier, result in searched:
            if row == earlier:
                break
        else:
            result = mms(row, instance.n, instance.all_goods, max_goods=max_goods)
            searched.append((row, result))
        results[a] = result
    return results


def instance_mms_values(instance: Instance, **kwargs) -> dict:
    """Like instance_mms_all but keeping only the values."""
    return {a: r.value for a, r in instance_mms_all(instance, **kwargs).items()}
