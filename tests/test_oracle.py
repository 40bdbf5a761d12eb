"""MMS oracle: frozen examples, cross-oracle checks, invariants, capacity."""

import dataclasses
import gc
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mmsfair as mf
from mmsfair import core, oracle

from helpers import freeze_golden, mms_naive, random_complete_allocation, random_instance


def _vals(numbers):
    return {f"g{i}": Fraction(v) for i, v in enumerate(numbers, 1)}


def _check_witness(valuation, parts, result):
    cells = result.partition
    assert len(cells) == parts
    covered = [g for cell in cells for g in cell]
    assert len(covered) == len(set(covered)) == len(valuation)
    assert set(covered) == set(valuation)
    assert min(sum((valuation[g] for g in cell), Fraction(0)) for cell in cells) == result.value


def test_single_part_is_total():
    vals = {"a": Fraction(3), "b": Fraction(5)}
    r = mf.mms(vals, 1, ["a", "b"])
    assert r.value == 8
    assert r.partition == (frozenset({"a", "b"}),)


def test_two_parts_hand_case():
    vals = _vals([7, 5, 4, 3, 2])
    r = mf.mms(vals, 2, list(vals))
    assert r.value == 10
    _check_witness(vals, 2, r)


def test_tight_example_oracle_value_one():
    inst = mf.gen_tight_example(3)
    row = inst.valuations[0]
    r = mf.mms(row, 3, inst.goods)  # no certificate: real search
    assert r.value == 1
    _check_witness(row, 3, r)


def test_naive_single_part_and_unit_cases():
    vals = _vals([1, 1, 1])
    assert mms_naive(vals, 1, list(vals)).value == 3
    assert mms_naive(vals, 2, list(vals)).value == 1
    assert mms_naive(vals, 3, list(vals)).value == 1


def test_fewer_goods_than_parts_gives_zero_with_empty_cells(monkeypatch):
    # The share is an ordinary search: the floor is 0, the one probe at 1 is
    # refused at _covers's root check, and the witness is _covers at 0 with
    # a fresh memo, which puts every good in cell 0.
    probes = _recording(monkeypatch)
    vals = _vals([4, 9])
    r = mf.mms(vals, 3, list(vals))
    assert r.value == 0
    assert probes == [(1, None, set())]
    climb_memo = probes[0][2]
    assert r.partition == (frozenset({"g1", "g2"}), frozenset(), frozenset())
    assert probes[1:] == [(0, [[0, 1], [], []], set())]
    assert probes[1][2] is not climb_memo
    _check_witness(vals, 3, r)
    for empty in (mf.mms({}, 2, []), mms_naive({}, 2, [])):
        assert empty.value == 0
        assert empty.partition == (frozenset(), frozenset())


def test_oracle_matches_naive_on_random_smoke():
    rng = random.Random(17)
    for _ in range(60):
        m = rng.randint(1, 7)
        parts = rng.randint(1, 3)
        vals = {f"g{i}": Fraction(rng.randint(0, 12)) for i in range(1, m + 1)}
        fast = mf.mms(vals, parts, list(vals))
        slow = mms_naive(vals, parts, list(vals))
        assert fast.value == slow.value, (vals, parts)
        _check_witness(vals, parts, fast)
        _check_witness(vals, parts, slow)


def test_oracle_matches_naive_on_rationals():
    rng = random.Random(23)
    for _ in range(25):
        m = rng.randint(2, 6)
        parts = rng.randint(1, 3)
        vals = {f"g{i}": Fraction(rng.randint(0, 8), rng.randint(1, 8))
                for i in range(1, m + 1)}
        assert mf.mms(vals, parts, list(vals)).value == \
            mms_naive(vals, parts, list(vals)).value


def test_monotone_in_goods_and_parts():
    rng = random.Random(31)
    for _ in range(30):
        m = rng.randint(2, 8)
        parts = rng.randint(2, 4)
        vals = {f"g{i}": Fraction(rng.randint(0, 15)) for i in range(1, m + 1)}
        base = mf.mms(vals, parts, list(vals)).value
        grown = dict(vals)
        grown["extra"] = Fraction(rng.randint(0, 15))
        assert mf.mms(grown, parts, list(grown)).value >= base
        assert mf.mms(vals, parts - 1, list(vals)).value >= base


def test_scale_equivariance_and_witness_transfer():
    rng = random.Random(41)
    for _ in range(15):
        m = rng.randint(3, 8)
        parts = rng.randint(2, 4)
        vals = {f"g{i}": Fraction(rng.randint(0, 9)) for i in range(1, m + 1)}
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = {g: c * v for g, v in vals.items()}
        r = mf.mms(vals, parts, list(vals))
        rs = mf.mms(scaled, parts, list(scaled))
        assert rs.value == c * r.value
        # the original witness stays optimal after scaling
        scaled_min = min(sum((scaled[g] for g in cell), Fraction(0))
                         for cell in r.partition)
        assert scaled_min == rs.value


def test_mms_rejects_parts_and_max_goods_that_are_not_ints():
    # A bool is not a count: True parts once searched as 1 part, and
    # max_goods=True once read as a limit of 1 good.
    vals = {"a": 1, "b": 2}
    for parts in (2.0, "2", None, True, 0):
        for oracle_fn in (mf.mms, mms_naive):
            with pytest.raises(mf.ContractError, match="parts"):
                oracle_fn(vals, parts, ["a", "b"])
    for max_goods in (None, True, 20.5, "20", -1):
        with pytest.raises(mf.ValidationError, match="max_goods"):
            mf.mms(vals, 2, ["a", "b"], max_goods=max_goods)


def test_capacity_errors(monkeypatch):
    vals = {f"g{i}": Fraction(1) for i in range(25)}
    with pytest.raises(mf.CapacityError):
        mf.mms(vals, 2, list(vals))
    small = {f"g{i}": Fraction(1) for i in range(5)}
    # the good count is the only limit: 9 parts are searched
    r = mf.mms(small, 9, list(small))
    assert r.value == 0
    assert r.partition == (frozenset(small),) + (frozenset(),) * 8
    # explicit limits override the default
    r = mf.mms(vals, 2, list(vals), max_goods=25)
    assert r.value == 12
    with pytest.raises(mf.CapacityError):
        mms_naive(vals, 2, list(vals))
    with pytest.raises(mf.CapacityError):
        mms_naive(small, 5, list(small))
    with pytest.raises(mf.ValidationError, match="max_goods"):
        mf.mms({}, 2, [], max_goods=-1)
    # a certificate skips the search, not the sign check
    tight = mf.gen_tight_example(3)
    with pytest.raises(mf.ValidationError, match="max_goods"):
        mf.mms(tight.valuations[0], 3, tight.goods, certificate=tight.certificates[0],
               max_goods=-1)
    with pytest.raises(mf.ValidationError, match="max_goods"):
        mf.instance_mms_values(tight, max_goods=-1)
    # A search past the stack is a capacity error too: the floor of 3,000
    # unit goods is already total // 2, and the witness read completes a
    # cell of 1,500 goods, one recursion level each.
    many = {f"g{i}": 1 for i in range(3000)}
    r = mf.mms(many, 2, list(many), max_goods=5000)
    assert r.value == 1500
    with pytest.raises(mf.CapacityError, match="stack.*max_goods"):
        r.partition

    def past_the_stack(*args):
        raise RecursionError

    # and so is a climb that recurses past it
    monkeypatch.setattr(oracle, "_max_min_partition", past_the_stack)
    with pytest.raises(mf.CapacityError, match="stack.*max_goods"):
        mf.mms(small, 2, list(small))


def test_certificate_pins_value_beyond_capacity():
    inst = mf.gen_tight_example(12)  # 35 goods, far over the search limit
    assert inst.m == 35
    row = inst.valuations[0]
    r = mf.mms(row, 12, inst.all_goods, certificate=inst.certificates[0])
    assert r.value == 1
    values = mf.instance_mms_values(inst)
    assert all(v == 1 for v in values.values())


def test_certificate_validation_is_strict():
    vals = _vals([2, 2, 1, 1])
    goods = list(vals)
    with pytest.raises(mf.ValidationError):  # unequal cells
        mf.mms(vals, 2, goods, certificate=[{"g1", "g2"}, {"g3", "g4"}])
    with pytest.raises(mf.ValidationError):  # not a partition
        mf.mms(vals, 2, goods, certificate=[{"g1", "g3"}, {"g2", "g3"}])
    with pytest.raises(mf.ValidationError):  # wrong cell count
        mf.mms(vals, 3, goods, certificate=[{"g1", "g3"}, {"g2", "g4"}])
    # malformed cells: the shape rule make_instance applies
    for bad in ([1], 5, "g1g2", [["g1"], 7], [["g1", "g1"], ["g2"]]):
        with pytest.raises(mf.ValidationError, match="certificate"):
            mf.mms(vals, 2, goods, certificate=bad)
    ok = mf.mms(vals, 2, goods, certificate=[{"g1", "g3"}, {"g2", "g4"}])
    assert ok.value == 3


def test_identical_rows_share_one_search():
    inst = mf.gen_tight_example(4)
    stripped = mf.Instance(agents=inst.agents, goods=inst.goods,
                           dummies=inst.dummies, valuations=inst.valuations)
    results = mf.instance_mms_all(stripped)
    assert all(r.value == 1 for r in results.values())
    assert results[0] is results[3]
    # rows equal on the real goods but not on the dummy are searched apart
    row = {"g1": 3, "g2": 2, "g3": 1, "d1": 1}
    inst = mf.make_instance(3, ["g1", "g2", "g3"], {0: row, 1: dict(row),
                            2: {**row, "d1": 4}}, dummies=["d1"])
    results = mf.instance_mms_all(inst)
    assert results[0] is results[1]
    assert results[2] is not results[0]
    assert (results[0].value, results[2].value) == (2, 3)


def test_mms_score_of_certificate_partition_is_one():
    # the MMS score (min bundle value / share) is computed by verify
    inst = mf.gen_tight_example(3)
    cells = list(inst.certificates[0])
    alloc = {a: cells[a] for a in inst.agents}
    assert mf.verify(inst, alloc, Fraction(3, 4)).score == 1


def test_mms_score_tight_bags_plus_leftovers():
    inst = mf.gen_tight_example(3)
    alloc = {
        0: frozenset({"g1", "g6", "g7", "g8"}),
        1: frozenset({"g2", "g5"}),
        2: frozenset({"g3", "g4"}),
    }
    assert mf.verify(inst, alloc, Fraction(3, 4)).score == Fraction(8, 10)


def test_mms_score_requires_complete_allocation():
    inst = random_instance(7, 2, 4)
    partial = {0: frozenset(), 1: frozenset()}
    with pytest.raises(mf.ValidationError, match="unallocated"):
        mf.verify(inst, partial, Fraction(3, 4))


def _recording(monkeypatch) -> list:
    """Record (tau, result, memo) for every call of ``oracle._covers``."""
    probes = []
    real = oracle._covers

    def recording(desc, parts, tau, seen):
        result = real(desc, parts, tau, seen)
        probes.append((tau, result, seen))
        return result

    monkeypatch.setattr(oracle, "_covers", recording)
    return probes


def test_max_min_partition_probes_each_threshold_once(monkeypatch):
    # LPT packs [3, 3, 2, 2, 2] into 7 | 5 and local search raises that to
    # the optimum 6 | 6, which is total // parts: the value costs no probe,
    # and the witness one _covers at 6, made when the partition is first
    # read.
    probes = _recording(monkeypatch)
    vals = _vals([3, 3, 2, 2, 2])
    r = mf.mms(vals, 2, list(vals))
    assert r.value == 6
    assert probes == []
    _check_witness(vals, 2, r)
    assert [tau for tau, _, _ in probes] == [6]
    probes.clear()
    _check_witness(vals, 2, r)
    assert probes == []


def _witness_at(weights, parts, tau):
    """Cells of _covers at tau with a fresh memo, built as
    _max_min_partition builds its witness."""
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    positive = [i for i in order if weights[i] > 0]
    desc = [weights[i] for i in positive]
    cells = [[positive[i] for i in cell] for cell in oracle._covers(desc, parts, tau, set())]
    cells[0].extend(i for i in order if weights[i] == 0)
    return cells


def _goods_cells(goods, cells):
    return tuple(frozenset(goods[i] for i in cell) for cell in cells)


def test_max_min_partition_polishes_each_split(monkeypatch):
    # The floor of these weights over 3 parts is 31.  The probe at 32 splits
    # them 33 | 32 | 34, the smallest cell just above the threshold, and
    # local search raises that split's minimum to 33 = total // parts, which
    # ends the climb without a probe at 33.
    probes = _recording(monkeypatch)
    desc = [27, 18, 15, 14, 10, 9, 4, 2]
    assert oracle._raise_min(oracle._lpt_cells(desc, 3), 33) == 31
    vals = _vals(desc)
    assert mf.mms(vals, 3, list(vals)).value == 33
    assert [tau for tau, _, _ in probes] == [32]
    assert sorted(sum(desc[i] for i in cell) for cell in probes[0][1]) == [32, 33, 34]


def test_max_min_partition_climbs_with_one_failed_probe(monkeypatch):
    # lcm-scaled rationals make an answer range about 1e10 wide.  The value
    # climb probes _covers only one above the best minimum cell seen so far,
    # each split polished by local search, so only the probe just above the
    # optimum fails, and no witness is built until the partition is read:
    # then one _covers at the optimum, with a memo of its own.  The seeded
    # integer cases include splits that local search raises, so the climb's
    # use of the polished minimum is checked.
    probes = _recording(monkeypatch)
    rng, ints = random.Random(53), random.Random(1)
    cases = [([Fraction(rng.randint(1, 100), rng.randint(1, 100))
               for _ in range(rng.randint(7, 11))], rng.randint(3, 4))
             for _ in range(20)]
    cases += [([ints.randint(1, 1000) for _ in range(ints.randint(9, 12))],
               ints.randint(3, 5)) for _ in range(20)]
    raised = 0
    for values, parts in cases:
        vals = _vals(values)
        weights, denom = core.scaled(values)
        probes.clear()
        r = mf.mms(vals, parts, list(vals))
        value = r.value * denom
        assert value.denominator == 1
        value = value.numerator

        # Each probe is one above the floor or the last split's smallest
        # cell after local search, so thresholds strictly rise, and all of
        # them share one memo.
        desc = sorted(weights, reverse=True)
        hi = sum(desc) // parts
        lo = oracle._raise_min(oracle._lpt_cells(desc, parts), hi)
        for tau, cells, seen in probes:
            assert tau == lo + 1 <= hi, (lo, probes)
            assert seen is not None and seen is probes[0][2]
            if cells is None:
                break
            split = [[desc[i] for i in cell] for cell in cells]
            low = min(map(sum, split))
            lo = oracle._raise_min(split, hi)
            raised += lo > low
        assert lo == value, (value, probes)
        # The climb ends at its first failure, at value + 1, or at
        # total // parts with none.
        failed = [tau for tau, cells, _ in probes if cells is None]
        assert failed == ([] if value == hi else [value + 1]), (value, probes)
        assert not failed or probes[-1][1] is None

        climb_memo = probes[0][2] if probes else None
        expected = _goods_cells(list(vals), _witness_at(weights, parts, value))
        probes.clear()
        assert r.partition == expected
        assert [tau for tau, _, _ in probes] == [value]
        assert probes[0][2] is not climb_memo
        probes.clear()
        assert r.partition == expected
        assert probes == []
    assert raised, "no successful probe's split was raised by local search"


def test_values_never_build_a_witness(monkeypatch):
    # instance_mms_values and verify read no partition, so they build no
    # witness: every _covers call is a climb's probe, made inside
    # _max_min_partition, and none runs after a search returns.  Each
    # search probes its value at most once, the climb's own success there
    # when its floor was one below it.
    optima = {}
    real_search = oracle._max_min_partition
    searching = False

    def recording_search(weights, parts, goods):
        nonlocal searching
        searching = True
        try:
            value, witness = real_search(weights, parts, goods)
        finally:
            searching = False
        optima[tuple(sorted(filter(None, weights), reverse=True)), parts] = value
        return value, witness

    probes = []
    real_covers = oracle._covers

    def recording_covers(desc, parts, tau, seen):
        probes.append((tuple(desc), parts, tau, searching))
        return real_covers(desc, parts, tau, seen)

    monkeypatch.setattr(oracle, "_max_min_partition", recording_search)
    monkeypatch.setattr(oracle, "_covers", recording_covers)
    rng = random.Random(61)
    for seed in range(6):
        inst = random_instance(seed, 3, 9, bound=100)
        mf.instance_mms_values(inst)
        mf.verify(inst, random_complete_allocation(rng, inst), Fraction(3, 4))
    assert len(optima) == 18 and len(probes) >= 36
    assert all(inside for *_, inside in probes)
    at_optimum = [(desc, parts) for desc, parts, tau, _ in probes
                  if tau == optima[desc, parts]]
    assert len(at_optimum) == len(set(at_optimum)) * 2  # each searched twice


@st.composite
def _desc_weights(draw, min_value=1):
    """Up to 12 non-increasing weights; half the draws are near-equal
    (base +- 10%)."""
    if draw(st.booleans()):
        base = draw(st.integers(10, 1000))
        item = st.integers(base - base // 10, base + base // 10)
    else:
        item = st.integers(min_value, 1000)
    return sorted(draw(st.lists(item, min_size=1, max_size=12)), reverse=True)


@settings(max_examples=200)
@given(_desc_weights(min_value=0), st.integers(1, 6))
def test_deferred_partition_is_the_witness_at_the_value(weights, parts):
    vals = _vals(weights)
    r = mf.mms(vals, parts, list(vals))
    _check_witness(vals, parts, r)
    cells = _witness_at(weights, parts, r.value.numerator)
    assert r.partition == _goods_cells(list(vals), cells)


def test_witnesses_past_twenty_goods():
    # Every share of these 24-good rows, witness included, takes
    # milliseconds: the witness is one more _covers probe, at the value.
    for seed in (1, 2, 3):
        inst = random_instance(seed, 6, 24, bound=1000)
        for row in inst.valuations.values():
            _check_witness(row, 6, mf.mms(row, 6, inst.goods, max_goods=24))


def test_results_replace_compare_and_hash():
    # A searched result whose partition is not yet built behaves as one
    # constructed with its partition: equal, equally hashed and replaceable.
    vals = _vals([7, 5, 4, 3, 2])
    searched = mf.mms(vals, 2, list(vals))
    built = mf.MmsResult(Fraction(10), searched.partition)
    assert mf.MmsResult(value=Fraction(10), partition=built.partition) == built
    fresh = mf.mms(vals, 2, list(vals))
    assert fresh == searched == built and hash(fresh) == hash(searched) == hash(built)
    for result in (mf.mms(vals, 2, list(vals)), built):
        halved = dataclasses.replace(result, value=result.value / 2)
        assert halved == mf.MmsResult(Fraction(5), searched.partition)
        assert halved != result and hash(halved) == hash((Fraction(5), searched.partition))
        assert repr(halved) == f"MmsResult(value={Fraction(5)!r}, partition={searched.partition!r})"
    with pytest.raises(dataclasses.FrozenInstanceError):
        searched.partition = ()
    with pytest.raises(TypeError):
        mf.MmsResult(Fraction(1))


# An independent packing search, kept unedited: it shares no code or branch
# order with ``_covers``, so it checks whether a split exists at a threshold.
def _reference_pack(weights, suffix, parts, tau):
    """``oracle._pack`` as it stood before the item-count bound, verbatim.

    The rewritten kernel must return exactly what this returns for every
    input: its packing at the optimum is the witness that feeds
    ``normalize``'s rescale and every frozen allocation.
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


def _reference(desc, parts, tau):
    return _reference_pack(desc, [sum(desc[i:]) for i in range(len(desc) + 1)], parts, tau)


def _assert_covers_matches_reference(desc, parts, tau, seen):
    """``_covers`` with the memo ``seen`` finds a split exactly when the
    reference packing exists, and its cells split ``desc`` into ``parts``
    cells each summing to at least tau."""
    cells = oracle._covers(desc, parts, tau, seen)
    assert (cells is None) == (_reference(desc, parts, tau) is None), (desc, parts, tau)
    if cells is not None:
        assert len(cells) == parts
        assert all(sum(desc[i] for i in cell) >= tau for cell in cells)
        assert sorted(i for cell in cells for i in cell) == list(range(len(desc)))


# Golden cases cheap enough for the reference at every threshold.  The
# pow2, few-valued and identical ones are tie-heavy: many weights are equal,
# so they check hardest that skipping an equal weight loses no split.
REFERENCE_CASES = (("int", 0), ("int", 3), ("correlated", 30), ("correlated", 31),
                   *(("pow2", seed) for seed in (0, 1, 2, 3, 4)),
                   *(("few-valued", seed) for seed in (0, 1, 2, 3, 4)),
                   *(("identical", seed) for seed in (0, 1, 2, 3, 4)))


def _lpt_thresholds(kind, seed):
    """(desc, parts, every threshold from the LPT floor, which is below the
    climb's local-search floor, to the first one past total // parts)."""
    parts, values = golden_mms_case(kind, seed)
    weights, _ = core.scaled(values)
    desc = sorted((w for w in weights if w > 0), reverse=True)
    floor = min(map(sum, oracle._lpt_cells(desc, parts)))
    return desc, parts, range(floor, sum(desc) // parts + 2)


def test_covers_with_one_memo_over_rising_thresholds_matches_reference():
    # A climb shares one failed-state memo across its probes; sharing it
    # must not change any probe's answer.
    for kind, seed in REFERENCE_CASES:
        desc, parts, taus = _lpt_thresholds(kind, seed)
        seen = set()
        for tau in taus:
            _assert_covers_matches_reference(desc, parts, tau, seen)


@st.composite
def _covers_inputs(draw):
    """Non-increasing positive weights, a part count and any threshold from
    0 up to one past total // parts; half the draws are near-equal
    (base +- 10%)."""
    desc = draw(_desc_weights())
    parts = draw(st.integers(2, 12))
    return desc, parts, draw(st.integers(0, sum(desc) // parts + 1))


@settings(max_examples=300)
@given(_covers_inputs())
def test_covers_matches_reference_on_any_input(inputs):
    _assert_covers_matches_reference(*inputs, set())


@settings(max_examples=300)
@given(_covers_inputs(), st.data())
def test_covers_with_a_memo_from_a_lower_threshold_matches_reference(inputs, data):
    desc, parts, tau = inputs
    t1 = data.draw(st.integers(0, tau), label="t1")
    seen = set()
    oracle._covers(desc, parts, t1, seen)
    _assert_covers_matches_reference(desc, parts, tau, seen)


def test_covers_cell_size_bound_refutes_near_equal_weights(monkeypatch):
    # 3 cells of at least 9 from [5, 4, 4, 4, 4, 4, 4]: the value suffices
    # (29 >= 27) and every cell needs only 2 weights (5 + 4), but only one
    # cell can make do with 2, since two such cells would take 18 from the
    # four largest (17).  The others need 3 each: 8 weights > 7.  The bound
    # refutes the root before any cell is completed.
    completions = []
    real_complete = oracle._complete

    def recording_complete(*args):
        completions.append(args)
        return real_complete(*args)

    monkeypatch.setattr(oracle, "_complete", recording_complete)
    desc = [5, 4, 4, 4, 4, 4, 4]
    assert oracle._covers(desc, 3, 9, set()) is None
    assert completions == []
    assert _reference(desc, 3, 9) is None
    cells = oracle._covers(desc, 3, 8, set())
    assert sorted(sum(desc[i] for i in cell) for cell in cells) == [8, 9, 12]


def test_cover_memo_key_keeps_the_cell_count():
    # The five 1s make one cell of 3, not two, so the full mask fails at
    # k = 3, tau = 3; at k = 2 and the higher tau = 4 it splits into {5}
    # and the five 1s.  A key of the mask alone would refute it from the
    # first call's entry.
    desc, full, seen = [5, 1, 1, 1, 1, 1], 0b111111, set()
    assert not oracle._cover(desc, full, 3, 3, seen, [])
    assert seen
    starts = []
    assert oracle._cover(desc, full, 2, 4, seen, starts)
    assert starts == [0b111110, full]


# (valuation, good set, what the ValidationError says)
MALFORMED_VALUES = [
    ({"a": Fraction(1), "b": Fraction(-1, 2)}, ["a", "b"], "negative value for good 'b'"),
    ({"a": -1}, ["a"], "negative value for good 'a'"),
    ({"a": 0.5, "b": 1.5}, ["a", "b"], "good 'a' is not an int or a Fraction"),
    ({"a": 1, "b": "2"}, ["a", "b"], "good 'b' is not an int or a Fraction"),
    ({"a": True, "b": 1}, ["a", "b"], "good 'a' is not an int or a Fraction"),
    ({"a": 1, "b": False}, ["a", "b"], "good 'b' is not an int or a Fraction"),
    ({"a": Fraction(1)}, ["a", "b"], "good 'b' missing from valuation"),
    ({"a": Fraction(1), "b": Fraction(2)}, ["a", "b", "a"], "good_set repeats id 'a'"),
]


def test_mms_rejects_malformed_values():
    for valuation, goods, message in MALFORMED_VALUES:
        for oracle_fn in (mf.mms, mms_naive):
            with pytest.raises(mf.ValidationError, match=message):
                oracle_fn(valuation, 2, goods)


def test_mms_reads_its_good_set_as_instances_read_goods():
    row = {"a": 3, "b": 2, 1: 1}
    for oracle_fn in (mf.mms, mms_naive):
        for good_set in (["a", 1], {"a", 1}, iter(["a", "b"]), {"a": 1}):
            with pytest.raises(mf.ValidationError, match=r"^good_set must be a list"):
                oracle_fn(row, 2, good_set)


def test_mms_takes_ints_and_fractions_alike():
    # An int reads as n/1: mixed with Fractions of other denominators, ints
    # change neither the value nor the witness.
    rows = [{"a": 3, "b": Fraction(3, 2), "c": Fraction(3, 2)},
            {"a": 7, "b": Fraction(5, 2), "c": 3, "d": Fraction(7, 3),
             "e": Fraction(4, 6), "f": 0, "g": Fraction(11, 4)}]
    for mixed in rows:
        exact = {g: Fraction(v) for g, v in mixed.items()}
        for parts in (2, 3, 4):
            for oracle_fn in (mf.mms, mms_naive):
                got = oracle_fn(mixed, parts, list(mixed))
                want = oracle_fn(exact, parts, list(exact))
                assert (got.value, got.partition) == (want.value, want.partition)
    assert mf.mms(rows[0], 2, list(rows[0])).value == 3


def test_raise_min_hand_cases():
    cells = oracle._lpt_cells([3, 3, 2, 2, 2], 2)
    assert cells == [[3, 2, 2], [3, 2]]  # LPT: 7 | 5
    assert oracle._raise_min(cells, 6) == 6
    assert sorted(map(sum, cells)) == [6, 6]
    # A minimum at total // parts ends the search: no packing beats it, so
    # the swap of 3 and 4 that would raise the first and last cells'
    # smaller sum to 4 is not made.
    cells = [[3], [3], [4, 1]]
    assert oracle._raise_min(cells, 11 // 3) == 3
    assert cells == [[3], [3], [4, 1]]


@settings(max_examples=100)
@given(st.lists(st.integers(1, 1000), min_size=1, max_size=8), st.integers(2, 4))
def test_raise_min_lies_between_lpt_and_the_share(weights, parts):
    desc = sorted(weights, reverse=True)
    cells = oracle._lpt_cells(desc, parts)
    lpt = min(map(sum, cells))
    low = oracle._raise_min(cells, sum(desc) // parts)
    assert len(cells) == parts
    assert sorted(w for cell in cells for w in cell) == sorted(desc)
    assert min(map(sum, cells)) == low
    vals = _vals(desc)
    assert lpt <= low <= mms_naive(vals, parts, list(vals)).value


@settings(max_examples=100)
@given(st.lists(st.builds(Fraction, st.integers(0, 1000), st.integers(1, 1000)),
                min_size=1, max_size=8),
       st.integers(1, 4))
def test_mms_matches_naive_on_wide_rationals(values, parts):
    vals = _vals(values)
    fast = mf.mms(vals, parts, list(vals))
    assert fast.value == mms_naive(vals, parts, list(vals)).value
    _check_witness(vals, parts, fast)


GOLDEN_MMS = Path(__file__).parent / "data" / "golden_mms.json"

# Seeds per value distribution.  Near-equal ("correlated") goods are the
# hardest case for the search, so their seeds are ones whose search took
# under 0.1 s when the file was frozen.  Seeds from BIG_SEED up draw 19-20
# goods; most near-equal seeds of that size ran past 35 s per search when
# they were frozen, and the two kept here took 22 s and 0.9 s.  The int
# seeds 102, 105 and 107, rational 100, 101, 104 and 105 and correlated 104,
# 106 and 108 were frozen later, each at most 0.2 s per search.  Correlated
# 100, 101, 102, 103, 105 and 107 (near-equal, at most a few ms each) were
# frozen before the value search moved to bin completion: without its
# cell-size bound that search is tens to hundreds of times slower on them.
# Seeds from WIDE_SEED up draw 9-12 parts over 19-20 goods: the first three
# of every kind, frozen once the part limit was gone, each cross-checked by
# the reference when it was frozen (``_cross_check``).
GOLDEN_MMS_SEEDS = {
    "int": (0, 1, 2, 3, 5, 102, 103, 104, 105, 107, 111, 300, 301, 302),
    "rational": (0, 6, 7, 8, 9, 100, 101, 103, 104, 105, 107, 300, 301, 302),
    "correlated": (20, 29, 30, 31, 34, 100, 101, 102, 103, 104, 105, 106, 107, 108,
                   247, 249, 300, 301, 302),
    "pow2": (0, 1, 2, 3, 4, 300, 301, 302),
    "few-valued": (0, 1, 2, 3, 4, 300, 301, 302),
    "identical": (0, 1, 2, 3, 4, 300, 301, 302),
}
BIG_SEED = 100
WIDE_SEED = 300


def golden_mms_case(kind: str, seed: int) -> tuple:
    """(parts, values) of one seeded case: 11-18 goods (19-20 from BIG_SEED
    up), 5-8 parts (9-12 from WIDE_SEED up)."""
    rng = random.Random(f"{kind}-{seed}")
    m = rng.randint(19, 20) if seed >= BIG_SEED else rng.randint(11, 18)
    parts = rng.randint(9, 12) if seed >= WIDE_SEED else rng.randint(5, 8)
    if kind == "int":
        values = [rng.randint(0, 1000) for _ in range(m)]
    elif kind == "rational":
        values = [Fraction(rng.randint(1, 100), rng.randint(1, 50)) for _ in range(m)]
    elif kind == "correlated":  # every good within 10% of one common size
        base = rng.randint(100, 1000)
        values = [base + rng.randint(-base // 10, base // 10) for _ in range(m)]
    elif kind == "pow2":
        values = [2 ** rng.randint(0, 10) for _ in range(m)]
    elif kind == "few-valued":
        levels = rng.sample(range(1, 60), 3)
        values = [rng.choice(levels) for _ in range(m)]
    else:  # identical
        values = [rng.randint(1, 50)] * m
    return parts, [Fraction(v) for v in values]


def golden_mms_doc(parts: int, values: list) -> dict:
    vals = _vals(values)
    r = mf.mms(vals, parts, list(vals))
    return {
        "parts": parts,
        "values": [mf.format_value(v) for v in values],
        "mms": mf.format_value(r.value),
        "partition": [sorted(cell, key=lambda g: int(g[1:])) for cell in r.partition],
    }


def test_mms_matches_golden_file():
    with open(GOLDEN_MMS, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert set(golden) == {f"{kind}-{seed}" for kind, seeds in GOLDEN_MMS_SEEDS.items()
                           for seed in seeds}
    for name, expected in golden.items():
        values = [mf.parse_value(v) for v in expected["values"]]
        assert golden_mms_doc(expected["parts"], values) == expected, name
        vals = _vals(values)
        frozen = mf.MmsResult(value=mf.parse_value(expected["mms"]),
                              partition=tuple(frozenset(c) for c in expected["partition"]))
        _check_witness(vals, expected["parts"], frozen)


def _reference_agrees(parts: int, values: list, share) -> bool:
    """Whether the reference packs the values' scaled positive weights into
    ``parts`` cells at the share and not at one above it."""
    weights, denom = core.scaled(values)
    desc = sorted((w for w in weights if w > 0), reverse=True)
    tau = share * denom
    assert tau.denominator == 1
    return (_reference(desc, parts, tau.numerator) is not None
            and _reference(desc, parts, tau.numerator + 1) is None)


def _cross_check(name: str, doc: dict) -> None:
    """Refuse a golden case the reference disagrees with; print the time
    the reference took."""
    start = time.perf_counter()
    agrees = _reference_agrees(doc["parts"], [mf.parse_value(v) for v in doc["values"]],
                               mf.parse_value(doc["mms"]))
    print(f"{name}: reference {time.perf_counter() - start:.2f} s")
    if not agrees:
        sys.exit(f"{name}: the reference disagrees with the share {doc['mms']}")


# The wide cases whose reference run took under 0.5 s when they were
# frozen; the correlated ones took 2-12 s and were checked only then.
WIDE_REFERENCE_CASES = tuple(f"{kind}-{seed}" for kind, seeds in GOLDEN_MMS_SEEDS.items()
                             if kind != "correlated" for seed in seeds if seed >= WIDE_SEED)


def test_wide_golden_shares_match_reference():
    # Past 8 parts nothing but the frozen file checks the oracle's values.
    with open(GOLDEN_MMS, encoding="utf-8") as fh:
        golden = json.load(fh)
    for name in WIDE_REFERENCE_CASES:
        doc = golden[name]
        assert 9 <= doc["parts"] <= 12, name
        values = [mf.parse_value(v) for v in doc["values"]]
        assert _reference_agrees(doc["parts"], values, mf.parse_value(doc["mms"])), name


def test_a_read_that_raises_leaves_no_cycle(monkeypatch):
    # A partition read that fails part-way (a MemoryError from a large
    # memo, say) frees its memo as its frames unwind: nothing is left for
    # the cyclic collector.  The read of this case completes 441 cells.
    parts, values = golden_mms_case("int", 107)
    vals = _vals(values)
    result = mf.mms(vals, parts, list(vals))
    calls = 0
    real = oracle._complete

    def failing_complete(*args):
        nonlocal calls
        calls += 1
        if calls > 200:
            raise MemoryError
        return real(*args)

    monkeypatch.setattr(oracle, "_complete", failing_complete)
    gc.collect()
    gc.disable()
    try:
        try:
            result.partition
        except MemoryError:
            pass
        assert calls > 200
        assert gc.collect() == 0
    finally:
        gc.enable()


if __name__ == "__main__":
    # Adds the cases the frozen file lacks, each only if the reference
    # agrees with its share; never rewrites a frozen one.
    freeze_golden(GOLDEN_MMS, {
        f"{kind}-{seed}": lambda case=(kind, seed): golden_mms_doc(*golden_mms_case(*case))
        for kind, seeds in GOLDEN_MMS_SEEDS.items() for seed in seeds},
        check=_cross_check)
