"""Generators, golden files, and the verification driver."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import mmsfair as mf

from helpers import mms_naive, random_complete_allocation, random_instance

DATA = Path(__file__).parent / "data"


def test_tight_example_values_n3():
    inst = mf.gen_tight_example(3)
    expected = [Fraction(5, 10), Fraction(5, 10), Fraction(4, 10), Fraction(4, 10),
                Fraction(3, 10), Fraction(3, 10), Fraction(3, 10), Fraction(3, 10)]
    for a in inst.agents:
        assert [inst.valuations[a][g] for g in inst.goods] == expected


def test_tight_example_certificate_cells_sum_to_one():
    for n in (2, 3, 4, 6):
        inst = mf.gen_tight_example(n)
        assert inst.m == 3 * n - 1
        cells = inst.certificates[0]
        assert len(cells) == n
        for cell in cells:
            assert mf.bundle_value(inst, 0, cell) == 1
        assert mf.bundle_value(inst, 0, inst.all_goods) == n


def test_tight_example_rejects_small_n():
    with pytest.raises(mf.ValidationError, match=r"^n must be at least 2, got 1$"):
        mf.gen_tight_example(1)
    # A count that is not an int is a caller's error, not a bare TypeError.
    for n in (2.0, "3", True, None):
        with pytest.raises(mf.ValidationError, match=r"^n must be an int, got "):
            mf.gen_tight_example(n)


def test_gen_random_is_deterministic():
    spec = mf.GeneratorSpec(kind="uniform-int", n=3, m=6, value_bound=25, seed=321)
    assert mf.gen_random(spec) == mf.gen_random(spec)
    other = mf.GeneratorSpec(kind="uniform-int", n=3, m=6, value_bound=25, seed=322)
    assert mf.gen_random(other) != mf.gen_random(spec)


def test_gen_random_matches_golden_file():
    spec = mf.GeneratorSpec(kind="uniform-int", n=2, m=4, value_bound=10, seed=7)
    with open(DATA / "golden_uniform_int_n2_m4_b10_s7.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert mf.instance_to_json(mf.gen_random(spec)) == golden


def test_gen_random_uniform_rational_bounds():
    spec = mf.GeneratorSpec(kind="uniform-rational", n=2, m=8, value_bound=6, seed=5)
    inst = mf.gen_random(spec)
    for a in inst.agents:
        for v in inst.valuations[a].values():
            assert 0 <= v <= 6
            assert v.denominator <= 6


def test_gen_random_zero_bound_gives_all_zero():
    inst = mf.gen_random(mf.GeneratorSpec(kind="uniform-int", n=2, m=4,
                                          value_bound=0, seed=9))
    assert all(v == 0 for row in inst.valuations.values() for v in row.values())


def test_gen_random_rejects_what_it_cannot_generate():
    cases = [(dict(kind="x", n=2, m=3, value_bound=5), r"cannot generate kind 'x'"),
             (dict(kind="uniform-int", n=0, m=3, value_bound=5), r"^n must be at least 1, got 0$"),
             (dict(kind="uniform-rational", n=2, m=3, value_bound=0),
              r"^value_bound must be at least 1, got 0$"),
             # Fields that are not ints: not a bare TypeError or ValueError.
             (dict(kind="uniform-int", n=2, m=3, value_bound=5.5),
              r"^value_bound must be an int, got 5\.5$"),
             (dict(kind="uniform-rational", n=2, m=3, value_bound=True),
              r"^value_bound must be an int, got True$"),
             (dict(kind="uniform-int", n=2.0, m=3, value_bound=5), r"^n must be an int, got 2\.0$"),
             (dict(kind="uniform-int", n="2", m=3, value_bound=5), r"^n must be an int, got '2'$"),
             (dict(kind="uniform-int", n=2, m=3.0, value_bound=5), r"^m must be an int, got 3\.0$"),
             (dict(kind="uniform-int", n=2, m=False, value_bound=5),
              r"^m must be an int, got False$")]
    for spec, message in cases:
        with pytest.raises(mf.ValidationError, match=message):
            mf.gen_random(mf.GeneratorSpec(seed=1, **spec))


def test_random_spec_id():
    spec = mf.GeneratorSpec(kind="uniform-int", n=2, m=4, value_bound=10, seed=7)
    assert spec.instance_id() == "uniform-int-n2-m4-b10-s7"


def test_verify_passes_pipeline_output():
    inst = random_instance(44, 3, 8, bound=12)
    choice = mf.alpha_for(3)
    report = mf.approx_mms(inst, choice)
    check = mf.verify(inst, report.allocation, choice.alpha)
    assert check.passed
    assert check.score >= choice.alpha


def test_verify_tight_bags_score():
    inst = mf.gen_tight_example(3)
    alloc = {
        0: frozenset({"g1", "g6", "g7", "g8"}),
        1: frozenset({"g2", "g5"}),
        2: frozenset({"g3", "g4"}),
    }
    check = mf.verify(inst, alloc, Fraction(8, 10))
    assert check.score == Fraction(8, 10)
    assert check.passed
    assert not mf.verify(inst, alloc, Fraction(8, 10) + Fraction(1, 1000)).passed


def test_verify_flags_starved_agent():
    inst = mf.make_instance(2, ["g1", "g2"],
                            {a: {"g1": 1, "g2": 1} for a in range(2)})
    greedy = {0: frozenset({"g1", "g2"}), 1: frozenset()}
    check = mf.verify(inst, greedy, Fraction(3, 4))
    assert not check.passed
    assert check.per_agent[1][2] == 0


def test_verify_scores_against_given_shares():
    # shares from the independent naive oracle score exactly as the
    # production oracle's do
    rng = random.Random(53)
    for seed in range(10):
        inst = random_instance(seed, 2, 6, bound=9)
        alloc = random_complete_allocation(rng, inst)
        naive_vals = {a: mms_naive(inst.valuations[a], 2, inst.goods).value
                      for a in inst.agents}
        given = mf.verify(inst, alloc, Fraction(3, 4), mms_values=naive_vals)
        assert given == mf.verify(inst, alloc, Fraction(3, 4))


def test_verify_zero_share_agents_are_unconstrained():
    inst = mf.make_instance(2, ["g1", "g2"],
                            {0: {"g1": 0, "g2": 0}, 1: {"g1": 1, "g2": 1}})
    alloc = {0: frozenset(), 1: frozenset({"g1", "g2"})}
    # agent 0 has zero share and an empty bundle; only agent 1 counts
    check = mf.verify(inst, alloc, Fraction(3, 4))
    assert check.score == 2 and check.per_agent[0][2] is None
    all_zero = mf.make_instance(2, ["g1", "g2"],
                                {0: {"g1": 0, "g2": 0}, 1: {"g1": 0, "g2": 0}})
    assert mf.verify(all_zero, alloc, Fraction(3, 4)).score == 1


def test_verify_uses_certificates_beyond_capacity():
    inst = mf.gen_tight_example(9)  # 26 goods
    cells = list(inst.certificates[0])
    alloc = {a: cells[a] for a in inst.agents}
    check = mf.verify(inst, alloc, Fraction(3, 4))
    assert check.passed and check.score == 1


def test_verify_requires_complete_allocation():
    inst = random_instance(2, 2, 4)
    with pytest.raises(mf.ValidationError, match="unallocated"):
        mf.verify(inst, {0: frozenset(), 1: frozenset()}, Fraction(1, 2))


def _two_agent_case():
    inst = mf.make_instance(2, ["g1", "g2"],
                            {a: {"g1": 1, "g2": 1} for a in range(2)})
    return inst, {0: frozenset({"g1"}), 1: frozenset({"g2"})}


@pytest.mark.parametrize("alpha", [Fraction(-1, 2), 0.75, True])
def test_verify_rejects_a_malformed_alpha(alpha):
    inst, alloc = _two_agent_case()
    with pytest.raises(mf.ValidationError, match=r"^alpha: "):
        mf.verify(inst, alloc, alpha)


@pytest.mark.parametrize("share", [Fraction(-1), 1.5, True])
def test_verify_rejects_a_malformed_share(share):
    inst, alloc = _two_agent_case()
    with pytest.raises(mf.ValidationError, match=r"^mms_values\[1\]: "):
        mf.verify(inst, alloc, Fraction(3, 4), mms_values={0: 1, 1: share})


@pytest.mark.parametrize("table", [{0: 1}, {0: 1, 1: 1, 2: 1}, {0: 1, "1": 1}])
def test_verify_rejects_a_share_table_for_other_agents(table):
    inst, alloc = _two_agent_case()
    with pytest.raises(mf.ValidationError, match=r"^mms_values: "):
        mf.verify(inst, alloc, Fraction(3, 4), mms_values=table)
