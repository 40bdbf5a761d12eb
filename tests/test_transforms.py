"""Ordering, normalization, reduction rules, and both lift procedures."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mmsfair as mf

from helpers import random_complete_allocation, random_instance, rule4_dummy_instance

ALPHA34 = Fraction(3, 4)


# --- ordering ---------------------------------------------------------------

def test_to_ordered_sorts_rows_and_preserves_multisets():
    for seed in range(15):
        inst = random_instance(seed, 3, 7)
        ordered, mapping = mf.to_ordered(inst)
        assert mf.is_ordered(ordered)
        for a in inst.agents:
            original = sorted(inst.valuations[a][g] for g in inst.goods)
            new = sorted(ordered.valuations[a][g] for g in ordered.goods)
            assert original == new
            assert sorted(mapping.by_agent[a]) == sorted(inst.goods)


def test_to_ordered_on_sorted_identical_rows_is_value_identity():
    inst = mf.gen_tight_example(3)
    ordered, mapping = mf.to_ordered(inst)
    assert [ordered.valuations[0][g] for g in ordered.goods] == \
        [inst.valuations[0][g] for g in inst.goods]
    # ties break by position, so the permutation is the identity
    assert mapping.by_agent[0] == inst.goods


def test_to_ordered_two_agent_example():
    inst = mf.make_instance(2, ["g1", "g2"],
                            {0: {"g1": 1, "g2": 3}, 1: {"g1": 2, "g2": 2}})
    ordered, mapping = mf.to_ordered(inst)
    assert [ordered.valuations[0][g] for g in ordered.goods] == [3, 1]
    assert [ordered.valuations[1][g] for g in ordered.goods] == [2, 2]
    assert mapping.by_agent[0] == ("g2", "g1")
    assert mapping.by_agent[1] == ("g1", "g2")


def test_to_ordered_passes_dummies_through():
    inst = mf.make_instance(2, ["g1", "g2"],
                            {0: {"g1": 1, "g2": 3, "d1": "1/2"},
                             1: {"g1": 2, "g2": 2, "d1": 0}},
                            dummies=["d1"])
    ordered, _ = mf.to_ordered(inst)
    assert ordered.dummies == ("d1",)
    assert ordered.valuations[0]["d1"] == Fraction(1, 2)
    assert ordered.valuations[1]["d1"] == 0


def test_to_ordered_renames_rank_ids_that_dummies_take():
    # "r1" takes base "r" and "rr2" takes base "rr", so the ranks become "rrr*"
    goods = ["g1", "g2", "g3"]
    inst = mf.make_instance(
        2, goods, {0: {"g1": 1, "g2": 4, "g3": 2, "r1": 1, "rr2": 1},
                   1: {"g1": 3, "g2": 1, "g3": 2, "r1": 0, "rr2": 2}},
        dummies=["r1", "rr2"])
    ordered, mapping = mf.to_ordered(inst)
    assert ordered.goods == ("rrr1", "rrr2", "rrr3")
    assert ordered.dummies == ("r1", "rr2")
    assert sorted(mapping.by_agent[0]) == goods
    choice = mf.alpha_for(inst.n)
    report = mf.approx_mms(inst, choice)
    assert mf.verify(inst, report.allocation, choice.alpha).passed


def test_to_ordered_translates_certificates():
    inst = mf.gen_tight_example(4)
    ordered, _ = mf.to_ordered(inst)
    assert ordered.certificates is not None
    values = mf.instance_mms_values(ordered)
    assert all(v == 1 for v in values.values())


# Values that are hard to order exactly: ints, p/q with mixed denominators,
# near-equal k/(k+1) (small k and k near 10**6), one value written several
# ways, and zeros.
_HARD_VALUE = st.one_of(
    st.integers(0, 50),
    st.builds("{}/{}".format, st.integers(0, 50), st.integers(1, 50)),
    st.builds(lambda k: f"{k}/{k + 1}", st.integers(1, 12) | st.integers(10**6, 10**6 + 3)),
    st.sampled_from(["1/2", "2/4", "3/6", "500000/1000000"]),
    st.just(0),
)


@st.composite
def _hard_instance(draw):
    """1-4 agents, 0-9 goods and 0-2 dummies, valued by ``_HARD_VALUE``."""
    n = draw(st.integers(1, 4))
    goods = [f"g{j}" for j in range(1, draw(st.integers(0, 9)) + 1)]
    dummies = [f"d{j}" for j in range(1, draw(st.integers(0, 2)) + 1)]
    valuations = {a: {g: draw(_HARD_VALUE) for g in goods + dummies} for a in range(n)}
    return mf.make_instance(n, goods, valuations, dummies=dummies)


def _ordered_by_fractions(instance):
    """is_ordered's definition, by Fraction comparisons."""
    return all(row[g] >= row[h]
               for row in instance.valuations.values()
               for g, h in zip(instance.goods, instance.goods[1:]))


@settings(max_examples=60)
@given(_hard_instance())
def test_to_ordered_sorts_as_fractions_do(inst):
    ordered, mapping = mf.to_ordered(inst)
    for a in inst.agents:
        row = inst.valuations[a]
        perm = tuple(sorted(inst.goods, key=row.__getitem__, reverse=True))
        assert mapping.by_agent[a] == perm
        assert [ordered.valuations[a][r] for r in ordered.goods] == [row[g] for g in perm]
        assert all(ordered.valuations[a][d] == row[d] for d in inst.dummies)


@settings(max_examples=60)
@given(_hard_instance(), st.randoms(use_true_random=False))
def test_is_ordered_agrees_with_fraction_comparisons(inst, rng):
    ordered, _ = mf.to_ordered(inst)
    assert mf.is_ordered(ordered) and _ordered_by_fractions(ordered)
    goods = list(inst.goods)
    rng.shuffle(goods)
    shuffled = mf.make_instance(inst.n, goods, inst.valuations, dummies=inst.dummies)
    for case in (inst, shuffled):
        assert mf.is_ordered(case) == _ordered_by_fractions(case)


@settings(max_examples=40)
@given(_hard_instance(), st.randoms(use_true_random=False))
def test_lift_ordered_never_lowers_a_bundle_value(inst, rng):
    ordered, mapping = mf.to_ordered(inst)
    ordered_alloc = random_complete_allocation(rng, ordered)
    lifted = mf.lift_ordered(mapping, inst, ordered_alloc)
    for a in inst.agents:
        assert mf.bundle_value(inst, a, lifted[a]) >= \
            mf.bundle_value(ordered, a, ordered_alloc[a])


def test_ordering_and_validation_make_no_fraction_order_comparisons(monkeypatch):
    # Sign checks and row ordering compare integers; a Fraction order
    # comparison inside them would be counted here.  Counts, unlike
    # timings, do not move with machine noise.
    inst = mf.gen_random(mf.GeneratorSpec("uniform-rational", n=3, m=9,
                                          value_bound=50, seed=4))
    ordered, _ = mf.to_ordered(inst)
    calls = []
    for name in ("__lt__", "__gt__", "__le__", "__ge__"):
        def counting(a, b, _real=getattr(Fraction, name)):
            calls.append(1)
            return _real(a, b)
        monkeypatch.setattr(Fraction, name, counting)

    def comparisons(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    assert comparisons(lambda x, y: (x < y, x > y, x <= y, x >= y),
                       Fraction(1, 2), Fraction(2, 3)) == 4
    assert comparisons(mf.validate_instance, inst) == 0
    assert comparisons(mf.to_ordered, inst) == 0
    assert comparisons(mf.is_ordered, inst) == 0
    assert comparisons(mf.is_ordered, ordered) == 0
    assert comparisons(lambda i: mf.instance_from_json(mf.instance_to_json(i)), inst) == 0
    for raw in (7, "22/7", Fraction(3, 5)):
        assert comparisons(mf.parse_value, raw) == 0


# --- ordered lift -----------------------------------------------------------

def test_lift_ordered_two_agent_example():
    inst = mf.make_instance(2, ["g1", "g2"],
                            {0: {"g1": 1, "g2": 3}, 1: {"g1": 2, "g2": 2}})
    ordered, mapping = mf.to_ordered(inst)
    ordered_alloc = {0: frozenset({ordered.goods[0]}),
                     1: frozenset({ordered.goods[1]})}
    lifted = mf.lift_ordered(mapping, inst, ordered_alloc)
    assert lifted[0] == frozenset({"g2"})
    assert lifted[1] == frozenset({"g1"})


def test_lift_ordered_single_agent_gets_everything():
    inst = random_instance(3, 1, 5)
    ordered, mapping = mf.to_ordered(inst)
    ordered_alloc = {0: frozenset(ordered.goods)}
    lifted = mf.lift_ordered(mapping, inst, ordered_alloc)
    assert lifted[0] == frozenset(inst.goods)


def test_lift_ordered_identical_valuations_preserve_bundle_values():
    inst = mf.gen_tight_example(3)
    ordered, mapping = mf.to_ordered(inst)
    rng = random.Random(2)
    ordered_alloc = random_complete_allocation(rng, ordered)
    lifted = mf.lift_ordered(mapping, inst, ordered_alloc)
    for a in inst.agents:
        assert mf.bundle_value(inst, a, lifted[a]) == \
            mf.bundle_value(ordered, a, ordered_alloc[a])


def test_lift_ordered_dominates_ordered_values():
    rng = random.Random(9)
    for seed in range(40):
        inst = random_instance(seed, rng.randint(1, 4), rng.randint(1, 9))
        ordered, mapping = mf.to_ordered(inst)
        ordered_alloc = random_complete_allocation(rng, ordered)
        lifted = mf.lift_ordered(mapping, inst, ordered_alloc)
        for a in inst.agents:
            assert mf.bundle_value(inst, a, lifted[a]) >= \
                mf.bundle_value(ordered, a, ordered_alloc[a])


def test_lift_ordered_rejects_incomplete_input():
    inst = random_instance(4, 2, 4)
    ordered, mapping = mf.to_ordered(inst)
    partial = {0: frozenset({ordered.goods[0]}), 1: frozenset()}
    with pytest.raises(mf.ContractError, match="does not cover the rank goods"):
        mf.lift_ordered(mapping, inst, partial)
    r1, r2, r3, r4 = ordered.goods
    shared = {0: frozenset({r1, r2}), 1: frozenset({r2, r3, r4})}
    with pytest.raises(mf.ContractError, match="more than once"):
        mf.lift_ordered(mapping, inst, shared)


# --- normalization ----------------------------------------------------------

def test_normalize_two_agent_example():
    inst = mf.make_instance(2, ["g1", "g2", "g3", "g4"],
                            {a: {"g1": 4, "g2": 3, "g3": 2, "g4": 1}
                             for a in range(2)})
    norm = mf.normalize(inst, mf.instance_mms_all(inst))
    row = norm.valuations[0]
    assert [row[g] for g in norm.goods] == \
        [Fraction(4, 5), Fraction(3, 5), Fraction(2, 5), Fraction(1, 5)]


def test_normalize_single_agent():
    inst = mf.make_instance(1, ["g1", "g2"], {0: {"g1": 3, "g2": 5}})
    norm = mf.normalize(inst, mf.instance_mms_all(inst))
    assert norm.valuations[0]["g1"] == Fraction(3, 8)
    assert norm.valuations[0]["g2"] == Fraction(5, 8)


def test_normalize_tight_example_is_identity():
    inst = mf.gen_tight_example(3)
    norm = mf.normalize(inst, mf.instance_mms_all(inst))
    assert norm.valuations == inst.valuations


def test_normalize_pins_every_share_to_one():
    for seed in range(10):
        inst = random_instance(seed, 3, 7, bound=9, min_value=1)
        norm = mf.normalize(inst, mf.instance_mms_all(inst))
        for a in norm.agents:
            # independent recomputation, certificates stripped
            bare = mf.Instance(agents=norm.agents, goods=norm.goods,
                               dummies=norm.dummies, valuations=norm.valuations)
            assert mf.mms(bare.valuations[a], bare.n, bare.all_goods).value == 1
            assert mf.bundle_value(bare, a, bare.all_goods) == bare.n


def test_normalize_never_raises_value_to_share_ratio():
    rng = random.Random(77)
    for seed in range(10):
        inst = random_instance(seed, 2, 6, bound=9, min_value=1)
        shares = mf.instance_mms_values(inst)
        norm = mf.normalize(inst, mf.instance_mms_all(inst))
        for _ in range(5):
            alloc = random_complete_allocation(rng, inst)
            for a in inst.agents:
                assert mf.bundle_value(inst, a, alloc[a]) >= \
                    mf.bundle_value(norm, a, alloc[a]) * shares[a]


def test_normalize_rejects_zero_share_agents():
    inst = mf.make_instance(2, ["g1", "g2"],
                            {0: {"g1": 0, "g2": 0}, 1: {"g1": 1, "g2": 1}})
    with pytest.raises(mf.ContractError):
        mf.normalize(inst, mf.instance_mms_all(inst))


# --- reduction rules --------------------------------------------------------

def test_rule_bundles_on_tight_example():
    inst = mf.gen_tight_example(3)
    assert mf.rule_bundle(inst, 1) == ("g1",)
    assert mf.rule_bundle(inst, 2) == ("g3", "g4")
    assert mf.rule_bundle(inst, 3) == ("g5", "g6", "g7")
    assert mf.rule_bundle(inst, 4) == ("g1", "g7")
    with pytest.raises(mf.ContractError):
        mf.rule_bundle(inst, 5)


def test_rule_target_tight_example():
    inst = mf.gen_tight_example(3)
    values = mf.instance_mms_values(inst)
    assert mf.rule_target(inst, ALPHA34, 2, values) == 0
    assert mf.rule_target(inst, ALPHA34, 1, values) is None


def test_rule_target_empty_bundle_is_none():
    # 3 agents, 3 goods: rules 2..4 have no bundle, rule 1 fails below alpha*MMS
    inst = mf.make_instance(3, ["g1", "g2", "g3"],
                            {a: {"g1": 1, "g2": 1, "g3": 1} for a in range(3)})
    values = mf.instance_mms_values(inst)
    assert values[0] == 1
    for k in (2, 3, 4):
        assert mf.rule_bundle(inst, k) == ()
        assert mf.rule_target(inst, ALPHA34, k, values) is None


def test_apply_reduction_rule1_example():
    inst = mf.make_instance(2, ["g1", "g2", "g3", "g4"],
                            {a: {"g1": 10, "g2": 1, "g3": 1, "g4": 1}
                             for a in range(2)})
    values = mf.instance_mms_values(inst)
    assert values == {0: 3, 1: 3}
    assert mf.rule_target(inst, ALPHA34, 1, values) == 0
    reduced, record = mf.apply_reduction(inst, ALPHA34, values)
    assert record.rule == "R1"
    assert record.removed_goods == frozenset({"g1"})
    assert record.dummy_created is None
    assert reduced.agents == (1,)
    # survivor's one-part share did not drop
    assert mf.instance_mms_values(reduced)[1] == 3


def test_apply_reduction_rule4_at_three_quarters_makes_no_dummy():
    goods = [f"g{j}" for j in range(1, 9)]
    rows = ([89, 51, 35, 32, 22, 21, 7, 2], [94, 92, 51, 48, 40, 31, 18, 11])
    inst = mf.make_instance(2, goods,
                            {a: dict(zip(goods, row)) for a, row in enumerate(rows)})
    values = mf.instance_mms_values(inst)
    assert values == {0: 129, 1: 192}
    for k in (1, 2, 3):
        assert mf.rule_target(inst, ALPHA34, k, values) is None
    assert mf.rule_target(inst, ALPHA34, 4, values) == 0
    reduced, record = mf.apply_reduction(inst, ALPHA34, values)
    assert record.rule == "R4"
    assert record.agent == 0
    assert record.removed_goods == frozenset({"g1", "g5"})
    assert record.dummy_created is None
    assert reduced.dummies == ()


def test_apply_reduction_rule4_above_three_quarters_creates_dummy():
    inst = rule4_dummy_instance()
    alpha = Fraction(7, 9)
    values = mf.instance_mms_values(inst)
    for k in (1, 2, 3):
        assert mf.rule_target(inst, alpha, k, values) is None
    assert mf.rule_target(inst, alpha, 4, values) == 0
    reduced, record = mf.apply_reduction(inst, alpha, values)
    assert record.rule == "R4"
    dummy_id, dummy_values = record.dummy_created
    assert reduced.dummies == (dummy_id,)
    for a in reduced.agents:
        expected = max(Fraction(0),
                       mf.bundle_value(inst, a, record.removed_goods) - values[a])
        assert dummy_values[a] == expected == 4
        assert reduced.valuations[a][dummy_id] == expected
    # survivors' shares (goods + dummy, one part fewer) did not drop
    after = mf.instance_mms_values(reduced)
    assert all(after[a] >= values[a] for a in reduced.agents)


def test_apply_reduction_rule4_zero_value_dummy():
    # bundle worth at least alpha*MMS but at most MMS: dummy exists, all zeros
    row = [209, 200, 130, 71, 70, 70, 61]
    goods = [f"g{j}" for j in range(1, 8)]
    inst = mf.make_instance(3, goods,
                            {a: dict(zip(goods, row)) for a in range(3)})
    alpha = ALPHA34 + Fraction(1, 36)
    values = mf.instance_mms_values(inst)
    assert values[0] == 270
    assert mf.bundle_value(inst, 0, mf.rule_bundle(inst, 4)) == 270
    reduced, record = mf.apply_reduction(inst, alpha, values)
    assert record.rule == "R4"
    assert record.dummy_created[1] == {1: Fraction(0), 2: Fraction(0)}
    assert reduced.dummies == (record.dummy_created[0],)


def test_apply_reduction_applies_first_rule_that_fits():
    inst = mf.gen_tight_example(3)
    alpha = ALPHA34 + Fraction(1, 36)
    values = mf.instance_mms_values(inst)
    assert mf.rule_target(inst, alpha, 1, values) is None
    for k in (2, 3, 4):
        assert mf.rule_target(inst, alpha, k, values) == 0
    _, record = mf.apply_reduction(inst, alpha, values)
    assert record.rule == "R2"
    assert record.removed_goods == frozenset(mf.rule_bundle(inst, 2))
    assert record.dummy_created is None


# --- the reduce loop --------------------------------------------------------

def test_reduce_tight_example_starts_with_rule2():
    inst = mf.gen_tight_example(3)
    log = mf.reduce(inst, ALPHA34, mf.instance_mms_all(inst))
    assert log.records[0].rule == "R2"
    assert log.records[0].agent == 0
    assert log.records[0].removed_goods == frozenset({"g3", "g4"})


def test_reduce_requires_ordered_input():
    inst = mf.make_instance(1, ["g1", "g2"], {0: {"g1": 1, "g2": 2}})
    with pytest.raises(mf.ContractError):
        mf.reduce(inst, ALPHA34, mf.instance_mms_all(inst))


def test_reduce_rejects_alpha_beyond_limit():
    inst = mf.gen_tight_example(3)
    with pytest.raises(mf.ContractError):
        mf.reduce(inst, mf.alpha_limit(3) + Fraction(1, 1000), mf.instance_mms_all(inst))


def test_reduce_fixpoint_on_irreducible_instance():
    report = mf.approx_mms(random_instance(2, 3, 12, bound=30, min_value=1),
                           mf.alpha_for(3))
    oni = report.irreducible_instance
    assert oni is not None
    again = mf.reduce(oni, report.alpha.alpha, mf.instance_mms_all(oni))
    assert again.records == ()
    assert again.final == oni


def test_reduce_log_shorter_than_agent_count_and_replayable():
    for seed in range(12):
        inst = random_instance(seed, 4, 9, bound=25)
        ordered, _ = mf.to_ordered(inst)
        log = mf.reduce(ordered, ALPHA34, mf.instance_mms_all(ordered))
        assert len(log.records) < ordered.n
        replayed = mf.replay_log(log)
        assert replayed[-1] == log.final


# --- reduction lift ---------------------------------------------------------

def test_lift_reductions_empty_log_is_identity():
    inst = random_instance(21, 2, 5)
    ordered, _ = mf.to_ordered(inst)
    log = mf.ReductionLog(records=(), initial=ordered, final=ordered)
    rng = random.Random(0)
    sub = random_complete_allocation(rng, ordered)
    assert mf.lift_reductions(log, sub) == sub


def test_lift_reductions_reinstates_rule1_agent():
    inst = mf.make_instance(2, ["g1", "g2", "g3", "g4"],
                            {a: {"g1": 10, "g2": 1, "g3": 1, "g4": 1}
                             for a in range(2)})
    log = mf.reduce(inst, ALPHA34, mf.instance_mms_all(inst))
    assert [r.rule for r in log.records] == ["R1"]
    sub = {1: frozenset(log.final.goods)}
    lifted = mf.lift_reductions(log, sub)
    assert lifted[0] == frozenset({"g1"})
    assert mf.bundle_value(inst, 0, lifted[0]) >= \
        ALPHA34 * log.records[0].pre_mms[0]


def test_lift_reductions_full_chain_single_survivor():
    inst = mf.gen_tight_example(4)
    ordered, _ = mf.to_ordered(inst)
    log = mf.reduce(ordered, mf.alpha_limit(4), mf.instance_mms_all(ordered))
    if log.final.n == 1:
        survivor = log.final.agents[0]
        sub = {survivor: frozenset(log.final.goods)}
        lifted = mf.lift_reductions(log, sub)
        assert set(lifted) == set(ordered.agents)
        covered = [g for b in lifted.values() for g in b]
        assert sorted(covered) == sorted(ordered.goods)


def test_lift_reductions_rejects_mismatched_agents():
    inst = mf.make_instance(2, ["g1", "g2", "g3", "g4"],
                            {a: {"g1": 10, "g2": 1, "g3": 1, "g4": 1}
                             for a in range(2)})
    log = mf.reduce(inst, ALPHA34, mf.instance_mms_all(inst))
    bad = {0: frozenset(log.final.goods)}
    with pytest.raises(mf.ValidationError, match="unknown agents"):
        mf.lift_reductions(log, bad)


def test_reduction_log_json_shape():
    inst = rule4_dummy_instance()
    values = mf.instance_mms_values(inst)
    _, record = mf.apply_reduction(inst, Fraction(7, 9), values)
    doc = record.to_json()
    assert doc["rule"] == "R4"
    assert doc["removed_goods"] == ["g1", "g7"]
    assert doc["dummy"]["values"] == {"1": "4/1", "2": "4/1"}
    assert doc["pre_mms"]["0"] == "270/1"
