"""Threshold selection and the end-to-end solver."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mmsfair as mf

from helpers import freeze_golden, random_instance, replay_log


def test_alpha_for_improved_small_n():
    choice = mf.alpha_for(3, "improved")
    assert choice.alpha == Fraction(3, 4) + Fraction(1, 36)
    assert choice.delta == Fraction(1, 36)
    assert Fraction(1, 36) < Fraction(3, 44)  # n=3 keeps the 1/36 cap


def test_alpha_for_improved_large_n():
    choice = mf.alpha_for(9, "improved")
    assert choice.alpha == Fraction(3, 4) + Fraction(3, 140)
    assert Fraction(3, 140) < Fraction(1, 36)


def test_alpha_for_classic():
    for n in (1, 2, 5, 40):
        assert mf.alpha_for(n, "classic").alpha == Fraction(3, 4)


def test_alpha_for_explicit():
    choice = mf.alpha_for(4, "2/3")
    assert choice.alpha == Fraction(2, 3)
    assert choice.delta == Fraction(2, 3) - Fraction(3, 4)
    assert choice.mode == "explicit"
    assert mf.alpha_for(4, Fraction(3, 4)).alpha == Fraction(3, 4)


def test_alpha_for_rejects_bad_values():
    with pytest.raises(mf.ValidationError, match=r"^alpha 9/10 is outside \(0, 7/9\] for n=4;"):
        mf.alpha_for(4, "9/10")  # above the proven bound
    with pytest.raises(mf.ValidationError, match=r"^alpha 0 is outside \(0, 7/9\] for n=4;"):
        mf.alpha_for(4, "0/1")
    with pytest.raises(mf.ValidationError, match=r"^agent count must be at least 1, got 0$"):
        mf.alpha_for(0, "improved")
    for negative in ("-1/2", Fraction(-1, 2)):
        with pytest.raises(mf.ValidationError):
            mf.alpha_for(4, negative)


def test_alpha_choice_json_for_each_mode():
    assert mf.alpha_for(3, "classic").to_json() == {
        "mode": "classic", "n": 3, "alpha": "3/4", "delta": "0/1"}
    assert mf.alpha_for(9, "improved").to_json() == {
        "mode": "improved", "n": 9, "alpha": "27/35", "delta": "3/140"}
    assert mf.alpha_for(4, "2/3").to_json() == {
        "mode": "explicit", "n": 4, "alpha": "2/3", "delta": "-1/12"}


def test_alpha_choice_checks_alpha_when_built_and_derives_delta():
    assert [f.name for f in dataclasses.fields(mf.AlphaChoice)] == [
        "n_original", "alpha"]
    choice = mf.AlphaChoice(n_original=3, alpha="7/9")
    assert type(choice.alpha) is Fraction and choice.alpha == Fraction(7, 9)
    assert choice.delta == Fraction(1, 36)
    for n, alpha in ((8, Fraction(7, 9)), (3, 0), (3, 5)):
        with pytest.raises(mf.ValidationError, match="guarantee"):
            mf.AlphaChoice(n_original=n, alpha=alpha)
    for alpha in (0.75, True, "garbage"):
        with pytest.raises(mf.ValidationError, match="^alpha: "):
            mf.AlphaChoice(n_original=3, alpha=alpha)


def test_alpha_choice_derives_its_mode_from_alpha():
    assert mf.AlphaChoice(3, "7/9") == mf.alpha_for(3, "improved")
    assert mf.AlphaChoice(8, "3/4") == mf.alpha_for(8, "classic")
    for n, alpha, mode in ((3, "3/4", "classic"), (3, "7/9", "improved"),
                           (7, "7/9", "improved"), (8, "24/31", "improved"),
                           (8, "7/10", "explicit"), (3, "2/3", "explicit")):
        assert mf.AlphaChoice(n, alpha).mode == mode
        assert mf.alpha_for(n, alpha).mode == mode
    with pytest.raises(TypeError):
        mf.AlphaChoice(n_original=3, alpha="7/9", mode="improved")


def test_no_solve_runs_above_the_bound_for_the_original_agent_count():
    # After agent 0 is peeled, 7 agents remain, whose bound 7/9 lies above
    # the 24/31 proven for the instance's 8; an all-zero instance would
    # otherwise reach the final score check at alpha 5.  Building the
    # choice raises, so neither solve starts.
    goods = [f"g{j}" for j in range(1, 13)]
    rng = random.Random(1)
    rows = {0: {g: 0 for g in goods}}
    rows.update({a: {g: rng.randint(1, 30) for g in goods} for a in range(1, 8)})
    peeled = mf.make_instance(8, goods, rows)
    all_zero = mf.gen_random(mf.GeneratorSpec(kind="uniform-int", n=3, m=4,
                                              value_bound=0, seed=4))
    for inst, alpha in ((peeled, Fraction(7, 9)), (all_zero, 5)):
        with pytest.raises(mf.ValidationError, match="guarantee"):
            mf.approx_mms(inst, mf.AlphaChoice(n_original=inst.n, alpha=alpha))


def test_single_agent_takes_everything():
    inst = mf.make_instance(1, ["g1", "g2"], {0: {"g1": 1, "g2": 2}})
    report = mf.approx_mms(inst, mf.alpha_for(1))
    assert report.allocation[0] == frozenset({"g1", "g2"})
    assert report.score >= 1


def test_tight_example_score_window():
    inst = mf.gen_tight_example(3)
    choice = mf.alpha_for(3)
    report = mf.approx_mms(inst, choice)
    assert choice.alpha <= report.score <= Fraction(9, 10)


def test_random_instance_meets_threshold():
    inst = random_instance(99, 3, 9, bound=100)
    choice = mf.alpha_for(3)
    report = mf.approx_mms(inst, choice)
    check = mf.verify(inst, report.allocation, choice.alpha)
    assert check.passed
    assert check.score == report.score


def test_classic_and_explicit_modes():
    inst = random_instance(7, 4, 10, bound=50)
    assert mf.approx_mms(inst, mf.alpha_for(4, "classic")).score >= Fraction(3, 4)
    assert mf.approx_mms(inst, mf.alpha_for(4, "1/2")).score >= Fraction(1, 2)


def test_alpha_choice_must_match_instance():
    inst = random_instance(3, 2, 5)
    with pytest.raises(mf.ValidationError,
                       match=r"^alpha was chosen for 3 agents but the instance has 2$"):
        mf.approx_mms(inst, mf.alpha_for(3))


def test_an_instance_with_dummy_goods_is_not_solved():
    # Dummies count toward every share but are never allocated, so no
    # guarantee covers them; this instance once failed the final score check.
    inst = mf.make_instance(1, ["g1"], {0: {"g1": 1, "x1": 1}}, dummies=["x1"])
    with pytest.raises(mf.ValidationError, match=r"^dummies: .* got \['x1'\]$"):
        mf.approx_mms(inst, mf.alpha_for(1))
    assert mf.instance_mms_values(inst) == {0: 2}


def test_zero_share_agents_are_peeled():
    inst = mf.make_instance(2, ["g1", "g2", "g3"],
                            {0: {"g1": 0, "g2": 0, "g3": 0},
                             1: {"g1": 1, "g2": 2, "g3": 3}})
    report = mf.approx_mms(inst, mf.alpha_for(2))
    assert report.peeled == (0,)
    assert report.allocation[0] == frozenset()
    assert report.allocation[1] == frozenset({"g1", "g2", "g3"})
    assert report.per_agent[0][2] is None


def test_all_zero_instance():
    inst = mf.gen_random(mf.GeneratorSpec(kind="uniform-int", n=3, m=4,
                                          value_bound=0, seed=4))
    report = mf.approx_mms(inst, mf.alpha_for(3))
    assert report.peeled == (0, 1, 2)
    mf.validate_allocation(inst, report.allocation)
    assert report.score == 1
    assert report.allocation[0] == frozenset(inst.goods)
    # The goods go to the lowest id, so agents listed out of order are
    # rejected rather than solved with another tie-break.
    swapped = dataclasses.replace(inst, agents=(1, 0, 2))
    with pytest.raises(mf.ValidationError, match=r"^agents: "):
        mf.approx_mms(swapped, mf.alpha_for(3))


def test_a_set_of_goods_solves_alike_under_any_hash_seed():
    # A set's iteration order follows the string hash, which differs per
    # process; make_instance reads it sorted, so the solve cannot.
    child = ("import json, mmsfair as mf\n"
             "names = [f'g{j}' for j in range(1, 8)]\n"
             "inst = mf.make_instance(2, set(names), {0: {g: 1 for g in names},\n"
             "    1: {g: 3 if g == 'g1' else 1 for g in names}})\n"
             "report = mf.approx_mms(inst, mf.alpha_for(2))\n"
             "print(json.dumps(report.to_json(inst)))\n")
    src = str(Path(mf.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              timeout=60, env=dict(os.environ, PYTHONPATH=src,
                                                   PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["allocation"]["0"] == ["g3", "g4", "g5"]


def test_reduction_lift_bundles_meet_threshold_from_log():
    # each reduced agent's bundle, valued in the instance the reduction saw,
    # meets alpha times their share at that moment
    for seed in range(8):
        inst = random_instance(seed, 4, 11, bound=60, min_value=1)
        choice = mf.alpha_for(4)
        report = mf.approx_mms(inst, choice)
        replayed = replay_log(report.reduction_log)
        for step, record in zip(replayed, report.reduction_log.records):
            given = mf.bundle_value(step, record.agent, record.removed_goods)
            assert given >= choice.alpha * record.pre_mms[record.agent]


# The six value distributions the two solve properties draw rows from;
# "identical" gives every agent the first agent's row.
_DISTRIBUTIONS = {
    "int": st.integers(0, 100),
    "rational": st.builds(Fraction, st.integers(0, 100), st.integers(1, 100)),
    "near-equal": st.integers(1000, 1003),
    "powers of two": st.builds(lambda e: 2 ** e, st.integers(0, 10)),
    "few-valued": st.sampled_from([0, 1, 5]),
    "identical": st.integers(0, 100),
}


@st.composite
def _solve_case(draw):
    """1-4 agents and 0-14 goods valued by one distribution.  Outside
    "identical", a row may instead be all zero or repeat the row before it
    (one draw in four each), so the peeled and all-peeled paths and shared
    share searches run."""
    kind = draw(st.sampled_from(sorted(_DISTRIBUTIONS)))
    goods = [f"g{j}" for j in range(1, draw(st.integers(0, 14)) + 1)]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        shape = "repeat"
        if kind != "identical":
            shape = draw(st.sampled_from(["drawn", "drawn", "zero", "repeat"]))
        if shape == "repeat" and rows:
            rows.append(rows[-1])
        elif shape == "zero":
            rows.append(dict.fromkeys(goods, 0))
        else:
            rows.append({g: draw(_DISTRIBUTIONS[kind]) for g in goods})
    return mf.make_instance(len(rows), goods, dict(enumerate(rows)))


@settings(max_examples=100, deadline=None)
@given(_solve_case())
def test_every_reduction_is_valid(inst):
    # each bundle a reduction gives away is worth alpha times its agent's
    # share at that step, and no survivor's share drops; shares searched afresh
    choice = mf.alpha_for(inst.n)
    log = mf.approx_mms(inst, choice).reduction_log
    replayed = replay_log(log)
    assert replayed[-1] == log.final
    shares = [mf.instance_mms_values(step) for step in replayed]
    for i, record in enumerate(log.records):
        given_value = mf.bundle_value(replayed[i], record.agent, record.removed_goods)
        assert given_value >= choice.alpha * shares[i][record.agent]
        assert all(shares[i + 1][a] >= shares[i][a] for a in replayed[i + 1].agents)


def _solves_to_at_least_alpha(inst):
    choice = mf.alpha_for(inst.n)
    report = mf.approx_mms(inst, choice)
    check = mf.verify(inst, report.allocation, choice.alpha)
    assert check.passed and check.score == report.score >= choice.alpha


@settings(max_examples=100, deadline=None)
@given(_solve_case())
def test_every_solve_scores_at_least_alpha(inst):
    _solves_to_at_least_alpha(inst)


@st.composite
def _bag_fill_case(draw):
    """2-4 agents and 2n-14 goods, every row drawn (no zero or repeated
    rows) from a distribution whose solves often reach bag filling.  The
    heavy-tailed ("rational", "powers of two") and few-valued rows
    mostly reduce every agent away before it."""
    kind = draw(st.sampled_from(["int", "near-equal"]))
    n = draw(st.integers(2, 4))
    goods = [f"g{j}" for j in range(1, draw(st.integers(2 * n, 14)) + 1)]
    rows = {a: {g: draw(_DISTRIBUTIONS[kind]) for g in goods} for a in range(n)}
    return mf.make_instance(n, goods, rows)


@settings(max_examples=100, deadline=None)
@given(_bag_fill_case())
def test_every_solve_of_many_goods_scores_at_least_alpha(inst):
    _solves_to_at_least_alpha(inst)


def test_irreducible_instance_is_exposed_and_checks_out():
    inst = random_instance(4, 3, 12, bound=80, min_value=1)
    choice = mf.alpha_for(3)
    report = mf.approx_mms(inst, choice)
    oni = report.irreducible_instance
    assert oni is not None
    assert mf.is_ordered(oni)
    values = mf.instance_mms_values(oni)
    assert all(v == 1 for v in values.values())
    assert mf.apply_reduction(oni, choice.alpha, values) is None
    assert oni.m >= 2 * oni.n


def test_positive_dummy_survives_to_bag_filling():
    from helpers import dummy_survives_to_bagfill_instance

    inst = dummy_survives_to_bagfill_instance()
    choice = mf.alpha_for(3, "improved")
    report = mf.approx_mms(inst, choice)
    records = report.reduction_log.records
    assert [r.rule for r in records] == ["R4"]
    assert records[0].dummy_created[1] == {1: Fraction(5), 2: Fraction(5)}
    oni = report.irreducible_instance
    assert oni is not None and len(oni.dummies) == 1
    dummy = oni.dummies[0]
    cap = Fraction(4, 3) * choice.delta
    for a in oni.agents:
        assert 0 < oni.valuations[a][dummy] < cap
    # the dummy steered the reduction but was never allocated
    held = set().union(*report.allocation.values())
    assert dummy not in held
    assert report.score >= choice.alpha


def test_report_json_is_serializable():
    import json

    inst = random_instance(15, 3, 9, bound=30)
    choice = mf.alpha_for(3)
    report = mf.approx_mms(inst, choice)
    doc = report.to_json(inst)
    text = json.dumps(doc)
    assert json.loads(text)["score"] == mf.format_value(report.score)
    assert set(doc["allocation"]) == {"0", "1", "2"}


def test_capacity_error_propagates():
    inst = random_instance(2, 2, 21, bound=9)
    with pytest.raises(mf.CapacityError):
        mf.approx_mms(inst, mf.alpha_for(2))
    report = mf.approx_mms(inst, mf.alpha_for(2), max_goods=21)
    mf.validate_allocation(inst, report.allocation)


def test_solve_never_searches_the_same_share_twice(monkeypatch):
    from mmsfair import oracle

    search = oracle.mms
    keys = []

    def recording_mms(valuation, parts, good_set, **kwargs):
        if kwargs.get("certificate") is None:
            keys.append((parts, tuple(sorted(valuation[g] for g in good_set))))
        return search(valuation, parts, good_set, **kwargs)

    monkeypatch.setattr(oracle, "mms", recording_mms)
    rng = random.Random(2024)
    for seed in range(50):
        n = rng.randint(2, 4)
        m = rng.randint(n, 10)
        inst = random_instance(seed, n, m, bound=30)
        keys.clear()
        mf.approx_mms(inst, mf.alpha_for(n))
        repeated = {k for k in keys if keys.count(k) > 1}
        assert not repeated, (seed, n, m, sorted(repeated))


GOLDEN_SOLVES = Path(__file__).parent / "data" / "golden_solves.json"


def golden_solve_instances() -> dict:
    """The frozen solve inputs: one per path through approx_mms, four at
    the north-star size (n = 6, m = 18 and 20) that reduce and fill bags,
    and three past 8 agents (n = 9, which fills bags, and n = 10 and 12,
    which reduce to one agent).  The bag-fill events of seed 4 at m = 18
    and seed 2 at m = 20 change with the witnesses ``normalize`` rescales
    by, so they pin them."""
    from helpers import dummy_survives_to_bagfill_instance, rule4_dummy_instance

    rows = random_instance(5, 2, 8, bound=30).valuations
    peeled = mf.make_instance(3, [f"g{j}" for j in range(1, 9)],
                              {0: {f"g{j}": 0 for j in range(1, 9)},
                               1: rows[0], 2: rows[1]})
    return {
        "peeled-agent": peeled,
        "all-peeled": mf.make_instance(3, ["g1", "g2", "g3", "g4"],
                                       {a: {f"g{j}": 0 for j in range(1, 5)}
                                        for a in range(3)}),
        "one-agent": mf.make_instance(1, ["g1", "g2"], {0: {"g1": 1, "g2": 2}}),
        "r4-dummy-to-bagfill": dummy_survives_to_bagfill_instance(),
        "r4-only": rule4_dummy_instance(),
        "bagfill-n3": random_instance(4, 3, 12, bound=80, min_value=1),
        "single-survivor-n2": random_instance(0, 2, 8, bound=30),
        "tight-n3": mf.gen_tight_example(3),
        "random-n3": random_instance(10, 3, 11, bound=30),
        "random-n4": random_instance(4, 4, 14, bound=30),
        "north-star-n6-m18": random_instance(1, 6, 18, bound=1000),
        "north-star-n6-m20": random_instance(1, 6, 20, bound=1000),
        "north-star-n6-m18-s4": random_instance(4, 6, 18, bound=1000),
        "north-star-n6-m20-s2": random_instance(2, 6, 20, bound=1000),
        "wide-n9-m20": random_instance(1, 9, 20, bound=1000),
        "wide-n10-m20": random_instance(1, 10, 20, bound=1000),
        "wide-n12-m20": random_instance(1, 12, 20, bound=1000),
    }


def golden_solve_doc(inst: mf.Instance) -> dict:
    """Report, reduction log (with pre_mms) and bag-fill events of one solve."""
    report = mf.approx_mms(inst, mf.alpha_for(inst.n))
    return {
        "instance": mf.instance_to_json(inst),
        "report": report.to_json(inst),
        "reductions": report.reduction_log.to_json(),
        "bagfill": None if report.bagfill is None
        else [e.to_json() for e in report.bagfill.trace],
    }


def test_solves_match_golden_file():
    with open(GOLDEN_SOLVES, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert set(golden) == set(golden_solve_instances())
    for name, expected in golden.items():
        inst = mf.instance_from_json(expected["instance"])
        assert golden_solve_doc(inst) == expected, name


if __name__ == "__main__":
    # Adds the cases the frozen file lacks; never rewrites a frozen one.
    freeze_golden(GOLDEN_SOLVES, {name: lambda inst=inst: golden_solve_doc(inst)
                                  for name, inst in golden_solve_instances().items()})
