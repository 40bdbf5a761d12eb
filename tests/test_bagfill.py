"""Bag filling: paired initial bags, threshold assignment, failure, leftovers."""

from fractions import Fraction

import pytest

import mmsfair as mf

from helpers import random_instance

TAU3 = Fraction(8, 10)  # every initial bag's value on the 3-agent tight example


def test_tight_example_assigns_all_initial_bags_without_fills():
    inst = mf.gen_tight_example(3)
    run = mf.run_bag_fill(inst, TAU3)
    assert run.allocation is not None
    assert all(e.kind == "assign" for e in run.trace)
    # lowest agent takes the lowest bag, in order
    assert run.state.assignments == {0: 1, 1: 2, 2: 3}
    for a in inst.agents:
        assert mf.bundle_value(inst, a, run.allocation.bundles[a]) == TAU3
        assert len(run.allocation.bundles[a]) == 2
    assert run.state.unassigned_goods == ("g7", "g8")


def test_tight_example_fails_above_initial_bag_value():
    inst = mf.gen_tight_example(3)
    run = mf.run_bag_fill(inst, Fraction(9, 10))
    assert run.allocation is None
    # two agents were satisfied by topping bags up, the third ran dry
    assert len(run.state.unsatisfied_agents) == 1
    assert len(run.state.unassigned_bags) == 1
    assert run.state.unassigned_goods == ()


def test_single_agent_bag():
    inst = mf.make_instance(1, ["g1", "g2"],
                            {0: {"g1": "1/2", "g2": "1/2"}})
    alloc = mf.run_bag_fill(inst, Fraction(3, 4)).allocation
    assert alloc is not None
    assert alloc.bundles[0] == frozenset({"g1", "g2"})


def test_contract_errors():
    inst = mf.make_instance(2, ["g1", "g2", "g3"],
                            {a: {"g1": 3, "g2": 2, "g3": 1} for a in range(2)})
    with pytest.raises(mf.ContractError, match="at least"):
        mf.run_bag_fill(inst, Fraction(3, 4)).allocation  # 3 goods < 2n
    unordered = mf.make_instance(1, ["g1", "g2"], {0: {"g1": 1, "g2": 2}})
    with pytest.raises(mf.ContractError, match="ordered"):
        mf.run_bag_fill(unordered, Fraction(3, 4)).allocation


def test_dummies_never_enter_bags():
    inst = mf.make_instance(2, ["g1", "g2", "g3", "g4"],
                            {a: {"g1": 4, "g2": 3, "g3": 2, "g4": 1, "d1": 100}
                             for a in range(2)},
                            dummies=["d1"])
    run = mf.run_bag_fill(inst, Fraction(6))
    placed = set().union(*run.state.bags)
    assert "d1" not in placed
    assert run.allocation is None  # both bags are worth 5 without the dummy


def _replay(instance, alpha, run):
    """Re-walk the trace checking the loop's decision conditions."""
    n = instance.n
    bags = {k: {instance.goods[k - 1], instance.goods[2 * n - k]}
            for k in range(1, n + 1)}
    open_bags = set(bags)
    unsatisfied = set(instance.agents)
    for event in run.trace:
        if event.kind == "fill":
            # a good is added only when no unsatisfied agent meets the
            # threshold on any open bag
            for a in sorted(unsatisfied):
                for k in sorted(open_bags):
                    assert mf.bundle_value(instance, a, bags[k]) < alpha
            bags[event.bag].add(event.good)
        else:
            value = mf.bundle_value(instance, event.agent, bags[event.bag])
            assert value >= alpha
            assert value == event.bag_value
            unsatisfied.discard(event.agent)
            open_bags.discard(event.bag)
        assert len(unsatisfied) == len(open_bags)


def test_trace_replay_invariants():
    inst = mf.gen_tight_example(4)
    for alpha in (Fraction(3, 4), Fraction(11, 14), Fraction(4, 5), Fraction(9, 10)):
        run = mf.run_bag_fill(inst, alpha)
        _replay(inst, alpha, run)
    report = mf.approx_mms(random_instance(2, 3, 12, bound=30, min_value=1),
                           mf.alpha_for(3))
    assert report.irreducible_instance is not None
    _replay(report.irreducible_instance, report.alpha.alpha, report.bagfill)


def test_complete_allocation_without_leftovers_is_identity():
    inst = mf.gen_tight_example(3)
    run = mf.run_bag_fill(inst, TAU3)
    partial = run.allocation
    taken = set().union(*partial.bundles.values())
    covered = mf.Allocation(
        bundles={**partial.bundles,
                 0: partial.bundles[0] | (set(inst.goods) - taken)},
        complete=True)
    assert mf.complete_allocation(inst, covered) == covered


def test_complete_allocation_tight_example_leftovers():
    inst = mf.gen_tight_example(3)
    run = mf.run_bag_fill(inst, TAU3)
    completed = mf.complete_allocation(inst, run.allocation)
    assert completed.complete
    # identical valuations: both leftovers go to the lowest agent id
    assert completed.bundles[0] == run.allocation.bundles[0] | {"g7", "g8"}
    for a in inst.agents:
        assert mf.bundle_value(inst, a, completed.bundles[a]) >= TAU3


def test_complete_allocation_zero_valued_leftover():
    inst = mf.make_instance(2, ["g1", "g2", "g3"],
                            {a: {"g1": 1, "g2": 1, "g3": 0} for a in range(2)})
    partial = mf.Allocation({0: frozenset({"g1"}), 1: frozenset({"g2"})},
                            complete=False)
    completed = mf.complete_allocation(inst, partial)
    assert "g3" in completed.bundles[0]
    assert mf.bundle_value(inst, 0, completed.bundles[0]) == 1


def test_complete_allocation_prefers_highest_valuing_agent():
    inst = mf.make_instance(2, ["g1", "g2", "g3"],
                            {0: {"g1": 5, "g2": 1, "g3": 1},
                             1: {"g1": 5, "g2": 1, "g3": 9}})
    partial = mf.Allocation({0: frozenset({"g1"}), 1: frozenset({"g2"})},
                            complete=False)
    completed = mf.complete_allocation(inst, partial)
    assert "g3" in completed.bundles[1]


def test_complete_allocation_requires_bundles_for_everyone():
    inst = random_instance(6, 2, 4)
    with pytest.raises(mf.ContractError):
        mf.complete_allocation(inst, mf.Allocation({0: frozenset()}, complete=False))
