"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to watch the lines as they pass.
All comparisons are exact rational arithmetic; the only tolerances are the
wall-clock budgets stated per criterion.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import mmsfair as mf

from helpers import mms_naive, random_complete_allocation, random_instance, replay_log


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


# --- criterion 1: tight-family normalization --------------------------------

def test_criterion_1_tight_normalization():
    t0 = time.perf_counter()
    violations = []
    for n in range(2, 11):
        inst = mf.gen_tight_example(n)
        for a in inst.agents:
            cells = inst.certificates[a]
            if len(cells) != n:
                violations.append((n, a, "cell count"))
            for cell in cells:
                if mf.bundle_value(inst, a, cell) != 1:
                    violations.append((n, a, "cell sum", sorted(cell)))
            if mf.bundle_value(inst, a, inst.all_goods) != n:
                violations.append((n, a, "total"))
        if n <= 5:
            searched = mf.mms(inst.valuations[0], n, inst.goods)  # no certificate
            if searched.value != 1:
                violations.append((n, "oracle", searched.value))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 5.0
    _report("1 tight normalization", ok,
            f"n=2..10 exact, oracle n<=5, {elapsed:.2f}s; violations={violations}")


# --- criterion 2: worst-case family reproduction ----------------------------

def test_criterion_2_tight_example_bounds():
    t0 = time.perf_counter()
    violations = []
    for n in range(3, 9):
        inst = mf.gen_tight_example(n)
        choice = mf.alpha_for(n, "improved")
        rep = mf.approx_mms(inst, choice)
        upper = Fraction(3 * n, 4 * n - 2)
        if not (choice.alpha <= rep.score <= upper):
            violations.append((n, "score window", rep.score))
        tau = Fraction(3 * n - 1, 4 * n - 2)
        for at_most_tau in (Fraction(3, 4), tau):
            run = mf.run_bag_fill(inst, at_most_tau)
            if run.bundles is None:
                violations.append((n, "bag fill failed at", at_most_tau))
                continue
            if any(e.kind == "fill" for e in run.trace):
                violations.append((n, "unexpected fill at", at_most_tau))
            if sorted(run.assignments.values()) != list(range(1, n + 1)):
                violations.append((n, "not every initial bag assigned"))
            for a in inst.agents:
                if mf.bundle_value(inst, a, run.bundles[a]) != tau:
                    violations.append((n, a, "bag value not tau"))
        for above in (tau + Fraction(1, 10**6), Fraction(9, 10), Fraction(1)):
            if above <= tau:
                continue
            if mf.run_bag_fill(inst, above).bundles is not None:
                violations.append((n, "bag fill succeeded above tau", above))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 30.0
    _report("2 worst-case family", ok,
            f"n=3..8 exact windows and bag-fill thresholds, {elapsed:.2f}s; "
            f"violations={violations}")


# --- criteria 3-5 share one run of the randomized suite ---------------------

def _suite3_specs():
    specs = []
    idx = 0
    for n in (2, 3, 4):
        for m in range(n, 13):
            for _ in range(17):
                specs.append(mf.GeneratorSpec(kind="uniform-int", n=n, m=m,
                                              value_bound=100, seed=10_000 + idx))
                idx += 1
    return specs


@pytest.fixture(scope="module")
def suite3():
    t0 = time.perf_counter()
    runs = []
    for spec in _suite3_specs():
        inst = mf.gen_random(spec)
        choice = mf.alpha_for(spec.n, "improved")
        report = mf.approx_mms(inst, choice)
        runs.append((spec, inst, choice, report))
    return runs, time.perf_counter() - t0


def test_criterion_3_end_to_end_guarantee(suite3):
    runs, solve_elapsed = suite3
    t0 = time.perf_counter()
    failures = []
    for spec, inst, choice, report in runs:
        check = mf.verify(inst, report.allocation, choice.alpha)
        if not check.passed:
            failures.append((spec.instance_id(), check.score))
    elapsed = solve_elapsed + (time.perf_counter() - t0)
    ok = len(runs) >= 500 and not failures and elapsed < 300.0
    _report("3 end-to-end guarantee", ok,
            f"{len(runs)} instances, oracle-verified score >= alpha, "
            f"{elapsed:.1f}s; failures={failures[:5]}")


def test_criterion_4_reduction_validity(suite3):
    runs, _ = suite3
    t0 = time.perf_counter()
    violations = []
    checked = 0
    for spec, _inst, choice, report in runs:
        log = report.reduction_log
        replayed = replay_log(log)
        if replayed[-1] != log.final:
            violations.append((spec.instance_id(), "replay mismatch"))
            continue
        values = [mf.instance_mms_values(step) for step in replayed]
        for i, rec in enumerate(log.records):
            checked += 1
            before, after = values[i], values[i + 1]
            given = mf.bundle_value(replayed[i], rec.agent, rec.removed_goods)
            if given < choice.alpha * before[rec.agent]:
                violations.append((spec.instance_id(), i, "condition 1"))
            for a in replayed[i + 1].agents:
                if after[a] < before[a]:
                    violations.append((spec.instance_id(), i, "condition 2", a))
            if rec.pre_mms != {a: before[a] for a in rec.pre_mms}:
                violations.append((spec.instance_id(), i, "stale snapshot"))
    elapsed = time.perf_counter() - t0
    ok = not violations
    _report("4 reduction validity", ok,
            f"{checked} reductions oracle-checked (both conditions), "
            f"{elapsed:.1f}s; violations={violations[:5]}")


def test_criterion_5_irreducible_instance_properties(suite3):
    runs, _ = suite3
    t0 = time.perf_counter()
    third = Fraction(1, 3)
    two_thirds = Fraction(2, 3)
    violations = []
    checked = 0
    for spec, _inst, choice, report in runs:
        oni = report.irreducible_instance
        if oni is None:  # the reductions collapsed to a single agent
            continue
        checked += 1
        sid = spec.instance_id()
        alpha, delta = choice.alpha, choice.delta
        n, m = oni.n, oni.m
        bare = mf.Instance(agents=oni.agents, goods=oni.goods,
                           dummies=oni.dummies, valuations=oni.valuations)
        values = mf.instance_mms_values(bare)
        if m < 2 * n:
            violations.append((sid, "fewer than 2n goods"))
        for k in (1, 2, 3, 4):
            goods = mf.rule_bundle(oni, k)
            for a in oni.agents:
                if mf.bundle_value(oni, a, goods) >= alpha * values[a]:
                    violations.append((sid, f"rule {k} still applies", a))
        for k in (1, 2, 3):
            for a in oni.agents:
                cap = alpha * values[a] / k
                for j in range((k - 1) * n + 1, m + 1):
                    if oni.valuations[a][oni.goods[j - 1]] >= cap:
                        violations.append((sid, f"rank bound k={k}", a, j))
        for a in oni.agents:
            row = oni.valuations[a]
            for k in range(1, n + 1):
                high = row[oni.goods[k - 1]]
                low = row[oni.goods[2 * n - k]]
                if high + low > 1 and not (low <= third and high > two_thirds):
                    violations.append((sid, "pair bound", a, k))
            for d in oni.dummies:
                if row[d] >= Fraction(4, 3) * delta:
                    violations.append((sid, "dummy bound", a, d))
    elapsed = time.perf_counter() - t0
    ok = not violations and checked > 0
    _report("5 irreducible-instance properties", ok,
            f"{checked} instances checked (irreducibility, rank bounds, "
            f">=2n goods, pair bound, dummy bound), {elapsed:.1f}s; "
            f"violations={violations[:5]}")


# --- criterion 6: oracle equivalence -----------------------------------------

def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    checked = 0
    # exhaustive small families: every value multiset with m <= 6, values <= 3,
    # split into up to 3 parts (good labels cannot affect either oracle)
    for m in range(1, 7):
        for values in combinations_with_replacement(range(4), m):
            vals = {f"g{i}": Fraction(v) for i, v in enumerate(values, 1)}
            goods = list(vals)
            for parts in (1, 2, 3):
                checked += 1
                fast = mf.mms(vals, parts, goods)
                slow = mms_naive(vals, parts, goods)
                if fast.value != slow.value:
                    mismatches.append((values, parts, fast.value, slow.value))
    # plus 200 random instances with n <= 3 agents and m <= 8 goods
    rng = random.Random(777)
    for i in range(200):
        n = rng.randint(1, 3)
        m = rng.randint(1, 8)
        rational = i % 4 == 0
        inst = random_instance(seed=20_000 + i, n=n, m=m, bound=100,
                               rational=rational)
        for a in inst.agents:
            checked += 1
            fast = mf.mms(inst.valuations[a], n, inst.goods)
            slow = mms_naive(inst.valuations[a], n, inst.goods)
            if fast.value != slow.value:
                mismatches.append((20_000 + i, a, fast.value, slow.value))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 120.0
    _report("6 oracle equivalence", ok,
            f"{checked} exact comparisons, {elapsed:.1f}s; "
            f"mismatches={mismatches[:5]}")


# --- criterion 7: lift correctness -------------------------------------------

def test_criterion_7_lift_correctness():
    t0 = time.perf_counter()
    rng = random.Random(4242)
    violations = []
    reductions_checked = 0
    for i in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(n, 10)
        inst = random_instance(seed=30_000 + i, n=n, m=m, bound=50, min_value=1)
        ordered, mapping = mf.to_ordered(inst)

        ordered_alloc = random_complete_allocation(rng, ordered)
        lifted = mf.lift_ordered(mapping, inst, ordered_alloc)
        for a in inst.agents:
            if mf.bundle_value(inst, a, lifted[a]) < \
                    mf.bundle_value(ordered, a, ordered_alloc[a]):
                violations.append((i, "ordered lift", a))

        choice = mf.alpha_for(n, "improved")
        log = mf.reduce(ordered, choice.alpha, mf.instance_mms_all(ordered))
        sub_bundles = {a: frozenset() for a in log.final.agents}
        sub_bundles[log.final.agents[0]] = frozenset(log.final.goods)
        relifted = mf.lift_reductions(log, sub_bundles)
        for rec in log.records:
            reductions_checked += 1
            if relifted[rec.agent] != rec.removed_goods:
                violations.append((i, "reinstated bundle", rec.agent))
            held = mf.bundle_value(ordered, rec.agent, rec.removed_goods)
            if held < choice.alpha * rec.pre_mms[rec.agent]:
                violations.append((i, "reduction lift threshold", rec.agent))
    elapsed = time.perf_counter() - t0
    ok = not violations
    _report("7 lift correctness", ok,
            f"200 instances, {reductions_checked} reinstated agents, "
            f"{elapsed:.1f}s; violations={violations[:5]}")
