"""Core model: exact values, instance validation, bundle sums, JSON I/O."""

import argparse
import copy
import dataclasses
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mmsfair as mf
from mmsfair import cli
from mmsfair.core import fresh_id

from helpers import random_instance


def test_parse_value_accepts_ints_and_fractions():
    assert mf.parse_value(3) == Fraction(3)
    assert mf.parse_value("3/6") == Fraction(1, 2)
    assert mf.parse_value("0/5") == Fraction(0)
    assert mf.parse_value(Fraction(2, 7)) == Fraction(2, 7)


def test_value_render_parse_roundtrip():
    rng = random.Random(5)
    samples = [Fraction(0), Fraction(7), Fraction(22, 7)]
    samples += [Fraction(rng.randint(0, 10**9), rng.randint(1, 10**6)) for _ in range(50)]
    for x in samples:
        assert mf.parse_value(mf.format_value(x)) == x


def test_parse_value_accepts_a_fraction_subclass_and_rejects_its_negatives():
    class Exact(Fraction):
        pass

    assert mf.parse_value(Exact(3, 4)) == Fraction(3, 4)
    with pytest.raises(mf.ValidationError, match="non-negative"):
        mf.parse_value(Exact(-3, 4))


@pytest.mark.parametrize("bad", [-1, "-2/3", "abc", "1/0", True, 0.5, None,
                                 "1e3", "1.5", Fraction(-1, 2), False])
def test_parse_value_rejects_garbage(bad):
    with pytest.raises(mf.ValidationError):
        mf.parse_value(bad)


def test_bundle_value_empty_is_zero():
    inst = random_instance(1, 2, 3)
    for a in inst.agents:
        assert mf.bundle_value(inst, a, frozenset()) == 0


def test_bundle_value_tight_example_top_pair():
    inst = mf.gen_tight_example(3)
    assert mf.bundle_value(inst, 0, {"g1", "g2"}) == 1


def test_bundle_value_hand_sum():
    goods = [f"g{i}" for i in range(1, 6)]
    row = dict(zip(goods, map(Fraction, [7, 5, 4, 3, 2])))
    inst = mf.make_instance(1, goods, {0: row})
    bundle = {"g1", "g3", "g5"}
    naive = sum(row[g] for g in bundle)
    assert naive == 13
    assert mf.bundle_value(inst, 0, bundle) == 13


def test_bundle_value_additivity_on_disjoint_sets():
    rng = random.Random(11)
    for seed in range(20):
        inst = random_instance(seed, 2, 8)
        goods = list(inst.goods)
        rng.shuffle(goods)
        cut = rng.randint(0, len(goods))
        s, t = frozenset(goods[:cut]), frozenset(goods[cut:])
        for a in inst.agents:
            assert (mf.bundle_value(inst, a, s | t)
                    == mf.bundle_value(inst, a, s) + mf.bundle_value(inst, a, t))


def test_bundle_value_unknown_references():
    inst = random_instance(2, 2, 3)
    with pytest.raises(mf.ValidationError):
        mf.bundle_value(inst, 99, {"g1"})
    with pytest.raises(mf.ValidationError):
        mf.bundle_value(inst, 0, {"nope"})


def test_validate_instance_accepts_well_formed():
    inst = mf.make_instance(2, ["g1", "g2", "g3"],
                            {0: {"g1": 1, "g2": 2, "g3": 3},
                             1: {"g1": 3, "g2": 2, "g3": 1}})
    mf.validate_instance(inst)


def test_validate_instance_rejects_negative_value():
    for value in (Fraction(-1), Fraction(-1, 3)):
        inst = mf.Instance(agents=(0,), goods=("g1",), dummies=(),
                           valuations={0: {"g1": value}})
        with pytest.raises(mf.ValidationError,
                           match=rf"valuations\[0\]\[g1\]: negative value {value}$"):
            mf.validate_instance(inst)


def test_validate_instance_rejects_ragged_row():
    inst = mf.Instance(agents=(0, 1), goods=("g1", "g2"), dummies=(),
                       valuations={0: {"g1": Fraction(1), "g2": Fraction(1)},
                                   1: {"g1": Fraction(1)}})
    with pytest.raises(mf.ValidationError, match="missing"):
        mf.validate_instance(inst)


def test_validate_instance_names_missing_and_unknown_goods():
    one = Fraction(1)
    rows = [({"g1": one}, r"valuations\[1\]: missing goods \['g2'\]$"),
            ({"g1": one, "g2": one, "d1": one, "x": one},
             r"valuations\[1\]: unknown goods \['d1', 'x'\]$"),
            # a row both missing and adding a good reports the missing one
            ({"g1": one, "x": one}, r"valuations\[1\]: missing goods \['g2'\]$")]
    for row, message in rows:
        inst = mf.Instance(agents=(0, 1), goods=("g1", "g2"), dummies=(),
                           valuations={0: {"g1": one, "g2": one}, 1: row})
        with pytest.raises(mf.ValidationError, match=message):
            mf.validate_instance(inst)


def test_without_nothing_to_drop_is_the_instance_itself():
    inst = mf.gen_tight_example(3)
    assert inst.without() is inst
    assert inst.without(agents=[], goods=set()) is inst
    assert inst.without().certificates == inst.certificates != {}
    changed = [inst.without(agents=(0,)), inst.without(goods=("g8",)),
               inst.without(dummy=("d1", {a: Fraction(0) for a in inst.agents}))]
    for smaller in changed:
        assert smaller is not inst
        assert smaller.certificates == {}
        mf.validate_instance(smaller)


def test_validate_instance_rejects_duplicate_good_ids():
    inst = mf.Instance(agents=(0,), goods=("g1", "g1"), dummies=(),
                       valuations={0: {"g1": Fraction(1)}})
    with pytest.raises(mf.ValidationError, match="duplicate"):
        mf.validate_instance(inst)
    inst = mf.Instance(agents=(0,), goods=("g1",), dummies=("g1",),
                       valuations={0: {"g1": Fraction(1)}})
    with pytest.raises(mf.ValidationError, match="duplicate"):
        mf.validate_instance(inst)


def test_validate_instance_rejects_good_ids_that_are_not_strings():
    # The JSON schema names goods by string, so such an instance could be
    # solved but not written to a file that reads back.
    one = Fraction(1)
    inst = mf.Instance(agents=(0, 1), goods=(1, 2), dummies=(),
                       valuations={a: {1: one, 2: one} for a in (0, 1)})
    with pytest.raises(mf.ValidationError, match="good id 1 is not a string"):
        mf.validate_instance(inst)
    inst = mf.Instance(agents=(0,), goods=("g1",), dummies=(("d",),),
                       valuations={0: {"g1": one, ("d",): one}})
    with pytest.raises(mf.ValidationError, match=r"good id \('d',\) is not a string"):
        mf.validate_instance(inst)


def test_instance_json_roundtrip_with_dummies():
    inst = mf.make_instance(
        2, ["g1", "g2"],
        {0: {"g1": "1/3", "g2": 4, "d1": "0/1"},
         1: {"g1": 2, "g2": "5/7", "d1": "2/9"}},
        dummies=["d1"])
    doc = mf.instance_to_json(inst)
    back = mf.instance_from_json(doc)
    assert back == inst
    assert doc["valuations"]["0"]["g1"] == "1/3"
    assert doc["valuations"]["0"]["g2"] == "4/1"


def test_instance_json_certificates_roundtrip():
    inst = mf.gen_tight_example(3)
    back = mf.instance_from_json(mf.instance_to_json(inst))
    assert back.certificates is not None
    assert {frozenset(c) for c in back.certificates[0]} == set(inst.certificates[0])


def test_instance_to_json_rejects_agent_ids_it_cannot_read_back():
    inst = mf.make_instance(3, ["g1"], {a: {"g1": 1} for a in range(3)})
    with pytest.raises(mf.ContractError, match=r"\[1, 2\]"):
        mf.instance_to_json(inst.without(agents=(0,)))


def test_without_rejects_ids_it_does_not_hold():
    inst = mf.make_instance(2, ["g1", "g2"], {a: {"g1": 1, "g2": 2, "d1": 0} for a in (0, 1)},
                            dummies=["d1"])
    cases = [(dict(agents=[0, 5]), r"^without: unknown agents \['5'\]$"),
             (dict(goods=["d1", "g1", "g9"]), r"^without: not real goods \['d1', 'g9'\]$"),
             (dict(goods=["g1"], dummy=("g2", {0: 0, 1: 0})), r"^without: dummy id 'g2' is taken$"),
             (dict(agents=[0], dummy=("d2", {0: 1})),
              r"^without: dummy values given for agents \['0'\], but the survivors are \[1\]$"),
             (dict(dummy=("d2", {0: 1})),
              r"^without: dummy values given for agents \['0'\], but the survivors are \[0, 1\]$")]
    for kwargs, message in cases:
        with pytest.raises(mf.ContractError, match=message):
            inst.without(**kwargs)


def _main_on(monkeypatch, capsys, args):
    """The CLI's exit code and stderr for ``args`` as parsed arguments."""
    monkeypatch.setattr(cli._PARSER, "parse_args", lambda argv: argparse.Namespace(**args))
    return cli.main([]), capsys.readouterr().err


# Every entry that reads a count: (field, least, class raised, call with the
# count).  A CLI flag's call gives the parsed arguments that main runs on:
# argparse reads the flags as ints, so main is handed the other values here.
COUNT_ENTRIES = {
    "mms parts": ("parts", 1, mf.ContractError, lambda v: mf.mms({"g1": 1}, v, ["g1"])),
    "mms max_goods": ("max_goods", 0, mf.ValidationError,
                      lambda v: mf.mms({}, 1, [], max_goods=v)),
    "alpha_limit": ("agent count", 1, mf.ContractError, mf.alpha_limit),
    "gen_tight_example": ("n", 2, mf.ContractError, mf.gen_tight_example),
    "gen_random n": ("n", 1, mf.ContractError,
                     lambda v: mf.gen_random(mf.GeneratorSpec(kind="uniform-int", n=v))),
    "gen_random m": ("m", 0, mf.ContractError,
                     lambda v: mf.gen_random(mf.GeneratorSpec(kind="uniform-int", n=1, m=v))),
    "gen_random uniform-int value_bound": (
        "value_bound", 0, mf.ContractError,
        lambda v: mf.gen_random(mf.GeneratorSpec(kind="uniform-int", n=1, value_bound=v))),
    "gen_random uniform-rational value_bound": (
        "value_bound", 1, mf.ContractError,
        lambda v: mf.gen_random(mf.GeneratorSpec(kind="uniform-rational", n=1, value_bound=v))),
    "make_instance": ("agents", 0, mf.ValidationError, lambda v: mf.make_instance(v, [], {})),
    "cli --max-goods": ("--max-goods", 0, mf.ValidationError,
                        lambda v: dict(max_goods=v, func=lambda args: 0)),
    "cli --count": ("--count", 1, mf.ValidationError,
                    lambda v: dict(func=cli._cmd_bench, suite="random", count=v, seed=1,
                                   max_goods=20, output=os.devnull)),
}


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_every_count_entry_checks_its_count(entry, monkeypatch, capsys):
    field, least, error, call = COUNT_ENTRIES[entry]
    bad = [(v, f"{field} must be an int, got {v!r}") for v in (True, 1.0, "1", None)]
    bad.append((least - 1, f"{field} must be at least {least}, got {least - 1}"))
    for value, message in bad:
        if field.startswith("--"):
            assert _main_on(monkeypatch, capsys, call(value)) == (2, f"error: {message}\n")
            continue
        with pytest.raises(error) as info:
            call(value)
        assert type(info.value) is error and str(info.value) == message
    if field.startswith("--"):
        assert _main_on(monkeypatch, capsys, call(least)) == (0, "")
    else:
        call(least)


def test_instance_json_rejects_missing_rows():
    with pytest.raises(mf.ValidationError):
        mf.instance_from_json({"agents": 2, "goods": ["g1"],
                               "valuations": {"0": {"g1": 1}}})
    # make_instance checks the count and the rows as the JSON path does
    for n, message in ((-2, r"^agents must be at least 0, got -2$"),
                       (True, r"^agents must be an int, got True$")):
        with pytest.raises(mf.ValidationError, match=message):
            mf.make_instance(n, ["g1"], {0: {"g1": 1}})
    with pytest.raises(mf.ValidationError, match=r"unknown agents \['7'\]"):
        mf.make_instance(2, ["g1"], {a: {"g1": 1} for a in (0, 1, 7)})


def test_make_instance_rejects_what_it_cannot_build():
    row = {"g1": 1}
    with pytest.raises(mf.ValidationError, match=r"^agents must be an int, got 2\.0$"):
        mf.make_instance(2.0, ["g1"], {0: row, 1: row})
    with pytest.raises(mf.ValidationError, match=r"^valuations\[1\]: must be a mapping, got list"):
        mf.make_instance(2, ["g1"], {0: row, 1: [("g1", 1)]})
    with pytest.raises(mf.ValidationError, match=r"^valuations: must be a mapping, got list"):
        mf.make_instance(1, ["g1"], [row])
    with pytest.raises(mf.ValidationError, match=r"^valuations: missing row for agent 1"):
        mf.make_instance(10 ** 9, ["g1"], {0: row})
    # validate_instance owns the unknown-row rule, for any Instance
    inst = mf.make_instance(1, ["g1"], {0: row})
    extra = dataclasses.replace(inst, valuations={0: inst.valuations[0], 7: inst.valuations[0]})
    with pytest.raises(mf.ValidationError, match=r"unknown agents \['7'\]"):
        mf.validate_instance(extra)
    # and the certificates rule: no certificates is an empty mapping, not None
    with pytest.raises(mf.ValidationError, match="certificates: must be a mapping"):
        mf.validate_instance(dataclasses.replace(inst, certificates=None))


def test_make_instance_reads_a_set_of_goods_sorted():
    names = [f"g{j}" for j in range(1, 12)]
    inst = mf.make_instance(2, set(names), {a: {g: 1 for g in names} for a in (0, 1)})
    assert inst.goods == tuple(sorted(names))
    dummies = mf.make_instance(1, frozenset(), {0: {"d1": 0, "d2": 0}}, dummies={"d2", "d1"})
    assert dummies.dummies == ("d1", "d2")
    # a list keeps its order
    assert mf.make_instance(1, ["g2", "g1"], {0: {"g1": 1, "g2": 1}}).goods == ("g2", "g1")


def test_validate_instance_requires_ascending_int_agent_ids():
    one = Fraction(1)
    for agents in ((0, 0), (1, 0), (True,), (0, "1"), (0, 1.0)):
        inst = mf.Instance(agents=agents, goods=("g1",), dummies=(),
                           valuations={a: {"g1": one} for a in agents})
        with pytest.raises(mf.ValidationError, match=r"^agents: "):
            mf.validate_instance(inst)
    mf.validate_instance(mf.Instance(agents=(2, 5), goods=("g1",), dummies=(),
                                     valuations={2: {"g1": one}, 5: {"g1": one}}))


def test_validate_instance_rejects_hand_built_rows_and_certificates():
    one = Fraction(1)
    missing = mf.Instance(agents=(0, 1), goods=("g1",), dummies=(),
                          valuations={0: {"g1": one}})
    with pytest.raises(mf.ValidationError, match=r"^valuations: missing row for agent 1$"):
        mf.validate_instance(missing)
    inexact = mf.Instance(agents=(0,), goods=("g1",), dummies=(), valuations={0: {"g1": 1}})
    with pytest.raises(mf.ValidationError, match=r"^valuations\[0\]\[g1\]: not an exact rational$"):
        mf.validate_instance(inexact)
    stray = mf.Instance(agents=(0,), goods=("g1",), dummies=(), valuations={0: {"g1": one}},
                        certificates={5: (frozenset({"g1"}),)})
    with pytest.raises(mf.ValidationError, match=r"^certificates: unknown agent 5$"):
        mf.validate_instance(stray)


# Junk that may stand in for any part of an instance document; a fresh
# copy each draw, since later edits may write into it.
_JUNK = st.sampled_from([None, True, -1, 2.0, 10 ** 9, "x", "1/0", "1.5", "2/3",
                         [], ["g1"], [1], {}, {"g1": 1}, {"0": 1}]).map(copy.deepcopy)
# Keys that may be added to a document's objects: known, unknown and malformed.
_KEYS = st.sampled_from(["0", "1", "7", "01", "-1", "x", "g1", "g9", "d1",
                         "agents", "certificates"])


def _slots(node):
    """(container, key) for every entry of every list and object in ``node``."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
    else:
        return []
    return [(node, k) for k in keys] + [s for k in keys for s in _slots(node[k])]


@st.composite
def _near_instance_doc(draw):
    """A valid instance document, then 0-3 edits: an entry replaced by junk
    or dropped, or a key added with junk under it."""
    n = draw(st.integers(0, 3))
    goods = [f"g{j}" for j in range(1, draw(st.integers(0, 4)) + 1)]
    dummies = [f"d{j}" for j in range(1, draw(st.integers(0, 1)) + 1)]
    value = st.one_of(st.integers(0, 100),
                      st.builds("{}/{}".format, st.integers(0, 100), st.integers(1, 100)))
    doc = {"agents": n, "goods": goods, "dummies": dummies,
           "valuations": {str(a): {g: draw(value) for g in goods + dummies}
                          for a in range(n)}}
    if n and draw(st.booleans()):
        # the goods dealt round robin: equal-valued only by chance, or at n = 1
        doc["certificates"] = {str(a): [(goods + dummies)[i::n] for i in range(n)]
                               for a in draw(st.sets(st.integers(0, n - 1)))}
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(_slots(doc)))
        edit = draw(st.sampled_from(["junk", "drop", "add"]))
        if edit == "junk":
            container[key] = draw(_JUNK)
        elif edit == "drop":
            del container[key]
        elif isinstance(container, dict):
            container[draw(_KEYS)] = draw(_JUNK)
    return doc


@st.composite
def _make_instance_args(draw):
    """make_instance arguments, valid or with one part malformed: the count,
    the goods or dummies, the valuations, a row (missing, for an unknown
    agent or not a mapping), a value or the certificates."""
    fault = draw(st.sampled_from([None, None, "count", "goods", "dummies", "valuations",
                                  "rows", "row", "value", "certificates"]))
    n = draw(st.integers(0, 3))
    goods, dummies = ["g1", "g2"], ["d1"]
    value = st.sampled_from([0, 1, 7, Fraction(1, 3), "2/3"])
    valuations = {a: {g: draw(value) for g in goods + dummies} for a in range(n)}
    # all goods in one cell: a valid certificate at n = 1 only
    certificates = draw(st.sampled_from([None, {a: [goods + dummies] for a in range(n)}]))
    bad_ids = st.sampled_from([None, 7, "g1", ["g1", 7], ["g1", "g1"]])
    if fault == "count":
        n = draw(st.sampled_from([2.0, True, False, -1, None, "2"]))
    elif fault == "goods":
        goods = draw(bad_ids)
    elif fault == "dummies":
        dummies = draw(bad_ids)
    elif fault == "valuations":
        valuations = draw(st.sampled_from([None, [{"g1": 1, "g2": 1}], "rows"]))
    elif fault == "rows":
        a = draw(st.integers(0, n))
        if a < n:
            del valuations[a]
        else:
            valuations[a] = {"g1": 1, "g2": 1, "d1": 1}
    elif fault == "row" and n:
        valuations[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([[("g1", 1)], None, 7, "g1"]))
    elif fault == "value" and n:
        valuations[draw(st.integers(0, n - 1))]["g2"] = draw(
            st.sampled_from([-1, 1.5, None, True, "x", "1/0", [1]]))
    elif fault == "certificates":
        certificates = draw(st.sampled_from([
            [["g1", "g2", "d1"]], {0: 5}, {0: [["g1", "g1"], ["g2", "d1"]]},
            {0: "g1g2d1"}, {0: ["g1", "g2", "d1"]}]))
    return n, goods, valuations, dummies, certificates


def _built_or_rejected(build):
    try:
        inst = build()
    except mf.ValidationError:
        return
    mf.validate_instance(inst)
    back = mf.instance_from_json(json.loads(json.dumps(mf.instance_to_json(inst))))
    assert back == inst and back.certificates == inst.certificates


@settings(max_examples=300)
@given(_near_instance_doc())
def test_instance_from_json_builds_a_valid_instance_or_rejects(doc):
    _built_or_rejected(lambda: mf.instance_from_json(doc))


@settings(max_examples=300)
@given(_make_instance_args())
def test_make_instance_builds_a_valid_instance_or_rejects(args):
    _built_or_rejected(lambda: mf.make_instance(*args))


def test_allocation_json_roundtrip():
    inst = random_instance(3, 2, 4)
    alloc = {0: frozenset({"g1", "g4"}), 1: frozenset({"g2", "g3"})}
    doc = mf.allocation_to_json(inst, alloc)
    assert doc == {"0": ["g1", "g4"], "1": ["g2", "g3"]}
    assert mf.allocation_from_json(inst, doc) == alloc


def test_allocation_names_the_agents_it_lacks_or_does_not_know():
    inst = random_instance(3, 3, 4)
    with pytest.raises(mf.ValidationError, match=r"agents \['1', '2'\]"):
        mf.allocation_from_json(inst, {"0": ["g1", "g2", "g3", "g4"]})
    bundles = {a: frozenset() for a in (0, 1, 2, 5)}
    with pytest.raises(mf.ValidationError, match=r"agents \['5'\]"):
        mf.validate_allocation(inst, bundles)


@st.composite
def _instance_and_allocation(draw):
    """1-4 agents, 0-9 goods, 0-2 dummies, int or p/q values, any complete allocation."""
    n = draw(st.integers(1, 4))
    goods = [f"g{j}" for j in range(1, draw(st.integers(0, 9)) + 1)]
    dummies = [f"d{j}" for j in range(1, draw(st.integers(0, 2)) + 1)]
    value = st.one_of(st.integers(0, 1000),
                      st.builds("{}/{}".format, st.integers(0, 1000), st.integers(1, 1000)))
    valuations = {a: {g: draw(value) for g in goods + dummies} for a in range(n)}
    inst = mf.make_instance(n, goods, valuations, dummies=dummies)
    owners = draw(st.lists(st.integers(0, n - 1), min_size=len(goods), max_size=len(goods)))
    alloc = {a: frozenset(g for g, o in zip(goods, owners) if o == a) for a in range(n)}
    return inst, alloc


@settings(max_examples=30)
@given(_instance_and_allocation())
def test_instance_and_allocation_json_roundtrip(case):
    inst, alloc = case
    inst_text = json.dumps(mf.instance_to_json(inst))
    assert mf.instance_from_json(json.loads(inst_text)) == inst
    alloc_text = json.dumps(mf.allocation_to_json(inst, alloc))
    assert mf.allocation_from_json(inst, json.loads(alloc_text)) == alloc


def test_validate_allocation_rejects_overlap_dummy_and_incomplete():
    inst = mf.make_instance(2, ["g1", "g2"],
                            {0: {"g1": 1, "g2": 1, "d1": 0},
                             1: {"g1": 1, "g2": 1, "d1": 0}},
                            dummies=["d1"])
    with pytest.raises(mf.ValidationError, match="twice"):
        mf.validate_allocation(inst, {0: frozenset({"g1"}), 1: frozenset({"g1", "g2"})})
    with pytest.raises(mf.ValidationError, match="dummy"):
        mf.validate_allocation(inst, {0: frozenset({"g1", "d1"}), 1: frozenset({"g2"})})
    with pytest.raises(mf.ValidationError, match=r"leaves goods \['g2'\] unallocated"):
        mf.validate_allocation(inst, {0: frozenset({"g1"}), 1: frozenset()})


def test_fresh_id_avoids_collisions():
    assert fresh_id("d", ["g1"]) == "d1"
    assert fresh_id("d", ["d1", "d2"]) == "d3"


def test_every_public_name_resolves():
    assert [name for name in mf.__all__ if not hasattr(mf, name)] == []
    # The brute-force cross-check and the log replay are test helpers
    # (tests/helpers.py), not package names.
    for module in (mf, mf.oracle, mf.transforms):
        for name in ("mms_naive", "replay_log"):
            assert not hasattr(module, name), (module.__name__, name)
