"""Exact rational values and the fair-division instance model.

Everything downstream branches on exact comparisons (is this bundle worth
at least alpha times an agent's maximin share?), so valuations are stored
as arbitrary-precision rationals and no floating point is used anywhere.

An instance holds a set of agents, a list of real goods, an optional list
of dummy goods (bookkeeping goods that influence maximin-share values but
are never allocated), and a per-agent valuation table over all goods.
Instances are immutable: transformations return new instances.

An allocation is a plain dict {agent: frozenset of real good ids} with
one bundle per agent; ``validate_allocation`` checks that its bundles
partition the real goods.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ContractError, ValidationError

Value = Fraction
Bundle = frozenset  # of good ids (str)

ZERO = Fraction(0)

# The only string forms a value may take: no sign, decimal point or exponent.
_VALUE_STRING = re.compile(r"([0-9]+)(?:/([0-9]+))?")

# A JSON object key naming an agent: its id in canonical decimal.
_AGENT_KEY = re.compile(r"0|[1-9][0-9]*")


def parse_value(raw) -> Fraction:
    """Read an exact non-negative rational: a Fraction (subclasses too), an
    int, or a string of digits or "p/q" digits.

    A Fraction is returned as it is.  A bool, a float, any other type, a
    malformed string or a negative value raises ValidationError.

    >>> parse_value("3/6")
    Fraction(1, 2)
    """
    # Values are Fractions on every path after parsing, so test that first.
    if type(raw) is Fraction:
        value = raw
    elif isinstance(raw, bool):
        raise ValidationError(f"value must be an integer or 'p/q' string, got {raw!r}")
    elif isinstance(raw, int):
        value = Fraction(raw)
    elif isinstance(raw, str):
        match = _VALUE_STRING.fullmatch(raw.strip())
        if match is None:
            raise ValidationError(f"cannot parse value {raw!r}: expected digits or 'p/q'")
        try:
            value = Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse value {raw!r}: {exc}") from None
    elif isinstance(raw, Fraction):
        value = raw
    else:
        raise ValidationError(f"value must be an integer or 'p/q' string, got {type(raw).__name__}")
    # A Fraction is kept in lowest terms with a positive denominator, so
    # its numerator carries its sign; testing it skips Fraction.__lt__.
    if value.numerator < 0:
        raise ValidationError(f"value must be non-negative, got {value}")
    return value


def parse_field(raw, field: str) -> Fraction:
    """``parse_value`` with its ValidationError naming ``field``."""
    try:
        return parse_value(raw)
    except ValidationError as exc:
        raise ValidationError(f"{field}: {exc}") from None


def format_value(value: Fraction) -> str:
    """Render a rational as "p/q" in lowest terms (integers become "p/1")."""
    return f"{value.numerator}/{value.denominator}"


def scaled(values: Sequence) -> tuple:
    """Ints and Fractions as integers over one denominator: (weights, denom).

    ``denom`` is the lcm of the values' denominators and weights[i] / denom
    equals values[i], so the weights order, sign-test and sum exactly as the
    values do, but as ints.  Each value is read once, by as_integer_ratio.

    >>> scaled([Fraction(1, 2), 3, Fraction(2, 3)])
    ([3, 18, 4], 6)
    """
    return scaled_ratios([v.as_integer_ratio() for v in values])


def scaled_ratios(ratios: Sequence) -> tuple:
    """``scaled`` for values already read as (numerator, denominator)
    pairs.

    >>> scaled_ratios([(1, 2), (3, 1), (2, 3)])
    ([3, 18, 4], 6)
    """
    denom = lcm(*[q for _, q in ratios])
    return [p * (denom // q) for p, q in ratios], denom


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: agents, goods, dummies, and valuations.

    Fields:
        agents:     stable int agent ids, in strictly ascending order
                    (``validate_instance`` checks it); ties between
                    agents go to the lowest id, the first listed.
        goods:      real good ids; their order is the canonical good order
                    used for deterministic tie-breaking.
        dummies:    dummy good ids (may be empty).  Dummies count toward
                    maximin-share values but are never allocated.
        valuations: valuations[agent][good] for every agent and every good
                    in goods + dummies.
        certificates: per-agent partition of goods + dummies into n
                    equal-valued cells, empty when no agent has one.  Such
                    a partition pins that agent's maximin share to the common
                    cell value exactly, letting large instances skip the
                    exhaustive search.

    Treat all contained collections as read-only.
    """

    agents: tuple
    goods: tuple
    dummies: tuple
    valuations: dict
    certificates: dict = field(default_factory=dict, compare=False)

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        """Number of real goods."""
        return len(self.goods)

    @cached_property
    def all_goods(self) -> tuple:
        """Real goods followed by dummies, in canonical order."""
        return self.goods + self.dummies

    @cached_property
    def good_position(self) -> dict:
        """Good id -> index in the canonical order (goods then dummies)."""
        return {g: i for i, g in enumerate(self.all_goods)}

    def value(self, agent, good) -> Fraction:
        try:
            row = self.valuations[agent]
        except KeyError:
            raise ValidationError(f"unknown agent id {agent!r}") from None
        try:
            return row[good]
        except KeyError:
            raise ValidationError(f"unknown good id {good!r} for agent {agent}") from None

    def without(self, agents: Iterable = (), goods: Iterable = (),
                dummy: Optional[tuple] = None) -> "Instance":
        """A smaller instance: drop ``agents`` and real ``goods``.

        ``dummy`` is (dummy id, {survivor: value}); it is appended after
        the existing dummies.  With nothing to drop and no dummy the
        instance itself is returned, certificates included.  Any other
        call returns a new instance without certificates, since they pin
        a partition of all goods into n cells.  An agent or real good the
        instance does not hold, a dummy id it already holds, or dummy
        values not keyed by exactly the survivors raise ContractError
        naming the ids.
        """
        agents, goods = set(agents), set(goods)
        if not agents and not goods and dummy is None:
            return self
        unknown = agents.difference(self.agents)
        if unknown:
            raise ContractError(f"without: unknown agents {sorted(map(str, unknown))}")
        unknown = goods.difference(self.goods)
        if unknown:
            raise ContractError(f"without: not real goods {sorted(map(str, unknown))}")
        survivors = tuple(a for a in self.agents if a not in agents)
        if dummy is not None:
            if dummy[0] in self.good_position:
                raise ContractError(f"without: dummy id {dummy[0]!r} is taken")
            if dummy[1].keys() != set(survivors):
                raise ContractError(
                    f"without: dummy values given for agents {sorted(map(str, dummy[1]))}, "
                    f"but the survivors are {list(survivors)}")
        valuations = {}
        for a in survivors:
            row = {g: v for g, v in self.valuations[a].items() if g not in goods}
            if dummy is not None:
                row[dummy[0]] = dummy[1][a]
            valuations[a] = row
        return Instance(
            agents=survivors,
            goods=tuple(g for g in self.goods if g not in goods),
            dummies=self.dummies if dummy is None else self.dummies + (dummy[0],),
            valuations=valuations)


def _ids(raw, field: str) -> tuple:
    """A list, tuple or set of distinct string ids, as a tuple: a set's
    ids sorted, a list's or tuple's in their order.  Anything else raises
    ValidationError naming ``field``.

    >>> _ids({"g2", "g10", "g1"}, "goods")
    ('g1', 'g10', 'g2')
    """
    if not (isinstance(raw, (list, tuple, set, frozenset))
            and all(isinstance(g, str) for g in raw)):
        raise ValidationError(f"{field} must be a list of string ids, got {raw!r}")
    if isinstance(raw, (set, frozenset)):
        return tuple(sorted(raw))
    if len(set(raw)) != len(raw):
        seen = set()
        for g in raw:
            if g in seen:
                raise ValidationError(f"{field} repeats id {g!r}")
            seen.add(g)
    return tuple(raw)


def make_instance(
    n: int,
    goods: Iterable,
    valuations: Mapping,
    dummies: Iterable = (),
    certificates: Optional[Mapping] = None,
) -> Instance:
    """Build an Instance over agents 0..n-1 with defensive copies.

    ``goods``, ``dummies`` and each certificate cell are lists, tuples or
    sets of distinct string ids (``_ids``: a set's ids are read sorted);
    ``valuations`` maps each agent to a mapping of good id -> value (an
    int, a "p/q" string or a Fraction), and ``certificates`` (None for
    none) each certified agent to a list or tuple of cells.  Anything
    else, a missing row or a count that is not a non-negative int raises
    ValidationError naming the field.  Missing rows are found before
    anything is built, so a huge count costs nothing.
    ``validate_instance`` checks the rest.
    """
    check_count(n, "agents", 0, ValidationError)
    goods, dummies = _ids(goods, "goods"), _ids(dummies, "dummies")
    if not isinstance(valuations, Mapping):
        raise ValidationError(f"valuations: must be a mapping, got {type(valuations).__name__}")
    for a in range(n):
        if a not in valuations:
            raise ValidationError(f"valuations: missing row for agent {a}")
    vals = {}
    for a, row in valuations.items():
        if not isinstance(row, Mapping):
            raise ValidationError(f"valuations[{a}]: must be a mapping, got {type(row).__name__}")
        vals[a] = {}
        for g, v in row.items():
            try:
                vals[a][g] = parse_value(v)
            except ValidationError as exc:
                raise ValidationError(f"valuations[{a}][{g}]: {exc}") from None
    certs = {} if certificates is None else certificates
    if isinstance(certs, Mapping):
        certs = {a: certificate_cells(cells, f"certificates[{a}]") for a, cells in certs.items()}
    inst = Instance(agents=tuple(range(n)), goods=goods, dummies=dummies,
                    valuations=vals, certificates=certs)
    validate_instance(inst)
    return inst


def certificate_cells(raw, field: str) -> tuple:
    """A list or tuple of ``_ids`` cells, as a tuple of frozensets;
    anything else raises ValidationError naming ``field``."""
    if not isinstance(raw, (list, tuple)):
        raise ValidationError(f"{field}: must be a list of cells, got {type(raw).__name__}")
    return tuple(frozenset(_ids(cell, field)) for cell in raw)


def partition_values(row: Mapping, cells: Sequence, parts: int, goods: Iterable,
                     field: str) -> list:
    """Each cell's value to ``row``, for ``parts`` cells that partition
    ``goods``; any other cells raise ValidationError naming ``field``.

    >>> row = {"g1": Fraction(1), "g2": Fraction(2), "g3": Fraction(3)}
    >>> partition_values(row, [{"g1", "g2"}, {"g3"}], 2, row, "cells")
    [Fraction(3, 1), Fraction(3, 1)]
    >>> partition_values(row, [{"g1"}, {"g3"}], 2, row, "cells")
    Traceback (most recent call last):
    ...
    mmsfair.errors.ValidationError: cells: cells do not partition the goods
    """
    if len(cells) != parts:
        raise ValidationError(f"{field}: {len(cells)} cells, expected {parts}")
    covered = [g for cell in cells for g in cell]
    if len(covered) != len(set(covered)) or set(covered) != set(goods):
        raise ValidationError(f"{field}: cells do not partition the goods")
    return [sum((row[g] for g in cell), ZERO) for cell in cells]


def certificate_value(row: Mapping, cells: Sequence, parts: int, goods: Iterable,
                      field: str) -> Fraction:
    """The maximin share that ``cells``, a partition of ``goods`` into ``parts``
    cells equal-valued to ``row``, pins: their common value (the share is at
    least the smallest cell and at most total / parts).  Cells that
    ``partition_values`` rejects, or of unequal value, raise ValidationError
    naming ``field``."""
    values = set(partition_values(row, cells, parts, goods, field))
    if len(values) > 1:
        raise ValidationError(f"{field}: cells are not equal-valued")
    return values.pop()


def check_count(value, field: str, least: int, error: type) -> None:
    """Check that a count is an int (not a bool) of at least ``least``;
    anything else raises ``error`` naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{field} must be an int, got {value!r}")
    if value < least:
        raise error(f"{field} must be at least {least}, got {value}")


def check_agents(instance: Instance) -> None:
    """Check that the agent ids are ints (not bools) in strictly ascending
    order, the order every tie is broken by; any other raises
    ValidationError naming ``agents``."""
    agents = instance.agents
    if not (all(type(a) is int for a in agents)
            and all(a < b for a, b in zip(agents, agents[1:]))):
        raise ValidationError(f"agents: ids must be ascending ints, got {list(agents)}")


def validate_instance(instance: Instance) -> None:
    """Check all structural invariants; raise ValidationError naming the field.

    Verified: string good ids, unique across goods and dummies, the agent
    order (``check_agents``), no row or certificate for an unknown agent,
    a complete valuation row per agent (no missing or extra goods),
    non-negative values throughout, and a certificates mapping checked by
    ``certificate_value``.
    """
    seen = set()
    for g in instance.all_goods:
        if not isinstance(g, str):
            raise ValidationError(f"good id {g!r} is not a string")
        if g in seen:
            raise ValidationError(f"duplicate good id {g!r}")
        seen.add(g)
    check_agents(instance)
    extra = set(instance.valuations) - set(instance.agents)
    if extra:
        raise ValidationError(f"valuations: unknown agents {sorted(map(str, extra))}")
    expected = set(instance.all_goods)
    for a in instance.agents:
        if a not in instance.valuations:
            raise ValidationError(f"valuations: missing row for agent {a}")
        row = instance.valuations[a]
        if row.keys() != expected:
            missing = expected - set(row)
            if missing:
                raise ValidationError(
                    f"valuations[{a}]: missing goods {sorted(map(str, missing))}")
            raise ValidationError(
                f"valuations[{a}]: unknown goods {sorted(map(str, set(row) - expected))}")
        for g, v in row.items():
            if not isinstance(v, Fraction):
                raise ValidationError(f"valuations[{a}][{g}]: not an exact rational")
            if v.numerator < 0:
                raise ValidationError(f"valuations[{a}][{g}]: negative value {v}")
    certs = instance.certificates
    if not isinstance(certs, Mapping):
        raise ValidationError(f"certificates: must be a mapping, got {type(certs).__name__}")
    for a, cells in certs.items():
        if a not in instance.valuations:
            raise ValidationError(f"certificates: unknown agent {a}")
        certificate_value(instance.valuations[a], cells, instance.n, expected,
                          f"certificates[{a}]")


def check_shares(instance: Instance, table: Mapping, field: str) -> None:
    """Check that an agent-keyed table (shares, bundles) is keyed by
    exactly the instance's agents; any other raises ContractError naming
    ``field``."""
    if set(table) != set(instance.agents):
        raise ContractError(
            f"{field}: given for agents {sorted(map(str, table))}, "
            f"but the instance has agents {list(instance.agents)}")


def validate_allocation(instance: Instance, allocation: dict) -> None:
    """Check that there is one bundle per agent, and that the bundles are
    disjoint, use known real goods, and cover them all."""
    unknown = set(allocation).difference(instance.agents)
    if unknown:
        raise ValidationError(f"allocation: unknown agents {sorted(map(str, unknown))}")
    missing = set(instance.agents).difference(allocation)
    if missing:
        raise ValidationError(f"allocation: no bundle for agents {sorted(map(str, missing))}")
    dummy_set = set(instance.dummies)
    good_set = set(instance.goods)
    taken = set()
    for a in instance.agents:
        for g in allocation[a]:
            if g in dummy_set:
                raise ValidationError(f"allocation[{a}]: dummy good {g!r} allocated")
            if g not in good_set:
                raise ValidationError(f"allocation[{a}]: unknown good {g!r}")
            if g in taken:
                raise ValidationError(f"allocation: good {g!r} allocated twice")
            taken.add(g)
    if taken != good_set:
        leftover = sorted(map(str, good_set - taken))
        raise ValidationError(f"allocation leaves goods {leftover} unallocated")


def bundle_value(instance: Instance, agent, bundle: Iterable) -> Fraction:
    """Exact value of a bundle to an agent: the sum of its goods' values,
    ZERO for an empty bundle.  An unknown agent or good raises
    ValidationError (``Instance.value``)."""
    goods = iter(bundle)
    for g in goods:  # the first good's value starts the sum
        total = instance.value(agent, g)
        break
    else:
        return ZERO
    for g in goods:
        total += instance.value(agent, g)
    return total


# --- JSON (de)serialization -------------------------------------------------
#
# Instance schema:
#   {"agents": n, "goods": [...], "dummies": [...],
#    "valuations": {"0": {"g1": "1/2", "g2": 3}, ...}}
# Values are accepted as integers or "p/q" strings and always emitted as
# "p/q" in lowest terms.  A "certificates" key is an optional extension:
# {"0": [["g1","g2"], ...]} listing each agent's equal-valued partition.
#
# Allocation schema: {"0": ["g1", "g3"], "1": [], ...}


def instance_to_json(instance: Instance) -> dict:
    """The instance as a JSON document; its agents must be 0..n-1.

    The schema declares agents by count, so any other ids could not be
    read back and raise ContractError.
    """
    if instance.agents != tuple(range(instance.n)):
        raise ContractError(
            f"instance JSON needs agent ids 0..{instance.n - 1}, "
            f"got {list(instance.agents)}")
    doc = {
        "agents": instance.n,
        "goods": list(instance.goods),
        "dummies": list(instance.dummies),
        "valuations": {
            str(a): {g: format_value(v) for g, v in sorted(
                instance.valuations[a].items(),
                key=lambda kv: instance.good_position[kv[0]])}
            for a in instance.agents
        },
    }
    if instance.certificates:
        doc["certificates"] = {
            str(a): [sorted(cell, key=instance.good_position.__getitem__)
                     for cell in cells]
            for a, cells in sorted(instance.certificates.items())
        }
    return doc


def _agent_id(key) -> Optional[int]:
    """The agent id a JSON object key gives in canonical decimal, or None."""
    if not (isinstance(key, str) and _AGENT_KEY.fullmatch(key)):
        return None
    try:
        return int(key)
    except ValueError:  # more digits than int() converts: no agent's id
        return None


def _by_agent(raw, field: str) -> dict:
    """A JSON object keyed by agent id, as {agent: entry}.

    A key that is not an agent id in canonical decimal raises
    ValidationError naming ``field``.  Whether the ids are the instance's
    agents is ``validate_instance``'s and ``validate_allocation``'s check.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"{field} must be an object keyed by agent id")
    entries, extra = {}, []
    for key, entry in raw.items():
        a = _agent_id(key)
        if a is None:
            extra.append(key)
        else:
            entries[a] = entry
    if extra:
        raise ValidationError(f"{field}: unknown agents {sorted(map(str, extra))}")
    return entries


def instance_from_json(doc: Mapping) -> Instance:
    if not isinstance(doc, dict):
        raise ValidationError("instance JSON must be an object")
    try:
        n = doc["agents"]
        goods = doc["goods"]
        valuations = doc["valuations"]
    except KeyError as exc:
        raise ValidationError(f"instance JSON: missing field {exc}") from None
    rows = _by_agent(valuations, "instance JSON: 'valuations'")
    certs = _by_agent(doc.get("certificates", {}), "instance JSON: 'certificates'")
    return make_instance(n, goods, rows, dummies=doc.get("dummies", []), certificates=certs)


def allocation_to_json(instance: Instance, allocation: dict) -> dict:
    return {
        str(a): sorted(allocation[a], key=instance.good_position.__getitem__)
        for a in instance.agents
    }


def allocation_from_json(instance: Instance, doc: Mapping) -> dict:
    entries = _by_agent(doc, "allocation JSON")
    bundles = {a: frozenset(_ids(entry, f"allocation JSON: bundle for agent {a}"))
               for a, entry in entries.items()}
    validate_allocation(instance, bundles)
    return bundles


def fresh_id(prefix: str, taken: Iterable) -> str:
    """Smallest "<prefix><k>" (k = 1, 2, ...) not present in ``taken``."""
    taken = set(taken)
    k = 1
    while f"{prefix}{k}" in taken:
        k += 1
    return f"{prefix}{k}"
