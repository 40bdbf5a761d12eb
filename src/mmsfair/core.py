"""Exact rational values and the fair-division instance model.

Everything downstream branches on exact comparisons (is this bundle worth
at least alpha times an agent's maximin share?), so valuations are stored
as arbitrary-precision rationals and no floating point is used anywhere.

An instance holds a set of agents, a list of real goods, an optional list
of dummy goods (bookkeeping goods that influence maximin-share values but
are never allocated), and a per-agent valuation table over all goods.
Instances are immutable: transformations return new instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import ValidationError

Value = Fraction
Bundle = frozenset  # of good ids (str)

ZERO = Fraction(0)


def parse_value(raw) -> Fraction:
    """Parse an integer or a "p/q" string into an exact non-negative rational.

    >>> parse_value("3/6")
    Fraction(1, 2)
    """
    if isinstance(raw, bool):
        raise ValidationError(f"value must be an integer or 'p/q' string, got {raw!r}")
    if isinstance(raw, int):
        value = Fraction(raw)
    elif isinstance(raw, str):
        try:
            value = Fraction(raw.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse value {raw!r}: {exc}") from None
    elif isinstance(raw, Fraction):
        value = raw
    else:
        raise ValidationError(f"value must be an integer or 'p/q' string, got {type(raw).__name__}")
    if value < 0:
        raise ValidationError(f"value must be non-negative, got {value}")
    return value


def format_value(value: Fraction) -> str:
    """Render a rational as "p/q" in lowest terms (integers become "p/1")."""
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: agents, goods, dummies, and valuations.

    Fields:
        agents:     stable agent ids, in canonical (ascending) order.
        goods:      real good ids; their order is the canonical good order
                    used for deterministic tie-breaking.
        dummies:    dummy good ids (may be empty).  Dummies count toward
                    maximin-share values but are never allocated.
        valuations: valuations[agent][good] for every agent and every good
                    in goods + dummies.
        certificates: optional per-agent partition of goods + dummies into
                    n equal-valued cells.  Such a partition pins that
                    agent's maximin share to the common cell value exactly,
                    letting large instances skip the exhaustive search.

    Treat all contained collections as read-only.
    """

    agents: tuple
    goods: tuple
    dummies: tuple
    valuations: dict
    certificates: Optional[dict] = field(default=None, compare=False)

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

    def agent_row(self, agent) -> tuple:
        """The agent's values over all goods in canonical order (hashable)."""
        row = self.valuations[agent]
        return tuple(row[g] for g in self.all_goods)

    def total_value(self, agent) -> Fraction:
        return sum(self.valuations[agent].values(), ZERO)

    def without(self, agents: Iterable = (), goods: Iterable = (),
                dummy: Optional[tuple] = None) -> "Instance":
        """A smaller instance: drop ``agents`` and real ``goods``.

        ``dummy`` is (dummy id, {survivor: value}); it is appended after
        the existing dummies.  Certificates pin a partition of all goods
        into n cells, so they are dropped whenever the instance changes.
        """
        agents, goods = set(agents), set(goods)
        survivors = tuple(a for a in self.agents if a not in agents)
        valuations = {}
        for a in survivors:
            row = {g: v for g, v in self.valuations[a].items() if g not in goods}
            if dummy is not None:
                row[dummy[0]] = dummy[1][a]
            valuations[a] = row
        changed = agents or goods or dummy is not None
        return Instance(
            agents=survivors,
            goods=tuple(g for g in self.goods if g not in goods),
            dummies=self.dummies if dummy is None else self.dummies + (dummy[0],),
            valuations=valuations,
            certificates=None if changed else self.certificates)


@dataclass(frozen=True)
class Allocation:
    """Per-agent disjoint bundles of real goods.

    ``complete`` means the bundles exactly partition the instance's real
    goods; dummy goods are never allocated either way.
    """

    bundles: dict
    complete: bool = True


def make_instance(
    n_or_agents,
    goods: Iterable,
    valuations: Mapping,
    dummies: Iterable = (),
    certificates: Optional[Mapping] = None,
) -> Instance:
    """Build an Instance with defensive copies and canonical shapes.

    ``n_or_agents`` is either an agent count (agents become 0..n-1) or an
    iterable of stable agent ids.
    """
    if isinstance(n_or_agents, int):
        agents = tuple(range(n_or_agents))
    else:
        agents = tuple(n_or_agents)
    goods = tuple(goods)
    dummies = tuple(dummies)
    vals = {}
    for a in agents:
        if a not in valuations:
            raise ValidationError(f"valuations: missing row for agent {a}")
        vals[a] = {}
        for g, v in valuations[a].items():
            try:
                vals[a][g] = parse_value(v)
            except ValidationError as exc:
                raise ValidationError(f"valuations[{a}][{g}]: {exc}") from None
    certs = None
    if certificates is not None:
        certs = {
            a: tuple(frozenset(cell) for cell in cells)
            for a, cells in certificates.items()
        }
    inst = Instance(agents=agents, goods=goods, dummies=dummies,
                    valuations=vals, certificates=certs)
    validate_instance(inst)
    return inst


def validate_instance(instance: Instance) -> None:
    """Check all structural invariants; raise ValidationError naming the field.

    Verified: unique good ids across goods and dummies, unique agent ids,
    a complete valuation row per agent (no missing or extra goods), and
    non-negative values throughout.
    """
    seen = set()
    for g in instance.all_goods:
        if g in seen:
            raise ValidationError(f"duplicate good id {g!r}")
        seen.add(g)
    if len(set(instance.agents)) != len(instance.agents):
        raise ValidationError("duplicate agent ids")
    expected = set(instance.all_goods)
    for a in instance.agents:
        if a not in instance.valuations:
            raise ValidationError(f"valuations: missing row for agent {a}")
        row = instance.valuations[a]
        missing = expected - set(row)
        extra = set(row) - expected
        if missing:
            raise ValidationError(
                f"valuations[{a}]: missing goods {sorted(map(str, missing))}")
        if extra:
            raise ValidationError(
                f"valuations[{a}]: unknown goods {sorted(map(str, extra))}")
        for g, v in row.items():
            if not isinstance(v, Fraction):
                raise ValidationError(f"valuations[{a}][{g}]: not an exact rational")
            if v < 0:
                raise ValidationError(f"valuations[{a}][{g}]: negative value {v}")
    if len(set(instance.valuations)) != len(instance.agents):
        raise ValidationError("valuations: rows for unknown agents present")
    if instance.certificates is not None:
        for a, cells in instance.certificates.items():
            if a not in instance.valuations:
                raise ValidationError(f"certificates: unknown agent {a}")
            covered = [g for cell in cells for g in cell]
            if len(covered) != len(set(covered)) or set(covered) != expected:
                raise ValidationError(
                    f"certificates[{a}]: cells do not partition the goods")


def validate_allocation(instance: Instance, allocation: Allocation) -> None:
    """Check bundle disjointness, id validity, and the completeness flag."""
    if set(allocation.bundles) != set(instance.agents):
        raise ValidationError("allocation: agent set does not match instance")
    dummy_set = set(instance.dummies)
    good_set = set(instance.goods)
    taken = set()
    for a in instance.agents:
        bundle = allocation.bundles[a]
        for g in bundle:
            if g in dummy_set:
                raise ValidationError(f"allocation[{a}]: dummy good {g!r} allocated")
            if g not in good_set:
                raise ValidationError(f"allocation[{a}]: unknown good {g!r}")
            if g in taken:
                raise ValidationError(f"allocation: good {g!r} allocated twice")
            taken.add(g)
    if allocation.complete and taken != good_set:
        leftover = sorted(map(str, good_set - taken))
        raise ValidationError(f"allocation marked complete but goods {leftover} unallocated")


def bundle_value(instance: Instance, agent, bundle: Iterable) -> Fraction:
    """Exact value of a bundle to an agent (empty bundle is worth 0)."""
    total = ZERO
    for g in bundle:
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
    if instance.certificates is not None:
        doc["certificates"] = {
            str(a): [sorted(cell, key=instance.good_position.__getitem__)
                     for cell in cells]
            for a, cells in sorted(instance.certificates.items())
        }
    return doc


def _id_list(raw, field: str) -> list:
    """A JSON list of string ids; anything else raises ValidationError naming ``field``."""
    if not isinstance(raw, list) or not all(isinstance(g, str) for g in raw):
        raise ValidationError(f"{field} must be a list of string ids, got {raw!r}")
    return raw


def _by_agent(raw, agents: Iterable, field: str) -> dict:
    """A JSON object keyed by agent id, as {agent: entry}; other keys are rejected."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{field} must be an object keyed by agent id")
    keys = {str(a): a for a in agents}
    extra = set(raw) - set(keys)
    if extra:
        raise ValidationError(f"{field}: unknown agents {sorted(extra)}")
    return {keys[k]: v for k, v in raw.items()}


def instance_from_json(doc: Mapping) -> Instance:
    if not isinstance(doc, dict):
        raise ValidationError("instance JSON must be an object")
    try:
        n = doc["agents"]
        goods = doc["goods"]
        valuations = doc["valuations"]
    except KeyError as exc:
        raise ValidationError(f"instance JSON: missing field {exc}") from None
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValidationError(f"instance JSON: 'agents' must be a non-negative count, got {n!r}")
    goods = _id_list(goods, "instance JSON: 'goods'")
    dummies = _id_list(doc.get("dummies", []), "instance JSON: 'dummies'")
    rows = _by_agent(valuations, range(n), "instance JSON: 'valuations'")
    for a in range(n):
        if a not in rows:
            raise ValidationError(f"instance JSON: missing valuations for agent {a}")
        if not isinstance(rows[a], dict):
            raise ValidationError(
                f"instance JSON: valuations['{a}'] must be an object of good id -> value")
    certs = None
    if "certificates" in doc:
        certs = {}
        for a, cells in _by_agent(doc["certificates"], range(n),
                                  "instance JSON: 'certificates'").items():
            field = f"instance JSON: certificates['{a}']"
            if not isinstance(cells, list):
                raise ValidationError(f"{field} must be a list of cells")
            certs[a] = [frozenset(_id_list(cell, field)) for cell in cells]
    return make_instance(n, goods, rows, dummies=dummies, certificates=certs)


def allocation_to_json(instance: Instance, allocation: Allocation) -> dict:
    return {
        str(a): sorted(allocation.bundles[a], key=instance.good_position.__getitem__)
        for a in instance.agents
    }


def allocation_from_json(instance: Instance, doc: Mapping, complete: bool = True) -> Allocation:
    entries = _by_agent(doc, instance.agents, "allocation JSON")
    bundles = {}
    for a in instance.agents:
        if a not in entries:
            raise ValidationError(f"allocation JSON: missing bundle for agent {a}")
        bundles[a] = frozenset(_id_list(entries[a], f"allocation JSON: bundle for agent {a}"))
    alloc = Allocation(bundles=bundles, complete=complete)
    validate_allocation(instance, alloc)
    return alloc


def fresh_id(prefix: str, taken: Iterable) -> str:
    """Smallest "<prefix><k>" (k = 1, 2, ...) not present in ``taken``."""
    taken = set(taken)
    k = 1
    while f"{prefix}{k}" in taken:
        k += 1
    return f"{prefix}{k}"
