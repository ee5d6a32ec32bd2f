"""Finite partial orders: validated construction, chain/antichain predicates,
and the structural primitives (minimal/maximal sets, restriction) that the
constructive decomposition algorithms consume.

The order relation is materialized in full (reflexive-transitive closure of
the input edges), so ``le`` queries are O(1) set lookups and every operation
downstream can stay purely combinatorial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable

from .errors import (
    CycleDetected,
    ElementNotInCarrier,
    EmptyCarrier,
    NotASubset,
    ValidationError,
)

ElementId = str | int

# Chains and antichains in a cover, in canonical order.
ChainCover = tuple[frozenset[ElementId], ...]
AntichainCover = tuple[frozenset[ElementId], ...]


def id_key(x: ElementId) -> tuple[bool, ElementId]:
    """Sort key giving one deterministic total order over mixed int/str ids
    (all ints precede all strings)."""
    return (isinstance(x, str), x)


def sorted_ids(ids: Iterable[ElementId]) -> tuple[ElementId, ...]:
    return tuple(sorted(ids, key=id_key))


def _check_id(x: object) -> ElementId:
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise ValidationError(f"element id must be a string or integer, got {x!r}")
    return x


def member_key(s: AbstractSet[ElementId]) -> tuple[tuple[bool, ElementId], ...]:
    """Sort key for a set of ids: its sorted id sequence."""
    return tuple(id_key(x) for x in sorted_ids(s))


def canonical_cover(members: Iterable[AbstractSet[ElementId]]) -> ChainCover:
    """Covers in canonical form: members ordered by their sorted id sequence."""
    return tuple(sorted((frozenset(m) for m in members), key=member_key))


@dataclass(frozen=True)
class FinitePoset:
    """An immutable finite partial order.

    ``elements`` is the carrier sorted by id; ``relation`` holds every pair
    (x, y) with x <= y, reflexive pairs included.  Instances are built through
    :func:`build_poset` (which closes and validates) or :func:`restrict`;
    direct construction skips validation and is reserved for callers that
    already hold a closed, antisymmetric relation.
    """

    elements: tuple[ElementId, ...]
    relation: frozenset[tuple[ElementId, ElementId]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_carrier", frozenset(self.elements))

    @property
    def carrier(self) -> frozenset[ElementId]:
        return self._carrier  # type: ignore[attr-defined]

    def le(self, x: ElementId, y: ElementId) -> bool:
        return (x, y) in self.relation

    def lt(self, x: ElementId, y: ElementId) -> bool:
        return x != y and (x, y) in self.relation

    def comparable(self, x: ElementId, y: ElementId) -> bool:
        return (x, y) in self.relation or (y, x) in self.relation

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: object) -> bool:
        return x in self.carrier

    def __repr__(self) -> str:  # strict pairs only, to stay readable
        strict = sorted(((x, y) for (x, y) in self.relation if x != y),
                        key=lambda p: (id_key(p[0]), id_key(p[1])))
        return f"FinitePoset({list(self.elements)!r}, strict={strict!r})"


def build_poset(
    elements: Iterable[ElementId],
    strict_edges: Iterable[tuple[ElementId, ElementId]],
) -> FinitePoset:
    """Validate and close an edge set into a :class:`FinitePoset`.

    ``le`` becomes the reflexive-transitive closure of ``strict_edges``.
    Raises :class:`EmptyCarrier` for an empty element set and
    :class:`CycleDetected` when the closure relates two distinct elements both
    ways (antisymmetry is an invariant, never a normalization).
    """
    elems = [_check_id(e) for e in elements]
    if not elems:
        raise EmptyCarrier("a poset needs a non-empty carrier")
    if len(set(elems)) != len(elems):
        dup = next(e for e in elems if elems.count(e) > 1)
        raise ValidationError(f"duplicate id {dup!r} in carrier")
    carrier = set(elems)

    succ: dict[ElementId, set[ElementId]] = {e: set() for e in elems}
    for edge in strict_edges:
        try:
            a, b = edge
        except (TypeError, ValueError):
            raise ValidationError(f"edge {edge!r} is not a pair") from None
        if a not in carrier or b not in carrier:
            missing = a if a not in carrier else b
            raise ValidationError(f"edge endpoint {missing!r} not in carrier")
        if a != b:
            succ[a].add(b)

    # Reachability closure, one DFS per source.
    reach: dict[ElementId, set[ElementId]] = {}
    for source in elems:
        seen: set[ElementId] = set()
        stack = list(succ[source])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(succ[v])
        reach[source] = seen

    pairs = set()
    for x in elems:
        pairs.add((x, x))
        for y in reach[x]:
            if x in reach[y]:
                raise CycleDetected(f"cycle through {x!r} and {y!r}")
            pairs.add((x, y))
    return FinitePoset(sorted_ids(carrier), frozenset(pairs))


def is_chain(P: FinitePoset, S: AbstractSet[ElementId]) -> bool:
    """True iff S is a non-empty subset of the carrier in which every pair of
    elements is comparable.  Empty or stray sets are simply not chains."""
    if not S or not S <= P.carrier:
        return False
    items = sorted_ids(S)
    return all(
        P.comparable(items[i], items[j])
        for i in range(len(items))
        for j in range(i + 1, len(items))
    )


def is_antichain(P: FinitePoset, S: AbstractSet[ElementId]) -> bool:
    """True iff S is a non-empty subset of the carrier in which comparable
    pairs are equal (no two distinct elements comparable)."""
    if not S or not S <= P.carrier:
        return False
    items = sorted_ids(S)
    return not any(
        P.comparable(items[i], items[j])
        for i in range(len(items))
        for j in range(i + 1, len(items))
    )


def minimal_elements(P: FinitePoset) -> frozenset[ElementId]:
    """Elements with nothing strictly below them; non-empty, an antichain."""
    has_below = {y for (x, y) in P.relation if x != y}
    return frozenset(P.carrier - has_below)


def maximal_elements(P: FinitePoset) -> frozenset[ElementId]:
    """Elements with nothing strictly above them; non-empty, an antichain."""
    has_above = {x for (x, y) in P.relation if x != y}
    return frozenset(P.carrier - has_above)


def minimal_below(P: FinitePoset, y: ElementId) -> ElementId:
    """A minimal element x with x <= y; the smallest-id candidate, so the
    choice is reproducible."""
    if y not in P:
        raise ElementNotInCarrier(f"{y!r} not in carrier")
    candidates = [x for x in minimal_elements(P) if P.le(x, y)]
    return min(candidates, key=id_key)


def maximal_above(P: FinitePoset, x: ElementId) -> ElementId:
    """A maximal element y with x <= y; the smallest-id candidate."""
    if x not in P:
        raise ElementNotInCarrier(f"{x!r} not in carrier")
    candidates = [y for y in maximal_elements(P) if P.le(x, y)]
    return min(candidates, key=id_key)


def restrict(P: FinitePoset, S: AbstractSet[ElementId]) -> FinitePoset:
    """The poset on S with the same relation.  A restriction of a partial
    order is a partial order, so no revalidation is needed."""
    if not S:
        raise EmptyCarrier("cannot restrict to an empty carrier")
    if not S <= P.carrier:
        raise NotASubset(f"{sorted_ids(set(S) - P.carrier)!r} not in carrier")
    sub = frozenset(S)
    rel = frozenset((x, y) for (x, y) in P.relation if x in sub and y in sub)
    return FinitePoset(sorted_ids(sub), rel)


def _order_masks(P: FinitePoset) -> tuple[list[int], list[int]]:
    """Strict order as bitmasks over the index of ``P.elements`` (id order):
    bit j of ``up[i]`` and bit i of ``down[j]`` mark elements[i] < elements[j]."""
    index = {e: i for i, e in enumerate(P.elements)}
    up, down = [0] * len(index), [0] * len(index)
    for (x, y) in P.relation:
        if x != y:
            ix, iy = index[x], index[y]
            up[ix] |= 1 << iy
            down[iy] |= 1 << ix
    return up, down


def verify_chain_cover(P: FinitePoset, cover: Iterable[AbstractSet[ElementId]]) -> bool:
    """True iff every member is a chain in P and the members cover the carrier."""
    members = [frozenset(m) for m in cover]
    if not all(is_chain(P, m) for m in members):
        return False
    return frozenset().union(*members) >= P.carrier if members else False


def verify_antichain_cover(P: FinitePoset, cover: Iterable[AbstractSet[ElementId]]) -> bool:
    """True iff every member is an antichain in P and the members cover the carrier."""
    members = [frozenset(m) for m in cover]
    if not all(is_antichain(P, m) for m in members):
        return False
    return frozenset().union(*members) >= P.carrier if members else False
