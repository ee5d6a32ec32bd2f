"""Finite partial orders: validated construction, chain/antichain predicates
and the structural primitives (minimal/maximal sets, restriction); the
decomposition solvers work on the masks, through the private helpers below.

A poset holds its strict order as bitmasks over the id-sorted carrier, one
``up`` and one ``down`` mask per element, closed once by
:func:`build_poset`.  Every query is a bit test or a few big-integer
operations; the pair set ``relation`` is a view derived on demand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import AbstractSet, Iterable, Iterator, Sequence

from .errors import (
    CycleDetected,
    ElementNotInCarrier,
    EmptyCarrier,
    NotASubset,
    ValidationError,
)

ElementId = str | int

# The members of a cover, in canonical order except Mirsky's layers, which keep peel order.
ChainCover = tuple[frozenset[ElementId], ...]
AntichainCover = tuple[frozenset[ElementId], ...]


# The exact types of valid ids, for C-level scans such as set(map(type, xs)) <= _ID_TYPES.
_ID_TYPES = frozenset((str, int))


def id_key(x: ElementId) -> tuple[bool, ElementId]:
    """Sort key giving one deterministic total order over mixed int/str ids
    (all ints precede all strings)."""
    return (isinstance(x, str), x)


def sorted_ids(ids: Iterable[ElementId]) -> tuple[ElementId, ...]:
    """``ids`` in ``id_key`` order; all-str or all-int ids sort as they are."""
    xs = list(ids)
    types = set(map(type, xs))
    return tuple(sorted(xs, key=None if len(types) == 1 and types <= _ID_TYPES else id_key))


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


@dataclass(frozen=True, repr=False)
class FinitePoset:
    """An immutable finite partial order.

    ``elements`` is the carrier sorted by id; bit j of ``up[i]`` and bit i of
    ``down[j]`` mark elements[i] < elements[j].  Instances are built through
    :func:`build_poset` (which closes and validates) or :func:`restrict`;
    direct construction skips validation and is reserved for callers that
    already hold closed, antisymmetric masks.
    """

    elements: tuple[ElementId, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]

    @cached_property
    def carrier(self) -> frozenset[ElementId]:
        return frozenset(self.elements)

    @cached_property
    def _index(self) -> dict[ElementId, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @property
    def relation(self) -> frozenset[tuple[ElementId, ElementId]]:
        """Every pair (x, y) with x <= y, reflexive pairs included."""
        return frozenset([(x, x) for x in self.elements] + self._strict())

    def _strict(self) -> list[tuple[ElementId, ElementId]]:
        e = self.elements
        return [(e[i], e[j]) for i, u in enumerate(self.up) for j in _indices(u)]

    def lt(self, x: ElementId, y: ElementId) -> bool:
        i, j = self._index.get(x), self._index.get(y)
        return i is not None and j is not None and bool(self.up[i] >> j & 1)

    def le(self, x: ElementId, y: ElementId) -> bool:
        return self.lt(x, y) or (x == y and x in self)

    def comparable(self, x: ElementId, y: ElementId) -> bool:
        return self.le(x, y) or self.lt(y, x)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: object) -> bool:
        return x in self.carrier

    def __repr__(self) -> str:  # strict pairs only, to stay readable
        return f"FinitePoset({list(self.elements)!r}, strict={self._strict()!r})"


def _indices(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ids(P: FinitePoset, mask: int) -> frozenset[ElementId]:
    """The elements whose bits are set in ``mask``, a mask over P's index."""
    return frozenset(P.elements[i] for i in _indices(mask))


def _mask(P: FinitePoset, S: AbstractSet[ElementId]) -> int:
    """A subset of the carrier as a mask over P's index."""
    return sum(1 << P._index[x] for x in S)


def _union(masks: Sequence[int], mask: int) -> int:
    """The OR of ``masks[i]`` over the set bits i of ``mask``."""
    out = 0
    while mask:
        out |= masks[(mask & -mask).bit_length() - 1]
        mask &= mask - 1
    return out


def _edge(edge: object) -> tuple[ElementId, ElementId]:
    """An edge given as a tuple or list of exactly two ids."""
    if not isinstance(edge, (tuple, list)) or len(edge) != 2:
        raise ValidationError(f"edge {edge!r} is not a pair")
    return _check_id(edge[0]), _check_id(edge[1])


def _edge_indices(edges: list, index: dict[ElementId, int]) -> list[tuple[int, int]]:
    """Each edge as its endpoints' positions in ``index``.  C-level scans
    check the shapes, id types and endpoints; only when one fails does the
    per-edge loop run, to name the first offending edge."""
    if (set(map(type, edges)) <= {tuple, list} and set(map(len, edges)) <= {2}
            and set(map(type, chain.from_iterable(edges))) <= _ID_TYPES):
        try:
            return [(index[a], index[b]) for a, b in edges]
        except KeyError:
            pass
    for edge in edges:
        a, b = _edge(edge)
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise ValidationError(f"edge endpoint {missing!r} not in carrier")
    return [(index[a], index[b]) for a, b in edges]  # ids of str or int subclasses


def _extremal(masks: Sequence[int], cand: int, S: int) -> int:
    """The bits i of ``cand`` with no bit of S in ``masks[i]``: over down
    masks the elements of cand minimal in S, over up masks the maximal ones."""
    return sum(1 << i for i in _indices(cand) if not masks[i] & S)


def build_poset(
    elements: Iterable[ElementId],
    strict_edges: Iterable[tuple[ElementId, ElementId]],
) -> FinitePoset:
    """Validate and close an edge set into a :class:`FinitePoset`.

    ``le`` becomes the reflexive-transitive closure of ``strict_edges``.
    Raises :class:`EmptyCarrier` for an empty element set and
    :class:`CycleDetected` when the closure relates two distinct elements both
    ways (antisymmetry is an invariant, never a normalization).

    Kahn's algorithm finds a topological order and closes ``down`` on the
    way; ``up`` is then closed in reverse order, one OR per edge each.
    """
    elems = list(elements)
    types = set(map(type, elems))
    if not types <= _ID_TYPES:
        for e in elems:
            _check_id(e)
    if not elems:
        raise EmptyCarrier("a poset needs a non-empty carrier")
    if len(set(elems)) != len(elems):
        counts = Counter(elems)
        dup = next(e for e in elems if counts[e] > 1)
        raise ValidationError(f"duplicate id {dup!r} in carrier")
    order = sorted_ids(elems)
    index = {e: i for i, e in enumerate(order)}

    succ: list[list[int]] = [[] for _ in order]
    pred = [0] * len(order)
    for a, b in set(_edge_indices(list(strict_edges), index)):
        if a != b:
            succ[a].append(b)
            pred[b] |= 1 << a

    up, down = [0] * len(order), [0] * len(order)
    waiting = [p.bit_count() for p in pred]
    ready = [i for i, w in enumerate(waiting) if not w]
    topo: list[int] = []
    while ready:
        topo.append(i := ready.pop())
        below = down[i] | 1 << i  # final: every predecessor came first
        for j in succ[i]:
            down[j] |= below
            waiting[j] -= 1
            if not waiting[j]:
                ready.append(j)
    if len(topo) < len(order):
        # Each element left has a predecessor left: walk back until one repeats.
        left = (1 << len(order)) - 1 - sum(1 << i for i in topo)
        seen, v = 0, next(_indices(left))
        while not seen >> v & 1:
            seen |= 1 << v
            v = next(_indices(pred[v] & left))
        u = next(_indices(pred[v] & left))
        raise CycleDetected(f"cycle through {order[u]!r} and {order[v]!r}")
    for i in reversed(topo):
        for j in succ[i]:
            up[i] |= up[j] | 1 << j
    return FinitePoset(order, tuple(up), tuple(down))


def is_chain(P: FinitePoset, S: AbstractSet[ElementId]) -> bool:
    """True iff S is a non-empty subset of the carrier in which every pair of
    elements is comparable.  Empty or stray sets are simply not chains."""
    if not S or not S <= P.carrier:
        return False
    s = _mask(P, S)
    return all(not s & ~(P.up[i] | P.down[i] | 1 << i) for i in _indices(s))


def is_antichain(P: FinitePoset, S: AbstractSet[ElementId]) -> bool:
    """True iff S is a non-empty subset of the carrier in which comparable
    pairs are equal (no two distinct elements comparable)."""
    if not S or not S <= P.carrier:
        return False
    s = _mask(P, S)
    return not any(P.up[i] & s for i in _indices(s))


def minimal_elements(P: FinitePoset) -> frozenset[ElementId]:
    """Elements with nothing strictly below them; non-empty, an antichain."""
    return frozenset(x for x, d in zip(P.elements, P.down) if not d)


def maximal_elements(P: FinitePoset) -> frozenset[ElementId]:
    """Elements with nothing strictly above them; non-empty, an antichain."""
    return frozenset(x for x, u in zip(P.elements, P.up) if not u)


def minimal_below(P: FinitePoset, y: ElementId) -> ElementId:
    """A minimal element x with x <= y; the smallest-id candidate, so the
    choice is reproducible."""
    if y not in P:
        raise ElementNotInCarrier(f"{y!r} not in carrier")
    j = P._index[y]
    return P.elements[next(i for i in _indices(P.down[j] | 1 << j) if not P.down[i])]


def maximal_above(P: FinitePoset, x: ElementId) -> ElementId:
    """A maximal element y with x <= y; the smallest-id candidate."""
    if x not in P:
        raise ElementNotInCarrier(f"{x!r} not in carrier")
    i = P._index[x]
    return P.elements[next(j for j in _indices(P.up[i] | 1 << i) if not P.up[j])]


def restrict(P: FinitePoset, S: AbstractSet[ElementId]) -> FinitePoset:
    """The poset on S with the same relation.  A restriction of a partial
    order is a partial order, so no revalidation is needed."""
    if not S:
        raise EmptyCarrier("cannot restrict to an empty carrier")
    if not S <= P.carrier:
        raise NotASubset(f"{sorted_ids(set(S) - P.carrier)!r} not in carrier")
    s = _mask(P, S)
    keep = list(_indices(s))  # ascending, so still id order
    new = {i: k for k, i in enumerate(keep)}
    up, down = [0] * len(keep), [0] * len(keep)
    for k, i in enumerate(keep):
        for j in _indices(P.up[i] & s):
            up[k] |= 1 << new[j]
            down[new[j]] |= 1 << k
    return FinitePoset(tuple(P.elements[i] for i in keep), tuple(up), tuple(down))


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
