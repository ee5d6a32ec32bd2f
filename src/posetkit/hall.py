"""Bipartite matching through the order-theoretic route.

A bipartite graph is read as a height-two poset (reflexive closure of the
left-to-right edges).  When every left subset has enough neighbors, the right
part is a maximum antichain, the chain-cover solver partitions the poset into
|R| chains, and the two-element chains among them are a left-perfect matching.
Graphs and set families (systems of distinct representatives) run one routine
on their graph poset's masks (``find_sdr`` builds no poset): one Kuhn matching
decides Hall's condition and seeds the solver's top frame (Fulkerson's
reduction), its checked links y -> x are the pairs, and when the matching misses
a left vertex the left ``up`` masks are searched for the smallest violation,
skipping every branch that already has as many neighbors as the size it looks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence

from .core import ElementId, FinitePoset, _check_id, _edge, id_key, sorted_ids
from .dilworth import _max_matching, _perles_links, _top_frame
from .errors import InstanceTooLarge, NotASubsetOfLeft, ValidationError
from .oracle import DEFAULT_ORACLE_CAP, _require_cap

# Hall's condition quantifies over all 2^|L| left subsets.
DEFAULT_SUBSET_CAP = 20

Matching = frozenset[tuple[ElementId, ElementId]]
SetFamily = Mapping[ElementId, AbstractSet[ElementId]]
SdrAssignment = dict[ElementId, ElementId]


@dataclass(frozen=True)
class BipartiteGraph:
    """Two disjoint, non-empty vertex parts with left-to-right edges."""

    left: tuple[ElementId, ...]
    right: tuple[ElementId, ...]
    edges: frozenset[tuple[ElementId, ElementId]]

    @cached_property
    def left_set(self) -> frozenset[ElementId]:
        return frozenset(self.left)

    @cached_property
    def right_set(self) -> frozenset[ElementId]:
        return frozenset(self.right)


class Violation(NamedTuple):
    """A witness that Hall's condition fails: |N(members)| = |members| - deficiency."""

    members: frozenset[ElementId]
    deficiency: int


def build_bigraph(
    left: Iterable[ElementId],
    right: Iterable[ElementId],
    edges: Iterable[tuple[ElementId, ElementId]],
) -> BipartiteGraph:
    """Validate vertex parts and edges into a :class:`BipartiteGraph`."""
    lefts = sorted_ids(map(_check_id, left))
    rights = sorted_ids(map(_check_id, right))
    if not lefts or not rights:
        raise ValidationError("both vertex parts must be non-empty")
    lset, rset = set(lefts), set(rights)
    if len(lset) != len(lefts) or len(rset) != len(rights):
        raise ValidationError("duplicate vertex id within a part")
    overlap = lset & rset
    if overlap:
        raise ValidationError(f"left and right parts overlap on {sorted_ids(overlap)!r}")
    edge_set = set()
    for edge in edges:
        u, v = _edge(edge)
        if u not in lset:
            raise ValidationError(f"edge source {u!r} is not a left vertex")
        if v not in rset:
            raise ValidationError(f"edge target {v!r} is not a right vertex")
        edge_set.add((u, v))
    return BipartiteGraph(lefts, rights, frozenset(edge_set))


def neighborhood(G: BipartiteGraph, S: AbstractSet[ElementId]) -> frozenset[ElementId]:
    """Right vertices adjacent to some vertex of S."""
    if not S <= G.left_set:
        raise NotASubsetOfLeft(f"{sorted_ids(set(S) - G.left_set)!r} not in left part")
    return frozenset(v for (u, v) in G.edges if u in S)


def graph_to_poset(G: BipartiteGraph) -> FinitePoset:
    """The height-two poset whose order is the reflexive closure of the edges.
    Edges run only from left to right, so they are closed as they stand: the
    strict masks are read off the edge set ``build_bigraph`` validated."""
    elements = sorted_ids(G.left + G.right)
    index = {e: i for i, e in enumerate(elements)}
    up, down = [0] * len(elements), [0] * len(elements)
    for (u, v) in G.edges:
        up[index[u]] |= 1 << index[v]
        down[index[v]] |= 1 << index[u]
    return FinitePoset(elements, tuple(up), tuple(down))


def hall_condition(G: BipartiteGraph, cap: int = DEFAULT_SUBSET_CAP) -> Violation | None:
    """None when every left subset S has |N(S)| >= |S|; otherwise the
    smallest violating subset (lexicographically first among those)."""
    P = graph_to_poset(G)
    return _violation(P.up, [i for i, e in enumerate(P.elements) if e in G.left_set], P.elements, cap)


def verify_matching(G: BipartiteGraph, M: Iterable[tuple[ElementId, ElementId]]) -> bool:
    """Check pairs are edges, endpoints are disjoint, and every left vertex is matched."""
    pairs = list(M)  # a pair listed twice shares its endpoints
    if not set(pairs) <= G.edges:
        return False
    lefts = [u for (u, _) in pairs]
    rights = [v for (_, v) in pairs]
    if len(set(lefts)) != len(pairs) or len(set(rights)) != len(pairs):
        return False
    return set(lefts) == G.left_set


def _violation(up: Sequence[int], left: Sequence[int], names: Sequence[ElementId], cap: int) -> Violation | None:
    """The smallest subset of the ascending ``left`` indices, first in ``combinations`` order,
    whose ``up`` masks cover fewer vertices than it has members, named by ``names``."""
    n = len(left)
    if n > cap:
        raise InstanceTooLarge(f"hall_condition: |L| is {n}, cap is {cap} (raise it with --subset-cap)")
    masks = [up[i] for i in left]
    for k in range(1, n + 1):
        # Depth-first in combinations order (positions pushed high to low); unions only grow,
        # so a branch whose union has k vertices holds no violator of size k and is skipped.
        stack = [((), 0)]  # (chosen positions, their union)
        while stack:
            chosen, seen = stack.pop()
            if len(chosen) == k:
                return Violation(frozenset(names[left[p]] for p in chosen), k - seen.bit_count())
            for p in range(n - k + len(chosen), chosen[-1] if chosen else -1, -1):
                union = seen | masks[p]
                if union.bit_count() < k:
                    stack.append((chosen + (p,), union))
    return None


def _hall(up: Sequence[int], down: Sequence[int], left: Sequence[int], names: Sequence[ElementId],
          subset_cap: int, oracle_cap: int) -> dict[int, int] | Violation:
    """On the graph poset's strict masks, the links y -> x pairing each left vertex x with the
    right vertex y above it; the smallest violation, named by ``names``, when Kuhn misses one."""
    matching = _max_matching(up)
    if len(matching) < len(left):
        bad = _violation(up, left, names, subset_cap)
        assert bad is not None
        return bad
    _require_cap(len(up), oracle_cap, "perles_chain_cover")
    # Checked links join a left vertex to a right one above it with distinct ends, and there
    # are n − m = |L| of them: every left vertex matched once on disjoint edges.
    return _perles_links(_top_frame(up, down, matching))


def find_L_perfect_matching(
    G: BipartiteGraph,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> Matching | Violation:
    """A matching covering every left vertex, or the Hall violation that rules
    one out; the subsets are enumerated, within ``subset_cap``, only when
    Kuhn's maximum matching misses a left vertex (Hall's theorem), to name
    the smallest violation.  ``oracle_cap`` bounds the chain cover's search.

    Construction: chain-cover the graph poset, which partitions it into |R|
    chains of at most two elements; its |L| links, left below right, are the pairs."""
    P = graph_to_poset(G)
    names = P.elements
    left = [i for i, e in enumerate(names) if e in G.left_set]
    out = _hall(P.up, P.down, left, names, subset_cap, oracle_cap)
    return out if isinstance(out, Violation) else frozenset([(names[x], names[y]) for y, x in out.items()])


def find_sdr(
    family: SetFamily,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> SdrAssignment | Violation:
    """One distinct representative per member set, or a violating subfamily
    whose union is smaller than it.

    Names and elements may share ids, so element j becomes vertex j and member
    i vertex len(ground) + i, whose ``up`` mask is its elements."""
    names = sorted(family, key=id_key)
    if not names:
        return {}
    empty = [nm for nm in names if not family[nm]]
    if empty:
        # The lexicographically first singleton violation; nothing to match.
        return Violation(frozenset({empty[0]}), 1)
    ground = sorted({x for s in family.values() for x in s}, key=id_key)
    back = ground + names
    vertex = {x: j for j, x in enumerate(ground)}
    up, down = [0] * len(back), [0] * len(back)
    for i, nm in enumerate(names, len(ground)):
        bit = 1 << i
        for x in family[nm]:
            up[i] |= 1 << vertex[x]
            down[vertex[x]] |= bit
    out = _hall(up, down, range(len(ground), len(back)), back, subset_cap, oracle_cap)
    return out if isinstance(out, Violation) else {back[x]: back[y] for y, x in out.items()}
