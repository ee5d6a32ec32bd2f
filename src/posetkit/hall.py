"""Bipartite matching through the order-theoretic route.

A bipartite graph is read as a height-two poset (reflexive closure of the
left-to-right edges).  When every left subset has enough neighbors, the right
part is a maximum antichain, the chain-cover solver partitions the poset into
|R| chains, and the two-element chains among them are a left-perfect matching.
One Kuhn matching decides Hall's condition and seeds the solver's top frame
(Fulkerson's reduction); each of its links y -> x pairs a left vertex x with
the right vertex y above it.  The set-family form (systems of distinct
representatives) builds the same masks over int vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import AbstractSet, Iterable, Mapping

from .core import ElementId, FinitePoset, _check_id, _edge, _indices, id_key, sorted_ids
from .dilworth import _max_matching, _perles_cover, _top_frame
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


@dataclass(frozen=True)
class Violation:
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


def hall_condition(G: BipartiteGraph, cap: int = DEFAULT_SUBSET_CAP) -> Violation | None:
    """None when every left subset S has |N(S)| >= |S|; otherwise the
    smallest violating subset (lexicographically first among those)."""
    n = len(G.left)
    if n > cap:
        raise InstanceTooLarge(f"hall_condition: |L| is {n}, cap is {cap} (raise it with --subset-cap)")
    index, rindex = {u: i for i, u in enumerate(G.left)}, {v: j for j, v in enumerate(G.right)}
    nbr = [0] * n  # each left vertex's neighbours as a mask over right indices
    for (u, v) in G.edges:
        nbr[index[u]] |= 1 << rindex[v]
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            seen = 0
            for i in combo:
                seen |= nbr[i]
            found = seen.bit_count()
            if found < k:
                return Violation(frozenset(G.left[i] for i in combo), k - found)
    return None


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


def verify_matching(G: BipartiteGraph, M: Iterable[tuple[ElementId, ElementId]], require_L_perfect: bool) -> bool:
    """Check pairs are edges, endpoints are disjoint, and (optionally) every
    left vertex is matched."""
    pairs = list(M)  # a pair listed twice shares its endpoints
    if not set(pairs) <= G.edges:
        return False
    lefts = [u for (u, _) in pairs]
    rights = [v for (_, v) in pairs]
    if len(set(lefts)) != len(pairs) or len(set(rights)) != len(pairs):
        return False
    if require_L_perfect and set(lefts) != G.left_set:
        return False
    return True


def _matching_links(P: FinitePoset, n_left: int, oracle_cap: int) -> dict[int, int] | None:
    """Perles' links y -> x (left x below right y) on graph poset P; None if Kuhn misses a left vertex."""
    matching = _max_matching(P.up)
    if len(matching) < n_left:
        return None
    _require_cap(len(P), oracle_cap, "perles_chain_cover")
    links, _ = _perles_cover(P, _top_frame(P, matching))  # checks its partition
    # The partition asserts make each chain a vertex or an edge, so |L| links match every
    # left vertex once on disjoint edges: all verify_matching(..., require_L_perfect=True) checked.
    assert len(links) == n_left
    return links


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
    links = _matching_links(P, len(G.left), oracle_cap)
    if links is None:
        bad = hall_condition(G, subset_cap)
        assert bad is not None
        return bad
    return frozenset((P.elements[x], P.elements[y]) for y, x in links.items())


def find_sdr(
    family: SetFamily,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> SdrAssignment | Violation:
    """One distinct representative per member set, or a violating subfamily
    whose union is smaller than it.

    Names and elements may share ids, so element j becomes vertex j and member
    i vertex len(ground) + i, whose ``up`` mask is its elements; a
    ``BipartiteGraph`` is built only for ``hall_condition``, when there is none."""
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
        for x in family[nm]:
            up[i] |= 1 << vertex[x]
            down[vertex[x]] |= 1 << i
    P = FinitePoset(tuple(range(len(back))), tuple(up), tuple(down))
    links = _matching_links(P, len(names), oracle_cap)
    if links is None:
        left = range(len(ground), len(back))
        G = BipartiteGraph(tuple(left), tuple(range(len(ground))),
                           frozenset((i, j) for i in left for j in _indices(up[i])))
        bad = hall_condition(G, subset_cap)
        assert bad is not None
        return Violation(frozenset(back[u] for u in bad.members), bad.deficiency)
    return {back[x]: back[y] for y, x in links.items()}
