"""Bipartite matching through the order-theoretic route.

A bipartite graph is read as a height-two poset (reflexive closure of the
left-to-right edges).  When every left subset has enough neighbors, the right
part is a maximum antichain, the chain-cover solver partitions the poset into
|R| chains, and the two-element chains among them are a left-perfect matching.
The set-family form (systems of distinct representatives) reduces to the same
machinery over int vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import AbstractSet, Iterable, Mapping

from .core import ElementId, FinitePoset, _check_id, id_key, sorted_ids
from .dilworth import _max_matching, perles_chain_cover
from .errors import InstanceTooLarge, NotASubsetOfLeft, ValidationError
from .oracle import DEFAULT_ORACLE_CAP

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "_left_set", frozenset(self.left))
        object.__setattr__(self, "_right_set", frozenset(self.right))

    @property
    def left_set(self) -> frozenset[ElementId]:
        return self._left_set  # type: ignore[attr-defined]

    @property
    def right_set(self) -> frozenset[ElementId]:
        return self._right_set  # type: ignore[attr-defined]


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
        try:
            u, v = map(_check_id, edge)
        except (TypeError, ValueError):
            raise ValidationError(f"edge {edge!r} is not a pair") from None
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


def _neighbour_masks(G: BipartiteGraph) -> list[int]:
    """Each left vertex's neighbours as a mask over right indices, in ``G.left`` order."""
    index = {u: i for i, u in enumerate(G.left)}
    rindex = {v: j for j, v in enumerate(G.right)}
    nbr = [0] * len(G.left)
    for (u, v) in G.edges:
        nbr[index[u]] |= 1 << rindex[v]
    return nbr


def hall_condition(G: BipartiteGraph, cap: int = DEFAULT_SUBSET_CAP) -> Violation | None:
    """None when every left subset S has |N(S)| >= |S|; otherwise the
    smallest violating subset (lexicographically first among those)."""
    n = len(G.left)
    if n > cap:
        raise InstanceTooLarge(f"hall_condition: |L| is {n}, cap is {cap} (raise it with --subset-cap)")
    nbr = _neighbour_masks(G)
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
    chains of at most two elements; the |L| two-element ones are the pairs."""
    if len(_max_matching(_neighbour_masks(G))) < len(G.left):
        bad = hall_condition(G, subset_cap)
        assert bad is not None
        return bad
    cert = perles_chain_cover(graph_to_poset(G), oracle_cap)  # checks its cover
    assert len(cert.cover) == len(G.right)
    # Each two-element chain, left vertex first.
    matching: Matching = frozenset(tuple(sorted(chain, key=G.right_set.__contains__))
                                   for chain in cert.cover if len(chain) == 2)
    assert verify_matching(G, matching, require_L_perfect=True)
    return matching


def find_sdr(
    family: SetFamily,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> SdrAssignment | Violation:
    """One distinct representative per member set, or a violating subfamily
    whose union is smaller than it.

    Names and elements may share ids, so element j becomes vertex j and member
    i vertex len(ground) + i: distinct and sorted as generated, so the graph
    needs no ``build_bigraph`` checks."""
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
    left = range(len(ground), len(back))
    G = BipartiteGraph(tuple(left), tuple(range(len(ground))),
                       frozenset((u, vertex[x]) for u, nm in zip(left, names) for x in family[nm]))
    result = find_L_perfect_matching(G, subset_cap=subset_cap, oracle_cap=oracle_cap)
    if isinstance(result, Violation):
        return Violation(frozenset(back[u] for u in result.members), result.deficiency)
    return {back[u]: back[v] for (u, v) in result}
