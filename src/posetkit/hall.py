"""Bipartite matching through the order-theoretic route.

A bipartite graph is read as a height-two poset (reflexive closure of the
left-to-right edges).  When every left subset has enough neighbors, the right
part is a maximum antichain, the chain-cover solver partitions the poset into
|R| chains, and the two-element chains among them are a left-perfect matching.
A graph is the family of its left vertices' ``neighbours`` over its right
part, so graphs and families (systems of distinct representatives) run one
routine, ``_hall``, on one layout: member i is vertex i, ground element j
vertex |members| + j.  One Kuhn matching decides Hall's condition and seeds
the top frame (Fulkerson's reduction); its checked links y -> x are the
pairs, or a pruned search of the member masks names the smallest violation.

The links are the lexicographically first L-perfect matching (left vertices in
id order, each taking its lowest-id neighbour that leaves the rest matchable),
so any layout keeping each part's id order gives them.  By induction over
Perles' frames: a frame S whose left part L_S has an L_S-perfect matching has
width |R_S|, and each maximum antichain is T ∪ (R_S − N(T)) for a tight T,
|N(T)| = |T|.  Case 1 splits on a tight ∅ ≠ T ⊊ L_S into halves that, stripped
of isolated elements, are T ∪ N(T) and (L_S − T) ∪ (R_S − N(T)); S's
L-perfect matchings are the unions of one of each half's.  Case 2 has no such
T, so every edge x–y extends to one (each T ≠ ∅ in L_S − x keeps
|N(T) − y| ≥ |T|), and the peel, the lowest left vertex with its lowest
neighbour, is the first choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence

from .core import ElementId, FinitePoset, _check_id, _edge, build_poset, id_key, sorted_ids
from .dilworth import _max_matching, _perles_links, _top_frame
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

    @cached_property
    def left_set(self) -> frozenset[ElementId]:
        return frozenset(self.left)

    @cached_property
    def right_set(self) -> frozenset[ElementId]:
        return frozenset(self.right)

    @cached_property
    def neighbours(self) -> SetFamily:
        """Each left vertex's right neighbours: the family that Hall's routine solves."""
        nbrs: dict[ElementId, set[ElementId]] = {u: set() for u in self.left}
        for (u, v) in self.edges:
            nbrs[u].add(v)
        return nbrs


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
    return frozenset().union(*(G.neighbours[u] for u in S))


def graph_to_poset(G: BipartiteGraph) -> FinitePoset:
    """The height-two poset of the edges: ``build_poset`` of both parts and the
    edges, with the parts' ids interleaved in id order.  The solvers use
    ``_masks``'s members-first layout of the same order (module docstring)."""
    return build_poset(G.left + G.right, G.edges)


def hall_condition(G: BipartiteGraph, cap: int = DEFAULT_SUBSET_CAP) -> Violation | None:
    """None when every left subset S has |N(S)| >= |S|; otherwise the
    smallest violating subset (lexicographically first among those)."""
    return _violation(_masks(G.left, G.neighbours, G.right)[0][:len(G.left)], G.left, cap)


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


def _masks(names: Sequence[ElementId], sets: SetFamily,
           ground: Sequence[ElementId]) -> tuple[list[int], list[int]]:
    """The graph poset's strict masks in the module's layout: ``up[i]`` is ``sets[names[i]]``."""
    vertex = {x: j for j, x in enumerate(ground, len(names))}
    up, down = [0] * (len(ground) + len(names)), [0] * (len(ground) + len(names))
    for i, nm in enumerate(names):
        for x in sets[nm]:
            up[i] |= 1 << vertex[x]
            down[vertex[x]] |= 1 << i
    return up, down


def _violation(masks: Sequence[int], names: Sequence[ElementId], cap: int) -> Violation | None:
    """The smallest Hall violation among ``names``, first in ``combinations`` order; ``masks`` are their sets."""
    n = len(masks)
    if n > cap:
        raise InstanceTooLarge(f"hall_condition: |L| is {n}, cap is {cap} (raise it with --subset-cap)")
    for k in range(1, n + 1):
        # Depth-first in combinations order (positions pushed high to low); unions only grow,
        # so a branch whose union has k vertices holds no violator of size k and is skipped.
        stack = [((), 0)]  # (chosen positions, their union)
        while stack:
            chosen, seen = stack.pop()
            if len(chosen) == k:
                return Violation(frozenset(names[p] for p in chosen), k - seen.bit_count())
            for p in range(n - k + len(chosen), chosen[-1] if chosen else -1, -1):
                union = seen | masks[p]
                if union.bit_count() < k:
                    stack.append((chosen + (p,), union))
    return None


def _hall(names: Sequence[ElementId], sets: SetFamily, ground: Sequence[ElementId],
          subset_cap: int, oracle_cap: int) -> list[tuple[ElementId, ElementId]] | Violation:
    """Each of ``names`` paired with a distinct element of its set, off Perles' links on
    ``_masks``; the smallest violation when Kuhn's matching misses a member."""
    up, down = _masks(names, sets, ground)
    matching = _max_matching(up)
    if len(matching) < len(names):
        bad = _violation(up[:len(names)], names, subset_cap)
        assert bad is not None
        return bad
    # The n − m = |names| checked links join members to elements of their sets, with distinct ends.
    top = _top_frame(up, down, oracle_cap, "perles_chain_cover", matching)
    return [(names[x], ground[y - len(names)]) for y, x in _perles_links(top).items()]


def find_L_perfect_matching(
    G: BipartiteGraph,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> Matching | Violation:
    """A matching covering every left vertex, or the smallest Hall violation,
    searched for within ``subset_cap`` only when Kuhn's maximum matching misses
    a left vertex (Hall's theorem); ``oracle_cap`` bounds the chain cover's search."""
    out = _hall(G.left, G.neighbours, G.right, subset_cap, oracle_cap)
    return out if isinstance(out, Violation) else frozenset(out)


def find_sdr(
    family: SetFamily,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> SdrAssignment | Violation:
    """One distinct representative per member set, or a violating subfamily
    whose union is smaller than it; names and elements may share ids."""
    names = sorted(family, key=id_key)
    if not names:
        return {}
    empty = [nm for nm in names if not family[nm]]
    if empty:
        # The lexicographically first singleton violation; nothing to match.
        return Violation(frozenset({empty[0]}), 1)
    ground = sorted({x for s in family.values() for x in s}, key=id_key)
    out = _hall(names, family, ground, subset_cap, oracle_cap)
    return out if isinstance(out, Violation) else dict(out)
