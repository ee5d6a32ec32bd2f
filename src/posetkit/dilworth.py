"""Constructive chain-cover solver.

``perles_chain_cover`` transcribes Perles' two-case recursion: either some
maximum antichain differs from both extremal antichains and the poset splits
into the parts above and below it, or no such antichain exists and a single
minimal-to-maximal two-element chain comes off.  Every recursive call is on a
strictly smaller carrier, so the recursion is well founded.

The width m comes once from Fulkerson's reduction (a maximum matching M on
x⁻ → y⁺ for x < y leaves n − |M| chains) and is carried down: a case-1 half
lies inside P and holds the chosen antichain, so its width is m; after a
case-2 peel of a minimal x and a maximal y the rest has width m − 1, since
every maximum antichain of P is the minimal or the maximal elements.  The
witness is the lexicographically first maximum antichain, as the oracle finds.

``disjointify_cover`` turns a smallest cover into a pairwise-disjoint one of
the same size; minimality is essential (a non-smallest cover can lose a chain
entirely), so it is a checked precondition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator

from . import oracle
from .core import (
    ChainCover,
    ElementId,
    FinitePoset,
    canonical_cover,
    id_key,
    maximal_above,
    maximal_elements,
    minimal_elements,
    restrict,
    verify_chain_cover,
)
from .errors import InstanceTooLarge, NotASmallestCover
from .oracle import DEFAULT_ORACLE_CAP, SizedWitness


@dataclass(frozen=True)
class DilworthCertificate:
    """A matched pair proving optimality in both directions: an antichain of
    ``width`` elements shows no cover can be smaller, and a valid cover of
    ``width`` chains shows none larger is needed."""

    width: int
    antichain_witness: frozenset[ElementId]
    cover: ChainCover


@dataclass(frozen=True)
class DilworthReport:
    width: int
    cover_size: int
    equal: bool


def width(P: FinitePoset, cap: int = DEFAULT_ORACLE_CAP) -> SizedWitness:
    """Size (and witness) of a largest antichain."""
    return oracle.max_antichain(P, cap)


def perles_chain_cover(P: FinitePoset, cap: int = DEFAULT_ORACLE_CAP) -> DilworthCertificate:
    """A chain cover whose size equals the width, built by Perles' recursion;
    the width comes from Fulkerson's matching, and the search that yields the
    witness goes on as the top frame's search for a case-1 antichain."""
    if len(P) > cap:
        raise InstanceTooLarge(
            f"perles_chain_cover: instance has {len(P)} elements, cap is {cap}"
        )
    m = _matching_width(P)
    candidates = oracle.iter_antichains_of_size(P, m)
    witness = next(candidates)
    cover = _perles(P, m, candidates, witness)
    assert len(cover) == m
    return DilworthCertificate(m, witness, canonical_cover(cover))


def _matching_width(P: FinitePoset) -> int:
    """n − |M| for a maximum matching M on the edges x⁻ → y⁺ with x < y, grown
    by Kuhn's augmenting paths over index bitmasks; P.relation is already closed."""
    n = len(P)
    index = {e: i for i, e in enumerate(P.elements)}
    above = [0] * n
    for (x, y) in P.relation:
        if x != y:
            above[index[x]] |= 1 << index[y]
    owner: dict[int, int] = {}  # y -> the x matched to it
    seen = 0

    def augment(x: int) -> bool:
        nonlocal seen
        while free := above[x] & ~seen:
            bit = free & -free
            seen |= bit
            y = bit.bit_length() - 1
            if y not in owner or augment(owner[y]):
                owner[y] = x
                return True
        return False

    matched = 0
    for x in range(n):
        seen = 0
        matched += augment(x)
    return n - matched


def _perles(P: FinitePoset, m: int, candidates: Generator[frozenset[ElementId], None, None] | None = None,
            first: frozenset[ElementId] | None = None) -> list[frozenset[ElementId]]:
    """m chains covering P, of width m.  ``candidates`` is a search for P's size-m
    antichains that the caller began, ``first`` what it yielded; it is closed
    before any recursion."""
    max_set = maximal_elements(P)
    min_set = minimal_elements(P)
    if candidates is None:
        candidates = oracle.iter_antichains_of_size(P, m)
    ordered = candidates if first is None else itertools.chain((first,), candidates)
    chosen = next((c for c in ordered if c != max_set and c != min_set), None)
    candidates.close()

    if chosen is not None:
        # Case 1: split by the antichain into the part above it and the part
        # below it; the antichain itself lies in both.
        above = {x for x in P.carrier if any(P.le(y, x) for y in chosen)}
        below = {x for x in P.carrier if any(P.le(x, y) for y in chosen)}
        assert above | below == P.carrier
        assert chosen <= above and chosen <= below
        assert above != P.carrier and below != P.carrier
        upper = _perles(restrict(P, above), m)
        lower = _perles(restrict(P, below), m)
        assert len(upper) == m and len(lower) == m

        def keyed(chains: list[frozenset[ElementId]], at_bottom: bool) -> dict[ElementId, frozenset[ElementId]]:
            out: dict[ElementId, frozenset[ElementId]] = {}
            for chain in chains:
                shared = chain & chosen
                assert len(shared) == 1, "each chain meets the antichain exactly once"
                (a,) = shared
                if at_bottom:
                    assert all(P.le(a, z) for z in chain)
                else:
                    assert all(P.le(z, a) for z in chain)
                out[a] = chain
            return out

        upper_by = keyed(upper, at_bottom=True)
        lower_by = keyed(lower, at_bottom=False)
        assert len(upper_by) == len(lower_by) == m
        return [upper_by[a] | lower_by[a] for a in sorted(chosen, key=id_key)]

    # Case 2: every maximum antichain is an extremal one.  Peel one chain from
    # a minimal element to a maximal element above it.
    x = min(min_set, key=id_key)
    y = maximal_above(P, x)
    rest = P.carrier - {x, y}
    if not rest:
        return [frozenset({x, y})]
    sub = _perles(restrict(P, rest), m - 1)
    assert len(sub) == m - 1
    return sub + [frozenset({x, y})]


def disjointify_cover(
    P: FinitePoset,
    cover: ChainCover,
    *,
    check_minimality: bool | None = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> ChainCover:
    """Make a smallest chain cover pairwise disjoint without changing its size.

    Each element is kept by the first chain (in canonical order) that contains
    it; minimality guarantees no chain is emptied.  The precondition is checked
    against the oracle when the carrier is within ``cap`` (pass
    ``check_minimality`` to force either mode); an emptied chain proves the
    cover was not smallest and is rejected in any mode.
    """
    members = canonical_cover(cover)
    if check_minimality is None:
        check_minimality = len(P) <= cap
    if check_minimality:
        if not verify_chain_cover(P, members):
            raise NotASmallestCover("not a chain cover of this poset")
        w = oracle.max_antichain(P, cap).size
        if len(members) != w:
            raise NotASmallestCover(
                f"cover has {len(members)} chains but a smallest cover has {w}"
            )
    taken: set[ElementId] = set()
    blocks: list[frozenset[ElementId]] = []
    for chain in members:
        block = chain - taken
        if not block:
            raise NotASmallestCover(
                "a chain lost all elements during disjointification; "
                "the cover was not a smallest one"
            )
        blocks.append(block)
        taken |= chain
    return canonical_cover(blocks)


def check_dilworth(P: FinitePoset, cap: int = DEFAULT_ORACLE_CAP) -> DilworthReport:
    """Surface the width = smallest-cover-size equality as a testable report."""
    w = oracle.max_antichain(P, cap)
    cert = perles_chain_cover(P, cap)
    return DilworthReport(w.size, len(cert.cover), w.size == len(cert.cover))
