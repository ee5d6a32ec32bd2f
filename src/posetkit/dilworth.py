"""Constructive chain-cover solver.

``perles_chain_cover`` transcribes Perles' two-case recursion: either some
maximum antichain differs from both extremal antichains and the poset splits
into the parts above and below it, or no such antichain exists and a single
minimal-to-maximal two-element chain comes off.  Every split and every peel
leaves a strictly smaller carrier, so the recursion is well founded; the
peels of one frame run as a loop.

The width m comes once from Fulkerson's reduction (a maximum matching M on
x⁻ → y⁺ for x < y leaves n − |M| chains) and is carried down: a case-1 half
lies inside P and holds the chosen antichain, so its width is m; after a
case-2 peel of a minimal x and a maximal y the rest has width m − 1, since
every maximum antichain of P is the minimal or the maximal elements.  The
witness is the lexicographically first maximum antichain, as the oracle finds.

A frame below the top with |S| <= m + 1 takes case 2 unsearched.  |S| = m
makes S an antichain, equal to both extremal ones.  At |S| = m + 1 a size-m
antichain S − {v} leaves v in every comparable pair, never strictly between
two elements (their pair would miss v), so S − {v} is the minimal or the
maximal elements; so are S − {a} and S − {b} for a single pair a < b.

A case-1 half reuses its parent's search.  The half H lies inside the parent
and holds the chosen antichain, so its size-m antichains are exactly the
parent's that lie in H, and the search meets them in the same lexicographic
order.  The parent's first three, those in H kept, are thus a prefix of H's
own search: its first non-extremal entry is the one H would choose, and if
the parent's search found fewer than three, the prefix holds all of H's.  H
searches only when the prefix has no non-extremal entry and was cut short.
A peel lowers the width, so the prefix is dropped.

A size-m antichain c of a width-m carrier S is S's minimal elements exactly
when no element of S lies below c, that is, OR(down[i] for i in c) & S == 0.
If none does, each element of c is minimal, so c lies in the minimal
elements, an antichain of at most m elements, and equals it; the converse is
plain.  The maximal case is the same with ``up``.  Those masks are the ones
case 1 splits by, so a candidate costs O(m), not a scan of S, and case 2's
x and y come from scans that stop at the first hit.

A frame is a carrier bitmask over one index of ``P.elements``, which is sorted
by id, so ascending bit order is id order: the lexicographically first witness
and every tie-break are those of the same recursion over restricted posets.
The strict up/down masks are built once per call; ids come back at the end.

``disjointify_cover`` turns a smallest cover into a pairwise-disjoint one of
the same size; minimality is essential (a non-smallest cover can lose a chain
entirely), so it is a checked precondition.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .core import (
    ChainCover,
    ElementId,
    FinitePoset,
    _order_masks,
    canonical_cover,
    verify_chain_cover,
)
from .errors import NotASmallestCover
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
    the width comes from Fulkerson's matching, and the first size-m antichain
    of the top frame's search is the witness."""
    oracle._require_cap(len(P), cap, "perles_chain_cover")
    up, down = _order_masks(P)
    m = _matching_width(up)
    comp = [u | d for u, d in zip(up, down)]
    full = (1 << len(P)) - 1
    found = oracle._antichain_masks(comp, full, m, 3)
    cover = _perles(up, down, comp, full, m, found, len(found) < 3)
    assert len(cover) == m

    def ids(mask: int) -> frozenset[ElementId]:
        return frozenset(e for i, e in enumerate(P.elements) if mask >> i & 1)

    return DilworthCertificate(m, ids(found[0]), canonical_cover(map(ids, cover)))


def _matching_width(up: list[int]) -> int:
    """len(up) − |M| for a maximum matching M of each x to bits y of ``up[x]``,
    by Kuhn's augmenting paths (on strict up-masks: Fulkerson's x⁻ → y⁺)."""
    owner: dict[int, int] = {}  # y -> the x matched to it
    seen = 0

    def augment(x: int) -> bool:
        nonlocal seen
        while free := up[x] & ~seen:
            bit = free & -free
            seen |= bit
            y = bit.bit_length() - 1
            if y not in owner or augment(owner[y]):
                owner[y] = x
                return True
        return False

    matched = 0
    for x in range(len(up)):
        seen = 0
        matched += augment(x)
    return len(up) - matched


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask`` as one-bit masks, ascending."""
    out = []
    while mask:
        out.append(mask & -mask)
        mask ^= out[-1]
    return out


def _split(up: list[int], down: list[int], S: int, found: list[int]) -> tuple[int, int, int] | None:
    """The first antichain of ``found`` that lies in S and is neither S's
    minimal nor its maximal elements, with the parts of S above and below it
    (the antichain itself lies in both); None when there is none."""
    for chosen in found:
        if chosen & ~S:
            continue
        above = below = chosen
        for bit in _bits(chosen):
            above |= up[bit.bit_length() - 1]
            below |= down[bit.bit_length() - 1]
        above &= S
        below &= S
        # Nothing of S above (below) it: the maximal (minimal) elements.
        if above != chosen and below != chosen:
            return chosen, above, below
    return None


def _perles(up: list[int], down: list[int], comp: list[int], S: int, m: int,
            found: list[int], complete: bool) -> list[int]:
    """m chain masks covering the carrier mask S, of width m.  ``found`` is a
    prefix, in search order, of the size-m antichains of a width-m carrier
    that contains S; ``complete`` says it holds all of them."""
    peeled: list[int] = []
    while True:
        split = _split(up, down, S, found)
        if split is None and not complete and S.bit_count() > m + 1:
            # At most two size-m antichains are extremal, so a third is not.
            # On |S| <= m + 1 all of them are (see the module docstring).
            found = oracle._antichain_masks(comp, S, m, 3)
            complete = len(found) < 3
            split = _split(up, down, S, found)
        if split is not None:
            break
        # Case 2: every maximum antichain is an extremal one.  Peel one chain
        # from the lowest minimal element x to the lowest maximal y >= x; the
        # rest has width m - 1, so the prefix no longer applies.
        rest = S
        while down[(x := rest & -rest).bit_length() - 1] & S:
            rest ^= x
        rest = (up[x.bit_length() - 1] | x) & S
        while up[(y := rest & -rest).bit_length() - 1] & S:
            rest ^= y
        peeled.append(x | y)
        S &= ~(x | y)
        m -= 1
        if not S:
            assert m == 0, "each peel lowers the width by one"
            return peeled
        found, complete = [], False

    # Case 1: split by the antichain into the part above it and the part below
    # it; both halves hold it, so they have width m and its antichains.
    chosen, above, below = split
    assert above | below == S
    assert above != S and below != S
    upper = _perles(up, down, comp, above, m, found, complete)
    lower = _perles(up, down, comp, below, m, found, complete)
    assert len(upper) == m and len(lower) == m

    def keyed(chains: list[int], at_bottom: bool) -> dict[int, int]:
        out: dict[int, int] = {}
        for chain in chains:
            a = chain & chosen
            assert a.bit_count() == 1, "each chain meets the antichain exactly once"
            i = a.bit_length() - 1
            assert not chain & ~(a | (up[i] if at_bottom else down[i]))
            out[a] = chain
        return out

    upper_by = keyed(upper, at_bottom=True)
    lower_by = keyed(lower, at_bottom=False)
    assert len(upper_by) == len(lower_by) == m
    return [upper_by[a] | lower_by[a] for a in _bits(chosen)] + peeled


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
