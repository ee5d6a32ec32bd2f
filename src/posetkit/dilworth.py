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

``width`` is the top frame alone: ``_top_frame`` computes the matching, the
masks, m and the first size-m antichains for both it and
``perles_chain_cover``, and the width's witness is the first of those
antichains.  It never recurses, so a poset too deep for Perles' recursion (a
1,000-element chain) still has its width.  The matching's n − m chains
(``_kuhn_chains``) are the dual that ``verify`` checks a width claim against.

A frame below the top with |S| <= m + 1 takes case 2 unsearched.  |S| = m
makes S an antichain, equal to both extremal ones.  At |S| = m + 1 a size-m
antichain S − {v} leaves v in every comparable pair, never strictly between
two elements (their pair would miss v), so S − {v} is the minimal or the
maximal elements; so are S − {a} and S − {b} for a single pair a < b.

Such a frame also finishes in one pass.  At |S| = m it peels singletons.  At
|S| = m + 1 its comparable pairs pairwise meet (two disjoint pairs, or a
three-element chain, would leave a cover of m − 1 chains) and some pair
exists (S is no antichain), so they form a star with no three-element chain:
an element with something above it is minimal and one above it is maximal.
Let x be the lowest element that is not maximal.  The peels take the
minimal elements of lower index than x, all isolated, as singletons, then x
with the lowest y > x, and then, the rest being an antichain of the
remaining width, singletons: {x, y} and singletons.  Peeling these chains one
at a time through the loop gives the same cover but made Perles 15–45 %
slower on the posets of each perfbench workload (three runs, each the best
of nine in-process rounds; 2-vCPU Xeon, CPython 3.11).

A case-1 half reuses its parent's search.  The half H lies inside the parent
and holds the chosen antichain, so its size-m antichains are exactly the
parent's that lie in H, and the search meets them in the same lexicographic
order.  The parent's first three, those in H kept, are thus a prefix of H's
own search: its first non-extremal entry is the one H would choose, and if
the parent's search found fewer than three, the prefix holds all of H's.  H
searches only when the prefix has no non-extremal entry and was cut short.
A peel lowers the width, so the prefix is dropped.

Each frame carries the masks lo and hi of its carrier's minimal and maximal
elements, so an antichain found is extremal exactly when it is lo or hi, and
only the one a frame splits on has its up/down masks ORed.  The top frame
reads them off the poset.  The half above a chosen antichain has it as its
minimal elements (each element lies above one of it) and hi & half as its
maximal ones (whatever lies above an element of the half is in it); the half
below mirrors this.  After a peel of x and y only the bits of up[x] & S can
have become minimal and only those of down[y] & S maximal.

The cover is a partition of P.  The halves of a split cover S (an element
comparable to no element of the chosen antichain would extend it) and meet
only in it (one above a and below b of it gives a < b); by induction each
half's m chains partition it and meet the antichain once each, so joining
them at its bits partitions S.  Peels and short frames leave disjoint chains.
``perles_chain_cover`` checks the partition once, on masks.

The search is pruned by the chains Fulkerson's matching already gives: each
matched x → y links x to the next element of its chain, so the matching of
size n − m lays P out as m disjoint chains.  An antichain meets a chain at
most once, so a branch that has ``size`` elements and candidates ``rest``
can reach k only if rest meets at least k − size of the chains.  Restricted
to any carrier the chains still cover it, so the bound is sound in every
frame, also after a peel, when more chains than its width may meet S.  The
chains are laid out once per call as fields of a second bit space, one
element bit each and a guard bit above each field; with rest' the image of
rest there, LOW the element bits and HIGH the guard bits, (rest' + LOW) &
HIGH has one bit per field that rest' meets.  The pruned search visits the
exhaustive search's nodes in the same order and skips only subtrees without
a solution, so it yields the same antichains in the same order and the
certificates do not change.  Below a width of PRUNE_MIN_WIDTH the exhaustive
``oracle._antichain_masks`` runs instead: it searches for m elements, few
enough that laying the chains out costs more than the prune saves, however
many pairs the matching has; pruning at every width made Perles 25–53 %
slower on the sdr-tiny and cli-mixed posets, and 2–7 % on above-cap ones.
m never grows down the recursion (halves keep it, a peel lowers it by one),
so the choice is made once per call.

A frame is a carrier bitmask over one index of ``P.elements``, which is sorted
by id, so ascending bit order is id order: the lexicographically first witness
and every tie-break are those of the same recursion over restricted posets,
and disjoint chains sorted by their lowest bit are in ``canonical_cover``'s
order.  The recursion reads the poset's own strict up/down masks; ids come
back at the end.

``disjointify_cover`` turns a chain cover into a pairwise-disjoint one of
the same size.  Minimality is what makes that possible (a non-smallest cover
can lose a chain entirely), so it checks, in polynomial time, exactly what
the promise needs: the input is a chain cover and no chain is emptied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import oracle
from .core import (
    ChainCover,
    ElementId,
    FinitePoset,
    _extremal,
    _ids,
    _indices,
    _union,
    canonical_cover,
    verify_chain_cover,
)
from .errors import NotASmallestCover
from .oracle import DEFAULT_ORACLE_CAP, SizedWitness


# Below this width the chain-space prune costs more than it saves.
PRUNE_MIN_WIDTH = 10


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
    """Size (and witness) of a largest antichain: the first antichain of
    Perles' top frame, which is the lexicographically first."""
    oracle._require_cap(len(P), cap, "width")
    _, m, found = _top_frame(P)
    return SizedWitness(_ids(P, found[0]), m)


def perles_chain_cover(P: FinitePoset, cap: int = DEFAULT_ORACLE_CAP) -> DilworthCertificate:
    """A chain cover whose size equals the width, built by Perles' recursion;
    the width comes from Fulkerson's matching, and the first size-m antichain
    of the top frame's search is the witness."""
    oracle._require_cap(len(P), cap, "perles_chain_cover")
    order, m, found = _top_frame(P)
    full = (1 << len(P)) - 1
    cover = _perles(order, full, _extremal(P.down, full, full), _extremal(P.up, full, full),
                    m, found, len(found) < 3)
    # One check, on masks: an antichain of m, and m chains that partition P
    # (chains sharing a bit would carry in their sum and lose bits).
    _, _, comp, _ = order
    witness = found[0]
    assert len(cover) == m == witness.bit_count()
    assert not any(comp[i] & witness for i in _indices(witness))
    assert sum(cover) == full and sum(chain.bit_count() for chain in cover) == len(P)
    assert all(not chain & ~(comp[i] | 1 << i) for chain in cover for i in _indices(chain))
    cover.sort(key=lambda chain: chain & -chain)
    return DilworthCertificate(m, _ids(P, witness), tuple(_ids(P, c) for c in cover))


# A chain cover laid out as bit fields: each element index's one bit in its
# chain's field, the comparability masks mapped, every element bit (LOW) and
# the guard bit above each field (HIGH).
_ChainSpace = tuple[list[int], list[int], int, int]
# Perles' per-call masks: the strict up and down masks, their union, and the
# chain space of the matching's chains (None below width PRUNE_MIN_WIDTH).
_Order = tuple[tuple[int, ...], tuple[int, ...], list[int], "_ChainSpace | None"]


def _top_frame(P: FinitePoset) -> tuple[_Order, int, list[int]]:
    """Perles' masks for P, its width m by Fulkerson's matching, and the
    first three size-m antichains of P in search order."""
    matching = _max_matching(P.up)
    m = len(P) - len(matching)
    comp = [u | d for u, d in zip(P.up, P.down)]
    space = None
    if m >= PRUNE_MIN_WIDTH:
        space = _chain_space(_chains(matching, len(P)), comp)
    order = (P.up, P.down, comp, space)
    return order, m, _antichains(order, (1 << len(P)) - 1, m)


def _max_matching(adj: Sequence[int]) -> dict[int, int]:
    """A maximum matching of each x to a bit y of ``adj[x]``, as y -> x, by
    Kuhn's augmenting paths (on strict up-masks: Fulkerson's x⁻ → y⁺)."""
    owner: dict[int, int] = {}  # y -> the x matched to it
    seen = 0

    def augment(x: int) -> bool:
        nonlocal seen
        while free := adj[x] & ~seen:
            bit = free & -free
            seen |= bit
            y = bit.bit_length() - 1
            if y not in owner or augment(owner[y]):
                owner[y] = x
                return True
        return False

    for x in range(len(adj)):
        seen = 0
        augment(x)
    return owner


def _chains(matching: dict[int, int], n: int) -> list[list[int]]:
    """The n − |M| chains of a matching on strict up-masks, as index lists
    from the top down: x matched to y sits below y in y's chain."""
    out = []
    for top in sorted(set(range(n)) - set(matching.values())):
        chain = [top]
        while chain[-1] in matching:
            chain.append(matching[chain[-1]])
        out.append(chain)
    return out


def _kuhn_chains(P: FinitePoset) -> list[frozenset[ElementId]]:
    """The chains of Kuhn's maximum matching on P, as id sets: a chain cover
    of P with as many chains as P is wide."""
    return [frozenset(P.elements[i] for i in chain) for chain in _chains(_max_matching(P.up), len(P))]


def _chain_space(chains: list[list[int]], comp: list[int]) -> _ChainSpace:
    """The chains laid out as consecutive fields, each its chain's length
    plus one guard bit wide."""
    place = [0] * len(comp)
    at = high = 0
    for chain in chains:
        for i in chain:
            place[i] = 1 << at
            at += 1
        high |= 1 << at
        at += 1
    return place, [_union(place, c) for c in comp], (1 << at) - 1 - high, high


def _pruned_antichain_masks(comp: list[int], space: _ChainSpace, cand: int, k: int,
                            limit: int | None) -> list[int]:
    """``oracle._antichain_masks(comp, cand, k, limit)``, skipping each branch
    whose candidates meet fewer than k − size of the chains of ``space``."""
    found: list[int] = []
    place, pcomp, low, high = space

    def search(chosen: int, size: int, rest: int, restp: int) -> bool:
        if size == k:
            found.append(chosen)
            return len(found) == limit
        need = k - size
        # rest shrinks, so once the bound fails it fails for every later turn
        while ((restp + low) & high).bit_count() >= need:
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            restp ^= place[i]
            if search(chosen | bit, size + 1, rest & ~comp[i], restp & ~pcomp[i]):
                return True
        return False

    if k > 0:
        search(0, 0, cand, _union(place, cand))
    return found


def _antichains(order: _Order, S: int, k: int) -> list[int]:
    """The first three size-k antichains inside S, in the exhaustive search's order."""
    _, _, comp, space = order
    if space is None:
        return oracle._antichain_masks(comp, S, k, 3)
    return _pruned_antichain_masks(comp, space, S, k, 3)


def _split(S: int, lo: int, hi: int, found: list[int]) -> int | None:
    """The first antichain of ``found`` inside S that is neither S's minimal
    elements ``lo`` nor its maximal elements ``hi``; None when there is none."""
    return next((c for c in found if not c & ~S and c != lo and c != hi), None)


def _short_frame(up: tuple[int, ...], S: int, hi: int, m: int) -> list[int]:
    """The chains Perles' peels leave of a carrier S of width m, |S| <= m + 1,
    and maximal elements ``hi``, in one pass (see the module docstring)."""
    if S.bit_count() == m:
        return [1 << i for i in _indices(S)]
    x = S & ~hi  # the elements that are not maximal
    x &= -x
    pair = x | (y := up[x.bit_length() - 1] & S) & -y
    return [pair] + [1 << i for i in _indices(S & ~pair)]


def _perles(order: _Order, S: int, lo: int, hi: int, m: int, found: list[int],
            complete: bool) -> list[int]:
    """m disjoint chain masks covering the carrier mask S, of width m, with
    minimal elements ``lo`` and maximal elements ``hi``.  ``found`` is a
    prefix, in search order, of the size-m antichains of a width-m carrier
    that contains S; ``complete`` says it holds all of them."""
    up, down, _, _ = order
    peeled: list[int] = []
    while True:
        chosen = _split(S, lo, hi, found)
        if chosen is None and S.bit_count() <= m + 1:
            # Every maximum antichain is extremal (see the module docstring).
            return _short_frame(up, S, hi, m) + peeled
        if chosen is None and not complete:
            # At most two size-m antichains are extremal, so a third is not.
            found = _antichains(order, S, m)
            complete = len(found) < 3
            chosen = _split(S, lo, hi, found)
        if chosen is not None:
            break
        # Case 2: every maximum antichain is an extremal one.  Peel one chain
        # from the lowest minimal element x to the lowest maximal y >= x; the
        # rest has width m - 1, so the prefix no longer applies.  It keeps at
        # least m elements, as |S| >= m + 2 here, so it is not empty.
        x = lo & -lo
        y = (up[x.bit_length() - 1] | x) & hi
        y &= -y
        peeled.append(x | y)
        S &= ~(x | y)
        lo = lo & S | _extremal(down, up[x.bit_length() - 1] & S, S)
        hi = hi & S | _extremal(up, down[y.bit_length() - 1] & S, S)
        m -= 1
        found, complete = [], False

    # Case 1: split by the antichain into the part above it and the part below
    # it; both halves hold it, so they have width m and its antichains.
    above = _union(up, chosen) & S | chosen
    below = _union(down, chosen) & S | chosen
    assert above != S and below != S
    upper = _perles(order, above, chosen, hi & above, m, found, complete)
    lower = _perles(order, below, lo & below, chosen, m, found, complete)
    # Join the halves at the antichain, which each chain meets exactly once.
    leftover = {chain & chosen: chain for chain in upper}
    joined = [leftover.pop(chain & chosen) | chain for chain in lower]
    assert not leftover
    return joined + peeled


def disjointify_cover(P: FinitePoset, cover: ChainCover) -> ChainCover:
    """Make a chain cover pairwise disjoint without changing its size.

    Each element is kept by the first chain (in canonical order) that contains
    it.  Raises :class:`NotASmallestCover` when ``cover`` is not a chain cover
    of P or a chain loses all its elements, which only a cover that is not
    smallest can do; a disjoint cover comes back as it is, smallest or not.
    """
    members = canonical_cover(cover)
    if not verify_chain_cover(P, members):
        raise NotASmallestCover("not a chain cover of this poset")
    taken: set[ElementId] = set()
    blocks: list[frozenset[ElementId]] = []
    for chain in members:
        block = chain - taken
        if not block:
            raise NotASmallestCover("a chain lost all its elements; the cover was not a smallest one")
        blocks.append(block)
        taken |= chain
    return canonical_cover(blocks)


def check_dilworth(P: FinitePoset, cap: int = DEFAULT_ORACLE_CAP) -> DilworthReport:
    """Surface the width = smallest-cover-size equality as a testable report."""
    w = oracle.max_antichain(P, cap)
    cert = perles_chain_cover(P, cap)
    return DilworthReport(w.size, len(cert.cover), w.size == len(cert.cover))
