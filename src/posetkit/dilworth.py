"""Constructive chain-cover solver.

``perles_chain_cover`` transcribes Perles' two-case recursion: either some
maximum antichain differs from both extremal antichains and the poset splits
into the parts above and below it, or no such antichain exists and a single
minimal-to-maximal two-element chain comes off.  Every split and every peel
leaves a strictly smaller carrier, so the recursion is well founded.  It runs
as one loop over a stack of frames, each pushed with all its inputs, so the
frames may run in any order and no poset is too deep for it.

The width m comes once from Fulkerson's reduction (a maximum matching M on
x⁻ → y⁺ for x < y leaves n − |M| chains) and is carried down: a case-1 half
lies inside P and holds the chosen antichain, so its width is m; after a
case-2 peel of a minimal x and a maximal y the rest has width m − 1, since
every maximum antichain of P is the minimal or the maximal elements.  The
witness is the lexicographically first maximum antichain, as the oracle finds.

``width`` is the top frame alone: ``_top_frame`` checks the oracle cap,
takes the order's masks and a maximum matching and computes m and the first
size-m antichains, whose first is the width's witness.
``perles_chain_cover`` goes on through ``_cover_from_top``, which ``pre_es``
calls with the frame its width came from.  Its mask-level part ``_perles_links`` returns the checked
links, which Hall's matchings read as their pairs, with no poset or chains.
The matching's n − m chains (``_kuhn_chains``) are the dual that ``verify``
checks a width claim against.

A frame below the top with |S| <= m + 1 takes case 2 unsearched.  Once its
isolated elements are dropped (below), such a carrier is empty or has
|S| = m + 1, and a size-m antichain S − {v} leaves v in every comparable
pair, never strictly between two elements (their pair would miss v), so
S − {v} is the minimal or the maximal elements; so are S − {a} and S − {b}
for a single pair a < b.  Its comparable pairs pairwise meet (two disjoint
pairs, or a three-element chain, would leave a cover of m − 1 chains), so
they form a star: an element with something above it is minimal, one above
it maximal.  Its one peel, the lowest minimal x with the lowest maximal
y > x, leaves m − 1 elements of width m − 1, an antichain of singletons, so
the frame pushes nothing.  Only the top frame of an antichain strips to an
empty carrier, which ends before a split is looked for.

A case-1 half reuses its parent's search.  The half H lies inside the parent
and holds the chosen antichain, so its size-m antichains are exactly the
parent's that lie in H, and the search meets them in the same lexicographic
order.  The parent's first three, those in H kept, are thus a prefix of H's
own search: its first non-extremal entry is the one H would choose, and if
the parent's search found fewer than three, the prefix holds all of H's.  H
searches only when the prefix has no non-extremal entry and was cut short.
A peel lowers the width, so the prefix is dropped.

A frame first drops iso = lo & hi, its elements comparable to nothing else
in S.  Each lies in every maximum antichain of S (one without it would
extend), so A ↦ A − iso maps the size-m antichains of S one to one onto the
size-(m − |iso|) antichains of S − iso, and S − iso has width m − |iso|.
Bits that every antichain holds never decide the search's lexicographic
order, so the map keeps it, and with it the prefix and its completeness; A
is lo or hi exactly when A − iso is lo − iso or hi − iso, the extremal
masks of S − iso, so the frame splits on the same antichain, less iso.  Each
isolated element ends as a singleton chain, as a peel of it (x = y, no
link) would leave it, so the links and the certificates are those of the
recursion without the strip; what goes is the search after each such peel,
which could only find case 2.
``_top_frame`` keeps its isolated elements: its search runs once per call,
its first antichain is also ``width``'s witness, which holds them, and
stripping there would need the extremal masks before it on every poset,
which the small ones pay for and the large ones do not win back.

Each frame carries the masks lo and hi of its carrier's minimal and maximal
elements, so an antichain found is extremal exactly when it is lo or hi, and
only the one a frame splits on has its up/down masks ORed.  The top frame
reads them off the order's masks.  The half above a chosen antichain has it
as its minimal elements (each element lies above one of it) and hi & half as
its maximal ones (whatever lies above an element of the half is in it); the
half below mirrors this.  After a peel of x and y only the bits of up[x] & S
can have become minimal and only those of down[y] & S maximal.

Every piece a frame leaves has at most two elements (an isolated element, a
peel's x < y, or an element its last peel leaves), so Perles records
each pair x < y as a link y → x, and ``_chains`` reads the cover off the
links, as it reads Kuhn's matching.  Every leaf carrier is convex (a case-1
half is up- or down-closed in its parent, a peel takes off a minimal and a
maximal element, the strip takes off elements that are both), so each piece
is an interval of its final chain.  The halves of a split cover S and
meet only in the chosen antichain (an element comparable to none of it would
extend it; one above a and below b of it gives a < b), where their chains
meet, so consecutive elements of a final chain lie in one piece.

``_perles_links`` checks links, not chains: n − |links| = m = |witness|, the
witness is an antichain, no two links share a lower end (the dict keys their
upper ends) and each link y → x has y above x.  On a closed order that is
the partition check: distinct ends make the links disjoint paths, n − |links|
of them, antisymmetry rules out cycles and transitivity makes each a chain.

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

from typing import NamedTuple, Sequence

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


class DilworthCertificate(NamedTuple):
    """A matched pair proving optimality in both directions: an antichain of
    ``width`` elements shows no cover can be smaller, and a valid cover of
    ``width`` chains shows none larger is needed."""

    width: int
    antichain_witness: frozenset[ElementId]
    cover: ChainCover


class DilworthReport(NamedTuple):
    width: int
    cover_size: int
    equal: bool


def width(P: FinitePoset, cap: int = DEFAULT_ORACLE_CAP) -> SizedWitness:
    """Size (and witness) of a largest antichain: the first antichain of
    Perles' top frame, which is the lexicographically first."""
    _, m, found = _top_frame(P.up, P.down, cap, "width")
    return SizedWitness(_ids(P, found[0]), m)


def perles_chain_cover(P: FinitePoset, cap: int = DEFAULT_ORACLE_CAP) -> DilworthCertificate:
    """A chain cover whose size equals the width, built by Perles' recursion;
    the width comes from Fulkerson's matching, and the first size-m antichain
    of the top frame's search is the witness."""
    return _cover_from_top(P, _top_frame(P.up, P.down, cap, "perles_chain_cover"))


def _cover_from_top(P: FinitePoset, top: tuple[_Order, int, list[int]]) -> DilworthCertificate:
    """Perles' certificate from the top frame ``_top_frame`` returned, so a
    caller that already holds it runs no second matching or search."""
    _, m, found = top
    cover = sorted(_chains(_perles_links(top), len(P)), key=lambda chain: chain & -chain)
    return DilworthCertificate(m, _ids(P, found[0]), tuple(_ids(P, c) for c in cover))


def _perles_links(top: tuple[_Order, int, list[int]]) -> dict[int, int]:
    """Perles' links y -> x from the top frame, checked as links (module docstring)."""
    order, m, found = top
    up, down, comp, _ = order
    lo = sum([1 << i for i, d in enumerate(down) if not d])
    hi = sum([1 << i for i, u in enumerate(up) if not u])
    below = _perles(order, (1 << len(up)) - 1, lo, hi, m, found, len(found) < 3)
    # An antichain of m, and n - m links x < y with distinct ends: m chains that partition P.
    witness = found[0]
    assert len(up) - len(below) == m == witness.bit_count()
    assert not _union(comp, witness) & witness
    assert len(set(below.values())) == len(below)
    assert all(up[x] >> y & 1 for y, x in below.items())
    return below


# A chain cover laid out as bit fields: each element index's one bit in its
# chain's field, the comparability masks mapped, every element bit (LOW) and
# the guard bit above each field (HIGH).
_ChainSpace = tuple[list[int], list[int], int, int]
# Perles' per-call masks: the strict up and down masks, their union, and the
# chain space of the matching's chains (None below width PRUNE_MIN_WIDTH).
_Order = tuple[Sequence[int], Sequence[int], list[int], "_ChainSpace | None"]


def _top_frame(up: Sequence[int], down: Sequence[int], cap: int, what: str,
               matching: dict[int, int] | None = None) -> tuple[_Order, int, list[int]]:
    """Perles' masks for the order with strict masks ``up`` and ``down``, its
    width m by Fulkerson's ``matching``, a maximum one of ``up`` (Kuhn's when
    None), and the first three size-m antichains in search order.  The
    exhaustive search that ``cap`` bounds starts here, in every Perles entry
    point, so this is where an order above it is refused, under the label
    ``what``; a caller that passes no matching is refused before Kuhn runs."""
    n = len(up)
    oracle._require_cap(n, cap, what)
    if matching is None:
        matching = _max_matching(up)
    m = n - len(matching)
    comp = [u | d for u, d in zip(up, down)]
    space = None
    if m >= PRUNE_MIN_WIDTH:
        space = _chain_space(_chains(matching, n), comp)
    order = (up, down, comp, space)
    return order, m, _antichains(order, (1 << n) - 1, m)


def _max_matching(adj: Sequence[int]) -> dict[int, int]:
    """A maximum matching of each x to a bit y of ``adj[x]``, as y -> x, by
    Kuhn's augmenting paths (on strict up-masks: Fulkerson's x⁻ → y⁺).  It
    visits as the recursive textbook search does, roots in index order and
    neighbours lowest first, but keeps each path as a list of (x, y) steps,
    which no stack limit bounds."""
    owner: dict[int, int] = {}  # y -> the x matched to it
    for root in range(len(adj)):
        seen, x = 0, root
        path: list[tuple[int, int]] = []
        while free := adj[x] & ~seen:
            bit = free & -free
            seen |= bit
            y = bit.bit_length() - 1
            path.append((x, y))
            if y not in owner:
                for x, y in path:  # the path augments: each x takes its y
                    owner[y] = x
                break
            x = owner[y]
            while path and not adj[x] & ~seen:  # x is stuck: back up a step
                x, _ = path.pop()
    return owner


def _chains(below: dict[int, int], n: int) -> list[int]:
    """The chains that links y -> x (x just below y in its chain) make of n
    elements, as masks, each walked down from an element no link points to:
    Kuhn's matching and Perles' cover alike."""
    out = []
    for i in sorted(set(range(n)) - set(below.values())):
        chain = 1 << i
        while i in below:
            i = below[i]
            chain |= 1 << i
        out.append(chain)
    return out


def _kuhn_chains(P: FinitePoset) -> list[frozenset[ElementId]]:
    """The chains of Kuhn's maximum matching on P, as id sets: a chain cover
    of P with as many chains as P is wide."""
    return [_ids(P, chain) for chain in _chains(_max_matching(P.up), len(P))]


def _chain_space(chains: list[int], comp: list[int]) -> _ChainSpace:
    """The chains laid out as consecutive fields, each its chain's length
    plus one guard bit wide."""
    place = [0] * len(comp)
    at = high = 0
    for chain in chains:
        for i in _indices(chain):
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
    stack = [(0, k, cand, _union(place, cand))] if k > 0 else []  # restp: rest's image
    while stack:
        chosen, need, rest, restp = stack.pop()
        # rest shrinks, so once the bound fails it fails for every later turn
        while need > 1 and ((restp + low) & high).bit_count() >= need:
            bit = rest & -rest
            i = bit.bit_length() - 1
            rest ^= bit
            restp ^= place[i]
            stack.append((chosen, need, rest, restp))  # the turns after this one
            chosen, need, rest, restp = chosen | bit, need - 1, rest & ~comp[i], restp & ~pcomp[i]
        while need == 1 and rest:  # each candidate left completes an antichain
            found.append(chosen | rest & -rest)
            rest &= rest - 1
            if len(found) == limit:
                return found
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


def _perles(order: _Order, S: int, lo: int, hi: int, m: int, found: list[int],
            complete: bool) -> dict[int, int]:
    """The links y -> x of m disjoint chains covering the carrier mask S, of
    width m, with minimal elements ``lo`` and maximal elements ``hi``.
    ``found`` is a prefix, in search order, of the size-m antichains of a
    width-m carrier that contains S; ``complete`` says it holds all of them."""
    up, down, _, _ = order
    below: dict[int, int] = {}
    stack = [(S, lo, hi, m, found, complete)]
    while stack:
        S, lo, hi, m, found, complete = stack.pop()
        # Isolated elements lie in every maximum antichain and end as
        # singletons, so the frame goes on without them (module docstring).
        if iso := lo & hi:
            S ^= iso
            lo ^= iso
            hi ^= iso
            m -= iso.bit_count()
            found = [c & ~iso for c in found]
        if not S:  # only the top frame of an antichain strips to nothing
            continue
        chosen = _split(S, lo, hi, found)
        if chosen is None and not complete and S.bit_count() > m + 1:
            # At most two size-m antichains are extremal, so a third is not;
            # at |S| = m + 1 every one is (module docstring).
            found = _antichains(order, S, m)
            complete = len(found) < 3
            chosen = _split(S, lo, hi, found)
        if chosen is None:
            # Case 2: every maximum antichain is an extremal one.  Peel one
            # chain from the lowest minimal element x to the lowest maximal
            # y > x (x is not isolated); the rest has width m - 1, so the
            # prefix no longer applies.  At |S| = m + 1 the rest is an
            # antichain of m - 1 singletons, and the frame ends.
            x = (lo & -lo).bit_length() - 1
            y = up[x] & hi
            y = (y & -y).bit_length() - 1
            below[y] = x
            if S.bit_count() > m + 1:
                S &= ~(1 << x | 1 << y)
                stack.append((S, lo & S | _extremal(down, up[x] & S, S),
                              hi & S | _extremal(up, down[y] & S, S), m - 1, [], False))
            continue
        # Case 1: split by the antichain into the part above it and the part
        # below it; both halves hold it, so they have width m and its antichains.
        upper = _union(up, chosen) & S | chosen
        lower = S & ~upper | chosen  # the halves cover S and meet in chosen
        assert upper != S and lower != S
        stack.append((upper, chosen, hi & upper, m, found, complete))
        stack.append((lower, lo & lower, chosen, m, found, complete))
    return below


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
