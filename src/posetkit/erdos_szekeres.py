"""Monotone subsequences of distinct-integer sequences.

A sequence becomes a poset by ordering x below y when x precedes y positionally
and is smaller numerically; chains of that poset are exactly the increasing
subsequences and antichains the decreasing ones.  A sequence of m*n+1 values
therefore yields an increasing subsequence of m+1 values or a decreasing one
of n+1, extracted from a maximum antichain or a chain cover."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .core import ElementId, FinitePoset, _ids
from .dilworth import _cover_from_top, _top_frame
from .errors import (
    DuplicateValue,
    EmptyInput,
    ValidationError,
    WrongCardinality,
)
from .oracle import DEFAULT_ORACLE_CAP, _require_cap

INCREASING = "increasing"
DECREASING = "decreasing"

CHAIN = "chain"
ANTICHAIN = "antichain"


@dataclass(frozen=True)
class IntSeq:
    """A finite sequence of distinct integers; ``items`` is the positional
    order and induces the strict total precedence relation."""

    items: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise EmptyInput("a sequence needs at least one value")
        for v in self.items:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValidationError(f"sequence values must be integers, got {v!r}")
        if len(set(self.items)) != len(self.items):
            counts = Counter(self.items)
            dup = next(v for v in self.items if counts[v] > 1)
            raise DuplicateValue(f"value {dup!r} occurs more than once")

    @property
    def values(self) -> frozenset[int]:
        return frozenset(self.items)

    def __len__(self) -> int:
        return len(self.items)


class PosetWitness(NamedTuple):
    """Either a chain or an antichain, as tagged solver output."""

    kind: str  # CHAIN or ANTICHAIN
    elements: frozenset[ElementId]


class SubseqWitness(NamedTuple):
    kind: str  # INCREASING or DECREASING
    subsequence: IntSeq


def seq_from_list(xs: list[int] | tuple[int, ...]) -> IntSeq:
    """Build a sequence from values in positional order."""
    return IntSeq(tuple(xs))


def seq_to_poset(s: IntSeq) -> FinitePoset:
    """Order x below y when x comes earlier and is numerically smaller.  Both
    constituent orders are transitive, so the strict part already is: one pass
    builds the masks over the value ranks, with no pair set to close."""
    elements = tuple(sorted(s.items))
    rank = {v: r for r, v in enumerate(elements)}
    up, down = [0] * len(elements), [0] * len(elements)
    later = (1 << len(elements)) - 1  # the ranks at this position or after it
    for v in s.items:
        r = rank[v]
        later ^= 1 << r  # now only after it, so the smaller ranks missing come before it
        up[r], down[r] = later >> r << r, ~later & (1 << r) - 1
    return FinitePoset(elements, tuple(up), tuple(down))


def pre_es(P: FinitePoset, r: int, s: int, cap: int = DEFAULT_ORACLE_CAP) -> PosetWitness:
    """On a poset of exactly r*s+1 elements, a chain of at least r+1 elements
    or an antichain of at least s+1.

    If the width already exceeds s the antichain is the answer; otherwise a
    chain cover of at most s chains spreads r*s+1 elements, so some chain
    holds at least r+1 of them.  Perles' cover comes in ``canonical_cover``
    order, so its first longest chain is the member-key-least of them."""
    if r < 0 or s < 0:
        raise WrongCardinality("r and s must be non-negative")
    if len(P) != r * s + 1:
        raise WrongCardinality(f"carrier has {len(P)} elements, expected r*s+1 = {r * s + 1}")
    # One top frame gives the width and, in the chain case, starts the cover.
    top = _top_frame(P.up, P.down, cap, "width")
    _, m, found = top
    if m >= s + 1:
        return PosetWitness(ANTICHAIN, _ids(P, found[0]))
    cert = _cover_from_top(P, top)
    chain = max(cert.cover, key=len)
    assert len(chain) >= r + 1
    return PosetWitness(CHAIN, chain)


def es_subsequence(s: IntSeq, m: int, n: int, cap: int = DEFAULT_ORACLE_CAP) -> SubseqWitness:
    """An increasing subsequence of exactly m+1 values or a decreasing one of
    exactly n+1, from a sequence of m*n+1 distinct integers.

    The underlying witness may be longer; it is truncated to the promised
    length keeping the earliest positions, so outputs are reproducible."""
    if m < 0 or n < 0:
        raise WrongCardinality("m and n must be non-negative")
    if len(s) != m * n + 1:
        raise WrongCardinality(f"sequence has {len(s)} values, expected m*n+1 = {m * n + 1}")
    _require_cap(len(s), cap, "width")  # pre_es' check, before seq_to_poset builds O(len(s)²) mask bits
    found = pre_es(seq_to_poset(s), m, n, cap)
    target = m + 1 if found.kind == CHAIN else n + 1
    ordered = [v for v in s.items if v in found.elements]
    witness = IntSeq(tuple(ordered[:target]))
    kind = INCREASING if found.kind == CHAIN else DECREASING
    return SubseqWitness(kind, witness)


def verify_subseq(parent: IntSeq, w: SubseqWitness) -> bool:
    """Check value inclusion, positional-order preservation, and monotonicity
    in the direction the witness claims."""
    if w.kind not in (INCREASING, DECREASING):
        raise ValidationError(f"unknown witness kind {w.kind!r}")
    sub = w.subsequence
    if not sub.values <= parent.values:
        return False
    pos = {v: i for i, v in enumerate(parent.items)}
    seq = sub.items
    for a, b in zip(seq, seq[1:]):
        if pos[a] >= pos[b]:
            return False
        if w.kind == INCREASING and a >= b:
            return False
        if w.kind == DECREASING and a <= b:
            return False
    return True
