"""Exponential-time ground truth: largest antichains/chains, smallest covers,
and a small-poset enumerator.

Everything here is exhaustive search, kept free of the constructive algorithms
it checks; a smallest cover is one partition search, from 1 block up, that
calls no other search here.  Ties break lexicographically on sorted ids.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator, NamedTuple

from .core import (
    AntichainCover,
    ChainCover,
    ElementId,
    FinitePoset,
    _ids,
    _indices,
    canonical_cover,
    sorted_ids,
)
from .errors import InstanceTooLarge

# Subset searches (2^n nodes worst case) stay workable up to about here.
DEFAULT_ORACLE_CAP = 20
# Partition searches grow like the Bell numbers; keep them tighter.
DEFAULT_COVER_CAP = 10
# Labeled-poset enumeration: 3^(n choose 2) candidate relations.
DEFAULT_ENUM_CAP = 5


class SizedWitness(NamedTuple):
    """A witness set together with its cardinality."""

    witness: frozenset[ElementId]
    size: int


def _require_cap(n: int, cap: int, what: str, flag: str = "--oracle-cap") -> None:
    if n > cap:
        raise InstanceTooLarge(f"{what}: instance has {n} elements, cap is {cap} (raise it with {flag})")


def _conflict_masks(P: FinitePoset) -> tuple[list[int], list[int]]:
    """Per-element bitmasks over the sorted carrier.

    Bit j of ``comp[i]`` marks that element j is comparable to (and distinct
    from) element i; ``incomp`` is the complement within the carrier.
    """
    comp = [u | d for u, d in zip(P.up, P.down)]
    full = (1 << len(comp)) - 1
    incomp = [full & ~c & ~(1 << i) for i, c in enumerate(comp)]
    return comp, incomp


def _lex_first_max_compatible(n: int, conflict: list[int]) -> int:
    """A largest subset avoiding all internal conflicts, as a mask.

    Depth-first search in ascending index order visits subsets in
    lexicographic order, so the first subset to reach a new maximum size is
    the lexicographically first of that size; pruning on the attainable size
    never discards a strictly larger subset.
    """
    best = most = 0
    stack = [(0, 0, (1 << n) - 1)]  # (chosen, its size, the candidates left)
    while stack:
        chosen, size, rest = stack.pop()
        # rest shrinks, so once a node cannot beat best, none of its later turns can
        while size + rest.bit_count() > most:
            bit = rest & -rest
            rest ^= bit
            stack.append((chosen, size, rest))  # the turns after this one
            chosen, size, rest = chosen | bit, size + 1, rest & ~conflict[bit.bit_length() - 1]
            if size > most:
                best, most = chosen, size
    return best


def max_antichain(P: FinitePoset, cap: int = DEFAULT_ORACLE_CAP) -> SizedWitness:
    """A maximum-cardinality antichain; lexicographically first among ties."""
    _require_cap(len(P), cap, "max_antichain")
    picked = _lex_first_max_compatible(len(P), _conflict_masks(P)[0])
    return SizedWitness(_ids(P, picked), picked.bit_count())


def max_chain(P: FinitePoset, cap: int = DEFAULT_ORACLE_CAP) -> SizedWitness:
    """A maximum-cardinality chain; lexicographically first among ties."""
    _require_cap(len(P), cap, "max_chain")
    picked = _lex_first_max_compatible(len(P), _conflict_masks(P)[1])
    return SizedWitness(_ids(P, picked), picked.bit_count())


def _antichain_masks(comp: list[int], cand: int, k: int, limit: int | None) -> list[int]:
    """The first ``limit`` (None: all) antichains of exactly k elements inside
    the mask ``cand``, as masks, in lexicographic order of their sorted index
    sequences; bit j of ``comp[i]`` marks j comparable to i."""
    found: list[int] = []
    stack = [(0, k, cand)] if k > 0 else []  # (chosen, elements still needed, candidates)
    while stack:
        chosen, need, rest = stack.pop()
        while need > 1 and rest.bit_count() >= need:
            bit = rest & -rest
            rest ^= bit
            stack.append((chosen, need, rest))  # the turns after this one
            chosen, need, rest = chosen | bit, need - 1, rest & ~comp[bit.bit_length() - 1]
        while need == 1 and rest:  # each candidate left completes an antichain
            found.append(chosen | rest & -rest)
            rest &= rest - 1
            if len(found) == limit:
                return found
    return found


def _min_compatible_partition(n: int, conflict: list[int]) -> list[int]:
    """Partition indices 0..n-1 into the fewest blocks with no internal
    conflicts; among minimum partitions return the one whose canonical form
    (blocks listed by smallest member) is lexicographically least.

    One depth-first search, run with at most 1, 2, ... blocks: the first
    count that admits a partition is the minimum, and that run keeps the
    canonical-least of its partitions.  Elements are placed in ascending
    index order, so blocks are always listed by their smallest member.
    """
    best_key: tuple[tuple[int, ...], ...] | None = None

    def dfs(i: int, blocks: list[int], most: int) -> None:
        nonlocal best_key
        if i == n:
            key = tuple(tuple(_indices(mask)) for mask in blocks)
            if best_key is None or key < best_key:
                best_key = key
            return
        bit = 1 << i
        for j, mask in enumerate(blocks):
            if not mask & conflict[i]:
                blocks[j] = mask | bit
                dfs(i + 1, blocks, most)
                blocks[j] = mask
        if len(blocks) < most:
            blocks.append(bit)
            dfs(i + 1, blocks, most)
            blocks.pop()

    most = 0
    while best_key is None:  # ends by most == n: singletons are always conflict-free
        most += 1
        dfs(0, [], most)
    return [sum(1 << b for b in block) for block in best_key]


def min_chain_cover(P: FinitePoset, cap: int = DEFAULT_COVER_CAP) -> ChainCover:
    """A chain cover of minimum cardinality, found by exhaustive partition
    search (any cover can be made disjoint without growing, so partitions
    suffice)."""
    _require_cap(len(P), cap, "min_chain_cover", "cap=")
    blocks = _min_compatible_partition(len(P), _conflict_masks(P)[1])
    return canonical_cover(_ids(P, mask) for mask in blocks)


def min_antichain_cover(P: FinitePoset, cap: int = DEFAULT_COVER_CAP) -> AntichainCover:
    """An antichain cover of minimum cardinality by exhaustive partition search."""
    _require_cap(len(P), cap, "min_antichain_cover", "cap=")
    blocks = _min_compatible_partition(len(P), _conflict_masks(P)[0])
    return canonical_cover(_ids(P, mask) for mask in blocks)


def enumerate_posets(n: int, cap: int = DEFAULT_ENUM_CAP) -> Iterator[FinitePoset]:
    """Every labeled partial order on {e1, ..., en}, each exactly once.

    Candidates assign each unordered pair one of {incomparable, i<j, j<i};
    antisymmetry holds by construction and transitivity is checked, so the
    survivors are exactly the strict orders, i.e. the posets.
    """
    _require_cap(n, cap, "enumerate_posets", "cap=")
    elems = sorted_ids(f"e{i + 1}" for i in range(n))
    pairs = list(combinations(range(n), 2))
    for assignment in product((0, 1, 2), repeat=len(pairs)):
        up, down = [0] * n, [0] * n
        for (i, j), state in zip(pairs, assignment):
            if state:
                lo, hi = (i, j) if state == 1 else (j, i)
                up[lo] |= 1 << hi
                down[hi] |= 1 << lo
        if not any(up[j] & ~up[i] for i in range(n) for j in _indices(up[i])):
            yield FinitePoset(elems, tuple(up), tuple(down))
