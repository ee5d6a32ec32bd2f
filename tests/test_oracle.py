"""Ground-truth searches checked against plain subset/partition scans."""

from __future__ import annotations

import random

import pytest

from posetkit import (
    build_poset,
    is_antichain,
    is_chain,
    max_antichain,
    max_chain,
    min_antichain_cover,
    min_chain_cover,
    verify_antichain_cover,
    verify_chain_cover,
)
from posetkit.errors import InstanceTooLarge
from posetkit.core import sorted_ids
from posetkit.oracle import _antichain_masks, _conflict_masks, enumerate_posets

from conftest import (
    random_poset,
    ref_all_set_partitions,
    ref_is_antichain,
    ref_is_chain,
    ref_max_antichain,
    ref_max_chain,
    ref_min_cover_size,
)


def test_max_antichain_examples(p3, total3, antichain3):
    found = max_antichain(p3)
    assert (found.witness, found.size) == (frozenset({"a", "c"}), 2)
    assert max_antichain(total3).witness == {"a"}
    assert max_antichain(antichain3).size == 3


def test_max_chain_examples(p3, total3, antichain3):
    found = max_chain(p3)
    assert (found.witness, found.size) == (frozenset({"a", "b"}), 2)
    assert max_chain(total3).witness == {"a", "b", "c"}
    assert max_chain(antichain3).witness == {"a"}


def test_min_chain_cover_examples(p3, total3, antichain3):
    assert min_chain_cover(p3) == (frozenset({"a", "b"}), frozenset({"c"}))
    assert min_chain_cover(total3) == (frozenset({"a", "b", "c"}),)
    assert min_chain_cover(antichain3) == (
        frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))


def test_min_antichain_cover_examples(p3, total3, antichain3):
    # lexicographic tie-break: {{a},{b,c}} precedes {{a,c},{b}}
    assert min_antichain_cover(p3) == (frozenset({"a"}), frozenset({"b", "c"}))
    assert min_antichain_cover(antichain3) == (frozenset({"a", "b", "c"}),)
    assert min_antichain_cover(total3) == (
        frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))


def test_caps_enforced(p3):
    with pytest.raises(InstanceTooLarge):
        max_antichain(p3, cap=2)
    with pytest.raises(InstanceTooLarge):
        min_chain_cover(p3, cap=2)
    with pytest.raises(InstanceTooLarge):
        list(enumerate_posets(6))


def test_witness_extremes_match_reference(posets_upto_4):
    for P in posets_upto_4:
        found = max_antichain(P)
        ref = ref_max_antichain(P)
        assert found.size == len(ref)
        assert found.witness == ref  # same lex-first tie-break
        found = max_chain(P)
        ref = ref_max_chain(P)
        assert found.size == len(ref)
        assert found.witness == ref


def test_witnesses_on_random_posets():
    rng = random.Random(2024)
    for _ in range(60):
        P = random_poset(rng, rng.randint(2, 8))
        a = max_antichain(P)
        assert is_antichain(P, a.witness) and a.size == len(a.witness)
        assert a.size == len(ref_max_antichain(P))
        c = max_chain(P)
        assert is_chain(P, c.witness) and c.size == len(c.witness)
        assert c.size == len(ref_max_chain(P))


def test_min_covers_match_reference(posets_upto_4):
    for P in posets_upto_4:
        cover = min_chain_cover(P)
        assert verify_chain_cover(P, cover)
        assert len(cover) == ref_min_cover_size(P, ref_is_chain)
        cover = min_antichain_cover(P)
        assert verify_antichain_cover(P, cover)
        assert len(cover) == ref_min_cover_size(P, ref_is_antichain)


@pytest.mark.parametrize("cover,predicate", [(min_chain_cover, ref_is_chain),
                                             (min_antichain_cover, ref_is_antichain)],
                         ids=["chain", "antichain"])
def test_min_covers_are_the_fewest_then_canonical_least_partition(cover, predicate):
    # every set partition into chains (antichains), ranked by its block count,
    # then by its blocks as sorted id sequences listed by smallest member
    for P in enumerate_posets(4):
        _, best = min((len(part), sorted(sorted_ids(block) for block in part))
                      for part in ref_all_set_partitions(P.elements)
                      if all(predicate(P, block) for block in part))
        assert cover(P) == tuple(frozenset(block) for block in best)


def test_cover_duality_inequalities(posets_upto_4):
    # a cover needs at least as many members as any transversal witness
    for P in posets_upto_4:
        assert max_antichain(P).size <= len(min_chain_cover(P))
        assert max_chain(P).size <= len(min_antichain_cover(P))


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_posets(1)) == 1
    assert sum(1 for _ in enumerate_posets(2)) == 3
    assert sum(1 for _ in enumerate_posets(3)) == 19


def test_enumerate_counts_match_independent_scan():
    # independent path: every subset of ordered pairs, closure-free check
    from itertools import product

    for n in (1, 2, 3, 4):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        count = 0
        for picks in product((False, True), repeat=len(pairs)):
            rel = {p for p, took in zip(pairs, picks) if took}
            if any((j, i) in rel for (i, j) in rel):
                continue
            if any((i, k) not in rel
                   for (i, j) in rel for (j2, k) in rel if j == j2 and i != k):
                continue
            count += 1
        assert sum(1 for _ in enumerate_posets(n)) == count


def test_enumerate_yields_valid_distinct_posets(posets_upto_4, posets_n5):
    assert len(posets_n5) == 4231  # labeled posets on 5 elements
    for group in (posets_upto_4, posets_n5[::37]):
        seen = set()
        for P in group:
            strict = [(x, y) for (x, y) in P.relation if x != y]
            rebuilt = build_poset(P.elements, strict)
            assert rebuilt == P
            seen.add(P.relation)
        assert len(seen) == len(group)


def antichains_of_size(P, k):
    """All size-k antichains from the mask search, as id sets."""
    masks = _antichain_masks(_conflict_masks(P)[0], (1 << len(P)) - 1, k, None)
    return [frozenset(e for i, e in enumerate(P.elements) if mask >> i & 1) for mask in masks]


def test_iter_antichains_of_size_lex_order(p3, grid2x2):
    assert antichains_of_size(p3, 2) == [
        frozenset({"a", "c"}), frozenset({"b", "c"})]
    assert antichains_of_size(grid2x2, 2) == [frozenset({"b", "c"})]
    assert antichains_of_size(p3, 4) == []


def test_iter_antichains_matches_combination_scan(posets_upto_4):
    from itertools import combinations

    for P in posets_upto_4:
        for k in range(1, len(P.elements) + 1):
            expected = [frozenset(c) for c in combinations(P.elements, k)
                        if ref_is_antichain(P, c)]
            assert antichains_of_size(P, k) == expected


def test_witness_tie_break_sampled_n5(posets_n5):
    for P in posets_n5[::19]:
        assert max_antichain(P).witness == ref_max_antichain(P)
        assert max_chain(P).witness == ref_max_chain(P)
