"""Sequence-to-poset reduction and monotone subsequence extraction."""

from __future__ import annotations

import bisect
import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetkit import (
    DECREASING,
    INCREASING,
    SubseqWitness,
    erdos_szekeres,
    es_subsequence,
    height,
    is_antichain,
    is_chain,
    pre_es,
    seq_from_list,
    seq_to_poset,
    verify_subseq,
    width,
)
from posetkit.core import build_poset
from posetkit.errors import (
    DuplicateValue,
    EmptyInput,
    InstanceTooLarge,
    ValidationError,
    WrongCardinality,
)

from conftest import nonempty_subsets, ref_monotone_subseq_exists


def test_seq_from_list():
    s = seq_from_list([5])
    assert s.items == (5,)
    s = seq_from_list([3, 1, 2])
    assert s.items == (3, 1, 2)
    with pytest.raises(DuplicateValue):
        seq_from_list([1, 1])
    with pytest.raises(DuplicateValue, match="value 1 occurs"):  # the first, in input order
        seq_from_list([1, 2, 2, 1])
    with pytest.raises(EmptyInput):
        seq_from_list([])


def test_a_duplicate_value_in_a_long_sequence_is_named_in_linear_time():
    # the repeat comes last, so a per-value count would scan the sequence 50,000 times
    start = time.perf_counter()
    with pytest.raises(DuplicateValue, match="value 49999 occurs"):
        seq_from_list(list(range(50_000)) + [49_999])
    assert time.perf_counter() - start < 2


def test_seq_to_poset_examples():
    P = seq_to_poset(seq_from_list([1, 2, 3]))
    assert P.lt(1, 2) and P.lt(2, 3) and P.lt(1, 3)
    P = seq_to_poset(seq_from_list([3, 2, 1]))
    assert not any(P.lt(x, y) for x in (1, 2, 3) for y in (1, 2, 3))
    P = seq_to_poset(seq_from_list([2, 1, 3]))
    assert P.lt(1, 3) and P.lt(2, 3) and not P.comparable(1, 2)


def test_seq_to_poset_equals_the_closed_pair_set():
    rng = random.Random(22)
    for _ in range(500):
        s = seq_from_list(rng.sample(range(-30, 30), rng.randint(1, 40)))
        pairs = {(x, y) for i, x in enumerate(s.items) for y in s.items[i + 1:] if x < y}
        assert seq_to_poset(s) == build_poset(s.values, pairs), s


def test_seq_to_poset_builds_thousands_of_values_without_the_pair_set():
    s = seq_from_list(random.Random(23).sample(range(10**6), 4000))
    start = time.perf_counter()
    P = seq_to_poset(s)
    assert time.perf_counter() - start < 0.5
    first, last = s.items[0], s.items[-1]
    assert P.lt(first, last) == (first < last)


def test_chains_are_increasing_antichains_decreasing():
    # exhaustively on all short permutations
    for n in range(1, 6):
        for perm in permutations(range(1, n + 1)):
            s = seq_from_list(list(perm))
            P = seq_to_poset(s)
            for S in nonempty_subsets(perm):
                inc = all(a < b for a, b in zip(S, S[1:]))
                dec = all(a > b for a, b in zip(S, S[1:]))
                assert is_chain(P, set(S)) == inc
                assert is_antichain(P, set(S)) == dec


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(1, 9))))
def test_extremes_match_monotone_runs_sampled(perm):
    from posetkit import max_antichain, max_chain

    s = seq_from_list(list(perm))
    P = seq_to_poset(s)
    assert max_chain(P).size == longest_monotone_run(perm, increasing=True)
    assert max_antichain(P).size == longest_monotone_run(perm, increasing=False)


def longest_monotone_run(perm, increasing):
    """Longest monotone subsequence by quadratic dynamic programming."""
    best = [1] * len(perm)
    for i in range(len(perm)):
        for j in range(i):
            if (perm[j] < perm[i]) == increasing and perm[j] != perm[i]:
                best[i] = max(best[i], best[j] + 1)
    return max(best)


def test_pre_es_antichain_branch():
    P = build_poset("abc", ())
    out = pre_es(P, 1, 2)
    assert out.kind == "antichain" and len(out.elements) == 3


def test_pre_es_chain_branch():
    P = build_poset("abc", {("a", "b"), ("b", "c")})
    out = pre_es(P, 2, 1)
    assert out.kind == "chain" and out.elements == {"a", "b", "c"}


def test_pre_es_on_sequence_poset():
    P = seq_to_poset(seq_from_list([3, 4, 1, 2, 5]))
    out = pre_es(P, 2, 2)
    assert out.kind == "chain" and len(out.elements) >= 3


def test_pre_es_errors(p3):
    with pytest.raises(WrongCardinality):
        pre_es(p3, 1, 1)  # needs 2 elements
    with pytest.raises(WrongCardinality):
        pre_es(p3, -1, 1)
    with pytest.raises(InstanceTooLarge):
        pre_es(p3, 1, 2, cap=2)


def test_es_subsequence_examples():
    s = seq_from_list([3, 4, 1, 2, 5])
    w = es_subsequence(s, 2, 2)
    assert w.kind == INCREASING
    assert len(w.subsequence) == 3
    assert w.subsequence.items == (1, 2, 5)  # deterministic solver trace
    assert verify_subseq(s, w)
    assert not ref_monotone_subseq_exists([3, 4, 1, 2, 5], 3, increasing=False)

    w = es_subsequence(seq_from_list([2, 1]), 1, 1)
    assert w.kind == DECREASING and w.subsequence.items == (2, 1)
    w = es_subsequence(seq_from_list([1, 2]), 1, 1)
    assert w.kind == INCREASING and w.subsequence.items == (1, 2)


def test_es_subsequence_refuses_an_over_cap_sequence_before_building_its_poset(monkeypatch):
    def no_poset(s):
        raise AssertionError("seq_to_poset ran on an over-cap sequence")

    monkeypatch.setattr(erdos_szekeres, "seq_to_poset", no_poset)
    s = seq_from_list(random.Random(5).sample(range(10_000), 3001))
    with pytest.raises(InstanceTooLarge, match=r"^width: instance has 3001 elements, cap is 20 "
                                               r"\(raise it with --oracle-cap\)$"):
        es_subsequence(s, 60, 50)
    with pytest.raises(WrongCardinality):  # the cardinality is still checked first
        es_subsequence(s, 60, 49)


def test_es_subsequence_wrong_cardinality():
    with pytest.raises(WrongCardinality):
        es_subsequence(seq_from_list([1, 2, 3]), 2, 2)


def test_es_all_permutations_of_four_with_m3_n1():
    for perm in permutations((1, 2, 3, 4)):
        s = seq_from_list(list(perm))
        w = es_subsequence(s, 3, 1)
        assert verify_subseq(s, w)
        expected = 4 if w.kind == INCREASING else 2
        assert len(w.subsequence) == expected


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (6, 1), (1, 6)])
def test_es_all_permutations_of_seven(m, n):
    for perm in permutations(range(1, 8)):
        s = seq_from_list(list(perm))
        w = es_subsequence(s, m, n)
        target = m + 1 if w.kind == INCREASING else n + 1
        assert len(w.subsequence) == target
        assert verify_subseq(s, w)


def test_verify_subseq():
    s = seq_from_list([3, 4, 1, 2, 5])
    assert verify_subseq(s, SubseqWitness(INCREASING, seq_from_list([3, 4, 5])))
    assert not verify_subseq(s, SubseqWitness(INCREASING, seq_from_list([4, 3])))
    assert not verify_subseq(s, SubseqWitness(DECREASING, seq_from_list([1, 2])))
    assert not verify_subseq(s, SubseqWitness(INCREASING, seq_from_list([3, 9])))
    # order must come from the parent: 1 precedes 2 there, not 2, 1
    assert not verify_subseq(s, SubseqWitness(DECREASING, seq_from_list([2, 1])))
    # in parent order, but falling
    assert not verify_subseq(s, SubseqWitness(INCREASING, seq_from_list([4, 1])))
    with pytest.raises(ValidationError, match="unknown witness kind 'sideways'"):
        verify_subseq(s, SubseqWitness("sideways", seq_from_list([3])))


def test_tightness_of_the_cardinality_precondition():
    # a length-4 sequence can avoid both monotone length-3 subsequences
    probe = [2, 1, 4, 3]
    assert not ref_monotone_subseq_exists(probe, 3, increasing=True)
    assert not ref_monotone_subseq_exists(probe, 3, increasing=False)


def patience_length(items):
    """Longest increasing subsequence by patience sorting: ``tops[k]`` is the
    least last value of an increasing run of k + 1 values so far."""
    tops: list[int] = []
    for v in items:
        i = bisect.bisect_left(tops, v)
        tops[i:i + 1] = [v]
    return len(tops)


def _assert_monotone_witness(s, witness, size, increasing):
    run = [v for v in s.items if v in witness]
    assert len(run) == size
    assert all((a < b) == increasing for a, b in zip(run, run[1:])), run


def test_height_and_width_match_patience_sorting_above_the_cap():
    """Above the oracle's cap the solvers are checked against a second
    method: a chain of the sequence poset is an increasing subsequence and
    an antichain a decreasing one, so patience sorting gives both sizes."""
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(100, 300)
        s = seq_from_list(rng.sample(range(4 * n), n))
        h = height(seq_to_poset(s))
        assert h.size == patience_length(s.items)
        _assert_monotone_witness(s, h.witness, h.size, increasing=True)
    for _ in range(100):
        n = rng.randint(21, 60)
        s = seq_from_list(rng.sample(range(4 * n), n))
        w = width(seq_to_poset(s), cap=n)
        assert w.size == patience_length([-v for v in s.items])
        _assert_monotone_witness(s, w.witness, w.size, increasing=False)
