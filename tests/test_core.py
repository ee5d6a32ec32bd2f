"""Construction, predicates, and structural primitives of finite posets."""

from __future__ import annotations

import re
import time
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetkit import (
    build_poset,
    is_antichain,
    is_chain,
    maximal_above,
    maximal_elements,
    minimal_below,
    minimal_elements,
    restrict,
    verify_antichain_cover,
    verify_chain_cover,
)
from posetkit.core import id_key, sorted_ids
from posetkit.errors import (
    CycleDetected,
    ElementNotInCarrier,
    EmptyCarrier,
    NotASubset,
    ValidationError,
)

from conftest import nonempty_subsets, ref_is_antichain, ref_is_chain, ref_reach


def test_build_singleton():
    P = build_poset({"a"}, ())
    assert P.relation == frozenset({("a", "a")})


def test_build_p3_closure(p3):
    # reflexive closure of a single edge, nothing else
    assert p3.relation == frozenset(
        {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b")})


def test_build_cycle_rejected():
    with pytest.raises(CycleDetected):
        build_poset({"a", "b"}, {("a", "b"), ("b", "a")})
    with pytest.raises(CycleDetected):
        build_poset({"a", "b", "c"}, {("a", "b"), ("b", "c"), ("c", "a")})


def test_build_empty_rejected():
    with pytest.raises(EmptyCarrier):
        build_poset((), ())


def test_build_validation_errors():
    with pytest.raises(ValidationError):
        build_poset(["a", "a"], ())
    with pytest.raises(ValidationError, match="duplicate id 'x' in carrier"):  # the first, in input order
        build_poset(["x", "y", "y", "x"], ())
    with pytest.raises(ValidationError):
        build_poset(["a"], [("a", "zzz")])
    with pytest.raises(ValidationError):
        build_poset([None], ())


@pytest.mark.parametrize("endpoint", [["a"], True, 1.0])
def test_build_checks_edge_endpoints_as_ids(endpoint):
    # an endpoint must pass the carrier's id check: no list, bool or float
    with pytest.raises(ValidationError):
        build_poset([1, 2, "a"], [(endpoint, 2)])
    with pytest.raises(ValidationError):
        build_poset([1, 2, "a"], [(2, endpoint)])


def test_a_duplicate_id_in_a_large_carrier_is_named_in_linear_time():
    # the repeat comes last, so a per-element count would scan the carrier 50,000 times
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="duplicate id 49999 in carrier"):
        build_poset(list(range(50_000)) + [49_999], ())
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("edge", ["ab", {"a": 0, "b": 1}, {"a", "b"}, ("a", "b", "a"), 5],
                         ids=["str", "dict", "set", "triple", "int"])
def test_an_edge_must_be_a_tuple_or_list_of_two_ids(edge):
    with pytest.raises(ValidationError, match="is not a pair"):
        build_poset(["a", "b"], [edge])
    assert build_poset(["a", "b"], [["a", "b"]]) == build_poset(["a", "b"], [("a", "b")])


def test_equal_posets_compare_and_hash_equal_whatever_they_cached():
    P, Q = build_poset("ab", [("a", "b")]), build_poset("ab", [("a", "b")])
    assert "a" in P  # reads P.carrier, which P then keeps
    assert "carrier" in vars(P) and "carrier" not in vars(Q)
    assert P == Q and hash(P) == hash(Q)


def test_build_transitive_closure():
    P = build_poset("abc", {("a", "b"), ("b", "c")})
    assert P.le("a", "c")
    assert P.lt("a", "c") and not P.lt("a", "a")


def test_is_chain(p3):
    assert is_chain(p3, {"a", "b"})
    assert not is_chain(p3, {"a", "c"})
    assert not is_chain(p3, set())
    assert not is_chain(p3, {"a", "zzz"})


def test_is_antichain(p3):
    assert is_antichain(p3, {"b", "c"})
    assert not is_antichain(p3, {"a", "b"})
    assert is_antichain(p3, {"a"})
    assert not is_antichain(p3, set())


def test_minimal_maximal(p3, total3, antichain3):
    assert minimal_elements(p3) == {"a", "c"}
    assert maximal_elements(p3) == {"b", "c"}
    assert minimal_elements(total3) == {"a"}
    assert maximal_elements(total3) == {"c"}
    assert minimal_elements(antichain3) == {"a", "b", "c"}
    assert maximal_elements(antichain3) == {"a", "b", "c"}


def test_minimal_below(p3, total3):
    assert minimal_below(p3, "b") == "a"
    assert minimal_below(p3, "c") == "c"
    assert minimal_below(total3, "c") == "a"
    with pytest.raises(ElementNotInCarrier):
        minimal_below(p3, "zzz")


def test_maximal_above(p3, total3):
    assert maximal_above(p3, "a") == "b"
    assert maximal_above(p3, "c") == "c"
    assert maximal_above(total3, "a") == "c"
    with pytest.raises(ElementNotInCarrier):
        maximal_above(p3, "zzz")


def test_restrict(p3):
    Q = restrict(p3, {"a", "c"})
    assert Q.elements == ("a", "c")
    assert not Q.comparable("a", "c")
    assert restrict(p3, {"a", "b", "c"}) == p3
    with pytest.raises(EmptyCarrier):
        restrict(p3, set())
    with pytest.raises(NotASubset):
        restrict(p3, {"a", "zzz"})


def test_verify_chain_cover(p3):
    assert verify_chain_cover(p3, [{"a", "b"}, {"c"}])
    assert verify_chain_cover(p3, [{"a"}, {"b"}, {"c"}, {"a", "b"}])
    assert not verify_chain_cover(p3, [{"a", "b"}])
    assert not verify_chain_cover(p3, [])


def test_verify_antichain_cover(p3):
    assert verify_antichain_cover(p3, [{"a", "c"}, {"b"}])
    assert not verify_antichain_cover(p3, [{"a", "b"}, {"c"}])
    single = build_poset({"a"}, ())
    assert verify_antichain_cover(single, [{"a"}])


def test_predicates_match_reference(posets_upto_4):
    for P in posets_upto_4:
        for S in nonempty_subsets(P.elements):
            assert is_chain(P, set(S)) == ref_is_chain(P, S)
            assert is_antichain(P, set(S)) == ref_is_antichain(P, S)


def test_chain_antichain_share_at_most_one(posets_upto_4):
    # chains and antichains intersect in at most one element
    for P in posets_upto_4:
        subsets = list(nonempty_subsets(P.elements))
        chains = [set(S) for S in subsets if is_chain(P, set(S))]
        antichains = [set(S) for S in subsets if is_antichain(P, set(S))]
        for C in chains:
            for A in antichains:
                assert len(C & A) <= 1


def test_extremal_sets_are_nonempty_antichains(posets_upto_4):
    for P in posets_upto_4:
        for S in (minimal_elements(P), maximal_elements(P)):
            assert S
            assert is_antichain(P, S)


def test_extremal_witnesses_for_every_element(posets_upto_4):
    for P in posets_upto_4:
        for y in P.elements:
            x = minimal_below(P, y)
            assert P.le(x, y) and x in minimal_elements(P)
            z = maximal_above(P, y)
            assert P.le(y, z) and z in maximal_elements(P)


def test_restrict_is_monotone(p3, grid2x2):
    for P in (p3, grid2x2):
        elems = list(P.elements)
        for big in nonempty_subsets(elems):
            for small in nonempty_subsets(big):
                assert restrict(restrict(P, set(big)), set(small)) == \
                    restrict(P, set(small))


def _assert_order_axioms(P):
    for x in P.elements:
        assert P.le(x, x)
    for x, y in permutations(P.elements, 2):
        assert not (P.le(x, y) and P.le(y, x))
    for x in P.elements:
        for y in P.elements:
            for z in P.elements:
                if P.le(x, y) and P.le(y, z):
                    assert P.le(x, z)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_build_poset_satisfies_order_axioms(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    names = [f"x{i}" for i in range(n)]
    edges = data.draw(st.sets(
        st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=12))
    try:
        P = build_poset(names, edges)
    except CycleDetected:
        return
    _assert_order_axioms(P)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_build_poset_is_the_exact_closure(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    names = [f"x{i}" for i in range(n)]
    edges = data.draw(st.sets(
        st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=16))
    reach = ref_reach(names, edges)
    if all(x == y or (y, x) not in reach for (x, y) in reach):
        assert build_poset(names, edges).relation == reach
        return
    with pytest.raises(CycleDetected) as caught:
        build_poset(names, edges)
    # The diagnostic names two elements of one cycle.
    x, y = re.fullmatch(r"cycle through '(\w+)' and '(\w+)'", str(caught.value)).groups()
    assert x != y and (x, y) in reach and (y, x) in reach


class _Name(str):
    pass


class _Rank(int):
    pass


_ints, _strs = st.integers(-50, 50), st.text(max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_ints), st.lists(_strs), st.lists(st.one_of(_ints, _strs))))
def test_sorted_ids_is_the_id_key_order(xs):
    """All-int and all-str ids skip the key; any mix sorts by ``id_key``."""
    assert sorted_ids(xs) == tuple(sorted(xs, key=id_key))


@pytest.mark.parametrize("xs", [
    [_Name("b"), _Name("a")],
    [_Name("b"), "a", _Name("c")],
    [_Rank(3), 1, _Rank(2)],
    [_Rank(2), _Name("a"), 1, "b"],
])
def test_sorted_ids_orders_str_and_int_subclasses(xs):
    out = sorted_ids(xs)
    assert out == tuple(sorted(xs, key=id_key))
    assert list(map(type, out)) == list(map(type, sorted(xs, key=id_key)))


def test_restrict_keeps_the_pairs_inside(posets_upto_4):
    for P in posets_upto_4:
        for S in map(set, nonempty_subsets(P.elements)):
            assert restrict(P, S).relation == frozenset(
                (x, y) for (x, y) in P.relation if x in S and y in S)


@pytest.mark.parametrize("shape", ["chain", "antichain"])
def test_build_poset_of_1000_elements_stays_small(shape):
    """The order is held as one up and one down mask per element, not as its
    pairs: a 1,000-element chain has 500,500 of them."""
    names = [f"c{i:04d}" for i in range(1000)]
    edges = list(zip(names, names[1:])) if shape == "chain" else []
    tracemalloc.start()
    try:
        P = build_poset(names, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    first, last = names[0], names[-1]
    if shape == "chain":
        assert P.le(first, last) and not P.le(last, first)
        assert (minimal_elements(P), maximal_elements(P)) == ({first}, {last})
    else:
        assert not P.comparable(first, last)
        assert minimal_elements(P) == maximal_elements(P) == P.carrier


def test_order_axioms_on_enumerated(posets_upto_4):
    for P in posets_upto_4:
        _assert_order_axioms(P)


def test_mixed_id_types_sort_deterministically():
    P = build_poset([3, "a", 1, "b"], {(1, "a")})
    assert P.elements == (1, 3, "a", "b")
    assert minimal_below(P, "a") == 1


def test_ids_and_edges_of_subclasses_build_the_plain_poset():
    class Name(str):
        pass

    class Num(int):
        pass

    class Pair(tuple):
        pass

    P = build_poset([Num(3), Name("a"), 1, "b"], [Pair((1, Name("a"))), (Num(3), "b"), ["a", "b"]])
    assert P == build_poset([3, "a", 1, "b"], [(1, "a"), (3, "b"), ["a", "b"]])
