"""Hall condition, graph-to-poset reduction, matchings, and SDRs."""

from __future__ import annotations

import hashlib
import random
import time
from itertools import combinations, product

import pytest

from posetkit import (
    Violation,
    build_bigraph,
    dilworth,
    find_L_perfect_matching,
    find_sdr,
    formats,
    graph_to_poset,
    hall,
    hall_condition,
    max_chain,
    neighborhood,
    perles_chain_cover,
    verify_matching,
    width,
)
from posetkit.errors import InstanceTooLarge, NotASubsetOfLeft, ValidationError

from conftest import random_bigraph, ref_matching_exists, ref_sdr_search


@pytest.fixture
def k22():
    return build_bigraph(["l1", "l2"], ["r1", "r2"],
                         [(u, v) for u in ("l1", "l2") for v in ("r1", "r2")])


@pytest.fixture
def thin():
    return build_bigraph(["l1", "l2"], ["r1"], [("l1", "r1"), ("l2", "r1")])


def test_build_bigraph_validation():
    with pytest.raises(ValidationError):
        build_bigraph(["a"], ["a"], [])
    with pytest.raises(ValidationError):
        build_bigraph([], ["r"], [])
    with pytest.raises(ValidationError):
        build_bigraph(["l"], ["r"], [("r", "l")])
    with pytest.raises(ValidationError):
        build_bigraph([True], ["r"], [])


@pytest.mark.parametrize("endpoint", [["a"], True, 1.0])
def test_build_bigraph_checks_edge_endpoints_as_ids(endpoint):
    # an endpoint must pass the parts' id check: no list, bool or float
    with pytest.raises(ValidationError):
        build_bigraph([1], [2], [(endpoint, 2)])
    with pytest.raises(ValidationError):
        build_bigraph([1], [2], [(1, endpoint)])


@pytest.mark.parametrize("edge", ["lr", {"l": 0, "r": 1}, {"l", "r"}, ("l", "r", "r"), 5],
                         ids=["str", "dict", "set", "triple", "int"])
def test_a_bigraph_edge_must_be_a_tuple_or_list_of_two_ids(edge):
    with pytest.raises(ValidationError, match="is not a pair"):
        build_bigraph(["l"], ["r"], [edge])
    assert build_bigraph(["l"], ["r"], [["l", "r"]]).edges == {("l", "r")}


def test_neighborhood(k22, thin):
    assert neighborhood(thin, {"l1", "l2"}) == {"r1"}
    assert neighborhood(thin, set()) == frozenset()
    assert neighborhood(k22, {"l1"}) == {"r1", "r2"}
    with pytest.raises(NotASubsetOfLeft):
        neighborhood(k22, {"r1"})


def test_hall_condition(k22, thin):
    assert hall_condition(k22) is None
    bad = hall_condition(thin)
    assert bad == Violation(frozenset({"l1", "l2"}), 1)
    with pytest.raises(InstanceTooLarge):
        hall_condition(k22, cap=1)


def test_hall_violation_is_minimal_and_lex_first():
    G = build_bigraph(["l1", "l2", "l3"], ["r1", "r2"],
                      [("l1", "r1"), ("l2", "r1"), ("l3", "r2")])
    bad = hall_condition(G)
    assert bad == Violation(frozenset({"l1", "l2"}), 1)
    G2 = build_bigraph(["l1", "l2"], ["r1"], [("l2", "r1")])
    assert hall_condition(G2) == Violation(frozenset({"l1"}), 1)


def _ref_hall_condition(G):
    """Every left subset by size, each size in ``combinations`` order of ``G.left``."""
    nbrs = {u: {v for (x, v) in G.edges if x == u} for u in G.left}
    for k in range(1, len(G.left) + 1):
        for combo in combinations(G.left, k):
            found = len(set().union(*(nbrs[u] for u in combo)))
            if found < k:
                return Violation(frozenset(combo), k - found)
    return None


def test_pruned_violation_search_matches_the_full_enumeration():
    rng = random.Random(21)
    violations = set()
    for _ in range(200):
        G = random_bigraph(rng, rng.randint(1, 12), rng.randint(1, 12))
        bad = hall_condition(G)
        assert bad == _ref_hall_condition(G), G
        if bad is not None:
            violations.add(len(bad.members))
    assert len(violations) >= 4  # violators of several sizes, not only singletons


def test_a_large_violator_is_found_without_the_full_enumeration():
    # every proper subfamily has 19 > k elements, so each branch stops at its first member
    family = {i: set(range(19)) for i in range(20)}
    start = time.perf_counter()
    assert find_sdr(family) == Violation(frozenset(range(20)), 1)
    assert time.perf_counter() - start < 0.1


def test_graph_to_poset(k22):
    P = graph_to_poset(build_bigraph(["l1"], ["r1"], [("l1", "r1")]))
    assert P.lt("l1", "r1")
    P = graph_to_poset(build_bigraph(["l1"], ["r1"], []))
    assert not P.comparable("l1", "r1")
    P = graph_to_poset(build_bigraph(["l1"], ["r1", "r2"],
                                     [("l1", "r1"), ("l1", "r2")]))
    assert P.lt("l1", "r1") and P.lt("l1", "r2")
    assert not P.comparable("r1", "r2")


def test_the_solvers_layout_is_the_graph_poset():
    """``hall._masks``, relabeled by vertex (left vertex i is ``G.left[i]``,
    right vertex j is ``G.right[j − |L|]``), has the strict pairs of
    ``graph_to_poset``, over str, int and mixed ids, isolated vertices on
    both sides: the solvers' members-first layout is the same order."""
    rng = random.Random(13)
    isolated = set()
    for trial in range(300):
        nl, nr = rng.randint(1, 6), rng.randint(1, 6)
        ids = [(i, f"v{i}", i if rng.random() < 0.5 else f"{i}")[trial % 3] for i in range(nl + nr)]
        rng.shuffle(ids)
        left, right = ids[:nl], ids[nl:]
        G = build_bigraph(left, right, [(u, v) for u in left for v in right if rng.random() < 0.3])
        up, down = hall._masks(G.left, G.neighbours, G.right)
        vertex, strict = G.left + G.right, set(graph_to_poset(G)._strict())
        assert {(vertex[i], vertex[j]) for i, j in product(range(len(vertex)), repeat=2) if up[i] >> j & 1} == strict, G
        assert {(vertex[i], vertex[j]) for i, j in product(range(len(vertex)), repeat=2) if down[j] >> i & 1} == strict, G
        touched = {x for edge in G.edges for x in edge}
        isolated |= {"left" for u in left if u not in touched} | {"right" for v in right if v not in touched}
    assert isolated == {"left", "right"}


def test_graph_poset_height_at_most_two():
    rng = random.Random(11)
    for _ in range(30):
        G = random_bigraph(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert max_chain(graph_to_poset(G)).size <= 2


def test_right_part_is_maximum_antichain_when_hall_holds():
    rng = random.Random(12)
    for _ in range(40):
        G = random_bigraph(rng, rng.randint(1, 5), rng.randint(1, 5))
        if hall_condition(G) is None:
            assert width(graph_to_poset(G)).size == len(G.right)


def test_find_matching_examples(k22, thin):
    G = build_bigraph(["l1"], ["r1"], [("l1", "r1")])
    assert find_L_perfect_matching(G) == {("l1", "r1")}
    assert find_L_perfect_matching(thin) == Violation(frozenset({"l1", "l2"}), 1)
    G = build_bigraph(["l1", "l2"], ["r1", "r2"],
                      [("l1", "r1"), ("l1", "r2"), ("l2", "r1")])
    assert find_L_perfect_matching(G) == {("l1", "r2"), ("l2", "r1")}


def test_verify_matching(k22):
    assert verify_matching(k22, {("l1", "r1"), ("l2", "r2")})
    assert not verify_matching(k22, {("l1", "r1"), ("l2", "r1")})
    assert not verify_matching(k22, {("l1", "r1")})  # a matching, but l2 is unmatched
    assert not verify_matching(k22, [("l1", "r1"), ("l1", "r1"), ("l2", "r2")])
    assert not verify_matching(k22, {("l1", "zzz"), ("l2", "r2")})


def test_matching_equivalence_exhaustive_2x2():
    lefts, rights = ("l1", "l2"), ("r1", "r2")
    all_edges = [(u, v) for u in lefts for v in rights]
    for picks in product((False, True), repeat=4):
        edges = [e for e, take in zip(all_edges, picks) if take]
        G = build_bigraph(lefts, rights, edges)
        result = find_L_perfect_matching(G)
        if isinstance(result, Violation):
            assert hall_condition(G) is not None
            assert not ref_matching_exists(G)
            assert len(neighborhood(G, result.members)) == \
                len(result.members) - result.deficiency
        else:
            assert hall_condition(G) is None
            assert ref_matching_exists(G)
            assert verify_matching(G, result)


def test_matching_equivalence_random():
    rng = random.Random(13)
    for _ in range(60):
        G = random_bigraph(rng, rng.randint(1, 5), rng.randint(1, 5))
        result = find_L_perfect_matching(G)
        if isinstance(result, Violation):
            assert not ref_matching_exists(G)
        else:
            assert ref_matching_exists(G)
            assert verify_matching(G, result)


def test_find_sdr_examples():
    assert find_sdr({"S1": {"x"}, "S2": {"y"}}) == {"S1": "x", "S2": "y"}
    assert find_sdr({"S1": {"x"}, "S2": {"x"}}) == \
        Violation(frozenset({"S1", "S2"}), 1)
    out = find_sdr({"S1": {"x", "y"}, "S2": {"y"}, "S3": {"x", "z"}})
    assert out == {"S1": "x", "S2": "y", "S3": "z"}


def test_find_sdr_empty_cases():
    assert find_sdr({}) == {}
    assert find_sdr({"S1": frozenset()}) == Violation(frozenset({"S1"}), 1)
    assert find_sdr({"B": {"x"}, "A": frozenset(), "C": frozenset()}) == \
        Violation(frozenset({"A"}), 1)


def test_sdr_assignment_is_valid():
    family = {"S1": {"x", "y"}, "S2": {"x", "y"}, "S3": {"y", "z", "w"}}
    out = find_sdr(family)
    assert isinstance(out, dict)
    assert set(out) == set(family)
    assert all(out[nm] in family[nm] for nm in family)
    assert len(set(out.values())) == len(family)


def test_sdr_agrees_with_choice_function_search():
    rng = random.Random(14)
    universe = ["x1", "x2", "x3", "x4"]
    for _ in range(120):
        family = {
            f"S{i}": frozenset(u for u in universe if rng.random() < 0.45)
            for i in range(rng.randint(1, 6))
        }
        out = find_sdr(family)
        ref = ref_sdr_search(family)
        if isinstance(out, Violation):
            assert ref is None
            union = frozenset().union(*(family[nm] for nm in out.members))
            assert len(union) < len(out.members)
        else:
            assert ref is not None
            assert all(out[nm] in family[nm] for nm in family)
            assert len(set(out.values())) == len(family)


def test_sdr_with_integer_ground_elements():
    out = find_sdr({"A": {1, 2}, "B": {2}})
    assert out == {"A": 1, "B": 2}


def test_isolated_right_vertices_stay_unmatched():
    G = build_bigraph(["l1"], ["r1", "r2"], [("l1", "r1")])
    assert find_L_perfect_matching(G) == {("l1", "r1")}


def test_sdr_many_members_within_caps():
    # left tags must keep sorting consistently past ten members
    family = {f"S{i:02d}": {f"x{i}", f"x{i + 1}"} for i in range(12)}
    out = find_sdr(family, oracle_cap=30)
    assert isinstance(out, dict)
    assert all(out[nm] in family[nm] for nm in family)
    assert len(set(out.values())) == len(family)


def test_hall_condition_runs_only_without_an_L_perfect_matching(monkeypatch):
    # the solvers run hall_condition's search, hall._violation, and only on a failed matching
    calls = []
    search = hall._violation

    def counting(masks, names, cap):
        calls.append(names)
        return search(masks, names, cap)

    monkeypatch.setattr(hall, "_violation", counting)
    rng = random.Random(15)
    graphs = [random_bigraph(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(300)]
    violations = 0
    for G in graphs:
        calls.clear()
        violations += isinstance(find_L_perfect_matching(G), Violation)
        assert len(calls) == (0 if ref_matching_exists(G) else 1), G
    assert violations > 0


def test_subset_cap_bounds_only_the_violation_search(thin):
    # with a matching nothing is enumerated, so the cap cannot change the result
    G = build_bigraph(["l1", "l2"], ["r1", "r2"], [("l1", "r1"), ("l2", "r2")])
    assert find_L_perfect_matching(G, subset_cap=1) == find_L_perfect_matching(G)
    with pytest.raises(InstanceTooLarge, match="--subset-cap"):
        find_L_perfect_matching(thin, subset_cap=1)
    rng = random.Random(16)
    for G in (random_bigraph(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(300)):
        if ref_matching_exists(G):
            assert find_L_perfect_matching(G, subset_cap=0) == find_L_perfect_matching(G)
        else:
            with pytest.raises(InstanceTooLarge, match="--subset-cap"):
                find_L_perfect_matching(G, subset_cap=0)


def _interleaved_bigraph(rng, nl, nr):
    """A random bigraph whose string ids interleave left and right in sorted order."""
    ids = [f"v{i:02d}" for i in range(nl + nr)]
    rng.shuffle(ids)
    left, right = ids[:nl], ids[nl:]
    p = rng.choice((0.3, 0.5, 0.7))
    return build_bigraph(left, right, [(u, v) for u in left for v in right if rng.random() < p])


def _mixed_id_bigraph(rng, nl, nr, isolated):
    """A random bigraph over mixed int and str ids, plus ``isolated`` right vertices that no edge reaches."""
    ids = rng.sample(list(range(10)) + [f"v{i}" for i in range(10)], nl + nr + isolated)
    left, right = ids[:nl], ids[nl:nl + nr]
    p = rng.choice((0.3, 0.5, 0.7))
    return build_bigraph(left, ids[nl:], [(u, v) for u in left for v in right if rng.random() < p])


def _shared_id_family(rng):
    """Non-empty members whose int names are also element ids."""
    return {i: frozenset(rng.sample(range(5), rng.randint(1, 3))) for i in range(rng.randint(1, 6))}


def test_each_matching_and_sdr_call_runs_one_kuhn_matching(monkeypatch, k22):
    calls = []
    kuhn = dilworth._max_matching

    def counting(adj):
        calls.append(adj)
        return kuhn(adj)

    monkeypatch.setattr(hall, "_max_matching", counting)
    monkeypatch.setattr(dilworth, "_max_matching", counting)
    rng = random.Random(17)
    matched = set()
    for _ in range(200):
        for solve, arg in ((find_L_perfect_matching, _interleaved_bigraph(rng, rng.randint(1, 5), rng.randint(1, 5))),
                           (find_sdr, _shared_id_family(rng))):
            calls.clear()
            matched.add((solve, not isinstance(solve(arg), Violation)))
            assert len(calls) == 1, arg
    assert len(matched) == 4  # both solvers, with and without a matching
    # A matchable graph above the oracle cap still names the flag, after one matching.
    calls.clear()
    with pytest.raises(InstanceTooLarge, match=r"^perles_chain_cover: instance has 4 elements, "
                                               r"cap is 3 \(raise it with --oracle-cap\)$"):
        find_L_perfect_matching(k22, oracle_cap=3)
    assert len(calls) == 1


def _chain_cover_pairs(G):
    """The matching as the chain cover gives it: its two-element chains, left vertex first."""
    cover = perles_chain_cover(graph_to_poset(G), cap=48).cover
    return frozenset(tuple(sorted(chain, key=set(G.right).__contains__)) for chain in cover if len(chain) == 2)


def test_pairs_equal_the_two_element_chains_of_the_chain_cover():
    # The reference chain-covers graph_to_poset's interleaved layout, not the solvers' own,
    # so this also checks that the layout does not change the pairs.
    rng = random.Random(18)
    matched = 0
    for _ in range(300):
        G = _interleaved_bigraph(rng, rng.randint(1, 6), rng.randint(1, 6))
        result = find_L_perfect_matching(G)
        if isinstance(result, Violation):
            assert result == hall_condition(G), G
        else:
            assert result == _chain_cover_pairs(G), G
            matched += 1
    for _ in range(300):
        family = _shared_id_family(rng)
        ground, names = sorted(frozenset().union(*family.values())), sorted(family)
        back = ground + names
        G = build_bigraph(range(len(ground), len(back)), range(len(ground)),
                          [(len(ground) + i, ground.index(x)) for i, nm in enumerate(names) for x in family[nm]])
        result = find_sdr(family)
        if isinstance(result, Violation):
            bad = hall_condition(G)
            assert result == Violation(frozenset(back[u] for u in bad.members), bad.deficiency), family
        else:
            assert result == {back[u]: back[v] for u, v in _chain_cover_pairs(G)}, family
            matched += 1
    assert 150 < matched < 550
    # Where the two layouts differ most: isolated right vertices and mixed int and str ids.
    matched = 0
    for _ in range(300):
        G = _mixed_id_bigraph(rng, rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 2))
        result = find_L_perfect_matching(G)
        if isinstance(result, Violation):
            assert result == hall_condition(G), G
        else:
            assert result == _chain_cover_pairs(G), G
            matched += 1
    assert 50 < matched < 250


# --- byte identity of the certificates ------------------------------------------


def _cycle_bigraph(rng, k, drop_right=False):
    """l_i is adjacent to r_i and r_{i+1 mod k}, under shuffled labels; Hall's
    condition holds, and fails on L itself once a right vertex is dropped."""
    left = [f"l{i:02d}" for i in range(k)]
    right = [f"r{i:02d}" for i in range(k)]
    rng.shuffle(left)
    rng.shuffle(right)
    edges = [(left[i], right[j % k]) for i in range(k) for j in (i, i + 1)]
    if drop_right:
        edges = [(u, v) for (u, v) in edges if v != right[0]]
        right = right[1:]
    return build_bigraph(left, right, edges)


# sha256 of the matching and SDR certificates that the exhaustive Hall
# check followed by a width-checked disjointification wrote for the corpus
# below: the criterion-5 graphs, the criterion-6 families and cycle bigraphs
# with |L| = 10..16.
MATCHING_SDR_SHA256 = "f79fcdbd9b4b3a19677a9907c0dae40e7c765fcc46a62c324e394b56e1d6d834"


def test_matching_and_sdr_certificates_are_byte_identical():
    lefts, rights = ("l1", "l2", "l3"), ("r1", "r2", "r3")
    all_edges = [(u, v) for u in lefts for v in rights]
    graphs = [(build_bigraph(lefts, rights, [e for e, take in zip(all_edges, picks) if take]), 20)
              for picks in product((False, True), repeat=9)]
    rng = random.Random(20260811)
    graphs += [(random_bigraph(rng, rng.randint(1, 6), rng.randint(1, 6)), 20) for _ in range(500)]
    rng = random.Random(4)
    graphs += [(_cycle_bigraph(rng, k), 24) for k in range(10, 17)]
    graphs += [(_cycle_bigraph(rng, k, drop_right=True), 24) for k in range(10, 13)]

    universe = ["x1", "x2", "x3", "x4"]
    subsets = [frozenset(c) for k in range(5) for c in combinations(universe, k)]
    families = [{f"S{i + 1}": s for i, s in enumerate(member_sets)}
                for size in (1, 2, 3, 4) for member_sets in product(subsets, repeat=size)]
    rng = random.Random(20260812)
    wide = [f"y{i}" for i in range(6)]
    families += [{f"S{i}": frozenset(u for u in wide if rng.random() < 0.4)
                  for i in range(rng.randint(5, 8))} for _ in range(200)]

    digest = hashlib.sha256()
    for G, subset_cap in graphs:
        result = find_L_perfect_matching(G, subset_cap=subset_cap, oracle_cap=48)
        digest.update(formats.canonical_json(formats.matching_certificate(result, True)).encode())
    for family in families:
        cert = formats.sdr_certificate(find_sdr(family), True)
        digest.update(formats.canonical_json(cert).encode())
    assert (len(graphs), len(families)) == (1022, 70104)
    assert digest.hexdigest() == MATCHING_SDR_SHA256
