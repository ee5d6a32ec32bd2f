"""The chain-cover solver and the disjointification step."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from posetkit import (
    build_poset,
    formats,
    canonical_cover,
    check_dilworth,
    dilworth,
    disjointify_cover,
    find_sdr,
    is_antichain,
    max_antichain,
    min_chain_cover,
    oracle,
    perles_chain_cover,
    pre_es,
    restrict,
    verify_chain_cover,
    width,
)
from posetkit.core import _extremal, _ids, _indices
from posetkit.dilworth import _chains, _max_matching
from posetkit.errors import InstanceTooLarge, NotASmallestCover

from conftest import grid, random_poset, sparse_corpus, sparse_poset, standard_example


def assert_certifies(P, cert):
    assert is_antichain(P, cert.antichain_witness)
    assert len(cert.antichain_witness) == cert.width
    assert verify_chain_cover(P, cert.cover)
    assert len(cert.cover) == cert.width


def test_width_examples(p3, total3, antichain3):
    assert width(p3).witness == {"a", "c"}
    assert width(total3).size == 1
    assert width(antichain3).size == 3


def test_perles_p3(p3):
    cert = perles_chain_cover(p3)
    assert cert.width == 2
    assert cert.cover == (frozenset({"a", "b"}), frozenset({"c"}))
    assert_certifies(p3, cert)


def test_perles_singleton():
    P = build_poset({"a"}, ())
    cert = perles_chain_cover(P)
    assert cert.width == 1 and cert.cover == (frozenset({"a"}),)


def test_perles_grid(grid2x2):
    cert = perles_chain_cover(grid2x2)
    assert cert.width == 2
    assert cert.cover == (frozenset({"a", "b", "d"}), frozenset({"c"}))
    assert_certifies(grid2x2, cert)
    assert len(min_chain_cover(grid2x2)) == 2


def test_perles_cap(grid2x2):
    with pytest.raises(InstanceTooLarge):
        perles_chain_cover(grid2x2, cap=3)


@pytest.mark.parametrize("solve, what", [
    (width, "width"),
    (perles_chain_cover, "perles_chain_cover"),
    (lambda P, cap: pre_es(P, 2, 2, cap), "width"),
])
def test_each_perles_entry_point_refuses_above_its_cap_before_matching(monkeypatch, solve, what):
    """``width``, ``perles_chain_cover`` and ``pre_es`` refuse at cap n − 1,
    under their own label, before Kuhn's matching runs; at cap n they solve."""
    calls = []
    kuhn = dilworth._max_matching

    def counting(adj):
        calls.append(adj)
        return kuhn(adj)

    monkeypatch.setattr(dilworth, "_max_matching", counting)
    P = build_poset("abcde", [("a", "b"), ("b", "c"), ("d", "e")])  # r * s + 1 = 5 for r = s = 2
    with pytest.raises(InstanceTooLarge, match=rf"^{what}: instance has 5 elements, "
                                               r"cap is 4 \(raise it with --oracle-cap\)$"):
        solve(P, 4)
    assert calls == []
    solve(P, 5)
    assert len(calls) == 1


def test_perles_equality_exhaustive(posets_upto_4):
    for P in posets_upto_4:
        cert = perles_chain_cover(P)
        assert_certifies(P, cert)
        assert cert.width == max_antichain(P).size == len(min_chain_cover(P))


def test_perles_equality_random():
    rng = random.Random(7)
    for _ in range(40):
        P = random_poset(rng, rng.randint(5, 9))
        cert = perles_chain_cover(P)
        assert_certifies(P, cert)
        assert len(cert.cover) == max_antichain(P).size


def test_perles_equality_exhaustive_n5(posets_n5):
    for P in posets_n5:
        cert = perles_chain_cover(P)
        assert cert.width == max_antichain(P).size == len(min_chain_cover(P))
        assert verify_chain_cover(P, cert.cover)


def test_largest_antichain_survives_restriction(posets_upto_4):
    # a maximum antichain stays maximum in any sub-poset containing it
    for P in posets_upto_4[::7]:
        A = max_antichain(P).witness
        others = [x for x in P.elements if x not in A]
        for k in range(len(others) + 1):
            for extra in combinations(others, k):
                S = A | set(extra)
                assert max_antichain(restrict(P, S)).size == len(A)


def test_disjointify_already_disjoint(p3):
    cover = (frozenset({"a", "b"}), frozenset({"c"}))
    assert disjointify_cover(p3, cover) == cover


def test_disjointify_rejects_oversized_cover(p3):
    # a cover of size 4 on a width-2 poset cannot be made disjoint at size 4
    cover = canonical_cover([{"a"}, {"b"}, {"c"}, {"a", "b"}])
    assert verify_chain_cover(p3, cover)
    with pytest.raises(NotASmallestCover):
        disjointify_cover(p3, cover)


def test_disjointify_rejects_non_cover(p3):
    with pytest.raises(NotASmallestCover):
        disjointify_cover(p3, (frozenset({"a", "b"}),))


def test_disjointify_keeps_a_disjoint_cover_that_is_not_smallest(p3):
    # three singletons on a width-2 poset: nothing to take apart, nothing emptied
    cover = canonical_cover([{"a"}, {"b"}, {"c"}])
    assert disjointify_cover(p3, cover) == cover


def test_disjointify_rejects_non_cover_above_the_oracle_cap():
    # 25 elements: the check that the input is a chain cover runs at any size
    P = build_poset(range(25), [(i, i + 1) for i in range(0, 24, 2)])
    cover = canonical_cover([{i, i + 1} for i in range(0, 22, 2)] + [{24}])
    with pytest.raises(NotASmallestCover):
        disjointify_cover(P, cover)


def test_disjointify_total_order():
    P = build_poset("ab", {("a", "b")})
    assert disjointify_cover(P, (frozenset({"a", "b"}),)) == (frozenset({"a", "b"}),)


def test_disjointify_overlapping_smallest_cover():
    # both chains pass through b; a smallest cover may overlap, its
    # disjointification may not
    P = build_poset("abc", {("a", "b"), ("c", "b")})
    cover = canonical_cover([{"a", "b"}, {"b", "c"}])
    assert verify_chain_cover(P, cover)
    out = disjointify_cover(P, cover)
    assert len(out) == 2
    assert verify_chain_cover(P, out)
    blocks = list(out)
    assert not blocks[0] & blocks[1]
    for block in blocks:
        assert any(block <= chain for chain in cover)


def test_disjointify_perles_output(posets_upto_4):
    for P in posets_upto_4:
        cert = perles_chain_cover(P)
        out = disjointify_cover(P, cert.cover)
        assert len(out) == len(cert.cover)
        assert verify_chain_cover(P, out)
        seen = set()
        for block in out:
            assert not block & seen
            seen |= block
            assert any(block <= chain for chain in cert.cover)


def test_check_dilworth(p3, posets_upto_4):
    report = check_dilworth(p3)
    assert (report.width, report.cover_size, report.equal) == (2, 2, True)
    for P in posets_upto_4[::11]:
        assert check_dilworth(P).equal


# --- the width from Fulkerson's matching ---------------------------------------


def test_matching_width_equals_oracle_width(seeded_posets):
    """Kuhn's matching on the strict up-masks leaves n - |M| chains: a chain
    cover whose size is the width."""
    for P in seeded_posets:
        matching = _max_matching(P.up)
        chains = _chains(matching, len(P))
        assert len(P) - len(matching) == len(chains) == max_antichain(P).size
        cover = [_ids(P, chain) for chain in chains]
        assert sorted(i for chain in chains for i in _indices(chain)) == list(range(len(P)))
        assert verify_chain_cover(P, cover)


def _textbook_kuhn(adj):
    """Kuhn's method as it is usually written: each root in index order runs
    a recursive search that tries its neighbours lowest first, taking a free
    one or the one whose owner finds another; a left vertex is tried at most
    once per root."""
    owner = {}

    def augment(x, used):
        if x in used:
            return False
        used.add(x)
        for y in _indices(adj[x]):
            if y not in owner or augment(owner[y], used):
                owner[y] = x
                return True
        return False

    for root in range(len(adj)):
        augment(root, set())
    return owner


def test_kuhn_matching_is_the_textbook_one(seeded_posets):
    """The matching itself, not only its size, is pinned: the chains that
    Perles' prune and the width's dual are read from depend on which one."""
    rng = random.Random(15)
    lists = []
    for _ in range(3000):
        n, right, p = rng.randint(0, 12), rng.randint(1, 12), rng.random()
        lists.append([sum(1 << y for y in range(right) if rng.random() < p) for _ in range(n)])
    for adj in lists + [P.up for P in seeded_posets]:
        assert _max_matching(adj) == _textbook_kuhn(adj), adj


def test_perles_witness_is_the_oracle_witness(seeded_posets):
    for P in seeded_posets:
        cert = perles_chain_cover(P)
        top = max_antichain(P)
        assert (cert.width, cert.antichain_witness) == (top.size, top.witness)


@pytest.mark.parametrize("n", [30, 45, 60, 100, 150])
def test_perles_width_above_cap_matches_networkx(n):
    nx = pytest.importorskip("networkx")
    rng = random.Random(n)
    names = [f"v{i}" for i in range(n)]
    P = build_poset(names, [(names[i], names[j]) for i in range(n)
                            for j in range(i + 1, n) if rng.random() < 0.05])
    split = nx.Graph()
    split.add_nodes_from((x, "-") for x in names)
    split.add_nodes_from((y, "+") for y in names)
    split.add_edges_from(((x, "-"), (y, "+")) for (x, y) in P.relation if x != y)
    matching = nx.bipartite.hopcroft_karp_matching(split, top_nodes=[(x, "-") for x in names])
    cert = perles_chain_cover(P, cap=n)
    assert cert.width == n - len(matching) // 2
    assert_certifies(P, cert)


# --- the small-carrier rule ----------------------------------------------------


def test_small_carriers_have_only_extremal_maximum_antichains(posets_upto_4, posets_n5):
    """On a carrier S with |S| <= width(S) + 1 every maximum antichain is the
    minimal or the maximal elements of S, so Perles' case 2 needs no search."""
    carriers = 0
    for P in posets_upto_4 + posets_n5:
        up, down = P.up, P.down
        comp = [u | d for u, d in zip(up, down)]
        for S in range(1, 1 << len(P)):
            size = S.bit_count()
            # width(S) >= |S| - 1 exactly when one of these searches finds some
            found = (oracle._antichain_masks(comp, S, size, 3)
                     or oracle._antichain_masks(comp, S, size - 1, 3))
            if not found:
                continue
            carriers += 1
            bits = [i for i in range(len(P)) if S >> i & 1]
            min_set = sum(1 << i for i in bits if not down[i] & S)
            max_set = sum(1 << i for i in bits if not up[i] & S)
            assert set(found) <= {min_set, max_set}, (P, bin(S))
    assert carriers == 103_909


def test_extremal_antichains_are_told_by_their_down_and_up_masks(posets_upto_4, posets_n5):
    """A size-width(S) antichain c of a carrier S is S's minimal elements
    exactly when nothing of S lies below c, and its maximal elements exactly
    when nothing of S lies above it; ``_split``, told both sets, rejects just
    those two."""
    antichains = 0
    for P in posets_upto_4 + posets_n5:
        up, down = P.up, P.down
        comp = [u | d for u, d in zip(up, down)]
        for S in range(1, 1 << len(P)):
            k = S.bit_count()
            while not (found := oracle._antichain_masks(comp, S, k, None)):
                k -= 1
            bits = [i for i in range(len(P)) if S >> i & 1]
            min_set = sum(1 << i for i in bits if not down[i] & S)
            max_set = sum(1 << i for i in bits if not up[i] & S)
            for c in found:
                antichains += 1
                below = above = 0
                for i in range(len(P)):
                    if c >> i & 1:
                        below |= down[i]
                        above |= up[i]
                assert (not below & S) == (c == min_set), (P, bin(S), bin(c))
                assert (not above & S) == (c == max_set), (P, bin(S), bin(c))
                assert (dilworth._split(S, min_set, max_set, [c]) is None) == (c in (min_set, max_set))
    assert antichains == 226_915


def _reference_peels(up, down, S):
    """Perles' case-2 peels one at a time: the lowest minimal x with the
    lowest maximal y >= x, until S is empty."""
    chains = []
    while S:
        x = min(i for i in range(len(up)) if S >> i & 1 and not down[i] & S)
        y = min(i for i in range(len(up)) if ((up[x] | 1 << x) & S) >> i & 1 and not up[i] & S)
        chains.append(1 << x | 1 << y)
        S &= ~(1 << x | 1 << y)
    return chains


def test_short_frames_finish_in_one_pass(posets_upto_4, posets_n5):
    """A carrier of width m with |S| <= m + 1, as a Perles frame with no
    antichains to split on, records one link at most, and that link and the
    singletons left are the chains its peels would leave one at a time."""
    carriers = 0
    for P in posets_upto_4 + posets_n5:
        up, down = P.up, P.down
        comp = [u | d for u, d in zip(up, down)]
        for S in range(1, 1 << len(P)):
            size = S.bit_count()
            for m in (size, size - 1):
                if oracle._antichain_masks(comp, S, m, 1):
                    break
            else:
                continue
            carriers += 1
            min_set = sum(1 << i for i in range(len(P)) if S >> i & 1 and not down[i] & S)
            max_set = sum(1 << i for i in range(len(P)) if S >> i & 1 and not up[i] & S)
            below = dilworth._perles((up, down, comp, None), S, min_set, max_set, m, [], True)
            assert len(below) == S.bit_count() - m
            chains = [1 << y | 1 << x for y, x in below.items()]
            chains += [1 << i for i in _indices(S & ~sum(chains))]
            assert len(chains) == m
            assert sorted(chains) == sorted(_reference_peels(up, down, S)), (P, bin(S))
    assert carriers == 103_909


def _check_pruned_search(P, carriers):
    """The pruned search over the chains of P's matching returns the
    exhaustive search's list on each carrier, at k = width(carrier); returns
    how many carriers meet more chains than k."""
    up, down = P.up, P.down
    comp = [u | d for u, d in zip(up, down)]
    chains = _chains(_max_matching(up), len(P))
    space = dilworth._chain_space(chains, comp)
    wider = 0
    for S in carriers:
        k = S.bit_count()
        while not oracle._antichain_masks(comp, S, k, 1):
            k -= 1
        wider += sum(bool(S & chain) for chain in chains) > k
        for limit in (3, None):
            assert (dilworth._pruned_antichain_masks(comp, space, S, k, limit)
                    == oracle._antichain_masks(comp, S, k, limit)), (P, bin(S), limit)
    return wider


def test_pruned_search_returns_the_exhaustive_list(posets_upto_4, posets_n5):
    wider = 0
    for P in posets_upto_4 + posets_n5:
        wider += _check_pruned_search(P, range(1, 1 << len(P)))
    assert wider > 0  # carriers as after a peel: more chains than the width


def test_pruned_search_returns_the_exhaustive_list_on_random_posets(seeded_posets):
    rng = random.Random(4)
    wider = 0
    for P in seeded_posets[-1000:]:
        full = (1 << len(P)) - 1
        wider += _check_pruned_search(P, [full] + [rng.randint(1, full) for _ in range(3)])
    assert wider > 0


def test_perles_searches_no_small_carrier(monkeypatch, seeded_posets):
    """Below the top frame, a carrier with |S| <= m + 1 never reaches the
    antichain search, and such carriers do occur."""
    slack: list[int] = []
    frames: list[bool] = []
    small = 0
    search, split = dilworth._antichains, dilworth._split

    def counting_search(order, S, k):
        slack.append(S.bit_count() - k)
        return search(order, S, k)

    def counting_split(P):
        # Each frame first asks for a split (a frame that searches asks once
        # more, on a carrier the slack check shows is not small); its width
        # m comes from Fulkerson's matching on the carrier.
        def wrapped(S, lo, hi, found):
            m = S.bit_count() - len(_max_matching([u & S if S >> i & 1 else 0
                                                   for i, u in enumerate(P.up)]))
            frames.append(S.bit_count() <= m + 1)
            return split(S, lo, hi, found)
        return wrapped

    monkeypatch.setattr(dilworth, "_antichains", counting_search)
    for P in seeded_posets:
        slack.clear()
        frames.clear()
        monkeypatch.setattr(dilworth, "_split", counting_split(P))
        perles_chain_cover(P)
        assert all(s > 1 for s in slack[1:]), P  # slack[0] is the top frame's witness search
        small += sum(frames[1:])  # frames[0] is the top frame
    assert small > 0


@pytest.mark.parametrize("n, searches", [(4, 1), (30, 14)])
def test_case1_halves_reuse_their_parents_search(monkeypatch, n, searches):
    """A case-1 half has its parent's width and the parent's antichains that
    lie in it, so on a chain it searches only when the parent's first three
    are used up: every second split instead of every split."""
    calls = 0
    search = dilworth._antichains

    def counting_search(order, S, k):
        nonlocal calls
        calls += 1
        return search(order, S, k)

    names = [f"c{i:02d}" for i in range(n)]
    P = build_poset(names, list(zip(names, names[1:])))
    monkeypatch.setattr(dilworth, "_antichains", counting_search)
    cert = perles_chain_cover(P, cap=n)
    assert calls == searches
    monkeypatch.undo()
    top = max_antichain(P, cap=n)
    assert (cert.width, cert.antichain_witness) == (top.size, top.witness)
    assert cert.cover == (frozenset(names),)


# --- byte identity of the certificates ------------------------------------------


# sha256 of the certificates the generator-driven Perles recursion over
# restricted FinitePosets wrote for the corpus below; the mask recursion must
# reproduce them byte for byte.
CERTIFICATES_SHA256 = "ae0e8b1416bc2da8571a54e8fd218f976b5b0603aaf84db4852eaea35da84e1a"


def test_chain_cover_certificates_are_byte_identical():
    rng = random.Random(3)
    corpus = [(random_poset(rng, rng.randint(5, 20)), 20) for _ in range(280)]
    corpus += [(standard_example(k), 20) for k in range(1, 11)]
    corpus += [(grid(r, c), 20) for r in range(1, 5) for c in range(r, 6) if r * c <= 20]
    corpus += [(sparse_poset(rng, rng.randint(28, 36), rng.choice((0.05, 0.1))), 48)
               for _ in range(10)]
    digest = hashlib.sha256()
    for P, cap in corpus:
        cert = perles_chain_cover(P, cap)
        digest.update(formats.canonical_json(formats.chain_cover_certificate(cert)).encode())
    assert len(corpus) == 314
    assert digest.hexdigest() == CERTIFICATES_SHA256


# sha256 of the chain-cover certificates of ``sparse_corpus()``, written
# before case-1 halves reused their parent's search; that reuse fires most on
# sparse posets, which the corpus above holds only ten of.
SPARSE_CERTIFICATES_SHA256 = "e66a162f9a99ee2f75823fc10ea1756eee6cfd686f11cd3ae30918679d372b81"


def test_sparse_chain_cover_certificates_are_byte_identical():
    digest = hashlib.sha256()
    for P, cap in sparse_corpus():
        cert = perles_chain_cover(P, cap)
        digest.update(formats.canonical_json(formats.chain_cover_certificate(cert)).encode())
    assert digest.hexdigest() == SPARSE_CERTIFICATES_SHA256


# sha256 of the chain-cover certificates of the sparse corpus below, written
# before the antichain search was pruned by the matching's chains; the prune
# fires on every one of them.
LARGE_SPARSE_CERTIFICATES_SHA256 = "6a0b8796338c12c73c95f9f86f4e08696a77050be4df8bc10abe813e73df7387"


def _large_sparse_corpus():
    rng = random.Random(9)
    return [(sparse_poset(rng, rng.randint(50, 80), rng.choice((0.05, 0.1))), 96) for _ in range(12)]


def test_large_sparse_chain_cover_certificates_are_byte_identical():
    digest = hashlib.sha256()
    for P, cap in _large_sparse_corpus():
        cert = perles_chain_cover(P, cap)
        digest.update(formats.canonical_json(formats.chain_cover_certificate(cert)).encode())
    assert digest.hexdigest() == LARGE_SPARSE_CERTIFICATES_SHA256


@pytest.mark.parametrize("lengths, matched, lays_out", [((5, 5, 5), 12, False), ((1,) * 12, 0, True)])
def test_prune_is_picked_by_width(monkeypatch, lengths, matched, lays_out):
    """The chain space is laid out from width PRUNE_MIN_WIDTH on, however
    many pairs the matching has: three 5-chains match 12 pairs at width 3."""
    calls = 0
    lay_out = dilworth._chain_space

    def counting(chains, comp):
        nonlocal calls
        calls += 1
        return lay_out(chains, comp)

    names = [[f"c{k:02d}_{i}" for i in range(n)] for k, n in enumerate(lengths)]
    P = build_poset([x for chain in names for x in chain],
                    [e for chain in names for e in zip(chain, chain[1:])])
    assert len(_max_matching(P.up)) == matched
    monkeypatch.setattr(dilworth, "_chain_space", counting)
    cert = perles_chain_cover(P)
    assert cert.width == len(lengths)
    assert (cert.width >= dilworth.PRUNE_MIN_WIDTH) == lays_out
    assert calls == lays_out


# --- the cover is a partition, and frames carry their extremal masks -------------


@pytest.fixture(scope="module")
def perles_corpus(seeded_posets):
    """Every poset with n <= 5, the 1,000 seeded ones and the sparse digest
    corpora, each with the cap it is solved under."""
    return [(P, 20) for P in seeded_posets] + sparse_corpus() + _large_sparse_corpus()


def test_perles_cover_is_a_partition(perles_corpus):
    for P, cap in perles_corpus:
        cover = perles_chain_cover(P, cap).cover
        assert verify_chain_cover(P, cover) and sum(map(len, cover)) == len(P), P
        assert cover == canonical_cover(cover)


def _drop_a_link(up, below):
    below.pop(next(iter(below)))


def _share_a_lower_end(up, below):
    # The shared lower end lies below both upper ends, so only the ends check can catch it.
    y1, y2 = next((y1, y2) for y1 in below for y2 in below if y1 != y2 and up[below[y1]] >> y2 & 1)
    below[y2] = below[y1]


def _link_incomparable_elements(up, below):
    # The new lower end z is no other link's, so only the order check can catch it.
    lows = set(below.values())
    y, z = next((y, z) for y in below for z in range(len(up))
                if z != y and z not in lows and not (up[z] >> y | up[y] >> z) & 1)
    below[y] = z


@pytest.mark.skipif(not __debug__, reason="the link checks are asserts")
@pytest.mark.parametrize("corrupt", [_drop_a_link, _share_a_lower_end, _link_incomparable_elements])
@pytest.mark.parametrize("solve", [
    lambda: perles_chain_cover(build_poset("abcde", [("a", "b"), ("a", "d"), ("c", "d")])),
    lambda: find_sdr({"A": {1, 2}, "B": {2}, "C": {3}}),
], ids=["perles_chain_cover", "find_sdr"])
def test_the_link_checks_catch_every_corrupted_link_set(monkeypatch, corrupt, solve):
    """Perles' links are checked as links: a dropped link, two links with
    one lower end and a link between incomparable elements each fail an
    assert, as they failed the chain-level check before."""
    perles = dilworth._perles

    def corrupted(order, *args):
        below = perles(order, *args)
        corrupt(order[0], below)
        return below

    solve()
    monkeypatch.setattr(dilworth, "_perles", corrupted)
    with pytest.raises(AssertionError):
        solve()


def test_frames_carry_their_extremal_masks(monkeypatch, perles_corpus):
    """Each carrier ``_perles`` splits, peels from or finishes, the top one,
    case-1 halves and the rest after a peel, comes with the masks of its
    minimal and maximal elements as a scan of the carrier finds them."""
    split = dilworth._split
    carriers = peeled = 0

    def scanning(P):
        def scanning_split(S, lo, hi, found):
            nonlocal carriers, peeled
            bits = [i for i in range(len(P)) if S >> i & 1]
            assert lo == sum(1 << i for i in bits if not P.down[i] & S), (P, bin(S))
            assert hi == sum(1 << i for i in bits if not P.up[i] & S), (P, bin(S))
            carriers += 1
            peeled += not found  # only a peel leaves a frame with no antichains
            return split(S, lo, hi, found)
        return scanning_split

    for P, cap in perles_corpus:
        monkeypatch.setattr(dilworth, "_split", scanning(P))
        perles_chain_cover(P, cap)
    assert carriers > len(perles_corpus) and peeled > 0


def test_perles_searches_no_carrier_with_an_isolated_element(monkeypatch, perles_corpus):
    """A frame drops the elements comparable to nothing else in its carrier
    before it searches, so below the top frame no carrier the antichain
    search is handed holds one."""
    carriers: list[int] = []
    search = dilworth._antichains

    def recording(order, S, k):
        carriers.append(S)
        return search(order, S, k)

    monkeypatch.setattr(dilworth, "_antichains", recording)
    searched = 0
    for P, cap in perles_corpus:
        carriers.clear()
        perles_chain_cover(P, cap)
        for S in carriers[1:]:  # carriers[0] is the top frame's witness search
            assert all((P.up[i] | P.down[i]) & S for i in _indices(S)), (P, bin(S))
        searched += len(carriers) - 1
    assert searched > 0


def test_a_frame_covers_its_isolated_elements_as_singletons(perles_corpus):
    """``_perles`` on a carrier of T plus k isolated elements K, with a prefix
    that holds K, returns exactly the links of T at width m − k, searched
    afresh, and each element of K comes back as a singleton chain."""
    frames = 0
    for P, _ in perles_corpus:
        full = (1 << len(P)) - 1
        lo, hi = _extremal(P.down, full, full), _extremal(P.up, full, full)
        K, T = lo & hi, full & ~(lo & hi)
        if not K or not T:
            continue
        order, m, found = dilworth._top_frame(P.up, P.down, len(P), "width")
        assert all(c & K == K for c in found)  # every maximum antichain holds K
        k = K.bit_count()
        found_T = dilworth._antichains(order, T, m - k)
        links_T = dilworth._perles(order, T, lo & T, hi & T, m - k, found_T, len(found_T) < 3)
        links = dilworth._perles(order, full, lo, hi, m, found, len(found) < 3)
        assert links == links_T, P
        assert {1 << i for i in _indices(K)} <= set(_chains(links, len(P)))
        frames += 1
    assert frames > 100
