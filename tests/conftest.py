"""Shared fixtures and independent brute-force reference implementations.

The references here deliberately avoid the library's search code: they
enumerate subsets/partitions/choice functions directly from the definitions,
so they can vouch for the package's oracles and solvers.
"""

from __future__ import annotations

import random
from itertools import chain, combinations

import pytest

from posetkit import build_poset, build_bigraph
from posetkit.core import FinitePoset, id_key, sorted_ids
from posetkit.oracle import enumerate_posets


@pytest.fixture
def p3():
    """Three elements, one strict edge a<b; c incomparable to both."""
    return build_poset(("a", "b", "c"), {("a", "b")})


@pytest.fixture
def total3():
    return build_poset(("a", "b", "c"), {("a", "b"), ("b", "c")})


@pytest.fixture
def antichain3():
    return build_poset(("a", "b", "c"), ())


@pytest.fixture
def grid2x2():
    return build_poset(("a", "b", "c", "d"),
                       {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")})


# --- reference computations -------------------------------------------------

def nonempty_subsets(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k) for k in range(1, len(items) + 1))


def ref_is_chain(P: FinitePoset, S) -> bool:
    S = list(S)
    return bool(S) and set(S) <= P.carrier and all(
        P.le(x, y) or P.le(y, x) for x in S for y in S)


def ref_is_antichain(P: FinitePoset, S) -> bool:
    S = list(S)
    return bool(S) and set(S) <= P.carrier and all(
        x == y for x in S for y in S if P.le(x, y) or P.le(y, x))


def ref_max_antichain(P: FinitePoset):
    """Largest antichain by plain descending-size subset scan (lex-first)."""
    items = list(P.elements)
    for k in range(len(items), 0, -1):
        for combo in combinations(items, k):
            if ref_is_antichain(P, combo):
                return frozenset(combo)
    raise AssertionError("non-empty posets have antichains")


def ref_max_chain(P: FinitePoset):
    items = list(P.elements)
    for k in range(len(items), 0, -1):
        for combo in combinations(items, k):
            if ref_is_chain(P, combo):
                return frozenset(combo)
    raise AssertionError("non-empty posets have chains")


def ref_all_set_partitions(items):
    """Every partition of items into non-empty blocks (blocks keep order of
    first appearance)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in ref_all_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def ref_min_cover_size(P: FinitePoset, predicate) -> int:
    return min(
        len(part)
        for part in ref_all_set_partitions(list(P.elements))
        if all(predicate(P, block) for block in part)
    )


def ref_reach(names, edges):
    """The reflexive-transitive closure of the edges as a pair set, by
    composing the relation with itself until it stops growing."""
    rel = {(x, x) for x in names} | set(edges)
    while (more := rel | {(x, z) for (x, y) in rel for (y2, z) in rel if y == y2}) != rel:
        rel = more
    return frozenset(rel)


def random_poset(rng: random.Random, n: int) -> FinitePoset:
    """Random labeled poset: random edges over a fixed element order (always
    acyclic), closed by build_poset."""
    names = [f"v{i}" for i in range(n)]
    p = rng.choice((0.15, 0.3, 0.5))
    edges = [(names[i], names[j])
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_poset(names, edges)


def random_bigraph(rng: random.Random, nl: int, nr: int):
    left = [f"l{i}" for i in range(nl)]
    right = [f"r{j}" for j in range(nr)]
    p = rng.choice((0.2, 0.4, 0.6))
    edges = [(u, v) for u in left for v in right if rng.random() < p]
    return build_bigraph(left, right, edges)


def ref_matching_exists(G) -> bool:
    """Brute force over all subsets of the edge set."""
    edges = sorted(G.edges, key=lambda e: (id_key(e[0]), id_key(e[1])))
    for k in range(len(G.left), len(G.left) + 1):
        for combo in combinations(edges, k):
            lefts = [u for u, _ in combo]
            rights = [v for _, v in combo]
            if (len(set(lefts)) == k and len(set(rights)) == k
                    and set(lefts) == G.left_set):
                return True
    return False


def ref_sdr_search(family):
    """Backtracking over choice functions; returns one SDR or None."""
    names = sorted(family, key=id_key)

    def go(i, used):
        if i == len(names):
            return {}
        for x in sorted_ids(family[names[i]]):
            if x not in used:
                rest = go(i + 1, used | {x})
                if rest is not None:
                    rest[names[i]] = x
                    return rest
        return None

    return go(0, frozenset())


def ref_monotone_subseq_exists(items, length, increasing) -> bool:
    """Positional-order combinations, scanned for a monotone one."""
    for combo in combinations(items, length):
        if increasing and all(a < b for a, b in zip(combo, combo[1:])):
            return True
        if not increasing and all(a > b for a, b in zip(combo, combo[1:])):
            return True
    return False


@pytest.fixture(scope="session")
def posets_upto_4():
    return [P for n in (1, 2, 3, 4) for P in enumerate_posets(n)]


@pytest.fixture(scope="session")
def posets_n5():
    return list(enumerate_posets(5))


@pytest.fixture(scope="session")
def seeded_posets(posets_upto_4, posets_n5):
    """Every poset with n <= 5, then 1,000 random ones with n <= 16."""
    rng = random.Random(2)
    return posets_upto_4 + posets_n5 + [random_poset(rng, rng.randint(1, 16))
                                        for _ in range(1000)]


def standard_example(k):
    """S_k: a_i < b_j exactly when i != j; width k, every maximum antichain extremal."""
    return build_poset([f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)],
                       [(f"a{i}", f"b{j}") for i in range(k) for j in range(k) if i != j])


def grid(rows, cols):
    """The product of a rows-chain and a cols-chain."""
    return build_poset([(i * cols + j) for i in range(rows) for j in range(cols)],
                       [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
                       + [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)])


def sparse_poset(rng: random.Random, n: int, p: float) -> FinitePoset:
    names = [f"v{i}" for i in range(n)]
    return build_poset(names, [(names[i], names[j]) for i in range(n)
                               for j in range(i + 1, n) if rng.random() < p])


def sparse_corpus():
    """60 sparse posets with n = 28..44, each with the oracle cap (48) that
    covers them."""
    rng = random.Random(6)
    return [(sparse_poset(rng, rng.randint(28, 44), rng.choice((0.05, 0.1))), 48) for _ in range(60)]
