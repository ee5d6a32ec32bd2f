"""Hall's solvers above the subset cap, against an independent reference:
networkx's Hopcroft–Karp maximum matching decides whether a matching or an
SDR must come back, bounds the deficiency of any violation (König–Ore:
the largest deficiency is |L| − |M|), and fixes the tie-break, the
lexicographically first L-perfect matching.  Only posetkit's public API is used."""

from __future__ import annotations

import random
from functools import partial

import pytest

from posetkit import Violation, build_bigraph, find_L_perfect_matching, find_sdr, verify_matching
from posetkit.errors import InstanceTooLarge
from posetkit.hall import DEFAULT_SUBSET_CAP

nx = pytest.importorskip("networkx")


def _max_matching_size(adj):
    """|M| of a maximum matching of the left vertices of ``adj`` (left -> set of right) by Hopcroft–Karp."""
    G = nx.Graph()
    left = [("L", u) for u in adj]
    G.add_nodes_from(left)
    G.add_edges_from((("L", u), ("R", v)) for u, vs in adj.items() for v in vs)
    return len(nx.bipartite.hopcroft_karp_matching(G, top_nodes=left)) // 2


def _id_order(x):
    """Ints before strings, each kind in its own order."""
    return (isinstance(x, str), x)


def _first_matching(adj):
    """The lexicographically first L-perfect matching of ``adj``, which has one: the left
    vertices in id order, each taking its lowest-id neighbour for which the rest, with that
    pair fixed, still matches every left vertex."""
    rest, first = dict(adj), {}
    for u in sorted(adj, key=_id_order):
        for v in sorted(rest.pop(u), key=_id_order):
            trial = {w: vs - {v} for w, vs in rest.items()}
            if _max_matching_size(trial) == len(trial):
                break
        first[u], rest = v, trial
    return first


def _instances(kind, count):
    """Seeded families or bigraphs with 21–40 left vertices, more than the
    default subset cap, over 0–5 more right vertices.  Each left vertex gets
    a planted partner and up to three more neighbours; every second instance
    then squeezes 2–5 left vertices into one fewer right vertices, so its
    smallest violator is small and the violation search, exponential in its
    size, stays short."""
    for seed in range(count):
        rng = random.Random(1000 * seed + len(kind))
        k = rng.randint(21, 40)
        right = k + rng.randint(0, 5)
        names = [f"{kind}{i}" for i in range(k)]
        partner = rng.sample(range(right), k)
        adj = {u: {p} | set(rng.sample(range(right), rng.randint(0, 3))) for u, p in zip(names, partner)}
        if seed % 2:
            t = rng.randint(2, 5)
            pool = rng.sample(range(right), t - 1)
            for u in rng.sample(names, t):
                adj[u] = set(rng.sample(pool, rng.randint(1, t - 1)))
        yield adj, right


def _check_violation(adj, bad, matched):
    union = set().union(*(adj[u] for u in bad.members))
    assert bad.members and len(union) == len(bad.members) - bad.deficiency
    assert 1 <= bad.deficiency <= len(adj) - matched


@pytest.mark.parametrize("kind", ["family", "bigraph"])
def test_hall_solvers_above_the_subset_cap_agree_with_hopcroft_karp(kind):
    outcomes = {True: 0, False: 0}
    for adj, right in _instances(kind, 40):
        matched = _max_matching_size(adj)
        n, k = len(adj) + right, len(adj)
        if kind == "family":
            solve = partial(find_sdr, adj, oracle_cap=n)
        else:
            adj = {u: {f"r{v}" for v in vs} for u, vs in adj.items()}
            G = build_bigraph(adj, [f"r{v}" for v in range(right)], [(u, v) for u, vs in adj.items() for v in vs])
            solve = partial(find_L_perfect_matching, G, oracle_cap=n)
        out = solve(subset_cap=k)
        outcomes[matched == k] += 1
        assert isinstance(out, Violation) == (matched < k), adj
        if isinstance(out, Violation):
            _check_violation(adj, out, matched)
            with pytest.raises(InstanceTooLarge, match="--subset-cap"):
                solve(subset_cap=DEFAULT_SUBSET_CAP)
        elif kind == "family":
            assert out.keys() == adj.keys() and len(set(out.values())) == k
            assert all(out[u] in adj[u] for u in adj)
            assert out == _first_matching(adj), adj
        else:
            assert verify_matching(G, out)
            assert out == frozenset(_first_matching(adj).items()), adj
    assert outcomes[True] and outcomes[False], outcomes
