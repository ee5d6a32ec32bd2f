"""``width`` and ``height`` witnesses above the oracle cap, against references
that share nothing with posetkit but the poset's ``up`` masks and ``elements``.

Each witness is the lexicographically first largest antichain or chain, the
least sorted index sequence of its size.  The reference builds it greedily:
it scans the indices in ascending order and keeps i when i and the later
candidates still compatible with i and with everything kept can reach the
size still needed.  Hopcroft–Karp on Fulkerson's split graph sizes the
antichains (width = |S| − |M|), and networkx's longest path sizes the chains."""

from __future__ import annotations

import random

import pytest

from posetkit import build_bigraph, build_poset, graph_to_poset, height, width

from conftest import sparse_poset

nx = pytest.importorskip("networkx")


def _comparable(up):
    """Bit j of ``comp[i]`` marks i and j comparable and distinct."""
    comp = list(up)
    for i, u in enumerate(up):
        for j in range(len(up)):
            if u >> j & 1:
                comp[j] |= 1 << i
    return comp


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _width(up, mask):
    """The width of the order restricted to ``mask``: |mask| minus a maximum
    matching of x⁻ to y⁺ over its pairs x < y."""
    split = nx.Graph()
    tops = [("-", x) for x in _bits(mask)]
    split.add_nodes_from(tops)
    split.add_edges_from((("-", x), ("+", y)) for x in _bits(mask) for y in _bits(up[x] & mask))
    return mask.bit_count() - len(nx.bipartite.hopcroft_karp_matching(split, top_nodes=tops)) // 2


def _height(up, mask):
    """The height of the order restricted to ``mask``: the longest path of its DAG, in vertices."""
    dag = nx.DiGraph()
    dag.add_nodes_from(_bits(mask))
    dag.add_edges_from((x, y) for x in _bits(mask) for y in _bits(up[x] & mask))
    return len(nx.dag_longest_path(dag))


def _first_largest(n, size, keeps):
    """The least sorted index sequence of ``size`` indices that ``keeps`` allows:
    ``keeps(i)`` is the mask of indices that may join i, and ``size(mask)`` the
    most of ``mask`` that may be kept together."""
    cand, chosen = (1 << n) - 1, []
    need = size(cand)
    for i in range(n):
        if not cand >> i & 1:
            continue
        rest = cand & keeps(i) & ~((1 << (i + 1)) - 1)
        if 1 + size(rest) >= need:
            chosen.append(i)
            cand, need = rest, need - 1
    assert need == 0
    return chosen


def _reference_width(P):
    up, full = P.up, (1 << len(P.up)) - 1
    comp = _comparable(up)
    picked = _first_largest(len(up), lambda mask: _width(up, mask), lambda i: full & ~comp[i])
    return frozenset(P.elements[i] for i in picked), len(picked)


def _reference_height(P):
    up = P.up
    comp = _comparable(up)
    picked = _first_largest(len(up), lambda mask: _height(up, mask), lambda i: comp[i])
    return frozenset(P.elements[i] for i in picked), len(picked)


def _ordinal_sum(k, length):
    """k chains of ``length``, first in id order, each element below every element of an antichain of k + 1."""
    chains = [[f"c{c}_{i}" for i in range(length)] for c in range(k)]
    top = [f"z{j}" for j in range(k + 1)]
    low = [x for chain in chains for x in chain]
    return build_poset(low + top, [e for chain in chains for e in zip(chain, chain[1:])]
                       + [(x, z) for x in low for z in top])


def _fence(members):
    """The graph poset of the family S_i = {i, i + 1}: a fence of 2 · members + 1 elements."""
    left, right = [f"s{i:03d}" for i in range(members)], [f"x{i:03d}" for i in range(members + 1)]
    return graph_to_poset(build_bigraph(left, right, [(left[i], right[j]) for i in range(members) for j in (i, i + 1)]))


def _inputs():
    for n, p, seeds in ((60, .05, (0, 1, 2)), (80, .05, (0, 1, 2)), (100, .03, (0, 1, 2)),
                        (120, .03, (0, 1, 2)), (150, .03, (1, 2))):  # seed 0 at n = 150: width takes seconds
        for seed in seeds:
            yield f"sparse-{n}-{p}-{seed}", sparse_poset(random.Random(1000 * n + seed), n, p)
    for length in (3, 4):
        yield f"ordinal-sum-8x{length}", _ordinal_sum(8, length)
    for members in (60, 100):
        yield f"fence-{members}", _fence(members)


INPUTS = dict(_inputs())


@pytest.mark.parametrize("name", list(INPUTS))
def test_width_and_height_witnesses_agree_with_the_references(name):
    P = INPUTS[name]
    found = width(P, cap=len(P))
    assert (found.witness, found.size) == _reference_width(P), name
    found = height(P)
    assert (found.witness, found.size) == _reference_height(P), name
