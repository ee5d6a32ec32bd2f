"""Seeded instance generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns instance documents in
the JSON shape ``formats.parse_instance`` reads, so the program under test
only ever sees generated instances.  Nothing here imports posetkit: the
reference checks below (``has_perfect_matching``) are an independent second
method, not a call back into the code being measured.
"""

from __future__ import annotations

import itertools
import random


def _labels(rng: random.Random, prefix: str, n: int) -> list[str]:
    """``n`` distinct ids in a seeded order, so lexicographic tie-breaks do
    not line up with the hidden topological order of the generator."""
    ids = [f"{prefix}{i:02d}" for i in range(n)]
    rng.shuffle(ids)
    return ids


def random_poset(rng: random.Random, n: int, p: float) -> dict:
    """Random order: each pair i < j of a hidden linear order is an edge with
    probability ``p``; the program closes it transitively."""
    ids = _labels(rng, "v", n)
    edges = [[ids[i], ids[j]] for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return {"kind": "poset", "elements": sorted(ids), "edges": edges}


def standard_example(rng: random.Random, k: int) -> dict:
    """S_k: a_i < b_j exactly when i != j.  Width k and height 2, and every
    maximum antichain is extremal, so Perles' recursion takes case 2."""
    perm = list(range(k))
    rng.shuffle(perm)
    a = [f"a{i:02d}" for i in range(k)]
    b = [f"b{perm[i]:02d}" for i in range(k)]
    edges = [[a[i], b[j]] for i in range(k) for j in range(k) if i != j]
    return {"kind": "poset", "elements": a + b, "edges": edges}


def chain_product(rng: random.Random, r: int, c: int) -> dict:
    """The product of an r-chain and a c-chain (an r x c grid), given by its
    cover relations; element ids are shuffled."""
    ids = _labels(rng, "g", r * c)
    at = {(i, j): ids[i * c + j] for i in range(r) for j in range(c)}
    edges = [[at[i, j], at[i + 1, j]] for i in range(r - 1) for j in range(c)]
    edges += [[at[i, j], at[i, j + 1]] for i in range(r) for j in range(c - 1)]
    return {"kind": "poset", "elements": sorted(ids), "edges": edges}


def cycle_bigraph(rng: random.Random, k: int) -> dict:
    """Hall-tight cycle: l_i is adjacent to r_i and r_{i+1 mod k}.  Every left
    subset has enough neighbours and L itself has exactly k, so Hall's
    condition holds and all 2^k - 1 subsets are enumerated."""
    left = _labels(rng, "l", k)
    right = _labels(rng, "r", k)
    edges = [[left[i], right[i]] for i in range(k)]
    edges += [[left[i], right[(i + 1) % k]] for i in range(k)]
    return {"kind": "bigraph", "left": sorted(left), "right": sorted(right), "edges": edges}


def random_bigraph(rng: random.Random, nl: int, nr: int, p: float) -> dict:
    left = _labels(rng, "l", nl)
    right = _labels(rng, "r", nr)
    edges = [[u, v] for u in left for v in right if rng.random() < p]
    return {"kind": "bigraph", "left": sorted(left), "right": sorted(right), "edges": edges}


def all_three_member_families() -> list[dict]:
    """The 16^3 = 4,096 families of three members over a 4-element universe,
    empty members included, in a fixed order."""
    universe = ["x1", "x2", "x3", "x4"]
    subsets = [list(c) for k in range(5) for c in itertools.combinations(universe, k)]
    return [
        {"kind": "family", "members": {f"S{i + 1}": s for i, s in enumerate(members)}}
        for members in itertools.product(subsets, repeat=3)
    ]


def random_family(rng: random.Random, members: int, ground: int, p: float) -> dict:
    """``members`` named sets over ``ground`` elements, each element kept with
    probability ``p`` (so some members may be empty)."""
    universe = [f"y{i}" for i in range(ground)]
    return {
        "kind": "family",
        "members": {f"S{i}": [u for u in universe if rng.random() < p] for i in range(members)},
    }


def es_sequence(rng: random.Random, m: int, n: int) -> dict:
    """m*n+1 distinct integers in a seeded order."""
    return {"kind": "sequence", "values": rng.sample(range(10 * (m * n + 1)), m * n + 1)}


def has_perfect_matching(adjacency: list[list[str]]) -> bool:
    """True when every left vertex (one adjacency list each) can be matched to
    a distinct right vertex: Kuhn's augmenting-path algorithm."""
    owner: dict[str, int] = {}

    def augment(u: int, seen: set[str]) -> bool:
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                if v not in owner or augment(owner[v], seen):
                    owner[v] = u
                    return True
        return False

    return all(augment(u, set()) for u in range(len(adjacency)))


def expects_match(doc: dict) -> bool:
    """Reference answer for a bigraph or family instance: does a left-perfect
    matching (a system of distinct representatives) exist?"""
    if doc["kind"] == "family":
        return has_perfect_matching([list(s) for s in doc["members"].values()])
    adj: dict[str, list[str]] = {u: [] for u in doc["left"]}
    for u, v in doc["edges"]:
        adj[u].append(v)
    return has_perfect_matching(list(adj.values()))
