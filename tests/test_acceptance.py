"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Equalities are exact (tolerance zero).  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines and timings.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

import posetkit
from posetkit import (
    Violation,
    build_bigraph,
    build_poset,
    canonical_cover,
    disjointify_cover,
    es_subsequence,
    find_L_perfect_matching,
    find_sdr,
    hall_condition,
    is_antichain,
    is_chain,
    max_antichain,
    max_chain,
    maximal_above,
    maximal_elements,
    min_antichain_cover,
    min_chain_cover,
    minimal_below,
    minimal_elements,
    mirsky_antichain_cover,
    neighborhood,
    perles_chain_cover,
    seq_from_list,
    verify_chain_cover,
    verify_matching,
    verify_subseq,
)
from posetkit.errors import NotASmallestCover
from posetkit.oracle import enumerate_posets

from conftest import (
    random_bigraph,
    random_poset,
    ref_matching_exists,
    ref_monotone_subseq_exists,
    ref_sdr_search,
)


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL after {time.time() - start:.1f}s")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s, budget {budget_s:.0f}s]")
    assert elapsed < budget_s


@pytest.fixture(scope="module")
def exhaustive_small():
    counts = {n: list(enumerate_posets(n)) for n in (1, 2, 3, 4)}
    assert (len(counts[1]), len(counts[2]), len(counts[3])) == (1, 3, 19)
    return [P for n in (1, 2, 3, 4) for P in counts[n]]


@pytest.fixture(scope="module")
def random_midsize():
    rng = random.Random(20260810)
    return [random_poset(rng, n) for n in range(5, 10) for _ in range(200)]


def test_criterion_1_dilworth_equality(exhaustive_small, random_midsize):
    with criterion(1, "Dilworth equality", 60):
        for P in exhaustive_small + random_midsize:
            cert = perles_chain_cover(P)
            assert is_antichain(P, cert.antichain_witness)
            assert len(cert.antichain_witness) == cert.width
            assert verify_chain_cover(P, cert.cover)
            assert len(cert.cover) == cert.width
            assert cert.width == max_antichain(P).size == len(min_chain_cover(P))


def test_criterion_2_mirsky_equality(exhaustive_small, random_midsize):
    with criterion(2, "Mirsky equality", 30):
        for P in exhaustive_small + random_midsize:
            cert = mirsky_antichain_cover(P)
            for layer in cert.layers:
                assert is_antichain(P, layer)
            covered = frozenset().union(*cert.layers)
            assert covered == P.carrier
            assert len(cert.layers) == max_chain(P).size == len(min_antichain_cover(P))


def test_criterion_3_structural_facts():
    with criterion(3, "structural facts n<=5", 60):
        for n in (1, 2, 3, 4, 5):
            for P in enumerate_posets(n):
                # minimal/maximal sets exist and are antichains
                mins, maxs = minimal_elements(P), maximal_elements(P)
                assert mins and is_antichain(P, mins)
                assert maxs and is_antichain(P, maxs)
                # every element has a minimal element below and maximal above
                for y in P.elements:
                    x = minimal_below(P, y)
                    assert P.le(x, y) and x in mins
                    z = maximal_above(P, y)
                    assert P.le(y, z) and z in maxs
                # chains and antichains share at most one element; extremal
                # sets meet every largest chain
                subsets = [set(c) for k in range(1, n + 1)
                           for c in combinations(P.elements, k)]
                chains = [S for S in subsets if is_chain(P, S)]
                antichains = [S for S in subsets if is_antichain(P, S)]
                for C in chains:
                    for A in antichains:
                        assert len(C & A) <= 1
                h = max_chain(P).size
                for C in chains:
                    if len(C) == h:
                        assert C & maxs
                        assert C & mins


def test_criterion_4_disjoint_cover_and_boundary(exhaustive_small):
    with criterion(4, "disjoint covers", 5):
        rng = random.Random(17)
        pool = exhaustive_small + [random_poset(rng, rng.randint(5, 8))
                                   for _ in range(60)]
        for P in pool:
            cert = perles_chain_cover(P)
            out = disjointify_cover(P, cert.cover)
            assert len(out) == len(cert.cover)
            assert verify_chain_cover(P, out)
            taken = set()
            for block in out:
                assert not block & taken
                taken |= block
                assert any(block <= chain for chain in cert.cover)
        # the counterexample: a non-smallest cover must be rejected
        p3 = build_poset(("a", "b", "c"), {("a", "b")})
        oversized = canonical_cover([{"a"}, {"b"}, {"c"}, {"a", "b"}])
        assert verify_chain_cover(p3, oversized)
        with pytest.raises(NotASmallestCover):
            disjointify_cover(p3, oversized)


def test_criterion_5_hall_equivalence():
    with criterion(5, "Hall equivalence", 60):
        lefts, rights = ("l1", "l2", "l3"), ("r1", "r2", "r3")
        all_edges = [(u, v) for u in lefts for v in rights]
        graphs = []
        for picks in product((False, True), repeat=9):
            graphs.append(build_bigraph(
                lefts, rights, [e for e, take in zip(all_edges, picks) if take]))
        assert len(graphs) == 512
        for G in graphs:  # edge-subset brute force is affordable here
            assert ref_matching_exists(G) == (hall_condition(G) is None)
        rng = random.Random(20260811)
        graphs += [random_bigraph(rng, rng.randint(1, 6), rng.randint(1, 6))
                   for _ in range(500)]
        for G in graphs:
            result = find_L_perfect_matching(G)
            condition_ok = hall_condition(G) is None
            if isinstance(result, Violation):
                assert not condition_ok
                assert len(neighborhood(G, result.members)) < len(result.members)
                assert len(result.members) - len(neighborhood(G, result.members)) \
                    == result.deficiency
            else:
                assert condition_ok
                assert verify_matching(G, result)


def test_criterion_6_sdr_agreement():
    with criterion(6, "SDR vs choice functions", 60):
        universe = ["x1", "x2", "x3", "x4"]
        subsets = [frozenset(c) for k in range(5)
                   for c in combinations(universe, k)]
        checked = 0
        for size in (1, 2, 3, 4):
            for member_sets in product(subsets, repeat=size):
                family = {f"S{i + 1}": s for i, s in enumerate(member_sets)}
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
                checked += 1
        assert checked == 16 + 16 ** 2 + 16 ** 3 + 16 ** 4
        rng = random.Random(20260812)
        wide = [f"y{i}" for i in range(6)]
        for _ in range(200):
            family = {
                f"S{i}": frozenset(u for u in wide if rng.random() < 0.4)
                for i in range(rng.randint(5, 8))
            }
            out = find_sdr(family)
            ref = ref_sdr_search(family)
            if isinstance(out, Violation):
                assert ref is None
            else:
                assert ref is not None
                assert all(out[nm] in family[nm] for nm in family)
                assert len(set(out.values())) == len(family)


def test_criterion_7_erdos_szekeres():
    with criterion(7, "monotone subsequences", 30):
        for perm in permutations((1, 2, 3, 4, 5)):
            s = seq_from_list(list(perm))
            w = es_subsequence(s, 2, 2)
            assert len(w.subsequence) == 3
            assert verify_subseq(s, w)
            assert ref_monotone_subseq_exists(
                list(perm), 3, increasing=(w.kind == "increasing"))
        # tightness: one element fewer can dodge both monotone lengths
        probe = [2, 1, 4, 3]
        assert not ref_monotone_subseq_exists(probe, 3, increasing=True)
        assert not ref_monotone_subseq_exists(probe, 3, increasing=False)


CORPUS = [
    ("width", {"kind": "poset", "elements": ["a", "b", "c"], "edges": [["a", "b"]]}, ()),
    ("height", {"kind": "poset", "elements": ["a", "b", "c"], "edges": [["a", "b"]]}, ()),
    ("chain-cover",
     {"kind": "poset", "elements": ["a", "b", "c", "d"],
      "edges": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]}, ()),
    ("antichain-cover",
     {"kind": "poset", "elements": [1, 2, 3, 4, 5],
      "edges": [[1, 2], [2, 3], [1, 4]]}, ()),
    ("check-dilworth", {"kind": "poset", "elements": ["a", "b", "c"], "edges": []}, ()),
    ("check-mirsky",
     {"kind": "poset", "elements": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}, ()),
    ("matching",
     {"kind": "bigraph", "left": ["l1", "l2"], "right": ["r1", "r2"],
      "edges": [["l1", "r1"], ["l1", "r2"], ["l2", "r1"]]}, ()),
    ("matching",
     {"kind": "bigraph", "left": ["l1", "l2"], "right": ["r1"],
      "edges": [["l1", "r1"], ["l2", "r1"]]}, ()),
    ("sdr",
     {"kind": "family", "members": {"S1": ["x", "y"], "S2": ["y"], "S3": ["x", "z"]}}, ()),
    ("sdr", {"kind": "family", "members": {"S1": ["x"], "S2": ["x"]}}, ()),
    ("es", {"kind": "sequence", "values": [3, 4, 1, 2, 5]}, ("-m", "2", "-n", "2")),
    ("es", {"kind": "sequence", "values": [2, 1]}, ("-m", "1", "-n", "1")),
]


def test_criterion_8_determinism_and_round_trip(tmp_path):
    with criterion(8, "determinism and round-trip", 10):
        from posetkit.cli import run_command
        from posetkit.formats import parse_certificate, parse_instance, verify_certificate

        def run_in_subprocess(argv, hash_seed):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                       PYTHONPATH=str(Path(posetkit.__file__).resolve().parents[1]))
            proc = subprocess.run(
                [sys.executable, "-m", "posetkit.cli", *argv],
                capture_output=True, env=env, check=False)
            assert proc.returncode in (0, 1), proc.stderr
            return proc.stdout

        for i, (command, payload, extra) in enumerate(CORPUS):
            inst_path = tmp_path / f"inst{i}.json"
            inst_path.write_text(json.dumps(payload))
            argv = [command, str(inst_path), *extra]
            # byte-identical across independent runs (different hash seeds)
            first = run_in_subprocess(argv, hash_seed=0)
            second = run_in_subprocess(argv, hash_seed=1)
            assert first == second
            # solver -> serialize -> parse -> verify round-trip
            cert = parse_certificate(first)
            inst = parse_instance(inst_path.read_text())
            ok, detail = verify_certificate(inst, cert)
            assert ok, detail
            cert_path = tmp_path / f"cert{i}.json"
            cert_path.write_bytes(first)
            with redirect_stdout(io.StringIO()) as captured:
                code = run_command(["verify", str(inst_path), str(cert_path)])
            assert code == 0
            assert json.loads(captured.getvalue())["valid"] is True
