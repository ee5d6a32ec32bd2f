"""Layer peeling and the height equality."""

from __future__ import annotations

import hashlib

import pytest

from posetkit import (
    build_poset,
    check_mirsky,
    formats,
    height,
    is_antichain,
    is_chain,
    max_chain,
    maximal_elements,
    min_antichain_cover,
    minimal_elements,
    mirsky_antichain_cover,
    restrict,
)
from posetkit.errors import InstanceTooLarge

from conftest import nonempty_subsets, ref_is_chain, sparse_corpus


def test_height_examples(p3, total3, antichain3):
    assert height(p3).witness == {"a", "b"}
    assert height(total3).size == 3
    assert height(antichain3).size == 1


def test_mirsky_p3(p3):
    cert = mirsky_antichain_cover(p3)
    assert cert.height == 2
    assert cert.layers == (frozenset({"b", "c"}), frozenset({"a"}))
    assert is_chain(p3, cert.chain_witness)
    assert len(cert.chain_witness) == 2


def test_mirsky_total_order():
    P = build_poset("abcd", {("a", "b"), ("b", "c"), ("c", "d")})
    cert = mirsky_antichain_cover(P)
    assert cert.layers == (frozenset("d"), frozenset("c"), frozenset("b"), frozenset("a"))
    assert cert.height == 4


def test_mirsky_antichain():
    P = build_poset("abcd", ())
    cert = mirsky_antichain_cover(P)
    assert cert.layers == (frozenset("abcd"),)


def test_layer_structure(posets_upto_4):
    for P in posets_upto_4:
        cert = mirsky_antichain_cover(P)
        left = set(P.carrier)
        for layer in cert.layers:
            assert is_antichain(P, layer)
            assert layer == maximal_elements(restrict(P, left))
            assert layer <= left
            left -= layer
        assert not left
        assert len(cert.layers) == max_chain(P).size == len(min_antichain_cover(P))
        assert is_chain(P, cert.chain_witness)
        assert len(cert.chain_witness) == cert.height


def test_chain_witness_is_the_oracle_witness(seeded_posets):
    # the greedy on the layer masks finds the lexicographically first longest
    # chain at every size, below the oracle cap and above it
    for P in seeded_posets + [P for P, _ in sparse_corpus()]:
        assert mirsky_antichain_cover(P).chain_witness == max_chain(P, cap=len(P)).witness


# sha256 of the antichain-cover certificates of ``sparse_corpus()``, written
# when the chain witness still came from ``oracle.max_chain`` under a cap of 48.
SPARSE_ANTICHAIN_COVER_SHA256 = "52f28336a7e582ff1e8e4178fd334e0150c7529d111ad96a8a688f537f3b1a3a"


def test_sparse_antichain_cover_certificates_are_byte_identical():
    digest = hashlib.sha256()
    for P, _ in sparse_corpus():
        cert = mirsky_antichain_cover(P)
        digest.update(formats.canonical_json(formats.antichain_cover_certificate(cert)).encode())
    assert digest.hexdigest() == SPARSE_ANTICHAIN_COVER_SHA256


def test_layer_count_equality_exhaustive_n5(posets_n5):
    for P in posets_n5:
        cert = mirsky_antichain_cover(P)
        assert cert.height == max_chain(P).size == len(min_antichain_cover(P))


def test_extremal_layers_meet_every_largest_chain(posets_upto_4):
    # maximal (resp. minimal) elements intersect every maximum chain
    for P in posets_upto_4:
        h = max_chain(P).size
        top, bottom = maximal_elements(P), minimal_elements(P)
        for S in nonempty_subsets(P.elements):
            if len(S) == h and ref_is_chain(P, S):
                assert set(S) & top
                assert set(S) & bottom


def test_every_chain_has_a_greatest_element(posets_upto_4):
    for P in posets_upto_4:
        for S in nonempty_subsets(P.elements):
            if ref_is_chain(P, S):
                tops = [z for z in S if all(P.le(x, z) for x in S)]
                assert len(tops) == 1


def test_check_mirsky(p3, posets_upto_4):
    report = check_mirsky(p3)
    assert (report.height, report.cover_size, report.equal) == (2, 2, True)
    for P in posets_upto_4[::11]:
        assert check_mirsky(P).equal
    with pytest.raises(InstanceTooLarge):
        check_mirsky(p3, cap=2)
