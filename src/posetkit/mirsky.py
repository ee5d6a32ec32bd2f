"""Constructive antichain-cover solver: peel maximal layers until nothing is
left.  The layer count equals the height, which the layers themselves certify
together with a chain that meets every layer once."""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .core import (
    AntichainCover,
    ElementId,
    FinitePoset,
    id_key,
    maximal_elements,
    restrict,
)
from .oracle import DEFAULT_ORACLE_CAP, SizedWitness


@dataclass(frozen=True)
class MirskyCertificate:
    """``layers`` in peel order (global maximals first); ``chain_witness`` has
    exactly one element per layer, proving the layer count is the height."""

    height: int
    chain_witness: frozenset[ElementId]
    layers: AntichainCover


@dataclass(frozen=True)
class MirskyReport:
    height: int
    cover_size: int
    equal: bool


def height(P: FinitePoset, cap: int = DEFAULT_ORACLE_CAP) -> SizedWitness:
    """Size (and witness) of a largest chain."""
    return oracle.max_chain(P, cap)


def mirsky_antichain_cover(P: FinitePoset, cap: int = DEFAULT_ORACLE_CAP) -> MirskyCertificate:
    """Antichain cover of size height(P), as the sequence of maximal layers.

    The peel itself is polynomial and uncapped; the chain witness comes from
    the oracle when the carrier fits under ``cap`` and is otherwise rebuilt by
    walking one element per layer from the last layer upward.
    """
    layers: list[frozenset[ElementId]] = []
    left = set(P.carrier)
    while left:
        layer = maximal_elements(restrict(P, left))
        layers.append(layer)
        left -= layer

    if len(P) <= cap:
        witness = oracle.max_chain(P, cap).witness
        assert len(witness) == len(layers)
    else:
        pick = min(layers[-1], key=id_key)
        picks = [pick]
        for k in range(len(layers) - 2, -1, -1):
            pick = min((z for z in layers[k] if P.le(pick, z)), key=id_key)
            picks.append(pick)
        witness = frozenset(picks)

    return MirskyCertificate(len(layers), witness, tuple(layers))


def check_mirsky(P: FinitePoset, cap: int = DEFAULT_ORACLE_CAP) -> MirskyReport:
    """Surface the height = smallest-antichain-cover-size equality."""
    h = oracle.max_chain(P, cap)
    cert = mirsky_antichain_cover(P, cap)
    return MirskyReport(h.size, len(cert.layers), h.size == len(cert.layers))
