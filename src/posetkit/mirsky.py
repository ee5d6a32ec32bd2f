"""Constructive antichain-cover solver: peel maximal layers L_0 (the maximal
elements), ..., L_{h-1} until nothing is left.  The layer count equals the
height, which the layers certify together with a chain that meets each once.
The peel works on masks: with ``left`` the elements not yet peeled, the next
layer is the bits i of left with no bit of left in up[i]: one bit test per
element left, and no restricted poset is built.
``height`` is this certificate's chain and its size.

That chain is the lexicographically first longest chain, the set
``oracle.max_chain`` returns, found at every size by a greedy on the layer
masks.  x < y puts x in a later layer than y, so a chain of h elements meets
every layer once, in order, and any y_{h-1} < ... < y_0 with each y_k in L_k
is one: the longest chains are exactly the paths through the layers.
``through(A)`` tests whether a mask A holds such a path: reach = L_{h-1} & A,
then reach = L_k & A & (the OR of up[i] over reach) for each higher layer,
each element ORed at most once.  The greedy starts from allowed = all and
scans the indices once, upwards: when i is in allowed and trial = the chain,
i and the elements of allowed comparable to i above index i passes
``through``, it adds i to the chain and sets allowed = trial.  Two elements
of one layer are incomparable, so trial meets each chosen element's layer
only in that element and every path through trial holds the whole chain so
far: the lowest feasible index at each step gives the lexicographically
first.  A failed i needs no retry, as the next choice lies above it and
allowed then drops every lower index.
"""

from __future__ import annotations

from typing import NamedTuple

from . import oracle
from .core import AntichainCover, ElementId, FinitePoset, _extremal, _ids, _union
from .oracle import DEFAULT_ORACLE_CAP, SizedWitness


class MirskyCertificate(NamedTuple):
    """``layers`` in peel order (global maximals first); ``chain_witness`` has
    exactly one element per layer, proving the layer count is the height."""

    height: int
    chain_witness: frozenset[ElementId]
    layers: AntichainCover


class MirskyReport(NamedTuple):
    height: int
    cover_size: int
    equal: bool


def height(P: FinitePoset) -> SizedWitness:
    """Size (and witness) of a largest chain: the chain witness of the
    maximal-layer peel, which is the lexicographically first."""
    cert = mirsky_antichain_cover(P)
    return SizedWitness(cert.chain_witness, cert.height)


def _layers(P: FinitePoset) -> list[int]:
    """The maximal layers of P as masks, in peel order; there are height(P)."""
    layers: list[int] = []
    left = (1 << len(P)) - 1
    while left:
        layers.append(_extremal(P.up, left, left))
        left &= ~layers[-1]
    return layers


def mirsky_antichain_cover(P: FinitePoset) -> MirskyCertificate:
    """Antichain cover of size height(P), as the sequence of maximal layers,
    with the lexicographically first longest chain as its witness; both are
    polynomial (see the module docstring)."""
    layers = _layers(P)
    bottom_up = layers[::-1]

    def through(A: int) -> bool:
        reach = bottom_up[0] & A
        for layer in bottom_up[1:]:
            reach = layer & A & _union(P.up, reach)
        return bool(reach)

    allowed, chain = (1 << len(P)) - 1, 0
    for i in range(len(P)):
        if allowed >> i & 1:
            trial = chain | 1 << i | allowed & (P.up[i] | P.down[i]) & -(2 << i)
            if through(trial):
                chain, allowed = chain | 1 << i, trial
    return MirskyCertificate(len(layers), _ids(P, chain), tuple(_ids(P, layer) for layer in layers))


def check_mirsky(P: FinitePoset, cap: int = DEFAULT_ORACLE_CAP) -> MirskyReport:
    """Surface the height = smallest-antichain-cover-size equality."""
    h, cover_size = oracle.max_chain(P, cap).size, len(_layers(P))
    return MirskyReport(h, cover_size, h == cover_size)
