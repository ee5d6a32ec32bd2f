"""Mutated certificates: ``verify`` rejects them, by a verdict or a one-line
diagnostic, and never with another exception.

Every mutation here breaks the certificate it is applied to: a dropped key or
list entry, a list entry given twice, a value of another JSON type, an id or
a number no instance holds.  The ``meta`` block is documentation that
``verify`` does not read, so it is left alone.
"""

from __future__ import annotations

import contextlib
import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posetkit import formats
from posetkit.cli import run_command
from posetkit.errors import PosetKitError

P3 = {"kind": "poset", "elements": ["a", "b", "c"], "edges": [["a", "b"]]}
CHAIN3 = {"kind": "poset", "elements": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
K22 = {"kind": "bigraph", "left": ["l1", "l2"], "right": ["r1", "r2"],
       "edges": [["l1", "r1"], ["l1", "r2"], ["l2", "r1"], ["l2", "r2"]]}
BADGRAPH = {"kind": "bigraph", "left": ["l1", "l2"], "right": ["r1"],
            "edges": [["l1", "r1"], ["l2", "r1"]]}
FAMILY = {"kind": "family", "members": {"S1": ["x", "y"], "S2": ["y"], "S3": ["x", "z"]}}
BADFAMILY = {"kind": "family", "members": {"S1": ["x"], "S2": ["x"]}}
SEQ = {"kind": "sequence", "values": [3, 4, 1, 2, 5]}

# One solve per certificate kind and shape; CHAIN3 gives the sizes 1 that a
# boolean could pass for.
SOLVES = [
    ("width", P3, ()), ("width", CHAIN3, ()),
    ("height", P3, ()), ("height", CHAIN3, ()),
    ("chain-cover", P3, ()), ("chain-cover", CHAIN3, ()),
    ("antichain-cover", P3, ()), ("antichain-cover", CHAIN3, ()),
    ("check-dilworth", P3, ()), ("check-dilworth", CHAIN3, ()),
    ("check-mirsky", P3, ()),
    ("matching", K22, ()), ("matching", BADGRAPH, ()),
    ("sdr", FAMILY, ()), ("sdr", BADFAMILY, ()),
    ("es", SEQ, ("-m", "2", "-n", "2")),
]

STRAY = "zz-not-in-any-instance"
JSON_VALUES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-3, 3),
    float: st.floats(-3, 3),
    str: st.text(max_size=3),
    list: st.lists(st.integers(-3, 3) | st.text(max_size=2), max_size=3),
    dict: st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
}


def _paths(node, prefix=()):
    """Every key or index path below the root, outside ``meta``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if prefix or key != "meta":
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


def _replacement(value, draw):
    """A value of the same JSON type that no instance holds; objects are
    only dropped or retyped, as dropping their keys covers the rest."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + draw(st.sampled_from([-1000, 1000]))
    if isinstance(value, str):
        return STRAY
    return value + [STRAY]


def mutate(cert, draw):
    out = copy.deepcopy(cert)
    path = draw(st.sampled_from(list(_paths(out))))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    ops = ["drop", "retype"] if isinstance(value, dict) else ["drop", "retype", "replace"]
    op = draw(st.sampled_from(ops + ["duplicate"] if isinstance(value, list) and value else ops))
    if op == "drop":
        del parent[path[-1]]
    elif op == "duplicate":
        i = draw(st.integers(0, len(value) - 1))
        value.insert(i, copy.deepcopy(value[i]))
    elif op == "retype":
        other = draw(st.sampled_from([t for t in JSON_VALUES if t is not type(value)]))
        parent[path[-1]] = draw(JSON_VALUES[other])
    else:
        parent[path[-1]] = _replacement(value, draw)
    return out


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """(instance path, parsed instance, certificate) for each solve."""
    tmp = tmp_path_factory.mktemp("solved")
    out = []
    for i, (command, payload, extra) in enumerate(SOLVES):
        inst_path = tmp / f"inst-{i}.json"
        inst_path.write_text(json.dumps(payload))
        cert_path = tmp / f"cert-{i}.json"
        with open(cert_path, "w") as fh, contextlib.redirect_stdout(fh):
            assert run_command([command, str(inst_path), *extra]) in (0, 1)
        out.append((inst_path, formats.parse_instance(json.dumps(payload)),
                    json.loads(cert_path.read_text())))
    return out


@pytest.mark.parametrize("i", range(len(SOLVES)), ids=[f"{c}-{i}" for i, (c, _, _) in enumerate(SOLVES)])
@settings(max_examples=75, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_certificate_is_rejected(i, data, solved, tmp_path, capsys):
    inst_path, inst, cert = solved[i]
    bad = mutate(cert, data.draw)
    try:
        verdict = formats.verify_certificate(inst, bad)
    except PosetKitError:
        pass
    else:
        assert verdict[0] is False and isinstance(verdict[1], str), (bad, verdict)

    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(bad))
    capsys.readouterr()
    code = run_command(["verify", str(inst_path), str(cert_path)])
    captured = capsys.readouterr()
    assert code in (1, 2), (bad, captured)
    if code == 2:
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
