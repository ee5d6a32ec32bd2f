"""File formats, certificate verification, and the batch CLI."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetkit
from posetkit import find_sdr, formats, oracle
from posetkit.cli import run_command
from posetkit.errors import ParseError, ValidationError
from posetkit.oracle import DEFAULT_ORACLE_CAP

from conftest import grid, random_poset, sparse_poset, standard_example

P3 = {"kind": "poset", "elements": ["a", "b", "c"], "edges": [["a", "b"]]}
K22 = {"kind": "bigraph", "left": ["l1", "l2"], "right": ["r1", "r2"],
       "edges": [["l1", "r1"], ["l1", "r2"], ["l2", "r1"], ["l2", "r2"]]}
BADGRAPH = {"kind": "bigraph", "left": ["l1", "l2"], "right": ["r1"],
            "edges": [["l1", "r1"], ["l2", "r1"]]}
FAMILY = {"kind": "family", "members": {"S1": ["x", "y"], "S2": ["y"], "S3": ["x", "z"]}}
BADFAMILY = {"kind": "family", "members": {"S1": ["x"], "S2": ["x"]}}
SEQ = {"kind": "sequence", "values": [3, 4, 1, 2, 5]}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def _poset_payload(P):
    return {"kind": "poset", "elements": list(P.elements),
            "edges": [[x, y] for x in P.elements for y in P.elements if P.lt(x, y)]}


def _es_instances(rng, count):
    """``count`` random (m, n, values): m·n + 1 <= 20 distinct values."""
    out = []
    for _ in range(count):
        m = rng.randint(0, 6)
        n = rng.randint(0, 19 // max(m, 1))
        out.append((m, n, rng.sample(range(-40, 40), m * n + 1)))
    return out


# --- parsing ------------------------------------------------------------------


def test_parse_poset_instance():
    inst = formats.parse_instance(json.dumps(P3))
    assert inst.kind == "poset"
    assert inst.data.le("a", "b")


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        formats.parse_instance("{not json")
    with pytest.raises(ParseError):
        formats.parse_instance(b"\xff\xfe")


def test_parse_rejects_invalid_instances():
    with pytest.raises(ValidationError):
        formats.parse_instance(json.dumps({"kind": "nope"}))
    with pytest.raises(ValidationError):  # dangling endpoint
        formats.parse_instance(json.dumps(
            {"kind": "poset", "elements": ["a"], "edges": [["a", "b"]]}))
    with pytest.raises(ValidationError):  # cycle
        formats.parse_instance(json.dumps(
            {"kind": "poset", "elements": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}))
    with pytest.raises(ValidationError):  # duplicate id
        formats.parse_instance(json.dumps(
            {"kind": "poset", "elements": ["a", "a"], "edges": []}))
    with pytest.raises(ValidationError):  # L/R overlap
        formats.parse_instance(json.dumps(
            {"kind": "bigraph", "left": ["a"], "right": ["a"], "edges": []}))
    with pytest.raises(ValidationError):  # duplicate value
        formats.parse_instance(json.dumps({"kind": "sequence", "values": [1, 1]}))
    with pytest.raises(ValidationError):  # duplicate member name
        formats.parse_instance('{"kind": "family", "members": {"S": ["x"], "S": ["y"]}}')


BAD_IDS = [True, 1.5, None, ["a"]]
ID_PLACES = {
    "poset-element": lambda x: {"kind": "poset", "elements": ["a", x], "edges": []},
    "poset-endpoint": lambda x: {"kind": "poset", "elements": ["a"], "edges": [["a", x]]},
    "bigraph-left": lambda x: {"kind": "bigraph", "left": [x], "right": ["r"], "edges": []},
    "bigraph-right": lambda x: {"kind": "bigraph", "left": ["l"], "right": [x], "edges": []},
    "bigraph-endpoint": lambda x: {"kind": "bigraph", "left": ["l"], "right": ["r"], "edges": [[x, "r"]]},
}


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
@pytest.mark.parametrize("place", list(ID_PLACES))
def test_parse_rejects_non_id_elements_and_endpoints(tmp_path, capsys, place, bad):
    # formats checks only the JSON shape; the builders check every id
    payload = ID_PLACES[place](bad)
    with pytest.raises(ValidationError):
        formats.parse_instance(json.dumps(payload))
    command = "width" if payload["kind"] == "poset" else "matching"
    assert run_command([command, write(tmp_path, "bad.json", payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _bad_inputs():
    """(argv, instance bytes, certificate bytes or None) for inputs that
    break one rule or two; with two, the diagnostic names the earlier."""
    dump = lambda doc: json.dumps(doc).encode()
    poset = lambda elements, edges: dump({"kind": "poset", "elements": elements, "edges": edges})
    bigraph = lambda left, right, edges: dump({"kind": "bigraph", "left": left, "right": right,
                                               "edges": edges})
    family = lambda members: dump({"kind": "family", "members": members})
    p3, k22, fam = dump(P3), dump(K22), dump(FAMILY)
    runs = [
        (["width"], b"\xef\xbb\xbf" + p3, None),
        (["verify"], p3, b"\xef\xbb\xbf" + dump({"kind": "width", "size": 2, "witness": ["a", "c"]})),
        (["width"], b'{"kind": "poset", "elements": ["\xff"], "edges": []}', None),
        (["width"], b'{"kind": "poset", "kind": "poset", "elements": ["a"], "edges": []}', None),
        (["sdr"], b'{"kind": "family", "members": {"S": ["x"], "T": ["y"], "S": ["z"]}}', None),
        (["sdr"], b'{"kind": "family", "kind": "family", "members": {"S": ["x"], "S": ["y"]}}', None),
        (["verify"], p3, b'{"kind": "width", "size": 2, "witness": ["a", "c"],'
                         b' "meta": {"x": 1, "y": 2, "x": 3}}'),
    ]
    for edges in ([["a", "b"], ["a"]], [["a", "b"], ["b", "c"], ["a", "b", "c"]], ["ab"], [5],
                  [["a", "b"], {"a": "b"}], {"a": "b"}, [[]], [["a", "b"], ["c", "zz"], ["c"]]):
        runs.append((["width"], poset(["a", "b", "c"], edges), None))
        runs.append((["matching"], bigraph(["a", "c"], ["b"], edges), None))
        runs.append((["verify"], k22, dump({"kind": "matching", "pairs": edges})))
    for bad in BAD_IDS:
        runs += [
            (["width"], poset(["a", bad, "b"], []), None),
            (["width"], poset(["a", "b"], [["a", "b"], [bad, "a"]]), None),
            (["width"], poset(["a", "b"], [["a", "b"], ["a", bad]]), None),
            (["matching"], bigraph(["l", bad], ["r"], []), None),
            (["matching"], bigraph(["l"], ["r", bad], []), None),
            (["matching"], bigraph(["l"], ["r"], [["l", "r"], [bad, "r"]]), None),
            (["matching"], bigraph(["l"], ["r"], [["l", "r"], ["l", bad]]), None),
            (["sdr"], family({"S": ["x"], "T": ["y", bad]}), None),
            (["verify"], p3, dump({"kind": "width", "size": 2, "witness": ["a", bad]})),
            (["verify"], p3, dump({"kind": "chain-cover", "width": 2, "antichain": ["a", "c"],
                                   "cover": [["a", "b"], ["c", bad]]})),
            (["verify"], k22, dump({"kind": "matching", "pairs": [["l1", "r1"], ["l2", bad]]})),
            (["verify"], fam, dump({"kind": "sdr", "violation": {"set": ["S1", bad], "deficiency": 1}})),
            (["verify"], fam, dump({"kind": "sdr", "choice": {"S1": "x", "S2": bad, "S3": "z"}})),
        ]
    runs += [
        (["width"], poset(["a", "b"], [["a", "b"], ["b", "zz"]]), None),
        (["width"], poset(["a", "b"], [["zz", "a"]]), None),
        (["width"], poset([1, 2, "a"], [[1, 2], [2, "2"]]), None),
        (["width"], poset(["a", "b"], [["a", "b"], ["b", "a"]]), None),
        (["width"], poset(["a", "b", "c"], [["a", "b"], ["b", "c"], ["c", "a"]]), None),
        (["width"], poset(["a", "b", "c"], [["a", "a"], ["b", "c"], ["c", "b"]]), None),
        (["width"], poset([3, "b", 1, "a"], [[3, "b"], [1, 3], ["a", "b"]]), None),
        (["matching"], bigraph(["l"], ["r"], [["r", "l"]]), None),
        (["matching"], bigraph(["l"], ["r"], [["l", "zz"]]), None),
        # two faults: the earlier one is named
        (["width"], poset(["a", True, 1.5], []), None),
        (["width"], poset(["a", None], [["a", True]]), None),
        (["width"], poset(["a", "a"], [["a", True]]), None),
        (["width"], poset(["a", "b"], [["a", "zz"], ["a", True]]), None),
        (["width"], poset(["a", "b"], [["a", True], ["a", "zz"]]), None),
        (["width"], poset(["a", "b"], [["a", "zz"], ["b", "a"], ["a", "b"]]), None),
        (["width"], poset(["a", "b"], [["a", 1.5], ["x"]]), None),
        (["width"], poset(["a", "b"], [[None, "zz"]]), None),
        (["width"], poset(["a", "b"], [["zz", None]]), None),
        (["matching"], bigraph(["l", True], ["r", 1.5], []), None),
        (["matching"], bigraph(["l"], ["r"], [["l", "zz"], [True, "r"]]), None),
        (["matching"], bigraph(["l"], ["r"], [["zz", True]]), None),
        (["sdr"], family({"S": [True], "T": [1.5]}), None),
        (["sdr"], family({"S": ["x", "x"], "T": [None]}), None),
        (["verify"], k22, dump({"kind": "matching", "pairs": [["l1", True], ["l2"]]})),
        (["verify"], k22, dump({"kind": "matching", "pairs": [[None, "r1"], ["l2", True]]})),
    ]
    return runs


# sha256 of the exit code and stderr of every run of ``_bad_inputs()``,
# written while every id was checked by a per-item loop.
DIAGNOSTICS_SHA256 = "bb951ea0b7da04403cdd4dc4edaa3d6ae665453866dd8c9686ed450bd3229e56"


def test_diagnostics_of_bad_inputs_are_unchanged(tmp_path, capsys):
    digest = hashlib.sha256()
    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    runs = _bad_inputs()
    for argv, inst_bytes, cert_bytes in runs:
        inst.write_bytes(inst_bytes)
        paths = [str(inst)]
        if cert_bytes is not None:
            cert.write_bytes(cert_bytes)
            paths.append(str(cert))
        code = run_command(argv[:1] + paths + argv[1:])
        err = capsys.readouterr().err
        assert err.count("\n") == (code == 2), (argv, inst_bytes, cert_bytes, err)
        digest.update(repr((code, err)).encode())
    assert len(runs) == 108
    assert digest.hexdigest() == DIAGNOSTICS_SHA256


# Strings mixing non-ASCII, quotes, backslashes, control characters and lone surrogates.
JSON_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028'))
JSON_VALUES = st.recursive(
    st.booleans() | st.integers() | st.integers(min_value=2**64, max_value=2**200).map(lambda x: -x)
    | st.integers(min_value=2**64) | JSON_TEXT,
    lambda children: st.lists(children) | st.dictionaries(JSON_TEXT, children),
    max_leaves=20)


def _reference_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_canonical_json_writes_what_json_dumps_writes(obj):
    assert formats.canonical_json(obj) == _reference_json(obj)


def test_canonical_json_of_deep_nesting_and_empty_containers():
    deep = {"a": []}
    for i in range(200):
        deep = [{}, {"k": deep, "": [[]]}] if i % 2 else {"z": deep, "y": [i, {}]}
    assert formats.canonical_json(deep) == _reference_json(deep)


@pytest.mark.parametrize("obj", [1.5, (1, 2), {1: "a"}, {"a": 1, 2: "b"}, None,
                                 {"a": [1, {"b": 0.5}]}, ["a", ("b",)]], ids=repr)
def test_canonical_json_rejects_what_certificates_do_not_hold(obj):
    with pytest.raises(TypeError):
        formats.canonical_json(obj)


# --- commands -----------------------------------------------------------------


def test_width_and_height_commands(tmp_path, capsys):
    inst = write(tmp_path, "p3.json", P3)
    code, out = run(tmp_path, capsys, "width", inst)
    assert code == 0
    assert out["size"] == 2 and out["witness"] == ["a", "c"]
    code, out = run(tmp_path, capsys, "height", inst)
    assert code == 0
    assert out["size"] == 2 and out["witness"] == ["a", "b"]


def test_chain_cover_command(tmp_path, capsys):
    inst = write(tmp_path, "p3.json", P3)
    code, out = run(tmp_path, capsys, "chain-cover", inst)
    assert code == 0
    assert out["width"] == 2
    assert out["cover"] == [["a", "b"], ["c"]]


def test_antichain_cover_command(tmp_path, capsys):
    inst = write(tmp_path, "p3.json", P3)
    code, out = run(tmp_path, capsys, "antichain-cover", inst)
    assert code == 0
    assert out["height"] == 2
    assert out["layers"] == [["b", "c"], ["a"]]


def test_check_commands(tmp_path, capsys):
    inst = write(tmp_path, "p3.json", P3)
    code, out = run(tmp_path, capsys, "check-dilworth", inst)
    assert code == 0 and out["equal"] is True and out["width"] == 2
    code, out = run(tmp_path, capsys, "check-mirsky", inst)
    assert code == 0 and out["equal"] is True and out["height"] == 2


def test_matching_command(tmp_path, capsys):
    good = write(tmp_path, "k22.json", K22)
    code, out = run(tmp_path, capsys, "matching", good)
    assert code == 0
    assert out["pairs"] == [["l1", "r1"], ["l2", "r2"]]
    bad = write(tmp_path, "bad.json", BADGRAPH)
    code, out = run(tmp_path, capsys, "matching", bad)
    assert code == 1
    assert out["violation"] == {"set": ["l1", "l2"], "deficiency": 1}


def test_sdr_command(tmp_path, capsys):
    good = write(tmp_path, "family.json", FAMILY)
    code, out = run(tmp_path, capsys, "sdr", good)
    assert code == 0
    assert out["choice"] == {"S1": "x", "S2": "y", "S3": "z"}
    bad = write(tmp_path, "badfam.json", BADFAMILY)
    code, out = run(tmp_path, capsys, "sdr", bad)
    assert code == 1
    assert out["violation"] == {"set": ["S1", "S2"], "deficiency": 1}


def test_es_command(tmp_path, capsys):
    inst = write(tmp_path, "seq.json", SEQ)
    code, out = run(tmp_path, capsys, "es", inst, "-m", "2", "-n", "2")
    assert code == 0
    assert out["direction"] == "increasing" and len(out["values"]) == 3


@pytest.mark.parametrize("argv,payload,cert,message", [
    (["width"], [P3], None, "instance must be a JSON object"),
    (["sdr"], {"kind": "family", "members": [["x"]]}, None, "members: expected an object"),
    (["sdr"], {"kind": "family", "members": {"S": ["x", "x"]}}, None,
     "members['S']: duplicate id in member"),
    (["es", "-m", "0", "-n", "0"], {"kind": "sequence", "values": 5}, None,
     "values: expected a list of integers"),
    (["verify"], P3, [], "certificate must be a JSON object"),
    (["matching"], {"kind": "bigraph", "left": ["l", "l"], "right": ["r"], "edges": []}, None,
     "duplicate vertex id within a part"),
    (["matching"], {"kind": "bigraph", "left": ["l"], "right": ["r"], "edges": [["l", "l"]]}, None,
     "edge target 'l' is not a right vertex"),
    (["es", "-m", "-1", "-n", "-3"], {"kind": "sequence", "values": [1, 2, 3]}, None,
     "m and n must be non-negative"),
], ids=["instance-not-object", "members-not-object", "member-repeats-an-id",
        "values-not-list", "certificate-not-object", "part-repeats-a-vertex", "edge-target-not-right",
        "es-negative-m-or-n"])
def test_each_validation_branch_exits_2_with_one_line(tmp_path, capsys, argv, payload, cert, message):
    argv = argv[:1] + [write(tmp_path, "inst.json", payload)] + argv[1:]
    if cert is not None:
        argv.append(write(tmp_path, "cert.json", cert))
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_input_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run_command(["width", missing]) == 2
    capsys.readouterr()
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert run_command(["width", str(broken)]) == 2
    capsys.readouterr()
    inst = write(tmp_path, "p3.json", P3)
    assert run_command(["matching", inst]) == 2  # kind mismatch
    capsys.readouterr()
    assert run_command(["--oracle-cap", "2", "width", inst]) == 2
    assert "raise it with --oracle-cap" in capsys.readouterr().err
    seq = write(tmp_path, "seq.json", SEQ)
    assert run_command(["es", seq, "-m", "3", "-n", "3"]) == 2  # wrong cardinality
    capsys.readouterr()
    graph = write(tmp_path, "badgraph.json", BADGRAPH)
    assert run_command(["--subset-cap", "1", "matching", graph]) == 2
    assert "raise it with --subset-cap" in capsys.readouterr().err
    with pytest.raises(ValidationError):
        formats.parse_instance(json.dumps({"kind": "sequence", "values": [1.5]}))


def _long_augmenting_path():
    """Left a0000..a0999 and a9999, right b0000..b1000, edges a_i-b_i and
    a_i-b_{i+1}, and a9999-b0000: Kuhn's path from a9999 runs through every
    a_i, 1,000 steps long."""
    left = [f"a{i:04d}" for i in range(1000)] + ["a9999"]
    right = [f"b{i:04d}" for i in range(1001)]
    edges = [[f"a{i:04d}", f"b{i + d:04d}"] for i in range(1000) for d in (0, 1)]
    return left, right, edges + [["a9999", "b0000"]]


@pytest.mark.parametrize("command,payload,flag", [
    ("chain-cover", {"kind": "poset", "elements": [f"e{i}" for i in range(21)], "edges": []},
     "--oracle-cap"),
    ("matching", {"kind": "bigraph", "left": [f"l{i}" for i in range(10)],
                  "right": [f"r{i}" for i in range(11)],
                  "edges": [[f"l{i}", f"r{i}"] for i in range(10)]}, "--oracle-cap"),
    ("matching", {"kind": "bigraph", "left": [f"l{i}" for i in range(21)], "right": ["r"],
                  "edges": []}, "--subset-cap"),
    # Kuhn's 1,000-step augmenting path runs first, and meets no stack limit
    ("matching", dict(zip(("left", "right", "edges"), _long_augmenting_path()), kind="bigraph"),
     "--oracle-cap"),
], ids=["chain-cover", "matching-poset", "matching-left-part", "matching-long-path"])
def test_oversized_instance_names_the_flag_that_raises_the_cap(tmp_path, capsys, command, payload, flag):
    inst = write(tmp_path, "big.json", payload)
    assert run_command([command, inst]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


def test_a_large_poset_leaves_stderr_empty(tmp_path):
    inst = write(tmp_path, "anti70.json",
                 {"kind": "poset", "elements": [f"e{i}" for i in range(70)], "edges": []})
    env = dict(os.environ, PYTHONPATH=str(Path(posetkit.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "posetkit.cli", "--oracle-cap", "100",
                           "antichain-cover", inst], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "") and json.loads(done.stdout)["height"] == 1


def test_recursion_past_the_stack_limit_is_a_one_line_error(tmp_path, capsys):
    # JSON nested this deep makes json.loads raise RecursionError
    inst = tmp_path / "deep.json"
    inst.write_text("[" * 50_000 + "]" * 50_000)
    assert run_command(["--oracle-cap", "5000", "chain-cover", str(inst)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.fixture
def int_digit_limit():
    """CPython's default limit on int literal digits, set for the test."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


def test_an_int_past_the_digit_limit_is_a_one_line_error(tmp_path, capsys, int_digit_limit):
    huge = "9" * (int_digit_limit + 1)
    inst = tmp_path / "big.json"
    inst.write_text('{"kind": "sequence", "values": [' + huge + "]}")
    seq = write(tmp_path, "seq.json", SEQ)
    cert = tmp_path / "cert.json"
    cert.write_text('{"kind": "es", "direction": "increasing", "values": [' + huge + "]}")
    for argv in (["es", str(inst), "-m", "1", "-n", "1"], ["verify", seq, str(cert)]):
        assert run_command(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: input is not valid JSON: ") and captured.err.count("\n") == 1


def _long(tmp_path, shape):
    """A 1,000-element chain or antichain instance file."""
    names = [f"e{i:04d}" for i in range(1000)]
    edges = [list(pair) for pair in zip(names, names[1:])] if shape == "chain" else []
    return write(tmp_path, f"{shape}.json", {"kind": "poset", "elements": names, "edges": edges})


@pytest.mark.parametrize("shape", ["chain", "antichain"])
@pytest.mark.parametrize("command", ["height", "antichain-cover"])
def test_heights_of_long_inputs_need_no_cap(tmp_path, capsys, command, shape):
    inst = _long(tmp_path, shape)
    assert run_command([command, inst]) == 0
    cert = tmp_path / "cert.json"
    cert.write_text(capsys.readouterr().out)
    code, out = run(tmp_path, capsys, "verify", inst, str(cert))
    assert (code, out["valid"]) == (0, True)


def test_width_of_a_long_chain_runs_the_top_frame_only(tmp_path, capsys):
    # the width is the top frame's matching and first antichain, nothing more
    code, out = run(tmp_path, capsys, "--oracle-cap", "5000", "width", _long(tmp_path, "chain"))
    assert code == 0 and out["size"] == 1 and out["witness"] == ["e0000"]


@pytest.mark.parametrize("argv,shape", [
    (["chain-cover"], "chain"),
    (["check-dilworth"], "chain"),
    (["check-mirsky"], "chain"),
    (["width"], "antichain"),
    (["chain-cover"], "antichain"),
    (["check-dilworth"], "antichain"),
    (["es", "-m", "1", "-n", "1000"], "decreasing"),
], ids=["chain-cover-chain", "check-dilworth-chain", "check-mirsky-chain", "width-antichain",
        "chain-cover-antichain", "check-dilworth-antichain", "es-decreasing"])
def test_long_inputs_certify_with_the_cap_raised(tmp_path, capsys, argv, shape):
    # 1,000 elements: Perles, Kuhn and the antichain searches keep their
    # paths on explicit stacks, so none of them meets the recursion limit
    if shape == "decreasing":
        inst = write(tmp_path, "seq.json", {"kind": "sequence", "values": list(range(1000, -1, -1))})
    else:
        inst = _long(tmp_path, shape)
    assert run_command(["--oracle-cap", "5000", argv[0], inst, *argv[1:]]) == 0
    path = write(tmp_path, "cert.json", json.loads(capsys.readouterr().out))
    code, out = run(tmp_path, capsys, "verify", inst, path)
    assert (code, out) == (0, {"kind": "verification", "valid": True, "detail": "ok"})


@pytest.mark.parametrize("cert", [
    {"kind": "width", "size": 1, "witness": ["a0000"]},
    {"kind": "dilworth-report", "width": 1, "cover_size": 1, "equal": True},
], ids=["width", "dilworth-report"])
def test_verify_walks_a_long_augmenting_path(tmp_path, capsys, cert):
    # verify takes no cap; Kuhn's matching gives the width 1,001 here
    left, right, edges = _long_augmenting_path()
    inst = write(tmp_path, "poset.json", {"kind": "poset", "elements": left + right, "edges": edges})
    code, out = run(tmp_path, capsys, "verify", inst, write(tmp_path, "cert.json", cert))
    assert (code, out["valid"]) == (1, False)


@pytest.mark.parametrize("command,size,wrong", [
    ("width", "size", "poset width differs from the claimed size"),
    ("check-dilworth", "width", "report field 'width' does not match a recomputation"),
    ("check-mirsky", "height", "report field 'height' does not match a recomputation"),
], ids=["width", "check-dilworth", "check-mirsky"])
def test_certificates_above_the_cap_verify_at_the_default_cap(tmp_path, capsys, command, size, wrong):
    P = sparse_poset(random.Random(5), 30, 0.05)
    inst = write(tmp_path, "sparse.json", _poset_payload(P))
    assert run_command(["--oracle-cap", "48", command, inst]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert[size] > 2
    path = write(tmp_path, "cert.json", cert)
    code, out = run(tmp_path, capsys, "verify", inst, path)
    assert (code, out) == (0, {"kind": "verification", "valid": True, "detail": "ok"})
    # one less, consistent within the certificate (a smaller antichain, or a
    # report whose two sizes agree), is not the poset's size
    cert[size] -= 1
    if command == "width":
        cert["witness"].pop()
    else:
        cert["cover_size"] -= 1
    path = write(tmp_path, "cert.json", cert)
    code, out = run(tmp_path, capsys, "verify", inst, path)
    assert (code, out["valid"], out["detail"]) == (1, False, wrong)


def test_solvers_and_verify_do_not_call_the_oracle(monkeypatch, seeded_posets):
    # the oracle is the reference that the check-* reports compare against,
    # never a second path to an answer
    def refuse(*args, **kwargs):
        raise AssertionError("oracle called")

    capped = argparse.Namespace(oracle_cap=DEFAULT_ORACLE_CAP)
    # the reports are written by the oracle, then verified without it
    reports = [(P, formats.CERTIFICATE_KINDS[kind].solve(P, capped))
               for P in seeded_posets for kind in ("dilworth-report", "mirsky-report")]
    monkeypatch.setattr(oracle, "max_antichain", refuse)
    monkeypatch.setattr(oracle, "max_chain", refuse)
    runs = [(P, formats.POSET, command, capped)
            for P in seeded_posets for command in ("width", "height", "chain-cover", "antichain-cover")]
    runs += [(posetkit.seq_from_list(values), formats.SEQUENCE, "subsequence",
              argparse.Namespace(oracle_cap=DEFAULT_ORACLE_CAP, m=m, n=n))
             for m, n, values in _es_instances(random.Random(7), 300)]
    for data, kind, command, args in runs:
        cert = formats.CERTIFICATE_KINDS[command].solve(data, args)
        assert formats.verify_certificate(formats.Instance(kind, data), cert) == (True, "ok"), (command, data)
    for P, cert in reports:
        assert formats.verify_certificate(formats.Instance(formats.POSET, P), cert) == (True, "ok"), (cert, P)


def test_a_bad_argv_leaves_the_next_run_as_a_fresh_process_would(tmp_path, capsys):
    inst = write(tmp_path, "p3.json", P3)
    env = dict(os.environ, PYTHONPATH=str(Path(posetkit.__file__).resolve().parents[1]))
    for argv in (["--oracle-cap", "x", "chain-cover", inst], ["chain-cover", inst]):
        code = run_command(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "posetkit.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0 and fresh.stdout


# --- verification -------------------------------------------------------------


ALL_SOLVES = [
    ("width", P3, ()),
    ("height", P3, ()),
    ("chain-cover", P3, ()),
    ("antichain-cover", P3, ()),
    ("check-dilworth", P3, ()),
    ("check-mirsky", P3, ()),
    ("matching", K22, ()),
    ("matching", BADGRAPH, ()),
    ("sdr", FAMILY, ()),
    ("sdr", BADFAMILY, ()),
    ("es", SEQ, ("-m", "2", "-n", "2")),
]


@pytest.mark.parametrize("command,payload,extra", ALL_SOLVES)
def test_solver_output_round_trips_through_verify(tmp_path, capsys, command, payload, extra):
    inst = write(tmp_path, "inst.json", payload)
    code = run_command([command, inst, *extra])
    cert_text = capsys.readouterr().out
    assert code in (0, 1)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(cert_text)
    code, out = run(tmp_path, capsys, "verify", inst, str(cert_path))
    assert code == 0
    assert out == {"kind": "verification", "valid": True, "detail": "ok"}


BY_INSTANCE_KIND = {"poset": P3, "bigraph": K22, "family": FAMILY, "sequence": SEQ}


@pytest.mark.parametrize("kind", list(formats.CERTIFICATE_KINDS))
def test_a_wrong_instance_kind_exits_2(tmp_path, capsys, kind):
    row = formats.CERTIFICATE_KINDS[kind]
    extras = [extra for command, _payload, extra in ALL_SOLVES if command == row.command]
    assert extras, f"{row.command!r} has no round trip in ALL_SOLVES"
    extra = extras[0]
    right = write(tmp_path, "right.json", BY_INSTANCE_KIND[row.instance])
    run_command([row.command, right, *extra])
    cert_text = capsys.readouterr().out
    assert json.loads(cert_text)["kind"] == kind
    cert = tmp_path / "cert.json"
    cert.write_text(cert_text)
    for instance_kind, payload in BY_INSTANCE_KIND.items():
        if instance_kind == row.instance:
            continue
        wrong = write(tmp_path, "wrong.json", payload)
        for argv in ([row.command, wrong, *extra], ["verify", wrong, str(cert)]):
            assert run_command(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_rejects_tampered_cover(tmp_path, capsys):
    inst = write(tmp_path, "p3.json", P3)
    run_command(["chain-cover", inst])
    cert = json.loads(capsys.readouterr().out)
    cert["cover"] = [["a", "b"]]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, out = run(tmp_path, capsys, "verify", inst, str(cert_path))
    assert code == 1
    assert out["valid"] is False


def test_verify_rejects_wrong_claims(tmp_path, capsys):
    inst = write(tmp_path, "p3.json", P3)

    def verdict(cert):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cert))
        code, out = run(tmp_path, capsys, "verify", inst, str(path))
        return code, out["valid"]

    assert verdict({"kind": "width", "size": 1, "witness": ["a"]}) == (1, False)
    assert verdict({"kind": "width", "size": 2, "witness": ["a", "b"]}) == (1, False)
    assert verdict({"kind": "chain-cover", "width": 2, "antichain": ["a", "c"],
                    "cover": [["a", "b"], ["a", "c"]]}) == (1, False)
    assert verdict({"kind": "antichain-cover", "height": 2, "chain": ["a", "b"],
                    "layers": [["b", "c"]]}) == (1, False)
    assert verdict({"kind": "dilworth-report", "width": 2, "cover_size": 3,
                    "equal": False}) == (1, False)
    assert verdict({"kind": "dilworth-report", "width": 2, "cover_size": 2,
                    "equal": False}) == (1, False)


def test_verify_matching_and_sdr_violations_recheck(tmp_path, capsys):
    graph = write(tmp_path, "g.json", BADGRAPH)
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(
        {"kind": "matching", "violation": {"set": ["l1"], "deficiency": 1}}))
    code, out = run(tmp_path, capsys, "verify", graph, str(forged))
    assert code == 1 and out["valid"] is False

    fam = write(tmp_path, "f.json", BADFAMILY)
    forged.write_text(json.dumps(
        {"kind": "sdr", "violation": {"set": ["S1"], "deficiency": 1}}))
    code, out = run(tmp_path, capsys, "verify", fam, str(forged))
    assert code == 1 and out["valid"] is False


def test_verify_rejects_a_violation_that_names_a_member_twice(tmp_path, capsys):
    # {"S1": ["x"]} has an SDR; counting S1 twice forged a deficiency of 1.
    fam = write(tmp_path, "f.json", {"kind": "family", "members": {"S1": ["x"]}})
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(
        {"kind": "sdr", "violation": {"set": ["S1", "S1"], "deficiency": 1}}))
    code, out = run(tmp_path, capsys, "verify", fam, str(forged))
    assert code == 1 and out["valid"] is False

    graph = write(tmp_path, "g.json", BADGRAPH)
    forged.write_text(json.dumps(
        {"kind": "matching", "violation": {"set": ["l1", "l2", "l2"], "deficiency": 1}}))
    code, out = run(tmp_path, capsys, "verify", graph, str(forged))
    assert code == 1 and out["valid"] is False


def test_verify_sdr_rejects_repeated_representative(tmp_path, capsys):
    fam = write(tmp_path, "f.json",
                {"kind": "family", "members": {"S1": ["x", "y"], "S2": ["x"]}})
    forged = tmp_path / "c.json"
    forged.write_text(json.dumps({"kind": "sdr", "choice": {"S1": "x", "S2": "x"}}))
    code, out = run(tmp_path, capsys, "verify", fam, str(forged))
    assert code == 1 and out["valid"] is False


def test_verify_sdr_names_a_choice_outside_its_member_before_a_later_bad_id(tmp_path, capsys):
    # S2's value is not an id, but S1's verdict comes first, as the loop meets it
    fam = write(tmp_path, "f.json", FAMILY)
    forged = write(tmp_path, "c.json", {"kind": "sdr", "choice": {"S1": "z", "S2": True, "S3": "z"}})
    code, out = run(tmp_path, capsys, "verify", fam, forged)
    assert code == 1 and out["detail"] == "choice for 'S1' is not in the member set"


@pytest.mark.parametrize("command,kind", [("width", "width"), ("height", "height"),
                                          ("check-dilworth", "width"), ("check-mirsky", "height")])
def test_verify_fails_a_certificate_whose_dual_fails_its_check(tmp_path, capsys, monkeypatch, command, kind):
    inst = write(tmp_path, "p3.json", P3)
    assert run_command([command, inst]) == 0
    cert = tmp_path / "c.json"
    cert.write_text(capsys.readouterr().out)
    # neither dual covers b and c
    monkeypatch.setattr(formats, "_kuhn_chains", lambda P: [frozenset({"a"})])
    monkeypatch.setattr(formats, "_layers", lambda P: [1])
    code, out = run(tmp_path, capsys, "verify", inst, str(cert))
    assert code == 1 and out["detail"] == f"the {kind} dual failed its check"


def test_verify_sdr_with_integer_member_names():
    family = {1: frozenset({"x"}), 2: frozenset({"x", "y"})}
    cert = formats.sdr_certificate(find_sdr(family), minimality_checked=True)
    assert formats.verify_certificate(formats.Instance(formats.FAMILY, family), cert) == (True, "ok")


def test_sdr_member_names_that_print_the_same_are_rejected():
    # No SDR: both members need "a".  Keyed by str, they would collapse into one.
    family = {1: frozenset({"a"}), "1": frozenset({"a"})}
    assert find_sdr(family) == posetkit.Violation(frozenset({1, "1"}), 1)
    inst = formats.Instance(formats.FAMILY, family)
    with pytest.raises(ValidationError, match="1.*'1'"):
        formats.verify_certificate(inst, {"kind": "sdr", "choice": {"1": "a"}})
    # An SDR exists, but its certificate could name only one of the two.
    family = {1: frozenset({"a"}), "1": frozenset({"b"})}
    with pytest.raises(ValidationError, match="1.*'1'"):
        formats.sdr_certificate(find_sdr(family), minimality_checked=True)


def test_verify_rejects_an_increasing_witness_whose_values_fall(tmp_path, capsys):
    seq = write(tmp_path, "s.json", SEQ)  # 4 precedes 1 in [3, 4, 1, 2, 5]
    forged = write(tmp_path, "c.json", {"kind": "subsequence", "direction": "increasing",
                                        "values": [4, 1], "m": 1, "n": 4})
    code, out = run(tmp_path, capsys, "verify", seq, forged)
    assert code == 1 and out["detail"] == "witness is not a monotone subsequence of the instance"


def test_verify_subsequence_rejects_wrong_length(tmp_path, capsys):
    seq = write(tmp_path, "s.json", SEQ)
    forged = tmp_path / "c.json"
    forged.write_text(json.dumps({"kind": "subsequence", "direction": "increasing",
                                  "values": [1, 2], "m": 2, "n": 2}))
    code, out = run(tmp_path, capsys, "verify", seq, str(forged))
    assert code == 1 and out["valid"] is False


@pytest.mark.parametrize("payload,cert", [
    (BADGRAPH, {"kind": "matching", "violation": 5}),
    ({"kind": "family", "members": {"S1": ["x"]}}, {"kind": "sdr", "choice": {"S1": ["x"]}}),
    (SEQ, {"kind": "subsequence", "direction": "increasing", "values": [3, 4, 5],
           "m": "a", "n": 2}),
    (P3, {"kind": "chain-cover", "width": 2, "antichain": ["a", "c"], "cover": 5}),
    # `es -m 0 -n -1` refuses these parameters, so verify must too.
    ({"kind": "sequence", "values": [5]}, {"kind": "subsequence", "direction": "increasing",
                                          "values": [5], "m": 0, "n": -1, "meta": {}}),
], ids=["matching-violation-not-object", "sdr-choice-not-an-id",
        "subsequence-m-not-int", "chain-cover-cover-not-list", "subsequence-n-negative"])
def test_verify_malformed_certificate_exits_2(tmp_path, capsys, payload, cert):
    inst = write(tmp_path, "inst.json", payload)
    path = write(tmp_path, "cert.json", cert)
    assert run_command(["verify", inst, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# --- determinism ----------------------------------------------------------------


def test_commands_are_byte_identical_across_runs(tmp_path, capsys):
    for command, payload, extra in ALL_SOLVES:
        inst = write(tmp_path, "inst.json", payload)
        run_command([command, inst, *extra])
        first = capsys.readouterr().out
        run_command([command, inst, *extra])
        second = capsys.readouterr().out
        assert first == second and first.endswith("\n")


def test_poset_certificates_do_not_depend_on_the_oracle_cap(tmp_path, capsys):
    # the cap only decides whether a search may run, never which answer comes
    # back: every run that succeeds prints the same bytes
    rng = random.Random(4)
    commands = [row.command for row in formats.CERTIFICATE_KINDS.values() if row.instance == formats.POSET]
    assert "antichain-cover" in commands
    for _ in range(200):
        P = random_poset(rng, rng.randint(4, 18))
        edges = [[x, y] for x, y in sorted(P.relation) if x != y]
        inst = write(tmp_path, "inst.json", {"kind": "poset", "elements": list(P.elements), "edges": edges})
        for command in commands:
            outputs = set()
            for cap in ("0", str(DEFAULT_ORACLE_CAP), "64"):
                code = run_command(["--oracle-cap", cap, command, inst])
                out = capsys.readouterr().out
                assert code in (0, 2)
                if code == 0:
                    outputs.add(out)
            assert len(outputs) == 1, (command, P)


# sha256 of the exit code, stdout and stderr of every `width`, `height` and
# `es` run below and of the `verify` run on its certificate, written while
# both sizes still came from the exhaustive oracle.
SIZE_AND_ES_SHA256 = "ea5f4d99902d7905f39b776d70ff94fab1a427d83d72bfc73a5a90148999fee1"


def test_width_height_and_es_outputs_are_byte_identical(tmp_path, capsys):
    rng = random.Random(11)
    posets = [random_poset(rng, rng.randint(1, 20)) for _ in range(400)]
    posets += [standard_example(k) for k in range(2, 11)]
    posets += [grid(r, c) for r in range(1, 5) for c in range(r, 6) if r * c <= 20]
    runs = [(command, _poset_payload(P), ()) for P in posets for command in ("width", "height")]
    runs += [("es", {"kind": "sequence", "values": values}, ("-m", str(m), "-n", str(n)))
             for m, n, values in _es_instances(rng, 300)]
    digest = hashlib.sha256()
    cert = tmp_path / "cert.json"
    for command, payload, extra in runs:
        inst = write(tmp_path, "inst.json", payload)
        code = run_command([command, inst, *extra])
        solved = capsys.readouterr()
        cert.write_text(solved.out)
        verdict = run_command(["verify", inst, str(cert)]), capsys.readouterr()
        assert (code, verdict[0]) == (0, 0)
        digest.update(repr((command, code, solved, verdict)).encode())
    assert len(runs) == 1146
    assert digest.hexdigest() == SIZE_AND_ES_SHA256
