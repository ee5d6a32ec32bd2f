"""Instance and certificate files.

Instances and certificates are JSON.  Serialization is canonical: dictionary
keys are sorted, sets appear as id-sorted lists, and covers list their chains
by smallest element, so identical inputs always produce identical bytes and
certificates stay diffable.  The encoder is hand-written for the few types
certificates hold, because ``json.dumps`` with ``indent`` runs in pure
Python; a test pins its output to ``json.dumps(obj, sort_keys=True,
indent=2)`` byte for byte.  Ids are checked by C-level type scans, and a
per-item loop runs only to name the first bad one.

Each certificate kind is one row of :data:`CERTIFICATE_KINDS`; the CLI's
commands and :func:`verify_certificate` both read that table.  The matching
and SDR kinds, Hall's theorem on a graph and on a set family, share one
encoder and one violation re-check.
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .core import (
    ElementId,
    FinitePoset,
    _ID_TYPES,
    _ids,
    build_poset,
    id_key,
    is_antichain,
    is_chain,
    sorted_ids,
    verify_antichain_cover,
    verify_chain_cover,
)
from .dilworth import DilworthCertificate, DilworthReport, _kuhn_chains, check_dilworth, perles_chain_cover, width
from .erdos_szekeres import (
    DECREASING,
    INCREASING,
    IntSeq,
    SubseqWitness,
    es_subsequence,
    seq_from_list,
    verify_subseq,
)
from .errors import DuplicateValue, EmptyInput, ParseError, ValidationError
from .hall import (
    BipartiteGraph,
    Matching,
    SetFamily,
    Violation,
    build_bigraph,
    find_L_perfect_matching,
    find_sdr,
    verify_matching,
)
from .mirsky import MirskyCertificate, MirskyReport, _layers, check_mirsky, height, mirsky_antichain_cover
from .oracle import SizedWitness

POSET = "poset"
BIGRAPH = "bigraph"
FAMILY = "family"
SEQUENCE = "sequence"
INSTANCE_KINDS = (POSET, BIGRAPH, FAMILY, SEQUENCE)

TIE_BREAK = "lexicographic-id"


class Instance(NamedTuple):
    """A parsed, validated input: ``data`` is the domain object for ``kind``."""

    kind: str
    data: Any


def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    out = dict(pairs)
    if len(out) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(f"duplicate key {key!r} in object")
            seen.add(key)
    return out


_DECODER = json.JSONDecoder(object_pairs_hook=_reject_duplicate_keys)


def _load_json(data: bytes | str) -> Any:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"input is not UTF-8: {e}") from None
    try:
        if data.startswith("\ufeff"):  # json.loads' own test, which decode() skips
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", data, 0)
        return _DECODER.decode(data)
    except ValueError as e:  # JSONDecodeError, or an int past sys.get_int_max_str_digits()
        raise ParseError(f"input is not valid JSON: {e}") from None


def _id_entry(x: Any, where: str) -> ElementId:
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise ValidationError(f"{where}: ids must be strings or integers, got {x!r}")
    return x


def _list(value: Any, where: str) -> list[Any]:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list")
    return value


def _id_list(value: Any, where: str) -> list[ElementId]:
    ids = _list(value, where)
    if not set(map(type, ids)) <= _ID_TYPES:  # the loop names the first bad id
        for x in ids:
            _id_entry(x, where)
    return ids


def _id_set(value: Any, where: str) -> frozenset[ElementId]:
    ids = _id_list(value, where)
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{where}: an id is listed twice")
    return frozenset(ids)


def _pair_list(value: Any, where: str) -> list[list[Any]]:
    """A list of [from, to] pairs, their ids not yet checked."""
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list of pairs")
    if not (set(map(type, value)) <= {list} and set(map(len, value)) <= {2}):
        for i, entry in enumerate(value):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValidationError(f"{where}[{i}]: expected a [from, to] pair")
    return value


def _int(value: Any, where: str) -> int:
    if type(value) is not int:
        raise ValidationError(f"{where}: expected an integer, got {value!r}")
    return value


def _field(body: dict[str, Any], name: str) -> Any:
    if not isinstance(body, dict):
        raise ValidationError(f"expected an object with field {name!r}, got {body!r}")
    if name not in body:
        raise ValidationError(f"missing field {name!r}")
    return body[name]


def parse_instance(data: bytes | str) -> Instance:
    """Parse and validate an instance file.  Only the JSON shape is checked here: the builders
    check the ids and raise :class:`ValidationError`s that pass through as they are; only the
    sequence branch prefixes its field's name, ``values: ``."""
    body = _load_json(data)
    if not isinstance(body, dict):
        raise ValidationError("instance must be a JSON object")
    kind = _field(body, "kind")
    if kind not in INSTANCE_KINDS:
        raise ValidationError(f"unknown instance kind {kind!r}")

    if kind == POSET:
        elements = _list(_field(body, "elements"), "elements")
        edges = _pair_list(_field(body, "edges"), "edges")
        return Instance(POSET, build_poset(elements, edges))

    if kind == BIGRAPH:
        left = _list(_field(body, "left"), "left")
        right = _list(_field(body, "right"), "right")
        edges = _pair_list(_field(body, "edges"), "edges")
        return Instance(BIGRAPH, build_bigraph(left, right, edges))

    if kind == FAMILY:
        members = _field(body, "members")
        if not isinstance(members, dict):
            raise ValidationError("members: expected an object of name -> id list")
        family: dict[ElementId, frozenset[ElementId]] = {}
        for name, values in members.items():
            ids = _id_list(values, f"members[{name!r}]")
            if len(set(ids)) != len(ids):
                raise ValidationError(f"members[{name!r}]: duplicate id in member")
            family[name] = frozenset(ids)
        return Instance(FAMILY, family)

    values = _field(body, "values")
    if not isinstance(values, list):
        raise ValidationError("values: expected a list of integers")
    try:
        return Instance(SEQUENCE, seq_from_list(values))
    except (EmptyInput, DuplicateValue) as e:
        raise ValidationError(f"values: {e}") from None


def canonical_json(obj: Any) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it, and a
    newline.  Certificates hold str-keyed dicts, lists, str, int and bool;
    any other type raises TypeError."""
    return _encode(obj, "\n") + "\n"


def _encode(obj: Any, pad: str) -> str:
    """``obj`` with its items on lines that start with ``pad`` plus two spaces."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return repr(obj)
    if kind is bool:
        return "true" if obj else "false"
    inner = pad + "  "
    if kind is list:
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in obj]) + pad + "]"
    if kind is dict:
        if not obj:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _ids_out(s: Iterable[ElementId]) -> list[ElementId]:
    return list(sorted_ids(s))


def _cover_out(cover: Iterable[frozenset[ElementId]]) -> list[list[ElementId]]:
    """Members in the solver's order: Perles' chains by smallest element, Mirsky's layers as peeled."""
    return [_ids_out(m) for m in cover]


def _pairs_out(pairs: Iterable[tuple[ElementId, ElementId]]) -> list[list[ElementId]]:
    return [list(p) for p in sorted(pairs, key=lambda p: (id_key(p[0]), id_key(p[1])))]


def size_certificate(kind: str, found: SizedWitness) -> dict[str, Any]:
    """A width or height certificate.  ``meta.algorithm`` names what the
    witness is, the lexicographically first largest set that an exhaustive
    search returns, not how it was found: the tests pin it equal to the
    oracle's."""
    return {
        "kind": kind,
        "size": found.size,
        "witness": _ids_out(found.witness),
        "meta": {"algorithm": "exhaustive-search", "tie_break": TIE_BREAK},
    }


def chain_cover_certificate(cert: DilworthCertificate) -> dict[str, Any]:
    return {
        "kind": "chain-cover",
        "width": cert.width,
        "antichain": _ids_out(cert.antichain_witness),
        "cover": _cover_out(cert.cover),
        "meta": {"algorithm": "perles-recursion", "tie_break": TIE_BREAK},
    }


def antichain_cover_certificate(cert: MirskyCertificate) -> dict[str, Any]:
    return {
        "kind": "antichain-cover",
        "height": cert.height,
        "chain": _ids_out(cert.chain_witness),
        "layers": _cover_out(cert.layers),
        "meta": {"algorithm": "maximal-layer-peel", "tie_break": TIE_BREAK},
    }


def report_certificate(report: DilworthReport | MirskyReport) -> dict[str, Any]:
    kind = "dilworth-report" if isinstance(report, DilworthReport) else "mirsky-report"
    return {"kind": kind, **report._asdict()}


def _hall_certificate(kind: str, result: Any, key: str, answer: Callable[[Any], Any],
                      minimality_checked: bool) -> dict[str, Any]:
    """A matching or SDR certificate: the Hall violation, or ``answer(result)`` under ``key``."""
    meta = {
        "algorithm": "chain-cover-matching",
        "tie_break": TIE_BREAK,
        "minimality_check": "checked" if minimality_checked else "trusted",
    }
    if isinstance(result, Violation):
        violation = {"set": _ids_out(result.members), "deficiency": result.deficiency}
        return {"kind": kind, "violation": violation, "meta": meta}
    return {"kind": kind, key: answer(result), "meta": meta}


def matching_certificate(result: Matching | Violation, minimality_checked: bool) -> dict[str, Any]:
    return _hall_certificate("matching", result, "pairs", _pairs_out, minimality_checked)


def sdr_certificate(result: dict[ElementId, ElementId] | Violation, minimality_checked: bool) -> dict[str, Any]:
    return _hall_certificate("sdr", result, "choice",
                             lambda r: {name: r[k] for name, k in _by_name(r).items()}, minimality_checked)


def _by_name(members: Iterable[ElementId]) -> dict[str, ElementId]:
    """Each member under the string that names it in a certificate; two
    members that print the same cannot both be named there."""
    out: dict[str, ElementId] = {}
    for member in members:
        if (name := str(member)) in out:
            raise ValidationError(f"members {out[name]!r} and {member!r} are both named {name!r}")
        out[name] = member
    return out


def subsequence_certificate(w: SubseqWitness, m: int, n: int) -> dict[str, Any]:
    return {
        "kind": "subsequence",
        "direction": w.kind,
        "values": list(w.subsequence.items),
        "m": m,
        "n": n,
        "meta": {"algorithm": "poset-reduction", "tie_break": TIE_BREAK},
    }


def parse_certificate(data: bytes | str) -> dict[str, Any]:
    body = _load_json(data)
    if not isinstance(body, dict):
        raise ValidationError("certificate must be a JSON object")
    _field(body, "kind")
    return body


def _dual_size(P: FinitePoset, kind: str) -> int | None:
    """The poset's width or height by a cover built here (Kuhn's n − |M| chains,
    Mirsky's layers), or None when its public checker fails it: it proves nothing."""
    dual = _kuhn_chains(P) if kind == "width" else [_ids(P, layer) for layer in _layers(P)]
    check = verify_chain_cover if kind == "width" else verify_antichain_cover
    return len(dual) if check(P, dual) else None


def _verify_size(P: FinitePoset, cert: dict[str, Any], kind: str,
                 predicate: Callable[[FinitePoset, frozenset[ElementId]], bool]) -> tuple[bool, str]:
    """The witness bounds the poset's ``kind`` from below, the dual from above."""
    witness = _id_set(_field(cert, "witness"), "witness")
    size = _int(_field(cert, "size"), "size")
    if not predicate(P, witness):
        return False, f"witness is not a valid {kind} witness"
    if len(witness) != size:
        return False, "claimed size does not match the witness"
    if (dual := _dual_size(P, kind)) is None:
        return False, f"the {kind} dual failed its check"
    if dual != size:
        return False, f"poset {kind} differs from the claimed size"
    return True, "ok"


def _verify_chain_cover(P: FinitePoset, cert: dict[str, Any]) -> tuple[bool, str]:
    w = _int(_field(cert, "width"), "width")
    antichain = _id_set(_field(cert, "antichain"), "antichain")
    cover = [_id_set(c, "cover") for c in _list(_field(cert, "cover"), "cover")]
    if not is_antichain(P, antichain) or len(antichain) != w:
        return False, "antichain witness invalid or of the wrong size"
    if not verify_chain_cover(P, cover):
        return False, "cover is not a chain cover"
    if len(cover) != w:
        return False, "cover size does not match the claimed width"
    return True, "ok"


def _verify_antichain_cover(P: FinitePoset, cert: dict[str, Any]) -> tuple[bool, str]:
    h = _int(_field(cert, "height"), "height")
    chain = _id_set(_field(cert, "chain"), "chain")
    layers = [_id_set(c, "layers") for c in _list(_field(cert, "layers"), "layers")]
    if not is_chain(P, chain) or len(chain) != h:
        return False, "chain witness invalid or of the wrong size"
    if not verify_antichain_cover(P, layers):
        return False, "layers are not an antichain cover"
    if len(layers) != h:
        return False, "layer count does not match the claimed height"
    return True, "ok"


def _verify_report(P: FinitePoset, cert: dict[str, Any], kind: str) -> tuple[bool, str]:
    """Valid exactly when the report gives both sizes as the dual's and calls them equal."""
    if (dual := _dual_size(P, kind)) is None:
        return False, f"the {kind} dual failed its check"
    for key, value in {kind: dual, "cover_size": dual, "equal": True}.items():
        if cert.get(key) != value or type(cert.get(key)) is not type(value):
            return False, f"report field {key!r} does not match a recomputation"
    return True, "ok"


def _verify_violation(v: Any, sets: Mapping[ElementId, Iterable[ElementId]],
                      twice: str, unknown: str) -> tuple[bool, str]:
    """A claimed Hall violation: distinct keys of ``sets`` whose sets' union
    falls short of their number by the claimed deficiency, at least 1."""
    names = _id_list(_field(v, "set"), "violation.set")
    if len(set(names)) != len(names):
        return False, twice
    if not set(names) <= set(sets):
        return False, unknown
    lack = len(names) - len(set().union(*(sets[name] for name in names)))
    if lack < 1 or lack != _int(_field(v, "deficiency"), "deficiency"):
        return False, "violation does not recheck"
    return True, "ok"


def _verify_matching(G: BipartiteGraph, cert: dict[str, Any]) -> tuple[bool, str]:
    if "violation" in cert:
        not_left = "violating set is not a set of left vertices"
        return _verify_violation(cert["violation"], G.neighbours, not_left, not_left)
    pairs = _pair_list(_field(cert, "pairs"), "pairs")
    if not set(map(type, itertools.chain.from_iterable(pairs))) <= _ID_TYPES:
        for i, pair in enumerate(pairs):
            for x in pair:
                _id_entry(x, f"pairs[{i}]")
    if not verify_matching(G, map(tuple, pairs)):
        return False, "pairs are not an L-perfect matching"
    return True, "ok"


def _verify_sdr(family: SetFamily, cert: dict[str, Any]) -> tuple[bool, str]:
    if "violation" in cert:
        return _verify_violation(cert["violation"], family, "violating subfamily names a member twice",
                                 "violating subfamily names unknown members")
    choice = _field(cert, "choice")
    if not isinstance(choice, dict):
        raise ValidationError("choice: expected an object")
    by_name = _by_name(family)
    if set(choice) != set(by_name):
        return False, "choice does not name every member exactly once"
    scanned = set(map(type, choice.values())) <= _ID_TYPES  # else each value is checked before it is hashed
    for name, value in choice.items():
        if not scanned:
            _id_entry(value, f"choice[{name!r}]")
        if value not in family[by_name[name]]:
            return False, f"choice for {name!r} is not in the member set"
    if len(set(choice.values())) != len(choice):
        return False, "representatives are not pairwise distinct"
    return True, "ok"


def _verify_subsequence(parent: IntSeq, cert: dict[str, Any]) -> tuple[bool, str]:
    direction = _field(cert, "direction")
    if direction not in (INCREASING, DECREASING):
        raise ValidationError(f"unknown direction {direction!r}")
    values = _list(_field(cert, "values"), "values")
    witness = SubseqWitness(direction, seq_from_list(values))
    m, n = _int(_field(cert, "m"), "m"), _int(_field(cert, "n"), "n")
    if m < 0 or n < 0:
        raise ValidationError("m and n must be non-negative")
    if len(parent) != m * n + 1:
        return False, "instance does not have m*n+1 values"
    promised = m + 1 if direction == INCREASING else n + 1
    if len(witness.subsequence) != promised:
        return False, "witness does not have the promised length"
    if not verify_subseq(parent, witness):
        return False, "witness is not a monotone subsequence of the instance"
    return True, "ok"


def _solve_matching(G: BipartiteGraph, args: Any) -> dict[str, Any]:
    result = find_L_perfect_matching(G, subset_cap=args.subset_cap, oracle_cap=args.oracle_cap)
    checked = len(G.left) + len(G.right) <= args.oracle_cap
    return matching_certificate(result, minimality_checked=checked)


def _solve_sdr(family: SetFamily, args: Any) -> dict[str, Any]:
    result = find_sdr(family, subset_cap=args.subset_cap, oracle_cap=args.oracle_cap)
    ground = set().union(*family.values()) if family else set()
    checked = len(family) + len(ground) <= args.oracle_cap
    return sdr_certificate(result, minimality_checked=checked)


class CertificateKind(NamedTuple):
    """How one certificate kind is made and checked.

    ``command`` is the CLI subcommand that writes it and ``instance`` the
    instance kind both sides need.  ``solve(data, args)`` runs the solver on
    the instance data with the parsed CLI arguments and encodes the result;
    ``verify(data, cert)`` re-checks a parsed certificate in polynomial time,
    with no cap, and returns (valid, detail).  Rows call solvers and encoders by
    their module-level names, so a patched name is seen at call time."""

    command: str
    instance: str
    help: str
    solve: Callable[[Any, Any], dict[str, Any]]
    verify: Callable[[Any, dict[str, Any]], tuple[bool, str]]


# Keyed by certificate kind, in the order the CLI lists its subcommands.
CERTIFICATE_KINDS: dict[str, CertificateKind] = {
    "width": CertificateKind(
        "width", POSET, "largest antichain of a poset instance",
        lambda P, args: size_certificate("width", width(P, args.oracle_cap)),
        lambda P, cert: _verify_size(P, cert, "width", is_antichain)),
    "height": CertificateKind(
        "height", POSET, "largest chain of a poset instance",
        lambda P, args: size_certificate("height", height(P)),
        lambda P, cert: _verify_size(P, cert, "height", is_chain)),
    "chain-cover": CertificateKind(
        "chain-cover", POSET, "chain cover of size equal to the width, with witness",
        lambda P, args: chain_cover_certificate(perles_chain_cover(P, args.oracle_cap)),
        _verify_chain_cover),
    "antichain-cover": CertificateKind(
        "antichain-cover", POSET, "antichain cover of size equal to the height, with witness",
        lambda P, args: antichain_cover_certificate(mirsky_antichain_cover(P)),
        _verify_antichain_cover),
    "dilworth-report": CertificateKind(
        "check-dilworth", POSET, "report width vs. smallest-chain-cover size",
        lambda P, args: report_certificate(check_dilworth(P, args.oracle_cap)),
        lambda P, cert: _verify_report(P, cert, "width")),
    "mirsky-report": CertificateKind(
        "check-mirsky", POSET, "report height vs. smallest-antichain-cover size",
        lambda P, args: report_certificate(check_mirsky(P, args.oracle_cap)),
        lambda P, cert: _verify_report(P, cert, "height")),
    "matching": CertificateKind(
        "matching", BIGRAPH, "L-perfect matching of a bigraph instance, or a Hall violation",
        _solve_matching, _verify_matching),
    "sdr": CertificateKind(
        "sdr", FAMILY, "distinct representatives of a family instance, or a violating subfamily",
        _solve_sdr, _verify_sdr),
    "subsequence": CertificateKind(
        "es", SEQUENCE, "monotone subsequence of a sequence instance",
        lambda s, args: subsequence_certificate(
            es_subsequence(s, args.m, args.n, args.oracle_cap), args.m, args.n),
        _verify_subsequence),
}


def instance_data(inst: Instance, row: CertificateKind, what: str) -> Any:
    """``inst.data`` when ``inst`` has the kind ``row`` needs; ``what`` names
    the asker in the error otherwise."""
    if inst.kind != row.instance:
        raise ValidationError(f"{what} needs a {row.instance!r} instance, got {inst.kind!r}")
    return inst.data


def verify_certificate(inst: Instance, cert: dict[str, Any]) -> tuple[bool, str]:
    """Re-check a certificate against its instance.

    Size pairs (a witness plus a cover of equal cardinality) are conclusive by
    counting.  A bare width or height claim is checked the same way against a
    dual the verifier builds and passes through the public cover checkers:
    Kuhn's n − |M| chains for the width, Mirsky's layers for the height.
    Reports are compared with those duals' sizes, in polynomial time, so no cap."""
    kind = _field(cert, "kind")
    if not isinstance(kind, str) or kind not in CERTIFICATE_KINDS:
        raise ValidationError(f"unknown certificate kind {kind!r}")
    row = CERTIFICATE_KINDS[kind]
    return row.verify(instance_data(inst, row, f"certificate kind {kind!r}"), cert)
