"""Batch command-line interface.

Every subcommand reads a JSON instance, prints one canonical JSON document on
stdout, and exits 0 on success, 1 on violation-style results (Hall violations,
failed verifications), 2 on input errors.  Output is byte-identical across
runs on the same input.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import formats
from .dilworth import check_dilworth, perles_chain_cover, width
from .erdos_szekeres import es_subsequence
from .errors import PosetKitError, ValidationError
from .hall import DEFAULT_SUBSET_CAP, find_L_perfect_matching, find_sdr
from .mirsky import check_mirsky, height, mirsky_antichain_cover
from .oracle import DEFAULT_ORACLE_CAP

_POSET_COMMANDS = ("width", "height", "chain-cover", "antichain-cover",
                   "check-dilworth", "check-mirsky")


@functools.cache  # parsing leaves the parser as it was; stderr is looked up per call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetkit",
        description="Certified decompositions of finite posets, Hall matchings, "
                    "SDRs, and monotone subsequences.",
    )
    parser.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP,
                        help="max carrier size for exhaustive subset searches")
    parser.add_argument("--subset-cap", type=int, default=DEFAULT_SUBSET_CAP,
                        help="max left-part size for Hall subset enumeration")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("width", "largest antichain of a poset instance"),
        ("height", "largest chain of a poset instance"),
        ("chain-cover", "chain cover of size equal to the width, with witness"),
        ("antichain-cover", "antichain cover of size equal to the height, with witness"),
        ("check-dilworth", "report width vs. smallest-chain-cover size"),
        ("check-mirsky", "report height vs. smallest-antichain-cover size"),
        ("matching", "L-perfect matching of a bigraph instance, or a Hall violation"),
        ("sdr", "distinct representatives of a family instance, or a violating subfamily"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("instance", help="instance JSON file")

    cmd = sub.add_parser("es", help="monotone subsequence of a sequence instance")
    cmd.add_argument("instance", help="instance JSON file")
    cmd.add_argument("-m", type=int, required=True,
                     help="increasing target length minus one (|values| must be m*n+1)")
    cmd.add_argument("-n", type=int, required=True,
                     help="decreasing target length minus one")

    cmd = sub.add_parser("verify", help="re-check a certificate against an instance")
    cmd.add_argument("instance", help="instance JSON file")
    cmd.add_argument("certificate", help="certificate JSON file")
    return parser


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0

    try:
        inst = formats.parse_instance(_read(args.instance))
        if args.command in _POSET_COMMANDS and inst.kind != formats.POSET:
            raise ValidationError(
                f"command {args.command!r} needs a poset instance, got {inst.kind!r}")

        if args.command == "width":
            out = formats.size_certificate("width", width(inst.data, args.oracle_cap))
        elif args.command == "height":
            out = formats.size_certificate("height", height(inst.data, args.oracle_cap))
        elif args.command == "chain-cover":
            out = formats.chain_cover_certificate(perles_chain_cover(inst.data, args.oracle_cap))
        elif args.command == "antichain-cover":
            out = formats.antichain_cover_certificate(mirsky_antichain_cover(inst.data, args.oracle_cap))
        elif args.command == "check-dilworth":
            out = formats.report_certificate(check_dilworth(inst.data, args.oracle_cap))
        elif args.command == "check-mirsky":
            out = formats.report_certificate(check_mirsky(inst.data, args.oracle_cap))
        elif args.command == "matching":
            if inst.kind != formats.BIGRAPH:
                raise ValidationError(f"command 'matching' needs a bigraph instance, got {inst.kind!r}")
            result = find_L_perfect_matching(inst.data, subset_cap=args.subset_cap,
                                             oracle_cap=args.oracle_cap)
            checked = len(inst.data.left) + len(inst.data.right) <= args.oracle_cap
            out = formats.matching_certificate(result, minimality_checked=checked)
        elif args.command == "sdr":
            if inst.kind != formats.FAMILY:
                raise ValidationError(f"command 'sdr' needs a family instance, got {inst.kind!r}")
            result = find_sdr(inst.data, subset_cap=args.subset_cap, oracle_cap=args.oracle_cap)
            ground = set().union(*inst.data.values()) if inst.data else set()
            checked = len(inst.data) + len(ground) <= args.oracle_cap
            out = formats.sdr_certificate(result, minimality_checked=checked)
        elif args.command == "es":
            if inst.kind != formats.SEQUENCE:
                raise ValidationError(f"command 'es' needs a sequence instance, got {inst.kind!r}")
            witness = es_subsequence(inst.data, args.m, args.n, args.oracle_cap)
            out = formats.subsequence_certificate(witness, args.m, args.n)
        else:
            cert = formats.parse_certificate(_read(args.certificate))
            ok, detail = formats.verify_certificate(inst, cert, oracle_cap=args.oracle_cap)
            out = {"kind": "verification", "valid": ok, "detail": detail}
            sys.stdout.write(formats.canonical_json(out))
            return 0 if ok else 1

        sys.stdout.write(formats.canonical_json(out))
        if isinstance(out, dict) and "violation" in out:
            return 1
        return 0
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PosetKitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
