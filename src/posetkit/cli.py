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
from .errors import PosetKitError
from .hall import DEFAULT_SUBSET_CAP
from .oracle import DEFAULT_ORACLE_CAP


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

    for row in formats.CERTIFICATE_KINDS.values():
        cmd = sub.add_parser(row.command, help=row.help)
        cmd.add_argument("instance", help="instance JSON file")
        cmd.set_defaults(row=row)
    cmd = sub.choices["es"]
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
        if args.command == "verify":
            cert = formats.parse_certificate(_read(args.certificate))
            ok, detail = formats.verify_certificate(inst, cert)
            out = {"kind": "verification", "valid": ok, "detail": detail}
            sys.stdout.write(formats.canonical_json(out))
            return 0 if ok else 1
        data = formats.instance_data(inst, args.row, f"command {args.command!r}")
        out = args.row.solve(data, args)
        sys.stdout.write(formats.canonical_json(out))
        return 1 if "violation" in out else 0
    except (OSError, PosetKitError, RecursionError) as e:
        # JSON nested past the parser's stack limit is a diagnostic too.
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
