"""Command-line front end: construct named schemes, verify PDA files, run
the caching simulation, and emit the comparison tables.

Exit codes: 0 success, 1 verification/decoding failure, 2 bad parameters,
3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import lru_cache

from . import pda as pda_mod
from . import schemes, sim, tables
from .errors import BadInput, BadParams, PdacacheError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_PARAMS = 2
EXIT_IO = 3


class _FileError(Exception):
    """A file that cannot be read, parsed or written: exit 3."""


# open() raises ValueError for a path holding NUL or a lone surrogate, and
# reading raises UnicodeDecodeError, a ValueError, for text not in UTF-8.
_IO_ERRORS = (OSError, ValueError)


def _load_pda(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except _IO_ERRORS as exc:
        raise _FileError(f"cannot read {path}: {exc}") from exc
    try:
        return pda_mod.Pda.from_json(text)
    except json.JSONDecodeError as exc:
        raise _FileError(f"parse failure in {path} at line {exc.lineno}: {exc.msg}") from exc
    except BadInput as exc:
        raise _FileError(f"malformed PDA file {path}: {exc}") from exc


def _write(path, runs):
    """Write the strings of runs to path one at a time, so that a long text
    given as runs is never held whole, nor encoded whole."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(runs)
    except _IO_ERRORS as exc:
        raise _FileError(f"cannot write {path}: {exc}") from exc


def _print_params(params):
    z = params.Z if params.Z is not None else list(params.Z_cols)
    print(f"K={params.K} F={params.F} Z={z} S={params.S} R={params.R}")
    hist = ", ".join(f"gain {g}: {n} symbols" for g, n in params.gain_histogram.items())
    print(f"gains: {hist if hist else 'none (all-star)'}")


def cmd_construct(args):
    spec = schemes.SchemeSpec(args.scheme, *(getattr(args, f.name) for f in schemes.SPEC_FIELDS))
    built, pred = schemes.build(spec)
    measured = pda_mod.pda_params(built)
    print(f"predicted: K={pred.K} F={pred.F} Z={pred.Z} S={pred.S} R={pred.R}")
    _print_params(measured)
    if args.out is not None:
        _write(args.out, built.json_runs())
        print(f"wrote {args.out}")
    match = (measured.K, measured.F, measured.Z, measured.S) == (pred.K, pred.F, pred.Z, pred.S)
    print("match" if match else "MISMATCH between predicted and measured parameters")
    return EXIT_OK if match else EXIT_FAIL


def cmd_verify(args):
    p = _load_pda(args.path)
    verdict = pda_mod.verify_pda(p)
    if not verdict:
        j1, k1, j2, k2 = verdict.witness
        print(f"reject: {verdict.reason}; witness cells ({j1},{k1}) and ({j2},{k2})")
        return EXIT_FAIL
    print("accept")
    _print_params(pda_mod.pda_params(p))
    return EXIT_OK


def _parse_demand(text):
    """--demand as a tuple of ints; CachingInstance checks its length and range."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise BadParams(f"--demand {text!r} is not a comma-separated list of integers") from None


def cmd_simulate(args):
    p = _load_pda(args.path)
    if not p.verdict:
        print("reject: input is not a valid PDA", file=sys.stderr)
        return EXIT_FAIL
    demand = None if args.demand is None else _parse_demand(args.demand)
    if args.file_bytes < 0:
        raise BadParams(f"--file-bytes must be >= 0, not {args.file_bytes}")
    packet_bytes = max(args.file_bytes // max(p.F, 1), 1)
    _, transcript, ok = sim.run_round_trip(p, args.seed, packet_bytes, demand)
    Z = pda_mod.pda_params(p).Z
    cache_fraction = Fraction(Z, p.F) if Z is not None else None
    print(f"load: {transcript.measured_load}")
    print(f"cache fraction: {cache_fraction}")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_compare(args):
    rows = tables.TABLES[args.table]()
    if args.format == "json":
        text = json.dumps(rows, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out is not None:
        _write(args.out, [text])
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pdacache",
        description="Placement delivery arrays for centralized coded caching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named scheme and write its PDA")
    c.add_argument("--scheme", required=True, choices=schemes.FAMILIES)
    for f in schemes.SPEC_FIELDS:
        c.add_argument(f"--{f.name}", type=int, default=f.default)
    c.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="check a PDA file and print its parameters")
    v.add_argument("path")

    s = sub.add_parser("simulate", help="run placement/delivery/decoding")
    s.add_argument("path")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--file-bytes", type=int, default=0, dest="file_bytes")
    s.add_argument("--demand", default=None, help="comma-separated file indices")

    p = sub.add_parser("compare", help="emit a closed-form comparison table")
    p.add_argument("table", choices=sorted(tables.TABLES))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)

    return parser


# parse_args keeps no state between calls, so one parser serves every main;
# main looks its cmd_ function up on each call, so a later wrapper is seen.
_parser = lru_cache(maxsize=None)(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except _FileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PdacacheError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
