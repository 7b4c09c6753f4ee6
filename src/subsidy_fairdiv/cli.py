"""Command-line front end: allocate, verify, oracle, and gen.

Exit codes: 0 success, 1 a checked guarantee failed (a broken bound in
the certificate for `allocate` or `oracle`, which still write their
output, the oracle also past its cap; bad subsidies for `verify`), 2
input or validation error, 3 oracle enumeration cap exceeded.

Every instance file is parsed and validated by
:func:`~subsidy_fairdiv.model.parse_instance`, so a document that breaks
any instance rule exits with 2 before anything runs.  The allocation
document is written by :func:`~subsidy_fairdiv.model.serialize_allocation`.
Output is byte-deterministic for identical inputs and flags.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from fractions import Fraction
from typing import Callable

from . import __version__
from .graph import to_dot
from .model import (
    CHORES,
    KINDS,
    ModelError,
    compute_subsidies,
    format_decimal,
    parse_allocation,
    parse_instance,
    rational_text,
    serialize_allocation,
    serialize_instance,
    wprop_share,
)
from .oracle import (
    DEFAULT_CAP,
    DISTRIBUTIONS,
    EnumerationCapExceeded,
    UNIFORM,
    brute_force_rounding,
    gen_random_instance,
)
from .rounding import BASELINE, TREE, run_pipeline

EXIT_OK = 0
EXIT_GUARANTEE = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ModelError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc


def _write(*docs: tuple[str, str]) -> None:
    """Write every ``(path, text)`` or none, through temporary files beside them.

    A symbolic link is written through: the file it resolves to is
    replaced and the link stays.  Two paths that resolve to one file are
    refused before anything is written.
    """
    named: dict[str, str] = {}
    for path, _ in docs:
        real = os.path.realpath(path)
        if real in named:
            raise ModelError(f"{named[real]} and {path} name the same file")
        named[real] = path
    temps: list[str] = []
    try:
        for (path, text), real in zip(docs, named):
            if os.path.isdir(real):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            temp = f"{real}.{os.getpid()}.{len(temps)}.tmp"
            with open(temp, "x", encoding="utf-8", newline="\n") as fh:
                temps.append(temp)
                fh.write(text)
        for (path, _), real, temp in zip(docs, named, temps):
            os.replace(temp, real)
    except OSError as exc:
        raise ModelError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        for temp in temps:  # gone once replaced
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _rational(value: Fraction, digits: int | None) -> str:
    text = rational_text(value)
    if digits is None:
        return text
    return f"{text} ({format_decimal(value, digits)})"


def _check_decimal(args: argparse.Namespace) -> None:
    """Refuse, before the input is read, a ``--decimal`` count above the
    interpreter's digit limit for int text (0 is none): only a value that
    rounds to zero could be written with more digits, and building one
    takes time that grows faster than the count."""
    digits, limit = getattr(args, "decimal", None), sys.get_int_max_str_digits()
    if digits is not None and limit and digits > limit:
        raise ModelError(f"--decimal must be at most {limit}, got {digits}")


def _judge(failures: list[str]) -> int:
    """The exit code a certificate's failures earn; each one goes to stderr."""
    for failure in failures:
        print(f"violated: {failure}", file=sys.stderr)
    return EXIT_GUARANTEE if failures else EXIT_OK


def cmd_allocate(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.input))
    method = BASELINE if args.baseline else TREE
    result = run_pipeline(inst, method=method)
    cert = result.certificate
    failures = cert.failures()
    extra: dict[str, object] = {
        "kind": inst.kind,
        "n": inst.n,
        "m": inst.m,
        "method": method,
        "global_bound": rational_text(cert.global_bound),
        "bound_holds": not failures,
    }
    if cert.strong_bound is not None:
        extra["strong_bound"] = rational_text(cert.strong_bound)
    if args.decimal is not None:
        extra["subsidies_decimal"] = [
            format_decimal(s, args.decimal) for s in result.subsidies.amounts
        ]
    # build every document first; a failure then leaves no partial output
    text = serialize_allocation(
        result.allocation, result.subsidies, extra=extra, decimal_digits=args.decimal
    )
    docs = [(args.out, text)] if args.out else []
    if args.certificate:
        docs.append((args.certificate, cert.to_json()))
    if args.emit_graph:
        docs.append((args.emit_graph, to_dot(result.graph, inst.agent_names, inst.item_names)))
    summary = (
        f"total subsidy {_rational(result.subsidies.total, args.decimal)} "
        f"<= bound {_rational(cert.global_bound, args.decimal)}: "
        f"{'VIOLATED' if failures else 'ok'}"
    )
    _write(*docs)
    if not args.out:
        sys.stdout.write(text)
    print(summary)
    return _judge(failures)


def cmd_verify(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.input))
    allocation, claimed = parse_allocation(_read(args.allocation))
    if claimed is not None and len(claimed.amounts) != inst.n:
        raise ModelError(
            f"subsidy vector has {len(claimed.amounts)} entries for n={inst.n}"
        )
    subsidies = claimed if claimed is not None else compute_subsidies(inst, allocation)
    violations = 0
    for i, load in enumerate(allocation.bundle_costs(inst)):
        share = wprop_share(inst, i)
        if inst.kind == CHORES:
            slack = share + subsidies.amounts[i] - load
        else:
            slack = load + subsidies.amounts[i] - share
        status = "ok" if slack >= 0 else "VIOLATED"
        if slack < 0:
            violations += 1
        print(
            f"agent {i}: share={_rational(share, args.decimal)} "
            f"bundle={_rational(load, args.decimal)} "
            f"subsidy={_rational(subsidies.amounts[i], args.decimal)} "
            f"slack={_rational(slack, args.decimal)} {status}"
        )
    print(f"total subsidy {_rational(subsidies.total, args.decimal)}")
    if violations:
        print(f"{violations} agent(s) below their share")
        return EXIT_GUARANTEE
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.input))
    result = run_pipeline(inst)
    failures = result.certificate.failures()
    try:
        _, optimum = brute_force_rounding(
            result.ido_instance, result.fractional, cap=args.cap
        )
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a broken bound outranks the cap
        return _judge(failures) or EXIT_CAP
    # the optimum ranges over roundings of the reduced instance, so it is
    # compared with the pipeline's rounding there; lifting can only lower
    # the total further
    rounded_total = result.certificate.rounded_total
    gap = rounded_total - optimum.total
    print(f"optimum subsidy {_rational(optimum.total, args.decimal)}")
    print(f"pipeline subsidy {_rational(rounded_total, args.decimal)}")
    print(f"gap {_rational(gap, args.decimal)}")
    print(f"lifted subsidy {_rational(result.subsidies.total, args.decimal)}")
    print(f"certificate bound {_rational(result.certificate.global_bound, args.decimal)}")
    return _judge(failures)


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argument type: an integer of at least ``low``, refused while parsing."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def cmd_gen(args: argparse.Namespace) -> int:
    inst = gen_random_instance(
        n=args.agents,
        m=args.items,
        kind=args.kind,
        seed=args.seed,
        dist=args.dist,
        denominator=args.denominator,
        force_ido=args.ido,
    )
    text = serialize_instance(inst)
    if args.out:
        _write((args.out, text))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsidy-fairdiv",
        description=(
            "Weighted proportional allocation of chores and goods with "
            "subsidies, exact rational arithmetic, and certified bounds."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="run the full pipeline on an instance file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="write the allocation document here")
    p.add_argument("--certificate", help="write the bound certificate here")
    p.add_argument("--emit-graph", help="write the item-sharing forest as DOT")
    p.add_argument(
        "--baseline",
        action="store_true",
        help="use per-item threshold rounding (bound (n-1)/2) instead",
    )
    p.add_argument(
        "--decimal",
        type=_int_at_least(0),
        help="also render rationals with this many digits",
    )
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("verify", help="check an allocation file against an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--decimal", type=_int_at_least(0))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force optimum and gap to the pipeline")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--cap",
        type=_int_at_least(1),
        default=DEFAULT_CAP,
        help="most rounding combinations to enumerate (at least 1)",
    )
    p.add_argument("--decimal", type=_int_at_least(0))
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="write a deterministic random instance")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--kind", choices=KINDS, default="chores")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dist", choices=DISTRIBUTIONS, default=UNIFORM)
    p.add_argument("--denominator", type=int, default=10)
    p.add_argument("--ido", action="store_true", help="sort rows so the instance is IDO")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_decimal(args)
        return args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
