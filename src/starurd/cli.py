"""Command-line surface: check, build, verify, search.

Exit codes are stable:

    0  success (constructive verdict, table printed, verify passed, FOUND)
    1  verification failed / search exhausted without a witness
    2  bad flags, unreadable or unparseable input (including an integer
       literal too long to parse), or unwritable output (including a
       closed or full stdout, on any command and whatever the verdict)
    3  inadmissible or otherwise invalid build request
    4  admissible pair the constructions do not cover
    5  internal construction, self-verification or search failure
    6  search budget exceeded

No command writes partial output: a payload is rendered fully before its
file is touched, and each command's stdout text, help included, is
rendered fully and written once, through the same writer as the files.

Each command imports the layers it runs when it runs, so that `verify`
does not pay for importing the construction or the search.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .model import ConstructionError, _require_odd_n

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_UNRESOLVED = 4
EXIT_INTERNAL = 5
EXIT_BUDGET = 6


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _check_vn(v: int, n: int) -> str | None:
    try:
        _require_odd_n(n, "--n")
    except ValueError as exc:
        return str(exc)
    if v < 1:
        return f"--v must be positive, got {v}"
    return None


def _write_payload(payload: str, out: str | None) -> bool:
    """Write to out, or to stdout if out is None.  If it cannot be
    written (a missing directory, a closed pipe), say so on stderr and
    return False."""
    try:
        if out is None:
            sys.stdout.write(payload)
            if not payload.endswith("\n"):
                sys.stdout.write("\n")
            sys.stdout.flush()
        else:
            Path(out).write_text(payload, encoding="utf-8")
    except OSError as exc:
        if out is None:
            # the reader is gone: point fd 1 at devnull so the final flush
            # at exit drops what is still buffered instead of failing again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"cannot write {'<stdout>' if out is None else out}: {exc}", file=sys.stderr)
        return False
    return True


def _print(lines: list[str], code: int) -> int:
    """Write a command's stdout text in one go; return code, or
    EXIT_USAGE if stdout cannot be written."""
    return code if _write_payload("\n".join(lines), None) else EXIT_USAGE


def cmd_check(args) -> int:
    from . import admissibility

    problem = _check_vn(args.v, args.n)
    if problem:
        return _usage_error(problem)
    if (args.r is None) != (args.s is None):
        return _usage_error("--r and --s must be given together")

    if args.r is None:
        pairs = admissibility.admissible_pairs(args.v, args.n)
        lines = [f"admissible (r, s) pairs for v={args.v}, n={args.n}:"]
        if not pairs:
            lines.append("  (none)")
        for pair in pairs:
            verdict = admissibility.check_pair(args.v, args.n, pair.r, pair.s)
            ell = f" ell={verdict.ell}" if verdict.ell is not None else ""
            lines.append(
                f"  x={pair.x} r={pair.r} s={pair.s}  {verdict.status}{ell}"
                f"  ({verdict.reason})"
            )
        return _print(lines, EXIT_OK)

    verdict = admissibility.check_pair(args.v, args.n, args.r, args.s)
    ell = f" ell={verdict.ell}" if verdict.ell is not None else ""
    return _print([f"{verdict.status}{ell}: {verdict.reason}"], {
        admissibility.CONSTRUCTIVE: EXIT_OK,
        admissibility.INADMISSIBLE: EXIT_INVALID,
        admissibility.ADMISSIBLE_UNRESOLVED: EXIT_UNRESOLVED,
    }[verdict.status])


def cmd_build(args) -> int:
    from . import serialize
    from .assembler import BuildRequest, PairNotConstructive, construct, construct_pair
    from .verifier import verify

    problem = _check_vn(args.v, args.n)
    if problem:
        return _usage_error(problem)
    by_ell = args.ell is not None
    by_pair = args.r is not None or args.s is not None
    if by_ell == by_pair or (by_pair and (args.r is None or args.s is None)):
        return _usage_error("give either --ell or both --r and --s")

    try:
        if by_ell:
            decomposition = construct(BuildRequest(args.v, args.n, args.ell))
        else:
            decomposition = construct_pair(args.v, args.n, args.r, args.s)
    except PairNotConstructive as exc:
        print(f"cannot build: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ConstructionError as exc:
        print(f"construction failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except AssertionError as exc:
        print(f"internal construction failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_INVALID

    report = verify(decomposition)
    if not report.passed:
        for code, detail in report.violations:
            print(f"{code}: {detail}", file=sys.stderr)
        print("self-verification failed; nothing written", file=sys.stderr)
        return EXIT_INTERNAL

    if args.format == "json":
        payload = serialize.dumps(decomposition)
    else:
        payload = serialize.to_text(decomposition)
    if not _write_payload(payload, args.out):
        return EXIT_USAGE
    if args.out is not None:
        return _print([
            f"wrote r={decomposition.r}, s={decomposition.s} decomposition of "
            f"K_{decomposition.params.v} to {args.out}"
        ], EXIT_OK)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import serialize
    from .verifier import verify

    try:
        text = Path(args.infile).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.infile}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        d = serialize.loads(text)
    except serialize.SchemaError as exc:
        print(f"parse failure: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = verify(d)
    if report.passed:
        return _print([
            f"PASS: valid decomposition of K_{d.params.v} with r={d.r}, s={d.s}"
        ], EXIT_OK)
    lines = [f"{code}: {detail}" for code, detail in report.violations]
    lines.append(f"FAIL: {len(report.violations)} violation(s)")
    return _print(lines, EXIT_FAIL)


def cmd_search(args) -> int:
    from . import serialize
    from .search import BUDGET_EXCEEDED, FOUND, NOT_FOUND_EXHAUSTED, exhaustive_urd

    problem = _check_vn(args.v, args.n)
    if problem:
        return _usage_error(problem)
    if args.r < 0 or args.s < 0:
        return _usage_error("--r and --s must be nonnegative")

    try:
        outcome = exhaustive_urd(
            args.v,
            args.n,
            args.r,
            args.s,
            max_nodes=args.max_nodes,
            timeout=args.timeout,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, ConstructionError) as exc:
        print(f"internal search failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    lines = [
        f"status: {outcome.status}",
        f"nodes explored: {outcome.nodes_explored}",
        f"elapsed: {outcome.elapsed:.3f}s",
    ]
    if outcome.reason:
        lines.append(f"reason: {outcome.reason}")
    code = {FOUND: EXIT_OK, NOT_FOUND_EXHAUSTED: EXIT_FAIL, BUDGET_EXCEEDED: EXIT_BUDGET}[
        outcome.status
    ]
    if outcome.status == FOUND:
        witness = serialize.dumps(outcome.witness)
        if args.out is None:
            lines.append(witness)
        elif _write_payload(witness, args.out):
            lines.append(f"witness written to {args.out}")
        else:
            code = EXIT_USAGE
    return _print(lines, code)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help text goes through _write_payload, so a
    closed or full stdout exits 2 there too (argparse ignores the error)."""

    def print_help(self, file=None):
        if file is not None:
            super().print_help(file)
        elif not _write_payload(self.format_help(), None):
            self.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="starurd",
        description=(
            "Build, check and verify decompositions of K_v into perfect "
            "matchings and n-star factors (n odd)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="admissibility and construction coverage")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build", help="construct a decomposition")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, help="number of matching-route cycles")
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify a decomposition file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive backtracking existence check")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--max-nodes", type=int, dest="max_nodes")
    p.add_argument("--timeout", type=float, help="seconds")
    p.add_argument("--out", help="witness path when found (default: stdout)")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
