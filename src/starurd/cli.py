"""Command-line surface: check, build, verify, search.

Exit codes are stable:

    0  success (constructive verdict, table printed, verify passed, FOUND)
    1  verification failed / search exhausted without a witness
    2  bad flags, unreadable or unparseable input (including an integer
       literal too long to parse), or unwritable output (including a
       closed or full stdout, on any command and whatever the verdict;
       a closed or full stderr changes no code)
    3  inadmissible or otherwise invalid build request
    4  admissible pair the constructions do not cover
    5  internal construction, self-verification or search failure
    6  search budget exceeded

No command writes output before it has passed its checks.  `build`
writes its certificate only after self-verification passes, to `--out`
or stdout, one class at a time as serialize renders it, so the whole
text is never held.  `search` writes its witness the same way to
`--out`; on stdout it prints the witness, which is desk-scale, whole
after its status lines.  Every other stdout text, help included, is
rendered fully and written once, through the same writer as the files.
Each diagnostic is written to stderr once, by `_fail`, which cannot raise.

Each command imports the layers it runs when it runs, so that `verify`
does not pay for importing the construction or the search.

How argv is read: the surface is declared once, in `_COMMANDS` (per
command its help and flags; per flag its name, dest, type, required,
default, choices and help).  A strict reader takes the canonical form
`COMMAND (--flag VALUE)*`, with each flag an exact declared name given
once, no VALUE starting with `-`, each VALUE of its declared type and
choices and every required flag present, and gives the namespace argparse
would.  Anything else (no argv, help, abbreviations, `--flag=value`,
repeated flags, negative or bad numbers, unknown or missing flags) goes to
the argparse parser that `build_parser` makes from the same table, so
argparse alone writes help and usage errors, and a well-formed command
does not import it.
"""

import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from .model import ConstructionError, _require_order

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_UNRESOLVED = 4
EXIT_INTERNAL = 5
EXIT_BUDGET = 6


def _drop(stream) -> None:
    """Point the fd of a stream that cannot be written at devnull, so the
    final flush at exit drops what is still buffered instead of failing."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _fail(code: int, *lines: str) -> int:
    """Write lines to stderr in one go and return code, whether or not
    stderr can be written."""
    try:
        sys.stderr.write("".join(f"{line}\n" for line in lines))
        sys.stderr.flush()
    except OSError:
        _drop(sys.stderr)
    return code


def _write_payload(write, out: str | None) -> bool:
    """Write a text to out, or to stdout if out is None: write(stream)
    writes it and returns its last character, and stdout gets a newline
    after a text that does not end with one.  If it cannot be written (a
    missing directory, a closed pipe, a full device), say so on stderr
    and return False."""
    try:
        if out is None:
            if write(sys.stdout) != "\n":
                sys.stdout.write("\n")
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8") as stream:
                write(stream)
    except OSError as exc:
        if out is None:
            _drop(sys.stdout)
        _fail(EXIT_USAGE, f"cannot write {'<stdout>' if out is None else out}: {exc}")
        return False
    return True


def _whole(payload: str):
    """The write function of _write_payload for a text rendered whole."""
    def write(stream) -> str:
        stream.write(payload)
        return payload[-1:]
    return write


def _print(lines: list[str], code: int) -> int:
    """Write a command's stdout text in one go; return code, or
    EXIT_USAGE if stdout cannot be written."""
    return code if _write_payload(_whole("\n".join(lines)), None) else EXIT_USAGE


def cmd_check(args) -> int:
    from . import admissibility

    if (args.r is None) != (args.s is None):
        return _fail(EXIT_USAGE, "error: --r and --s must be given together")

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

    by_ell = args.ell is not None
    by_pair = args.r is not None or args.s is not None
    if by_ell == by_pair or (by_pair and (args.r is None or args.s is None)):
        return _fail(EXIT_USAGE, "error: give either --ell or both --r and --s")

    try:
        if by_ell:
            decomposition = construct(BuildRequest(args.v, args.n, args.ell))
        else:
            decomposition = construct_pair(args.v, args.n, args.r, args.s)
    except PairNotConstructive as exc:
        return _fail(EXIT_INVALID, f"cannot build: {exc}")
    except ConstructionError as exc:
        return _fail(EXIT_INTERNAL, f"construction failure: {exc}")
    except AssertionError as exc:
        return _fail(EXIT_INTERNAL, f"internal construction failure: {exc}")
    except ValueError as exc:
        return _fail(EXIT_INVALID, f"invalid request: {exc}")

    report = verify(decomposition)
    if not report.passed:
        return _fail(EXIT_INTERNAL, *(f"{code}: {detail}" for code, detail in report.violations),
                     "self-verification failed; nothing written")

    render = serialize.dumps if args.format == "json" else serialize.to_text
    if not _write_payload(lambda stream: render(decomposition, stream), args.out):
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
        with open(args.infile, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(EXIT_USAGE, f"cannot read {args.infile}: {exc}")
    try:
        d = serialize.loads(text)
    except serialize.SchemaError as exc:
        return _fail(EXIT_USAGE, f"parse failure: {exc}")
    del text  # the audit needs only the classes read from it

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

    if args.r < 0 or args.s < 0:
        return _fail(EXIT_USAGE, "error: --r and --s must be nonnegative")

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
        return _fail(EXIT_USAGE, f"error: {exc}")
    except (AssertionError, ConstructionError) as exc:
        return _fail(EXIT_INTERNAL, f"internal search failure: {exc}")

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
        if args.out is None:
            lines.append(serialize.dumps(outcome.witness))
        elif _write_payload(lambda stream: serialize.dumps(outcome.witness, stream), args.out):
            lines.append(f"witness written to {args.out}")
        else:
            code = EXIT_USAGE
    return _print(lines, code)


# One flag of a command: the argparse add_argument fields it is declared with.
_Flag = namedtuple("_Flag", "name dest type required default choices help",
                   defaults=(False, None, None, None))

# --v and --n, which main checks (model._require_order) wherever they are parsed.
_ORDER = (_Flag("--v", "v", int, True), _Flag("--n", "n", int, True))

# The command-line surface: per command, its help and its flags in the
# order argparse lists them.  build_parser and _read_canonical both read
# it.  A command takes --v and --n if and only if it splices in _ORDER.
_COMMANDS = {
    "check": ("admissibility and construction coverage", (
        *_ORDER,
        _Flag("--r", "r", int),
        _Flag("--s", "s", int),
    )),
    "build": ("construct a decomposition", (
        *_ORDER,
        _Flag("--ell", "ell", int, help="number of matching-route cycles"),
        _Flag("--r", "r", int),
        _Flag("--s", "s", int),
        _Flag("--out", "out", str, help="output path (default: stdout)"),
        _Flag("--format", "format", str, default="json", choices=("json", "text")),
    )),
    "verify": ("verify a decomposition file", (
        _Flag("--in", "infile", str, True),
    )),
    "search": ("exhaustive backtracking existence check", (
        *_ORDER,
        _Flag("--r", "r", int, True),
        _Flag("--s", "s", int, True),
        _Flag("--max-nodes", "max_nodes", int),
        _Flag("--timeout", "timeout", float, help="seconds"),
        _Flag("--out", "out", str, help="witness path when found (default: stdout)"),
    )),
}


def _read_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for argv in the canonical form
    `COMMAND (--flag VALUE)*`, or None for any other argv."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    command = argv[0]
    flags = _COMMANDS[command][1]
    by_name = {flag.name: flag for flag in flags}
    values = {}
    for name, text in zip(argv[1::2], argv[2::2]):
        flag = by_name.get(name)
        if flag is None or flag.dest in values or text.startswith("-"):
            return None
        try:
            value = flag.type(text)
        except ValueError:
            return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[flag.dest] = value
    if any(flag.required and flag.dest not in values for flag in flags):
        return None
    return SimpleNamespace(
        command=command, **{flag.dest: values.get(flag.dest, flag.default) for flag in flags}
    )


def build_parser():
    """The argparse parser of the surface in _COMMANDS."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser whose help text goes through _write_payload, so
        a closed or full stdout exits 2 there too (argparse ignores the
        error)."""

        def print_help(self, file=None):
            if file is not None:
                super().print_help(file)
            elif not _write_payload(_whole(self.format_help()), None):
                self.exit(EXIT_USAGE)

    parser = _Parser(
        prog="starurd",
        description=(
            "Build, check and verify decompositions of K_v into perfect "
            "matchings and n-star factors (n odd)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            p.add_argument(flag.name, dest=flag.dest, type=flag.type, required=flag.required,
                           default=flag.default, choices=flag.choices, help=flag.help)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_canonical(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if hasattr(args, "n"):
        try:
            _require_order(args.v, args.n, "--")
        except ValueError as exc:
            return _fail(EXIT_USAGE, f"error: {exc}")
    # looked up as the command runs, so a rebound cmd_* (a span wrapper) runs
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
