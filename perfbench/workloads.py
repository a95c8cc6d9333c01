"""The benchmark's three workloads: their set-up, operations and checks.

Each operation is one `starurd` CLI command run in its own process.  A
check returns None when the output is right and the reason otherwise.

* build  - `starurd build` over a grid that reaches every construction
  branch; construction, self-verification and the JSON writer do the work.
* audit  - `starurd verify` over valid certificates, seeded single-mutation
  copies of them and one hostile tiny claim; the JSON reader and the
  verifier do the work, on acceptances and rejections.
* search - `starurd search` over a fixed instance set; only the search
  layer works.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import certs

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())


@dataclass
class Op:
    name: str
    args: list[str]
    check: Callable  # (Result, Runner) -> failure reason or None
    probe: bool = False  # timed in probe_s instead of wall_s
    codes: list[str] | None = None  # violation codes a rejection should report


# (name, CLI arguments, expected r, expected s).  Together the entries take
# every branch: odd m with n+1 = 0 mod 4 (B7-B11, S, fill_odd), odd m with
# n+1 = 2 mod 4 through check_pair (B3-B6), even m (B1/B2, Bd, S, fill_even).
# Orders of 4-5e4 edges keep a pass near 10 s, so that a 30 s run holds
# one to three passes.
BUILD_GRID = [
    ("v=304 n=15 ell=4", ["--v", "304", "--n", "15", "--ell", "4"], 153, 80),
    ("v=294 n=13 r=293 s=0", ["--v", "294", "--n", "13", "--r", "293", "--s", "0"], 293, 0),
    ("v=288 n=15 ell=4", ["--v", "288", "--n", "15", "--ell", "4"], 167, 64),
]
# Grid entries whose certificates are the audit workload's valid files.
AUDIT_BASES = [("v=304 n=15 ell=4", 304, 15, 4), ("v=288 n=15 ell=4", 288, 15, 4)]
# (name, v, n, r, s, --max-nodes or None, known to exist).  URD(8; 1, 4) is
# the probe; (24,3,17,4) takes 395,644 nodes today; the last three are open
# and stop at their budget, so they time a fixed number of nodes.
SEARCH_SET = [
    ("URD(8;1,4)", 8, 3, 1, 4, None, True),
    ("(24,3,17,4)", 24, 3, 17, 4, None, True),
    ("(12,5,1,6)", 12, 5, 1, 6, 50000, False),
    ("(16,7,1,8)", 16, 7, 1, 8, 50000, False),
    ("(20,3,1,12)", 20, 3, 1, 12, 50000, False),
]
PROBE_REPEATS = 5


def _exit(result, want: int) -> str | None:
    if result.code != want:
        return f"exit {result.code}, expected {want}"
    return None


def _check_certificate(path: Path, want_digest: str, r: int, s: int) -> str | None:
    try:
        cert = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    finally:
        path.unlink(missing_ok=True)
    if (cert.get("r"), cert.get("s")) != (r, s):
        return f"(r, s) = ({cert.get('r')}, {cert.get('s')}), expected ({r}, {s})"
    if certs.digest(cert) != want_digest:
        return "certificate digest differs from the recorded one"
    return None


def build_ops(run_dir: Path, rng: random.Random) -> list[Op]:
    ops = []
    for name, args, r, s in BUILD_GRID:
        out = run_dir / f"build-{len(ops)}.json"

        def check(result, runner, out=out, name=name, r=r, s=s):
            return _exit(result, 0) or _check_certificate(out, EXPECTED["build"][name], r, s)

        ops.append(Op(f"build {name}", ["build", *args, "--out", str(out)], check))

    def check_table(result, runner):
        if not re.search(r"x=8 r=255 s=128\s+CONSTRUCTIVE ell=7", result.out):
            return "admissibility table lacks x=8 r=255 s=128 CONSTRUCTIVE ell=7"
        return _exit(result, 0)

    probe = Op("check v=496 n=15", ["check", "--v", "496", "--n", "15"], check_table, probe=True)
    return ops + [probe] * PROBE_REPEATS


def codes(out: str) -> list[str]:
    """The violation codes in `starurd verify` output."""
    return sorted(set(re.findall(r"^([A-Z_]+): ", out, re.MULTILINE)) - {"PASS", "FAIL"})


def audit_ops(run_dir: Path, rng: random.Random) -> list[Op]:
    from starurd import BuildRequest, construct, serialize

    fixtures = run_dir / "fixtures"
    fixtures.mkdir(exist_ok=True)
    expected = {}
    ops = []
    kinds = rng.sample(sorted(certs.MUTATIONS), len(AUDIT_BASES))
    for (name, v, n, ell), kind in zip(AUDIT_BASES, kinds):
        cert = serialize.to_dict(construct(BuildRequest(v, n, ell)))
        fixture_ok = certs.digest(cert) == EXPECTED["build"][name]
        text = json.dumps(cert, separators=(",", ":"))
        valid = fixtures / f"valid-v{v}.json"
        valid.write_text(text)
        expected[valid.name] = {"exit": 0, "codes": []}

        def check_valid(result, runner, fixture_ok=fixture_ok):
            if not fixture_ok:
                return "fixture digest differs from the recorded build digest"
            return _exit(result, 0) or (None if result.out.startswith("PASS") else "no PASS line")

        ops.append(Op(f"verify valid {name}", ["verify", "--in", str(valid)], check_valid))

        mutant = json.loads(text)
        certs.mutate(mutant, kind, rng)
        bad = fixtures / f"{kind}-v{v}.json"
        bad.write_text(json.dumps(mutant, separators=(",", ":")))
        expected[bad.name] = {"exit": 1, "codes": sorted(certs.MUTATIONS[kind])}
        ops.append(
            Op(f"verify {kind} {name}", ["verify", "--in", str(bad)], _check_rejected,
               codes=expected[bad.name]["codes"])
        )

    hostile = fixtures / "hostile-v800.json"
    hostile.write_text(json.dumps(certs.hostile_claim()))
    expected[hostile.name] = {"exit": 1, "codes": ["COUNT_MISMATCH", "MISSING_EDGE"]}
    ops.append(
        Op("verify hostile v=800", ["verify", "--in", str(hostile)], _check_rejected,
           probe=True, codes=expected[hostile.name]["codes"])
    )
    (fixtures / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True))
    return ops


def _check_rejected(result, runner) -> str | None:
    # Only the exit code gates: an earlier check in the verifier may
    # legitimately report a different set of codes.  The expected sets are
    # written to fixtures/expected.json and compared in the result file.
    return _exit(result, 1) or (None if "FAIL:" in result.out else "no FAIL line")


def search_ops(run_dir: Path, rng: random.Random) -> list[Op]:
    ops = []
    verified: dict[str, int] = {}  # witness text -> exit code of its verify
    for name, v, n, r, s, max_nodes, exists in SEARCH_SET:
        witness = run_dir / f"witness-{len(ops)}.json"
        args = ["search", "--v", str(v), "--n", str(n), "--r", str(r), "--s", str(s)]
        if max_nodes is not None:
            args += ["--max-nodes", str(max_nodes)]

        def check(result, runner, witness=witness, vnrs=(v, n, r, s), exists=exists):
            status = re.search(r"^status: (\w+)", result.out, re.MULTILINE)
            status = status.group(1) if status else None
            if status == "FOUND":
                return _exit(result, 0) or _check_witness(witness, vnrs, runner, verified)
            if status == "NOT_FOUND_EXHAUSTED" and not exists:
                return _exit(result, 1)
            if status == "BUDGET_EXCEEDED" and not exists:
                return _exit(result, 6)
            return f"status {status} with exit {result.code}"

        op = Op(f"search {name}", [*args, "--out", str(witness)], check, probe=name == "URD(8;1,4)")
        ops += [op] * (PROBE_REPEATS if op.probe else 1)
    return ops


def _check_witness(path: Path, vnrs, runner, verified: dict[str, int]) -> str | None:
    try:
        text = path.read_text()
        cert = json.loads(text)
    except (OSError, ValueError) as exc:
        return f"unreadable witness: {exc}"
    got = tuple(cert.get(key) for key in ("v", "n", "r", "s"))
    if got != vnrs:
        return f"witness is for (v, n, r, s) = {got}, expected {vnrs}"
    # The search is deterministic, so a repeated operation usually writes
    # the same witness; verifying each distinct text once is enough.
    if text not in verified:
        verified[text] = runner.cli(["verify", "--in", str(path)]).code
    path.unlink()
    code = verified[text]
    return None if code == 0 else f"witness fails verify (exit {code})"


WORKLOADS = {"build": build_ops, "audit": audit_ops, "search": search_ops}
