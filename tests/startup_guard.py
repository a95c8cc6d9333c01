"""Which modules each `starurd` command imports.

    python tests/startup_guard.py

runs `check`, a small `build`, `verify` of what it built and `search`,
each through cli.main in a fresh `python -I -S` process with src on
sys.path, so that neither site nor a .pth file preloads anything.  No
command may load __future__, dataclasses, inspect or typing, nor
argparse with the gettext and locale it pulls in, whose import costs
more than the small commands' work, nor pathlib with the re, enum,
fnmatch, urllib.parse and ipaddress it pulls in; only `verify`, which
reads a certificate, may load json; and `check` and `verify` load only
the layers they run.
It also runs `starurd --help` and a usage error, which only argparse
reads: they must load it and exit 0 and 2.  Exits 1, naming each fault,
if any is found.  The tier-1 test tests/test_startup.py runs the same
checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NEVER_LOADED = ("__future__", "dataclasses", "inspect", "typing", "argparse", "gettext", "locale",
                "pathlib")
# modules of the read path, which only the command that reads a certificate may load
READ_PATH = {"json": "verify"}
# per command, the only starurd modules it may load (None: any)
ALLOWED = {
    "check": {"starurd", "starurd.cli", "starurd.model", "starurd.admissibility"},
    "build": None,
    "verify": {"starurd", "starurd.cli", "starurd.model", "starurd.serialize",
               "starurd.verifier"},
    "search": None,
}
# argv forms that only argparse reads, with the exit code each must give
FALLBACK = {"help": 0, "usage-error": 2}

# Run cli.main on argv[3:]; write its exit code and the modules loaded
# by then (before json is imported for the record) to the file argv[2].
_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from starurd import cli
code = cli.main(sys.argv[3:])
modules = sorted(sys.modules)
import json
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump({"code": code, "modules": modules}, fh)
"""


def commands(tmp: Path) -> dict[str, list[str]]:
    """The argv of each command, in an order in which build writes the
    certificate that verify reads."""
    cert = str(tmp / "d.json")
    return {
        "check": ["check", "--v", "12", "--n", "3"],
        "build": ["build", "--v", "12", "--n", "3", "--ell", "0", "--out", cert],
        "verify": ["verify", "--in", cert],
        "search": ["search", "--v", "8", "--n", "3", "--r", "1", "--s", "4"],
        "help": ["--help"],
        "usage-error": ["check", "--v", "12", "--n", "3", "--frobnicate"],
    }


def loaded(argv: list[str], tmp: Path) -> tuple[int, set[str]]:
    """The exit code of `starurd ARGV` and the modules it loaded."""
    record = tmp / "modules.json"
    run = subprocess.run([sys.executable, "-I", "-S", "-c", _RUN, str(SRC), str(record), *argv],
                         capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"starurd {' '.join(argv)} failed: {run.stderr}")
    data = json.loads(record.read_text(encoding="utf-8"))
    return data["code"], set(data["modules"])


def faults(command: str, code: int, modules: set[str]) -> list[str]:
    """What is wrong with one command's exit code and loaded modules."""
    if command in FALLBACK:
        out = [f"{command}: exit {code}"] if code != FALLBACK[command] else []
        return out + ([] if "argparse" in modules else [f"{command} does not load argparse"])
    out = [f"{command}: exit {code}"] if code != 0 else []
    out += [f"{command} loads {name}" for name in NEVER_LOADED if name in modules]
    out += [f"{command} loads {name}" for name, reader in READ_PATH.items()
            if name in modules and command != reader]
    if ALLOWED[command] is not None:
        out += [f"{command} loads {name}" for name in sorted(modules)
                if name.split(".")[0] == "starurd" and name not in ALLOWED[command]]
    return out


def main() -> int:
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for command, argv in commands(Path(tmp)).items():
            found += faults(command, *loaded(argv, Path(tmp)))
    for fault in found:
        print(fault, file=sys.stderr)
    print(f"{sys.version.split()[0]}: {'FAIL' if found else 'ok'}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
