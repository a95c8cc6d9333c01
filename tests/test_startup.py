"""Start-up guards: what importing starurd and running each command loads."""

import subprocess
import sys

import pytest

import startup_guard

# every public name `import starurd` gave when its __init__ imported every layer
EXPORTED = [
    "ADMISSIBLE_UNRESOLVED", "AdmissiblePair", "BUDGET_EXCEEDED", "BuildRequest",
    "CONSTRUCTIVE", "ConstructionError", "CoverageVerdict", "Decomposition", "Edge", "FOUND",
    "FactorClass", "INADMISSIBLE", "NOT_FOUND_EXHAUSTED", "ONE_FACTOR", "PairNotConstructive",
    "Params", "STAR_FACTOR", "SearchOutcome", "StarBlock", "VerificationReport", "Vertex",
    "admissibility", "admissible_pairs", "assembler", "aurd", "blowup", "check_pair",
    "construct", "construct_pair", "constructive_pairs", "exhaustive_urd", "filling", "model",
    "search", "seeds", "verifier", "verify",
]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("startup")
    return {command: startup_guard.loaded(argv, tmp)
            for command, argv in startup_guard.commands(tmp).items()}


@pytest.mark.parametrize("command", list(startup_guard.ALLOWED))
def test_command_loads_only_what_it_runs(runs, command):
    assert startup_guard.faults(command, *runs[command]) == []


def _fresh(code: str) -> str:
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(startup_guard.SRC)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_every_exported_name_resolves_lazily():
    out = _fresh(f"""
import sys
sys.path.insert(0, sys.argv[1])
import starurd
assert [m for m in sys.modules if m.startswith("starurd.")] == [], "a layer imported eagerly"
for name in {EXPORTED!r}:
    value = getattr(starurd, name)
    layers = [m for key, m in sys.modules.items() if key.startswith("starurd.")]
    assert value in layers or any(getattr(m, name, None) is value for m in layers), name
assert sorted(starurd.__all__) == sorted({EXPORTED!r})
assert not hasattr(starurd, "no_such_name")
print("ok")
""")
    assert out == "ok\n"


def test_star_and_named_imports_yield_every_exported_name():
    out = _fresh(f"""
import sys
sys.path.insert(0, sys.argv[1])
from starurd import BuildRequest, construct, serialize
namespace = {{}}
exec("from starurd import *", namespace)
print(sorted(name for name in namespace if not name.startswith("_")))
""")
    assert out == f"{sorted(EXPORTED)}\n"
