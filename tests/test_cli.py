import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starurd
from starurd import cli
from starurd.cli import main
from starurd.model import ConstructionError, VerificationReport
from starurd.serialize import loads
from test_serialize import SCHEMA_ERRORS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_table(capsys):
    code, out, _ = run(capsys, "check", "--v", "12", "--n", "3")
    assert code == 0
    assert "x=0 r=11 s=0  CONSTRUCTIVE ell=1" in out
    assert "x=1 r=5 s=4  CONSTRUCTIVE ell=0" in out


def test_check_empty_table(capsys):
    code, out, _ = run(capsys, "check", "--v", "7", "--n", "3")
    assert code == 0
    assert "(none)" in out


def test_check_single_constructive(capsys):
    code, out, _ = run(capsys, "check", "--v", "12", "--n", "3", "--r", "5", "--s", "4")
    assert code == 0
    assert "CONSTRUCTIVE ell=0" in out


def test_check_single_unresolved(capsys):
    code, out, _ = run(capsys, "check", "--v", "8", "--n", "3", "--r", "1", "--s", "4")
    assert code == 4
    assert "ADMISSIBLE_UNRESOLVED" in out


def test_check_single_inadmissible(capsys):
    code, out, _ = run(capsys, "check", "--v", "12", "--n", "3", "--r", "4", "--s", "4")
    assert code == 3
    assert "INADMISSIBLE" in out


def test_check_even_n_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--v", "12", "--n", "4")
    assert code == 2
    assert "odd" in err


@pytest.mark.parametrize("argv,message", [
    (["check", "--v", "0", "--n", "3"], "--v must be positive, got 0"),
    (["build", "--v", "12", "--n", "4", "--ell", "0"], "--n must be odd and >= 3, got 4"),
    (["search", "--v", "8", "--n", "4", "--r", "1", "--s", "4"], "--n must be odd and >= 3, got 4"),
    (["search", "--v", "8", "--n", "3", "--r", "-1", "--s", "4"], "--r and --s must be nonnegative"),
], ids=["check-v0", "build-even-n", "search-even-n", "search-negative-r"])
def test_bad_arguments_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_check_r_without_s_is_usage_error(capsys):
    code, _, _ = run(capsys, "check", "--v", "12", "--n", "3", "--r", "5")
    assert code == 2


def test_build_json_file_then_verify(capsys, tmp_path):
    path = tmp_path / "d.json"
    code, out, _ = run(
        capsys,
        "build", "--v", "12", "--n", "3", "--ell", "0",
        "--format", "json", "--out", str(path),
    )
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["r"] == 5 and obj["s"] == 4 and len(obj["classes"]) == 9

    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0
    assert out.startswith("PASS")


def test_build_to_stdout(capsys):
    code, out, _ = run(capsys, "build", "--v", "12", "--n", "3", "--ell", "1")
    assert code == 0
    d = loads(out)
    assert (d.r, d.s) == (11, 0)


def test_build_text_format(capsys, tmp_path):
    path = tmp_path / "d.txt"
    code, _, _ = run(
        capsys,
        "build", "--v", "12", "--n", "3", "--ell", "0",
        "--format", "text", "--out", str(path),
    )
    assert code == 0
    assert "class 1: one_factor" in path.read_text()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("v,args", [
    (12, ["--ell", "0"]), (12, ["--ell", "1"]), (8, ["--r", "7", "--s", "0"]),
], ids=["stars", "one-factors", "one-factorization"])
def test_build_writes_the_rendered_text(capsys, tmp_path, fmt, v, args):
    # the file holds the text as rendered whole; stdout ends it with a
    # newline if it does not end with one
    from starurd.assembler import BuildRequest, construct, construct_pair
    from starurd.serialize import dumps, to_text

    if "--r" in args:
        d = construct_pair(v, 3, 7, 0)
    else:
        d = construct(BuildRequest(v, 3, int(args[1])))
    text = dumps(d) if fmt == "json" else to_text(d)
    argv = ["build", "--v", str(v), "--n", "3", *args, "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (text + "\n" if fmt == "json" else text)
    path = tmp_path / "d"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_build_out_to_a_full_device_exits_two(capsys, fmt):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    code, out, err = run(capsys, *BUILD_64, "--format", fmt, "--out", "/dev/full")
    assert code == 2
    assert "cannot write /dev/full" in err
    assert out == ""


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("to", ["out", "stdout"])
def test_build_writes_in_less_than_the_size_of_its_text(monkeypatch, tmp_path, fmt, to):
    # construction and self-verification are done before tracing starts, so
    # the peak is that of the write path: one class rendered at a time, not
    # the whole text, let alone a joined copy and its encoding
    import tracemalloc

    from starurd import assembler, serialize, verifier

    d = assembler.construct(assembler.BuildRequest(144, 7, 0))  # 10296 edges
    text = serialize.dumps(d) if fmt == "json" else serialize.to_text(d)
    report = verifier.verify(d)
    monkeypatch.setattr(assembler, "construct", lambda request: d)
    monkeypatch.setattr(verifier, "verify", lambda d: report)
    path = tmp_path / "d"
    argv = ["build", "--v", "144", "--n", "7", "--ell", "0", "--format", fmt]
    with open(tmp_path / "stdout", "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        if to == "out":
            argv += ["--out", str(path)]
        else:
            path = tmp_path / "stdout"
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    written = path.read_text(encoding="utf-8")
    assert written == (text + "\n" if to == "stdout" and fmt == "json" else text)
    assert peak < len(text)


def test_build_by_pair_resolves_ell(capsys):
    code, out, _ = run(capsys, "build", "--v", "16", "--n", "3", "--r", "9", "--s", "4")
    assert code == 0
    d = loads(out)
    assert (d.r, d.s) == (9, 4)
    assert len(d.classes) == 13


def test_build_bad_ell(capsys):
    code, _, err = run(capsys, "build", "--v", "12", "--n", "3", "--ell", "2")
    assert code == 3
    assert "ell" in err


def test_build_inadmissible_pair(capsys):
    code, _, err = run(capsys, "build", "--v", "12", "--n", "3", "--r", "4", "--s", "4")
    assert code == 3
    assert "INADMISSIBLE" in err


def test_build_unresolved_pair(capsys):
    code, _, err = run(capsys, "build", "--v", "8", "--n", "3", "--r", "1", "--s", "4")
    assert code == 3
    assert "ADMISSIBLE_UNRESOLVED" in err


def test_build_needs_ell_or_pair(capsys):
    code, _, _ = run(capsys, "build", "--v", "12", "--n", "3")
    assert code == 2
    code, _, _ = run(capsys, "build", "--v", "12", "--n", "3", "--ell", "0", "--r", "5", "--s", "4")
    assert code == 2


def test_build_internal_failure_exits_five(capsys, monkeypatch, tmp_path):
    from starurd import assembler
    from starurd.model import ConstructionError

    def boom(req):
        raise ConstructionError("B1a@d=1", "induced failure")

    monkeypatch.setattr(assembler, "construct", boom)
    path = tmp_path / "never.json"
    code, _, err = run(
        capsys, "build", "--v", "12", "--n", "3", "--ell", "0", "--out", str(path)
    )
    assert code == 5
    assert "B1a@d=1" in err
    assert not path.exists()  # nothing written on failure


def test_build_self_verify_failure_exits_five(capsys, monkeypatch, tmp_path):
    from starurd import verifier
    from starurd.model import VerificationReport

    monkeypatch.setattr(
        verifier,
        "verify",
        lambda d: VerificationReport((("MISSING_EDGE", "induced"),)),
    )
    path = tmp_path / "never.json"
    code, _, err = run(
        capsys, "build", "--v", "12", "--n", "3", "--ell", "0", "--out", str(path)
    )
    assert code == 5
    assert "MISSING_EDGE" in err
    assert not path.exists()


def _build_exits_five(capsys, tmp_path, *flags):
    path = tmp_path / "never.json"
    argv = ("build", "--v", "12", "--n", "3", *flags, "--out", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 5
    assert "internal construction failure" in err
    assert "Traceback" not in out + err
    assert not path.exists()
    return err


def test_build_assembly_count_assertion_exits_five(capsys, monkeypatch, tmp_path):
    import starurd.assembler as assembler

    real = assembler.fill_odd

    def short_fill(m, n):
        out = real(m, n)
        return SimpleNamespace(flat=out.flat[:-1])

    monkeypatch.setattr(assembler, "fill_odd", short_fill)
    err = _build_exits_five(capsys, tmp_path, "--ell", "0")
    assert "assembled (r,s)=(4,4), expected (5,4)" in err


def test_build_pair_assertion_exits_five(capsys, monkeypatch, tmp_path):
    import starurd.assembler as assembler
    from starurd.model import Decomposition, Params

    empty = Decomposition(Params.for_order(12, 3), (), 0, 0)
    monkeypatch.setattr(assembler, "construct", lambda req: empty)
    err = _build_exits_five(capsys, tmp_path, "--r", "5", "--s", "4")
    assert "built (r,s)=(0,0) but requested (5,4)" in err


def test_build_aurd_odd_weight_exits_five(capsys, monkeypatch, tmp_path):
    # an odd weight let past _check_args builds classes that _output's
    # check rejects, naming the family
    import starurd.assembler as assembler
    import starurd.aurd as aurd
    from starurd.blowup import WeightedCycle

    monkeypatch.setattr(aurd, "_check_args", lambda weight: weight - 1)
    monkeypatch.setattr(assembler, "WeightedCycle", lambda c, w: WeightedCycle(c, w + 1))
    path = tmp_path / "never.json"
    code, _, err = run(capsys, "build", "--v", "12", "--n", "3", "--ell", "1",
                       "--out", str(path))
    assert code == 5
    assert err == "construction failure: [B11a@d=1] not spanning: 12 of 15 vertices covered\n"
    assert not path.exists()


def test_search_invalid_witness_exits_five(capsys, monkeypatch, tmp_path):
    import starurd.search as search
    from starurd.model import VerificationReport

    failed = VerificationReport((("MISSING_EDGE", "induced"),))
    monkeypatch.setattr(search, "verify", lambda d: failed)
    path = tmp_path / "never.json"
    code, out, err = run(
        capsys,
        "search", "--v", "4", "--n", "3", "--r", "3", "--s", "0", "--out", str(path),
    )
    assert code == 5
    assert "internal search failure" in err and "MISSING_EDGE" in err
    assert "Traceback" not in out + err
    assert not path.exists()



def test_search_witness_construction_error_exits_five(capsys, monkeypatch, tmp_path):
    import starurd.search as search
    from starurd.model import ConstructionError

    def broken(kind, bases, w, tagged):
        raise ConstructionError("search@class=1", "vertex (0, 0) covered twice")

    monkeypatch.setattr(search, "_output", broken)
    path = tmp_path / "never.json"
    code, out, err = run(
        capsys,
        "search", "--v", "4", "--n", "3", "--r", "3", "--s", "0", "--out", str(path),
    )
    assert code == 5
    assert "internal search failure: [search@class=1] vertex (0, 0) covered twice" in err
    assert "Traceback" not in out + err
    assert not path.exists()

def test_verify_detects_missing_edge(capsys, tmp_path):
    path = tmp_path / "d.json"
    run(capsys, "build", "--v", "12", "--n", "3", "--ell", "0", "--out", str(path))
    obj = json.loads(path.read_text())
    del obj["classes"][0]["blocks"][0]
    path.write_text(json.dumps(obj))

    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 1
    assert "MISSING_EDGE" in out
    assert "NOT_SPANNING" in out
    assert "FAIL" in out


def test_verify_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert "parse failure" in err


def test_verify_schema_error_names_its_location_once(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": "1", "v": 4, "n": 3, "m": 1, "r": 3, "s": 0,
                                "classes": [{"kind": "one_factor", "blocks": [[[0, 0]]]}]}))
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == "parse failure: class 0 block 0: edge block needs two vertices\n"


@pytest.mark.parametrize("obj,message", SCHEMA_ERRORS)
def test_verify_prints_the_readers_schema_error(capsys, tmp_path, obj, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert (code, out, err) == (2, "", f"parse failure: {message}\n")


def test_verify_makes_no_vertex_edge_or_star_object(capsys, tmp_path, monkeypatch):
    # `starurd verify` reads and audits flat ids: a valid certificate
    # passes without one Vertex, Edge or StarBlock being made
    from starurd.assembler import BuildRequest, construct
    from starurd.model import Edge, StarBlock, Vertex
    from starurd.serialize import dumps

    d = construct(BuildRequest(24, 5, 1))
    path = tmp_path / "d.json"
    path.write_text(dumps(d), encoding="utf-8")

    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"{cls.__name__} made on the verify path")

    for cls in (Vertex, Edge, StarBlock):
        monkeypatch.setattr(cls, "__new__", refuse)
        with pytest.raises(AssertionError):
            cls(Vertex, Vertex)
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert (code, err) == (0, "")
    assert out == f"PASS: valid decomposition of K_24 with r={d.r}, s={d.s}\n"


def test_commands_make_no_edge_or_star_object(capsys, tmp_path, monkeypatch):
    # classes are kept on flat ids: build, its self-check and its writer,
    # verify and search make Edge and StarBlock objects only on request
    from starurd.model import Edge, StarBlock

    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"{cls.__name__} made")

    for cls in (Edge, StarBlock):
        monkeypatch.setattr(cls, "__new__", refuse)
    builds = {
        "odd-m": ("--v", "12", "--n", "3", "--ell", "0"),
        "even-m": ("--v", "16", "--n", "3", "--ell", "1"),
        "one-factorization": ("--v", "8", "--n", "3", "--r", "7", "--s", "0"),
    }
    for name, flags in builds.items():
        path = tmp_path / f"{name}.json"
        assert run(capsys, "build", *flags, "--out", str(path))[0] == 0, name
    assert run(capsys, "verify", "--in", str(tmp_path / "even-m.json"))[0] == 0
    assert run(capsys, "search", "--v", "8", "--n", "3", "--r", "1", "--s", "4")[0] == 0


def test_file_io_does_not_depend_on_the_locale(tmp_path):
    # a text-mode open that names no encoding is an error under these flags
    env = dict(os.environ, PYTHONPATH=str(Path(starurd.__file__).parents[1]))
    cli = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
           "-m", "starurd.cli"]

    def run_cli(*argv):
        return subprocess.run([*cli, *argv], capture_output=True, text=True, env=env)

    path = tmp_path / "d.json"
    built = run_cli("build", "--v", "12", "--n", "3", "--ell", "0", "--out", str(path))
    assert built.returncode == 0, built.stderr
    checked = run_cli("verify", "--in", str(path))
    assert checked.returncode == 0, checked.stderr
    assert checked.stdout.startswith("PASS")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\x7fELF" + bytes(range(128, 256)))
    unread = run_cli("verify", "--in", str(binary))
    assert unread.returncode == 2
    assert f"cannot read {binary}" in unread.stderr
    assert "Traceback" not in unread.stdout + unread.stderr


def test_verify_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", "--in", str(tmp_path / "nope.json"))
    assert code == 2


def test_verify_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\x7fELF" + bytes(range(128, 256)))
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert f"cannot read {path}" in err
    assert "Traceback" not in out + err


def test_verify_deeply_nested_file(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert "parse failure" in err
    assert "Traceback" not in out + err


def test_verify_integer_literal_too_long(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"version": "1", "v": 1' + "0" * 5000 + ', "n": 3, "m": 3, "r": 5, '
                    '"s": 4, "classes": []}')
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert "parse failure" in err


def test_build_out_in_missing_directory(capsys, tmp_path):
    path = tmp_path / "missing" / "d.json"
    code, out, err = run(
        capsys, "build", "--v", "12", "--n", "3", "--ell", "0", "--out", str(path)
    )
    assert code == 2
    assert f"cannot write {path}" in err
    assert "wrote" not in out
    assert not path.exists()


def test_search_out_in_missing_directory(capsys, tmp_path):
    path = tmp_path / "missing" / "w.json"
    code, out, err = run(
        capsys,
        "search", "--v", "4", "--n", "3", "--r", "3", "--s", "0", "--out", str(path),
    )
    assert code == 2
    assert f"cannot write {path}" in err
    assert "witness written" not in out
    assert not path.exists()


def test_search_found_writes_witness(capsys, tmp_path):
    path = tmp_path / "w.json"
    code, out, _ = run(
        capsys,
        "search", "--v", "4", "--n", "3", "--r", "3", "--s", "0", "--out", str(path),
    )
    assert code == 0
    assert "status: FOUND" in out
    d = loads(path.read_text())
    assert (d.r, d.s) == (3, 0)


def test_search_found_stdout_witness(capsys):
    code, out, _ = run(capsys, "search", "--v", "8", "--n", "3", "--r", "1", "--s", "4")
    assert code == 0
    assert "status: FOUND" in out
    assert '"version": "1"' in out


def test_search_inadmissible_exits_one(capsys):
    code, out, _ = run(capsys, "search", "--v", "12", "--n", "3", "--r", "4", "--s", "4")
    assert code == 1
    assert "NOT_FOUND_EXHAUSTED" in out
    assert "necessary conditions fail" in out


def test_search_budget_exceeded_exits_six(capsys):
    code, out, _ = run(
        capsys,
        "search", "--v", "20", "--n", "3", "--r", "1", "--s", "12",
        "--max-nodes", "5000",
    )
    assert code == 6
    assert "BUDGET_EXCEEDED" in out


def test_search_recursion_limit_exits_six_without_traceback():
    # a search deeper than Python's recursion limit is a budget stop (exit
    # 6), not "search exhausted" (exit 1) by way of an uncaught traceback
    env = dict(os.environ, PYTHONPATH=str(Path(starurd.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "starurd.cli",
         "search", "--v", "64", "--n", "3", "--r", "63", "--s", "0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 6
    assert proc.stderr == ""
    assert "status: BUDGET_EXCEEDED" in proc.stdout
    assert "reason: stopped at Python's recursion limit (" in proc.stdout


@pytest.mark.parametrize(
    "flag,value", [("--timeout", "-1"), ("--timeout", "nan"), ("--max-nodes", "-5")]
)
def test_search_bad_budget_is_usage_error(capsys, flag, value):
    # an open instance, so a budget that were accepted would be spent
    code, out, err = run(
        capsys, "search", "--v", "8", "--n", "3", "--r", "1", "--s", "4", flag, value
    )
    assert code == 2
    assert out == ""
    assert "must be >= 0" in err


def test_search_infinite_timeout_is_no_limit(capsys):
    code, out, _ = run(
        capsys, "search", "--v", "8", "--n", "3", "--r", "1", "--s", "4", "--timeout", "inf"
    )
    assert code == 0
    assert "status: FOUND" in out


BUILD_64 = ["build", "--v", "64", "--n", "3", "--ell", "0"]
SEARCH_8 = ["search", "--v", "8", "--n", "3", "--r", "1", "--s", "4"]


@pytest.mark.parametrize(
    "argv,stdout",
    [
        pytest.param(BUILD_64, "closed", id="build"),
        pytest.param(BUILD_64 + ["--out", "d.json"], "closed", id="build-out"),
        pytest.param(["check", "--v", "12", "--n", "3"], "closed", id="check"),
        pytest.param(["check", "--v", "12", "--n", "3", "--r", "5", "--s", "4"], "closed",
                     id="check-pair"),
        pytest.param(["verify", "--in", "valid.json"], "closed", id="verify"),
        pytest.param(SEARCH_8 + ["--out", "w.json"], "closed", id="search-out"),
        pytest.param(["check", "--v", "12", "--n", "3"], "/dev/full", id="check-full"),
        pytest.param(["--help"], "closed", id="help"),
        pytest.param(["check", "--help"], "/dev/full", id="help-full"),
    ],
)
def test_build_to_closed_stdout_exits_two(tmp_path, argv, stdout):
    # the reader of the pipe is gone before anything is written, or the
    # device is full; whatever the verdict, the command exits 2
    from starurd import serialize
    from starurd.assembler import BuildRequest, construct
    from starurd.verifier import verify

    valid = serialize.dumps(construct(BuildRequest(12, 3, 0)))
    (tmp_path / "valid.json").write_text(valid)
    env = dict(os.environ, PYTHONPATH=str(Path(starurd.__file__).parents[1]))
    argv = [sys.executable, "-m", "starurd.cli", *argv]
    if stdout == "closed":
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
            cwd=tmp_path,
        ) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
    else:
        if not os.path.exists(stdout):
            pytest.skip(f"no {stdout} on this platform")
        with open(stdout, "w") as full:
            proc = subprocess.run(
                argv, stdout=full, stderr=subprocess.PIPE, env=env, text=True, cwd=tmp_path
            )
        err = proc.stderr
    assert proc.returncode == 2
    assert "cannot write <stdout>" in err
    assert "Traceback" not in err and "Exception ignored" not in err
    if "d.json" in argv:  # the file was written in full before stdout failed
        built = construct(BuildRequest(64, 3, 0))
        assert (tmp_path / "d.json").read_text() == serialize.dumps(built)
    if "w.json" in argv:
        assert verify(loads((tmp_path / "w.json").read_text())).passed


@pytest.fixture
def closed_pipe():
    """The write end of a pipe whose read end is closed: every write to
    it fails."""
    read, write = os.pipe()
    os.close(read)
    yield write
    os.close(write)


BUILD_12 = ["build", "--v", "12", "--n", "3", "--ell", "0"]


@pytest.mark.parametrize("argv,code,stdout_too", [
    pytest.param(["verify", "--in", "missing.json"], 2, False, id="verify-missing"),
    pytest.param(["verify", "--in", "bad.json"], 2, False, id="verify-parse"),
    pytest.param(["check", "--v", "12", "--n", "4"], 2, False, id="check-even-n"),
    pytest.param(["check", "--v", "12", "--n", "3", "--r", "5"], 2, False, id="check-r-only"),
    pytest.param(["check", "--v", "12", "--n", "3", "--frobnicate"], 2, False, id="argparse"),
    pytest.param(["build", "--v", "12", "--n", "3"], 2, False, id="build-no-ell"),
    pytest.param(["build", "--v", "12", "--n", "3", "--ell", "2"], 3, False, id="build-bad-ell"),
    pytest.param(["build", "--v", "12", "--n", "3", "--r", "4", "--s", "4"], 3, False,
                 id="build-inadmissible"),
    pytest.param(BUILD_12 + ["--out", "no/d.json"], 2, False, id="build-out-missing-dir"),
    pytest.param(BUILD_12, 2, True, id="build-stdout-closed-too"),
    pytest.param(["search", "--v", "8", "--n", "3", "--r", "-1", "--s", "4"], 2, False,
                 id="search-negative"),
    pytest.param(["search", "--v", "6", "--n", "3", "--r", "5", "--s", "0"], 2, False,
                 id="search-no-grid"),
    pytest.param(SEARCH_8 + ["--out", "no/w.json"], 2, False, id="search-out-missing-dir"),
])
def test_exit_codes_hold_when_stderr_cannot_be_written(
    tmp_path, closed_pipe, argv, code, stdout_too
):
    # a diagnostic that cannot be written must not turn the exit code
    # into 1 ("verification failed") by way of an uncaught traceback, nor
    # into 120 by way of a failed flush at exit; stdout_too is `2>&1 | true`
    (tmp_path / "bad.json").write_text("{")
    env = dict(os.environ, PYTHONPATH=str(Path(starurd.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "starurd.cli", *argv], env=env, cwd=tmp_path,
        stdout=closed_pipe if stdout_too else subprocess.DEVNULL, stderr=closed_pipe,
    )
    assert proc.returncode == code


def _construction_error(*args, **kwargs):
    raise ConstructionError("induced", "failure")


@pytest.mark.parametrize("module,name,replacement,argv", [
    ("starurd.assembler", "construct", _construction_error, BUILD_12),
    ("starurd.verifier", "verify",
     lambda d: VerificationReport((("MISSING_EDGE", "induced"),)), BUILD_12),
    ("starurd.search", "exhaustive_urd", _construction_error, SEARCH_8),
], ids=["build-construction", "build-self-verify", "search"])
def test_internal_failures_exit_five_when_stderr_cannot_be_written(
    tmp_path, closed_pipe, monkeypatch, module, name, replacement, argv
):
    monkeypatch.setattr(importlib.import_module(module), name, replacement)
    path = tmp_path / "never.json"
    with open(closed_pipe, "w", closefd=False) as stderr:
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(argv + ["--out", str(path)]) == 5
    assert not path.exists()


@pytest.mark.parametrize("v,n", [(4, 3), (8, 3), (12, 5)])
def test_small_m_one_factorization_is_built(capsys, tmp_path, v, n):
    # m = v/(n+1) <= 2: (v-1, 0) is the ell-knob build at ell = 0, the
    # only ell there; --ell 0 and --r/--s give the same bytes
    pair = ("--r", str(v - 1), "--s", "0")
    code, out, _ = run(capsys, "check", "--v", str(v), "--n", str(n), *pair)
    assert code == 0
    assert out.startswith(f"CONSTRUCTIVE ell=0: r = 2n*0 + {v - 1} with m=")
    texts = []
    for flags in (pair, ("--ell", "0")):
        path = tmp_path / "d.json"
        code, _, _ = run(
            capsys, "build", "--v", str(v), "--n", str(n), *flags, "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", "--in", str(path))
        assert code == 0
        assert f"r={v - 1}, s=0" in out
        texts.append(path.read_text())
    assert texts[0] == texts[1]
    code, _, err = run(capsys, "build", "--v", str(v), "--n", str(n), "--ell", "1")
    assert code == 3
    assert "ell=1 out of range 0..0" in err


def test_search_without_grid_is_usage_error(capsys):
    code, _, err = run(capsys, "search", "--v", "6", "--n", "3", "--r", "5", "--s", "0")
    assert code == 2
    assert "grid" in err


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert main(["check", "--v", "12", "--n", "3", "--frobnicate"]) == 2


@pytest.mark.parametrize("argv,code,out,err", [
    pytest.param(SEARCH_8 + ["--max", "5"], 6, "status: BUDGET_EXCEEDED\n", "",
                 id="abbreviation"),
    pytest.param(["check", "--v=12", "--n=3"], 0, "admissible (r, s) pairs for v=12, n=3:\n", "",
                 id="equals"),
    pytest.param(["check", "--v", "7", "--v", "12", "--n", "3", "--r", "5", "--s", "4"], 0,
                 "CONSTRUCTIVE ell=0: ", "", id="repeated-last-wins"),
    pytest.param(["search", "--v", "8", "--n", "3", "--r", "-1", "--s", "4"], 2, "",
                 "error: --r and --s must be nonnegative\n", id="negative-value"),
    pytest.param(["check", "-h"], 0, "usage: starurd check [-h] --v V --n N", "", id="help"),
])
def test_forms_outside_the_canonical_one_go_to_argparse(capsys, argv, code, out, err):
    # argparse reads these as it always has; the canonical reader passes
    assert cli._read_canonical(argv) is None
    got, stdout, stderr = run(capsys, *argv)
    assert (got, stderr) == (code, err)
    assert stdout.startswith(out) if out else stdout == ""


README = Path(__file__).resolve().parents[1] / "README.md"
FLAGS = sorted({flag.name for _, flags in cli._COMMANDS.values() for flag in flags})
VALUES = ["12", "-1", "+3", " 7", "1_0", "x", "", "nan", "inf", "1.5", "json", "text", "csv"]
INTEGERS = ["12", "+3", " 7", "1_0"]
TOKENS = [*cli._COMMANDS, *FLAGS, "--max", "--fo", "--in=x", "-h", "--help", *VALUES]


@st.composite
def argvs(draw):
    """An argv of TOKENS: any sequence of them, or a command with its
    required flags and some of its others, each with a value that is half
    the time an integer, which the canonical reader may take."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(TOKENS), max_size=8))
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = [command]
    for flag in draw(st.permutations(cli._COMMANDS[command][1])):
        if flag.required or draw(st.booleans()):
            values = INTEGERS if draw(st.booleans()) else VALUES
            argv += [flag.name, draw(st.sampled_from(values))]
    return argv


def _agrees(argv: list[str]) -> bool:
    """Whether the canonical reader takes argv; where it does, its
    namespace must be the one argparse gives."""
    namespace = cli._read_canonical(argv)
    if namespace is not None:
        def fields(ns):  # NaN is not equal to itself: compare floats by repr
            return {k: repr(v) if isinstance(v, float) else v for k, v in vars(ns).items()}

        assert fields(namespace) == fields(cli.build_parser().parse_args(argv)), argv
    return namespace is not None


def test_canonical_reader_agrees_with_argparse():
    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), re.S).group(1)
    lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("starurd ")]
    assert len(lines) == 6
    for line in lines:
        assert _agrees(shlex.split(line)[1:]), line

    @settings(max_examples=400, deadline=None)
    @given(argvs())
    def agrees(argv):
        _agrees(argv)

    agrees()
