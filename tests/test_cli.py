import json
from types import SimpleNamespace

from starurd.cli import main
from starurd.serialize import loads


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
    import starurd.cli as cli
    from starurd.model import ConstructionError

    def boom(req):
        raise ConstructionError("B1a@d=1", "induced failure")

    monkeypatch.setattr(cli, "construct", boom)
    path = tmp_path / "never.json"
    code, _, err = run(
        capsys, "build", "--v", "12", "--n", "3", "--ell", "0", "--out", str(path)
    )
    assert code == 5
    assert "B1a@d=1" in err
    assert not path.exists()  # nothing written on failure


def test_build_self_verify_failure_exits_five(capsys, monkeypatch, tmp_path):
    import starurd.cli as cli
    from starurd.model import VerificationReport

    monkeypatch.setattr(
        cli,
        "verify",
        lambda d: VerificationReport(False, (("MISSING_EDGE", "induced"),)),
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
        return SimpleNamespace(classes=out.classes[:-1])

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


def test_build_aurd_weight_assertion_exits_five(capsys, monkeypatch, tmp_path):
    # an odd weight reaches the assertion in matching_aurd for odd m
    import starurd.assembler as assembler
    import starurd.aurd as aurd
    from starurd.blowup import WeightedCycle

    monkeypatch.setattr(aurd, "_check_args", lambda weight, n: None)
    monkeypatch.setattr(assembler, "WeightedCycle", lambda c, w: WeightedCycle(c, w + 1))
    err = _build_exits_five(capsys, tmp_path, "--ell", "1")
    assert "weight n+1 must be even for odd n" in err


def test_search_invalid_witness_exits_five(capsys, monkeypatch, tmp_path):
    import starurd.search as search
    from starurd.model import VerificationReport

    failed = VerificationReport(False, (("MISSING_EDGE", "induced"),))
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


def test_search_without_grid_is_usage_error(capsys):
    code, _, err = run(capsys, "search", "--v", "6", "--n", "3", "--r", "5", "--s", "0")
    assert code == 2
    assert "grid" in err


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert main(["check", "--v", "12", "--n", "3", "--frobnicate"]) == 2
