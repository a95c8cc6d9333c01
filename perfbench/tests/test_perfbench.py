"""Tests of the benchmark's own logic: digest, mutator, span arithmetic and
the checks that turn a wrong output into a failed operation."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import certs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from starurd import BuildRequest, construct, serialize, verify  # noqa: E402

SMALL = [(12, 3, 0), (16, 3, 1), (24, 5, 1), (20, 3, 0)]


def _cert(v, n, ell):
    return serialize.to_dict(construct(BuildRequest(v, n, ell)))


def test_digest_ignores_order_and_extra_keys():
    cert = _cert(16, 3, 1)
    shuffled = json.loads(json.dumps(cert))
    rng = random.Random(7)
    rng.shuffle(shuffled["classes"])
    for cls in shuffled["classes"]:
        rng.shuffle(cls["blocks"])
        cls["source"] = "B1a@d=1"
        for block in cls["blocks"]:
            if isinstance(block, dict):
                rng.shuffle(block["leaves"])
            else:
                block.reverse()
    reordered = dict(reversed(list(shuffled.items())))
    assert certs.digest(reordered) == certs.digest(cert)


def test_digest_sees_content_and_star_centers():
    cert = _cert(12, 3, 0)
    moved = json.loads(json.dumps(cert))
    certs.mutate(moved, "endpoint_move", random.Random(1))
    assert certs.digest(moved) != certs.digest(cert)
    recentered = json.loads(json.dumps(cert))
    star = next(c for c in recentered["classes"] if c["kind"] == "star_factor")["blocks"][0]
    star["center"], star["leaves"][0] = star["leaves"][0], star["center"]
    assert certs.digest(recentered) != certs.digest(cert)


@pytest.mark.parametrize("kind", sorted(certs.MUTATIONS))
def test_mutation_always_fails_with_its_codes(kind):
    for v, n, ell in SMALL:
        cert = _cert(v, n, ell)
        if kind == "leaf_swap" and cert["s"] == 0:
            continue
        for seed in range(6):
            mutant = json.loads(json.dumps(cert))
            certs.mutate(mutant, kind, random.Random(seed))
            report = verify(serialize.from_dict(mutant))
            assert not report.passed
            assert report.codes() == certs.MUTATIONS[kind], (v, n, ell, seed)


def test_hostile_claim_is_rejected_and_tiny():
    claim = certs.hostile_claim(v=96, n=15)
    assert len(json.dumps(claim)) < 80
    assert verify(serialize.from_dict(claim)).codes() == {"COUNT_MISMATCH", "MISSING_EDGE"}


def test_self_time_subtracts_covered_child_time_once():
    spans_ = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],  # overlaps a: [1, 5] is covered once
        ["c", 7.0, 8.0, 0],
        ["d", 7.5, 12.0, 0],  # runs past the root: clipped at 10
        ["e", 1.5, 2.5, 1],  # grandchild: only a's self time loses it
    ]
    assert spans.self_times(spans_) == pytest.approx([3.0, 1.0, 3.0, 1.0, 4.5, 1.0])


def test_layer_self_times_account_for_the_root():
    record = {
        "main_s": 10.0,
        "import_s": 0.1,
        "gc": [3, 1, 0],
        "counts": {"search.nodes": 500, "search.budget_hits": 1},
        "spans": [
            ["cli.main", 0.0, 10.0, -1],
            ["cli.cmd_search", 0.5, 9.5, 0],
            ["search.exhaustive_urd", 1.0, 6.0, 1],
            ["verifier.verify", 4.0, 5.0, 2],
        ],
    }
    plain = dict(record, main_s=9.0)
    metrics = spans.layer_metrics([record], [plain], [9.5])
    assert metrics["search.time_s"] == pytest.approx(4.0)
    assert metrics["verifier.time_s"] == pytest.approx(1.0)
    assert metrics["cli.self_s"] == pytest.approx(5.0)
    assert metrics["trace.accounted_share"] == pytest.approx(1.0)
    assert metrics["trace.overhead_s"] == pytest.approx(1.0)
    assert metrics["cli.overhead_s"] == pytest.approx(0.5)
    assert metrics["search.nodes_per_s"] == pytest.approx(125.0)
    assert metrics["model.gc_collections"] == 4


def _result(code, out=""):
    return SimpleNamespace(code=code, out=out)


def test_build_check_fails_on_corrupted_digest_and_wrong_exit(tmp_path):
    (op, *_) = workloads.build_ops(tmp_path, random.Random(0))
    out = Path(op.args[op.args.index("--out") + 1])
    cert = json.loads(json.dumps(_cert(12, 3, 0)))
    cert.update(r=workloads.BUILD_GRID[0][2], s=workloads.BUILD_GRID[0][3])
    out.write_text(json.dumps(cert))
    assert "digest" in op.check(_result(0), None)
    assert "exit 5" in op.check(_result(5), None)


def test_search_check_fails_on_invalid_witness_and_exhausted_known_instance(tmp_path):
    ops = workloads.search_ops(tmp_path, random.Random(0))
    op = next(op for op in ops if "URD(8;1,4)" in op.name)
    witness = Path(op.args[op.args.index("--out") + 1])
    witness.write_text(json.dumps(dict(_cert(12, 3, 0), v=8, n=3, r=1, s=4)))
    rejecting = SimpleNamespace(cli=lambda args: _result(1))
    assert "fails verify" in op.check(_result(0, "status: FOUND\n"), rejecting)
    assert op.check(_result(1, "status: NOT_FOUND_EXHAUSTED\n"), rejecting) is not None
    open_op = next(op for op in ops if "(12,5,1,6)" in op.name)
    assert open_op.check(_result(6, "status: BUDGET_EXCEEDED\n"), None) is None


def test_traced_shim_spans_cover_main(tmp_path):
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = ["build", "--v", "12", "--n", "3", "--ell", "1", "--out", str(tmp_path / "d.json")]
    cmd = [sys.executable, str(BENCH / "shim.py"), str(record), "trace", "--", *args]
    assert subprocess.run(cmd, env=env, capture_output=True).returncode == 0
    data = json.loads(record.read_text())
    names = {span[0] for span in data["spans"]}
    assert {"cli.main", "assembler.construct", "aurd.matching_aurd", "blowup.WeightedCycle",
            "filling.fill_odd", "seeds.hamiltonian_decomposition", "verifier.verify",
            "serialize.dumps"} <= names
    metrics = spans.layer_metrics([data], [data], [data["main_s"]])
    assert metrics["trace.accounted_share"] == pytest.approx(1.0, abs=0.01)
    assert metrics["verifier.edges"] == 12 * 11 // 2
