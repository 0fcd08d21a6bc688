"""Tests of the benchmark's correctness gate, seeds, environment checks and
metric list.

Run with: python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402

EXPECTED = run.load_expected()


def _copy_checkout(dest: Path, with_package=True) -> Path:
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_package:
        shutil.copytree(run.PACKAGE, dest / "src" / "regover",
                        ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return dest


def _run_bench(cwd: Path, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _reports(ids, **changes):
    return "".join(
        json.dumps({"id": cid, **EXPECTED["congruences"][cid], "counterexample": None,
                    **changes.get(cid, {})}) + "\n"
        for cid in ids
    )


def test_check_counts_each_mismatch_as_a_failed_operation():
    ids = list(EXPECTED["congruences"])
    assert run.check("congruences", 0, _reports(ids), EXPECTED) == (24, 0)
    assert run.check("congruences", 0, _reports(ids[1:]), EXPECTED) == (24, 1)
    wrong = _reports(ids, **{"C-T1": {"instances": 19999}, "C-T9": {"status": "fail"}})
    assert run.check("congruences", 0, wrong, EXPECTED) == (24, 2)
    assert run.check("congruences", 0, _reports(ids + ids[:1]), EXPECTED) == (25, 1)
    assert run.check("congruences", 1, _reports(ids), EXPECTED) == (24, 24)
    assert run.check("congruences", 0, "Traceback", EXPECTED) == (24, 24)
    rows = '{"a": 81, "b": 27, "instances": 1235}\n{"a": 81, "b": 54, "instances": 1234}\n'
    assert run.check("hunt", 0, rows, EXPECTED) == (1, 0)
    assert run.check("hunt", 0, rows.replace("1234", "1233"), EXPECTED) == (1, 1)
    assert run.check("hunt", 2, rows, EXPECTED) == (1, 1)


def test_tampered_expectation_fails_the_benchmark(tmp_path):
    checkout = _copy_checkout(tmp_path)
    path = checkout / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["congruences"]["C-T9"]["instances"] += 1
    path.write_text(json.dumps(expected))
    done = _run_bench(checkout, "--workload", "congruences", "--seed", "3", "--seconds", "1")
    assert done.returncode == 1
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == run.MIN_ROUNDS
    assert result["attempted"] == 24 * run.MIN_ROUNDS
    assert "fail_ratio" in done.stdout


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    checkout = _copy_checkout(tmp_path, with_package=False)
    done = _run_bench(checkout, "--workload", "hunt", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""


def test_seeds_permute_claims_but_not_the_checks():
    a = run.workload_argv("congruences", 1, EXPECTED)
    b = run.workload_argv("congruences", 2, EXPECTED)
    assert a != b and sorted(a) == sorted(b)
    assert run.workload_argv("congruences", 1, EXPECTED) == a
    checks = [
        {k: run.run_sample("congruences", argv, 0, EXPECTED)[k] for k in ("exit", "attempted", "failed")}
        for argv in (a, b)
    ]
    assert checks[0] == checks[1] == {"exit": 0, "attempted": 24, "failed": 0}


def _record(tmp_path, name, backend):
    path = tmp_path / name
    run_ = {"end_to_end": {"wall_s": {"median": 1.0}}}
    path.write_text(json.dumps({"env": {"backend": backend}, "runs": {"hunt": run_}}))
    return str(path)


def test_compare_refuses_results_from_different_backends(tmp_path, capsys):
    base = _record(tmp_path, "a.json", "pure-python")
    same = _record(tmp_path, "b.json", "pure-python")
    other = _record(tmp_path, "c.json", "compiled")
    assert compare.main([base, "--", same]) == 0
    assert compare.main([base, "--", other]) == 2
    assert "different backends" in capsys.readouterr().err


def test_benchmark_json_names_every_metric_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(EXPECTED)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
