import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import regover
from regover import claims, cli, registry, sequences
from regover.cli import main
from regover.claims import Term


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_partition_prefix(capsys):
    code, out, _ = run(capsys, "expand", "1^-1", "--order", "5")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert [r[1] for r in rows] == ["1", "1", "2", "3", "5", "7"]
    assert [r[0] for r in rows] == [str(n) for n in range(6)]


def test_expand_mod(capsys):
    code, out, _ = run(capsys, "expand", "2^1 1^-2", "--order", "4", "--mod", "5")
    assert code == 0
    assert [line.split()[1] for line in out.strip().splitlines()] == ["1", "2", "4", "3", "4"]


def test_expand_prefactor_negative_rendering(capsys):
    code, out, _ = run(capsys, "expand", "q^1 1^1", "--order", "3")
    assert code == 0
    assert [line.split()[1] for line in out.strip().splitlines()] == ["0", "1", "-1", "-1"]


def test_expand_csv(capsys):
    code, out, _ = run(capsys, "expand", "1^-1", "--order", "2", "--csv")
    assert code == 0
    assert out.splitlines() == ["n,coefficient", "0,1", "1,1", "2,2"]


def test_expand_json_is_series_object(capsys):
    code, out, _ = run(capsys, "expand", "2^1 1^-2", "--order", "4", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"ring": "Z", "order": 4, "coeffs": [1, 2, 4, 8, 14]}


def test_expand_huge_exponent_is_fast_and_binomial(capsys):
    # (q;q)^e = (1 - q - q^2)^e up to q^3, so the coefficient of q^n is
    # sum_k (-1)^k C(e, k) C(k, n - k)
    e = 99999999
    start = time.perf_counter()
    code, out, _ = run(capsys, "expand", f"1^{e}", "--order", "3")
    assert time.perf_counter() - start < 2
    assert code == 0
    coeffs = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert coeffs == [
        sum((-1) ** k * comb(e, k) * comb(k, n - k) for k in range(n + 1)) for n in range(4)
    ]


def test_expand_parse_error(capsys):
    code, out, err = run(capsys, "expand", "1^2 oops", "--order", "3")
    assert code == 2
    assert out == ""
    assert err == "error: bad eta-quotient token 'oops' at position 1: expected scale^exponent\n"


def test_value_examples(capsys):
    assert run(capsys, "value", "A", "--ell", "5", "--n", "3")[1].strip() == "8"
    assert run(capsys, "value", "r", "--k", "8", "--n", "4")[1].strip() == "1136"
    assert run(capsys, "value", "dstar", "--n", "12")[1].strip() == "12"


def test_value_missing_param(capsys):
    code, _, err = run(capsys, "value", "A", "--n", "3")
    assert code == 2
    assert "--ell" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("value", "p", "--ell", "5", "--n", "10"), "--ell"),
        (("value", "chi", "--k", "4", "--n", "10"), "--k"),
        (("value", "r", "--k", "4", "--ell", "5", "--n", "10"), "--ell"),
        (("value", "A", "--ell", "5", "--k", "4", "--n", "10"), "--k"),
        (("hunt", "pbar", "--ell", "5", "--mod", "5", "--max-step", "3"), "--ell"),
        (("hunt", "dstar", "--k", "4", "--mod", "5", "--max-step", "3"), "--k"),
    ],
)
def test_a_parameter_flag_the_sequence_does_not_take_is_refused(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: sequence {argv[1]!r} takes no {flag}\n"


def test_value_json(capsys):
    code, out, _ = run(capsys, "value", "pbar", "--n", "6", "--json")
    assert json.loads(out) == {"seq": "pbar", "param": None, "n": 6, "value": 40}


def test_verify_single_claim(capsys):
    code, out, _ = run(capsys, "verify", "C-T6", "--bound", "5000")
    assert code == 0
    assert "pass" in out and "instances=1000" in out


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "NOPE")
    assert code == 2
    assert "unknown claim" in err


def test_verify_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "verify", "C-SHEN-1", "C-EX1", "--bound", "1000", "--json"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert json.dumps(json.loads(line)) == line
    assert json.loads(lines[0])["id"] == "C-SHEN-1"


@pytest.fixture
def broken_claim(monkeypatch):
    """Adds C-BROKEN, C-EX1 with a wrong offset, to the registry."""
    (ex1,) = registry.claims_by_id(["C-EX1"])
    (instance,) = ex1.instances
    broken = ex1._replace(
        id="C-BROKEN", instances=(instance._replace(lhs=instance.lhs._replace(b=28)),)
    )
    claims_with_broken = registry.builtin_registry() + [broken]
    monkeypatch.setattr(registry, "builtin_registry", lambda: list(claims_with_broken))


def test_verify_failure_exit_code(capsys, broken_claim):
    code, out, _ = run(capsys, "verify", "C-BROKEN", "--bound", "200")
    assert code == 1
    assert "fail" in out and "counterexample" in out


def test_identities_runs_only_identity_claims(capsys):
    code, out, _ = run(capsys, "identities", "--order", "50")
    assert code == 0
    ids = [line.split()[0] for line in out.strip().splitlines()]
    assert ids and all(i.startswith("I-") for i in ids)
    assert "C-T1" not in ids


@pytest.mark.parametrize("order", ["1", "3"])
def test_identities_run_at_the_smallest_orders(capsys, order):
    # I-DISSECT's residual is zero at every order, below 4 too
    code, out, err = run(capsys, "identities", "--order", order)
    assert (code, err) == (0, "")
    statuses = [line.split()[1] for line in out.strip().splitlines()]
    assert statuses == ["pass"] * 11


@pytest.mark.parametrize("flag", ["--bound", "--prime-cap", "--k-cap"])
def test_identities_takes_no_congruence_flag(capsys, flag):
    # no identity claim reads the congruence caps
    with pytest.raises(SystemExit) as exc:
        main(["identities", "I-QP", flag, "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


def test_identities_rejects_congruence_id(capsys):
    code, _, err = run(capsys, "identities", "C-T1")
    assert code == 2
    assert "not identity claims" in err


def test_hunt_rows(capsys):
    code, out, _ = run(
        capsys, "hunt", "A", "--ell", "3", "--mod", "6",
        "--max-step", "10", "--bound", "2000", "--min-instances", "50",
    )
    assert code == 0
    rows = {tuple(map(int, line.split()[:2])) for line in out.strip().splitlines()}
    assert (9, 3) in rows and (9, 6) in rows


def test_hunt_empty_is_success(capsys):
    code, out, _ = run(
        capsys, "hunt", "pbar", "--mod", "5", "--max-step", "3",
        "--bound", "1000", "--min-instances", "1",
    )
    assert code == 0
    assert out.strip() == ""


def test_hunt_json_rows(capsys):
    # the format bench/run.py reads: one object per row, keyed by column
    code, out, _ = run(
        capsys, "hunt", "A", "--ell", "5", "--mod", "5", "--max-step", "100",
        "--bound", "2000", "--min-instances", "20", "--json",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert {"a": 81, "b": 27, "instances": 25} in rows
    assert all(list(row) == ["a", "b", "instances"] for row in rows)


def test_bench_hunt_at_full_size_gives_the_expected_rows(capsys):
    # the benchmark's hunt command line at its own bound, 10**5, against the
    # rows its expected.json pins
    expected_json = Path(__file__).resolve().parent.parent / "bench" / "expected.json"
    expected = json.loads(expected_json.read_text())
    code, out, err = run(
        capsys, "hunt", "A", "--ell", "5", "--mod", "5", "--max-step", "100",
        "--bound", "100000", "--json",
    )
    assert (code, err) == (0, "")
    rows = [[r["a"], r["b"], r["instances"]] for r in map(json.loads, out.splitlines())]
    assert rows == expected["hunt"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["expand"])  # missing required --order
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("expand", "1^-1", "--order", "-1"), "--order"),
        (("value", "A", "--ell", "5", "--n", "-1"), "--n"),
        (("verify", "C-T1", "--bound", "-5"), "--bound"),
        (("hunt", "pbar", "--mod", "5", "--max-step", "3", "--bound", "-1"), "--bound"),
    ],
)
def test_negative_size_is_one_line_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and flag in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("identities", "--order", "-2"), "--order must be >= 1, got -2"),
        (("identities", "I-QP", "--order", "0"), "--order must be >= 1, got 0"),
        (("verify", "I-QP", "--order", "-2"), "--order must be >= 1, got -2"),
        (("verify", "C-T1", "--order", "0"), "--order must be >= 1, got 0"),
        (("value", "dstar", "--n", "0"), "--n must be >= 1 for sequence 'dstar', got 0"),
        (("value", "sigma3m", "--n", "0"), "--n must be >= 1 for sequence 'sigma3m', got 0"),
        (("value", "sigma3m", "--n", "-3"), "--n must be >= 1 for sequence 'sigma3m', got -3"),
        (("value", "p", "--n", "-1"), "--n must be >= 0 for sequence 'p', got -1"),
        (("expand", "1^-1", "--order", "-1"), "--order must be >= 0, got -1"),
        (("expand", "1^-1", "--order", "5", "--mod", "1"), "--mod must be >= 2, got 1"),
        (("hunt", "pbar", "--mod", "1", "--max-step", "3"), "--mod must be >= 2, got 1"),
        (("hunt", "pbar", "--mod", "5", "--max-step", "0"), "--max-step must be >= 1, got 0"),
        (("hunt", "pbar", "--mod", "5", "--max-step", "3", "--min-instances", "0"),
         "--min-instances must be >= 1, got 0"),
    ],
)
def test_size_errors_name_the_flag_and_its_least_value(capsys, argv, message):
    # one message per flag and command, whether the value is 0 or negative
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# (argv, expected exit code).  Verify and identities rows use --json so the
# test can read each report's status.
EXIT_CODE_GRID = [
    (("expand", "1^-1", "--order", "-3"), 2),
    (("expand", "1^-1", "--order", "0"), 0),
    (("expand", "1^-1", "--order", "200"), 0),
    (("expand", "1^-1", "--order", "10", "--mod", "0"), 2),
    (("expand", "1^-1", "--order", "10", "--mod", "1"), 2),
    (("expand", "1^-1", "--order", "10", "--mod", "-5"), 2),
    (("expand", "1^-1", "--order", "10", "--mod", "x"), 2),
    (("expand", "", "--order", "5"), 2),
    (("expand", "1^", "--order", "5"), 2),
    (("expand", "0^1", "--order", "5"), 2),
    (("expand", "-2^1", "--order", "5"), 2),
    (("expand", "q^-1 1^1", "--order", "5"), 2),
    (("expand", "1^1.5", "--order", "5"), 2),
    (("expand", "1000000^1", "--order", "5"), 0),
    (("expand", "q^1000 1^1", "--order", "5"), 0),
    (("expand", "1^-1", "--order", "5", "--csv", "--json"), 2),
    (("value", "A", "--ell", "0", "--n", "5"), 2),
    (("value", "A", "--n", "5"), 2),
    (("value", "A", "--ell", "5", "--n", "0"), 0),
    (("value", "A", "--ell", "5", "--n", "200"), 0),
    (("value", "b", "--ell", "1", "--n", "3"), 2),
    (("value", "r", "--k", "9", "--n", "5"), 2),
    (("value", "r", "--k", "8", "--n", "200"), 0),
    (("value", "r", "--n", "5"), 2),
    (("value", "zzz", "--n", "3"), 2),
    (("value", "chi", "--n", "-1"), 2),
    (("value", "dstar", "--n", "0"), 2),
    (("verify", "NOPE", "--json"), 2),
    (("verify", "C-T1", "NOPE", "--json"), 2),
    (("verify", "C-T1", "--bound", "-1", "--json"), 2),
    (("verify", "C-T1", "--bound", "0", "--json"), 0),
    (("verify", "C-T1", "--bound", "200", "--json"), 0),
    (("verify", "C-T1", "--bound", "abc", "--json"), 2),
    (("verify", "C-T2", "--bound", "200", "--prime-cap", "0", "--json"), 0),
    (("verify", "C-T2", "--bound", "200", "--prime-cap", "300", "--json"), 0),
    (("verify", "C-T2", "--bound", "200", "--k-cap", "-1", "--json"), 2),
    (("verify", "C-T2", "--bound", "200", "--k-cap", "50", "--json"), 0),
    (("verify", "I-QP", "--order", "0", "--json"), 2),
    (("verify", "I-QP", "--order", "-2", "--json"), 2),
    (("verify", "C-BROKEN", "--bound", "0", "--json"), 0),
    (("verify", "C-BROKEN", "--bound", "200", "--json"), 1),
    (("verify", "C-T1", "C-BROKEN", "--bound", "200", "--json"), 1),
    # no ids: every registry claim, C-BROKEN included (its index 28 <= 50)
    (("verify", "--bound", "50", "--order", "20", "--json"), 1),
    (("verify", "--bound", "20", "--order", "20", "--json"), 0),
    (("verify", "--bound", "20", "--order", "2", "--json"), 0),
    (("identities", "C-T1", "--json"), 2),
    (("identities", "NOPE", "--json"), 2),
    (("identities", "I-QP", "--order", "0", "--json"), 2),
    (("identities", "I-QP", "--order", "50", "--json"), 0),
    (("hunt", "A", "--ell", "5", "--mod", "0", "--max-step", "10", "--bound", "200"), 2),
    (("hunt", "A", "--ell", "5", "--mod", "1", "--max-step", "10", "--bound", "200"), 2),
    (("hunt", "A", "--ell", "5", "--mod", "-3", "--max-step", "10", "--bound", "200"), 2),
    (("hunt", "A", "--ell", "5", "--mod", "5", "--max-step", "0", "--bound", "200"), 2),
    (("hunt", "A", "--ell", "5", "--mod", "5", "--max-step", "-1", "--bound", "200"), 2),
    (("hunt", "A", "--ell", "5", "--mod", "5", "--max-step", "1000", "--bound", "200"), 0),
    (("hunt", "A", "--ell", "5", "--mod", "5", "--max-step", "10", "--bound", "0"), 0),
    (("hunt", "A", "--ell", "5", "--mod", "5", "--max-step", "10", "--bound", "-1"), 2),
    (("hunt", "A", "--ell", "5", "--mod", "5", "--max-step", "10", "--bound", "200",
      "--min-instances", "1000000"), 0),
    (("hunt", "A", "--ell", "5", "--mod", "5", "--max-step", "10", "--bound", "200",
      "--min-instances", "0"), 2),
    (("hunt", "A", "--mod", "5", "--max-step", "3", "--bound", "100"), 2),
    (("hunt", "r", "--k", "9", "--mod", "5", "--max-step", "3", "--bound", "100"), 2),
    (("hunt", "zzz", "--mod", "5", "--max-step", "3"), 2),
    (("hunt", "A", "--ell", "5", "--mod", "5", "--max-step", "10", "--bound", "200",
      "--csv", "--json"), 2),
    (("frobnicate",), 2),
    ((), 2),
]


@pytest.mark.parametrize(
    "argv, expected", EXIT_CODE_GRID, ids=[" ".join(argv) or "-" for argv, _ in EXIT_CODE_GRID]
)
def test_exit_code_contract(capsys, broken_claim, argv, expected):
    # 0 success, 1 a claim failed, 2 usage error; argparse's own usage errors
    # leave through SystemExit, any other exception is a contract break
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == expected
    if code == 2:
        assert "error" in err
    elif argv[0] in ("verify", "identities"):
        statuses = [json.loads(line)["status"] for line in out.splitlines()]
        assert statuses
        assert (code == 1) == ("fail" in statuses)


@pytest.mark.parametrize(
    "argv",
    [
        ("value", "p", "--n", "5"),
        ("hunt", "A", "--ell", "5", "--mod", "5", "--max-step", "100", "--bound", "2000",
         "--min-instances", "1"),
        ("verify", "C-SHEN-1", "I-PHI", "--bound", "200", "--json"),
    ],
)
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # stdout is a pipe whose reader is gone, as in `regover ... | head -0`
    src = str(Path(regover.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "regover", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert "Traceback" not in done.stderr
    assert done.stderr == ""


def test_cold_start_imports_no_dataclasses_inspect_or_ast():
    # every launch pays its imports before the first claim: the record types
    # are named tuples, so importing the CLI leaves these modules out
    src = str(Path(regover.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, regover.cli; print(*sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_verify_builds_tables_only_inside_verify_claim(monkeypatch, capsys):
    # the benchmark stamps its wall time at the first claims.verify_claim
    # call: every table is built inside one, and each claim gets one call
    events = []
    verify_claim = claims.verify_claim
    build = sequences._build_series

    def spy_verify(claim, *args, **kwargs):
        events.append(("verify", claim.id))
        return verify_claim(claim, *args, **kwargs)

    def spy_build(ref, ring, order, *inputs, step=1):
        events.append(("build", ref.label(), step))
        return build(ref, ring, order, *inputs, step=step)

    monkeypatch.setattr(claims, "verify_claim", spy_verify)
    monkeypatch.setattr(sequences, "_build_series", spy_build)
    ids = ["C-CHEN-2", "I-PHI", "C-SHEN-4", "C-T1", "C-T6"]
    code, out, _ = run(capsys, "verify", *ids, "--bound", "500", "--json")
    assert code == 0
    assert [json.loads(line)["id"] for line in out.splitlines()] == ids
    assert [e[1] for e in events if e[0] == "verify"] == ids
    assert events[0] == ("verify", ids[0])
    assert ("build", "pbar", 1) in events  # whole, for the A tables


def _exhausted(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize(
    "argv, sizes",
    [
        (("expand", "1^1", "--order", "99999999999"), "--order 99999999999"),
        (("identities", "I-GF125", "--order", "100000000"), "--order 100000000"),
        (("verify", "C-T1", "--bound", "2000", "--json"), "--bound 2000"),
        (("verify", "I-GF125", "--bound", "2000", "--order", "30"), "--order 30 --bound 2000"),
        (("hunt", "A", "--ell", "5", "--mod", "5", "--max-step", "9", "--bound", "2000"),
         "--bound 2000"),
        (("value", "p", "--n", "2000"), "--n 2000"),
    ],
)
def test_running_out_of_memory_exits_2_naming_the_size(monkeypatch, capsys, argv, sizes):
    # a size too large for memory makes a table builder raise MemoryError;
    # here the builders raise it themselves, so nothing is allocated
    for owner, name in (
        (cli, "eta_quotient"),
        (registry, "eta_quotient"),
        (registry, "theta_f_series"),
        (sequences, "_build_series"),
    ):
        monkeypatch.setattr(owner, name, _exhausted)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: not enough memory for {sizes}\n")
