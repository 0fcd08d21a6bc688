import json
from math import isqrt
from pathlib import Path

from regover import kernels, registry
from regover.claims import (
    Caps,
    CongruenceClaim,
    IdentityClaim,
    TablePlan,
    verify_claim,
    verify_claims,
    verify_congruence,
    verify_identity,
)
from regover.products import eta_quotient
from regover.registry import builtin_registry, claims_by_id, registry_ids
from regover.sequences import SequenceRef
from regover.series import ZZ, Zmod

import pytest


def test_registry_counts():
    reg = builtin_registry()
    congruences = [c for c in reg if isinstance(c, CongruenceClaim)]
    identities = [c for c in reg if isinstance(c, IdentityClaim)]
    assert len(congruences) >= 23
    assert len(identities) >= 10


def test_registry_ids_unique():
    ids = registry_ids()
    assert len(ids) == len(set(ids))


def test_expected_ids_present():
    ids = set(registry_ids())
    expected = {
        "C-SHEN-1", "C-SHEN-2", "C-SHEN-3", "C-SHEN-4",
        "C-T1", "C-T2", "C-EX1", "C-T3", "C-EX2", "C-GEN",
        "C-T5a", "C-T5b", "C-T5c", "C-A9", "C-T6", "C-T7", "C-T8",
        "C-T9", "C-T10", "C-T11", "C-T12",
        "C-CHEN-1", "C-CHEN-2", "C-CHEN-3",
        "I-GF", "I-QP", "I-PHI", "I-GF5", "I-R25", "I-TRENEER",
        "I-GF125", "I-DISSECT", "I-TRIPLE", "I-ALPHA", "I-PBAR",
    }
    assert expected <= ids


def test_claim_t6_shape():
    (t6,) = claims_by_id(["C-T6"])
    assert t6.modulus == 5
    assert t6.rhs.seq == SequenceRef("sigma3m")
    assert t6.lhs.a == 5


def test_claims_by_id_unknown():
    with pytest.raises(KeyError):
        claims_by_id(["C-T1", "NOPE"])


def test_verify_all_small_bound_never_fails():
    reports = list(verify_claims(builtin_registry(), Caps(prime_cap=3, k_cap=0, bound=625)))
    assert len(reports) == len(builtin_registry())
    assert [r.claim_id for r in reports] == registry_ids()
    for r in reports:
        assert not r.failed, r
        assert r.passed or r.status.startswith("skipped")


def test_verify_all_default_scale_passes():
    reports = list(verify_claims(builtin_registry(), Caps(prime_cap=20, k_cap=1, bound=2000)))
    assert all(r.passed for r in reports), [
        (r.claim_id, r.status) for r in reports if not r.passed
    ]


BENCH_EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"


def test_identity_reports_match_the_benchmark_expectations():
    # the `identities` benchmark workload runs every identity at order 1000
    # and gates on these (status, bound, instances); a claim rewrite that
    # drifts from them fails here, not only in a benchmark run
    expected = json.loads(BENCH_EXPECTED.read_text())["identities"]
    identities = [c for c in builtin_registry() if isinstance(c, IdentityClaim)]
    assert sorted(expected) == sorted(c.id for c in identities)
    for claim in identities:
        report = verify_identity(claim, 1000)
        want = expected[claim.id]
        assert (report.status, report.bound, report.instances) == (
            want["status"],
            want["bound"],
            want["instances"],
        ), claim.id


def test_congruence_reports_match_the_benchmark_expectations():
    # the `congruences` benchmark workload runs every congruence at bound
    # 20000 (prime cap 20, k cap 1) and gates on these (status, bound,
    # instances); a pointwise or claim rewrite that drifts fails here
    expected = json.loads(BENCH_EXPECTED.read_text())["congruences"]
    congruences = [c for c in builtin_registry() if isinstance(c, CongruenceClaim)]
    assert sorted(expected) == sorted(c.id for c in congruences)
    for claim in congruences:
        report = verify_congruence(claim, 20000, prime_cap=20, k_cap=1)
        want = expected[claim.id]
        assert (report.status, report.bound, report.instances) == (
            want["status"],
            want["bound"],
            want["instances"],
        ), claim.id


@pytest.mark.parametrize("ell, step", [(125, 125), (25, 25), (125, 25), (625, 25)])
@pytest.mark.parametrize(
    "ring, order",
    [(ring, order) for ring in (Zmod(625), Zmod(5)) for order in (0, 1, 7, 40)]
    + [(ZZ, order) for order in (0, 1, 7)],
)
def test_gf_extracted_equals_the_extraction_of_the_whole_quotient(ell, step, ring, order):
    # the factor in q^step is evaluated after the extraction, at order, and
    # multiplies the extracted core that the claims read from their plan
    whole = eta_quotient(registry.regular_overpartition_quotient(ell), ring, step * order)
    core = registry._build_core(ring, step * order).extract_progression(step, 0)
    got = registry._gf_extracted(ell, step, ring, order, core)
    assert got == whole.extract_progression(step, 0)


def test_no_identity_side_reads_the_other_sides_table():
    # the eta core and pbar are two routes to one series: a side that read
    # the other route's table would let a wrong table confirm itself
    for claim in builtin_registry():
        if isinstance(claim, IdentityClaim):
            lhs = {read.table for read in claim.lhs_reads}
            assert not lhs & {read.table for read in claim.rhs_reads}, claim.id
    (gf125,) = claims_by_id(["I-GF125"])
    assert [r.table for r in gf125.lhs_reads] == [registry._build_core]
    assert [r.table for r in gf125.rhs_reads] == [SequenceRef("pbar")]


@pytest.mark.parametrize(
    "ring, orders",
    [(ZZ, (0, 1, 2, 3, 7, 40, 2000)), (Zmod(625), (0, 1, 7, 25000)), (Zmod(5), (0, 1, 7, 25000))],
    ids=["ZZ", "mod625", "mod5"],
)
def test_the_core_equals_the_pentagonal_eta_quotient(ring, orders):
    # psi(q)^2 / (q^2;q^2)^3 against the two divisions by (q;q)
    for order in orders:
        expected = eta_quotient(registry._OVERPARTITION_QUOTIENT, ring, order)
        assert registry._build_core(ring, order) == expected, order


def test_one_core_build_divides_once_by_a_sparse_divisor(monkeypatch):
    # a cost guard by count: the square of psi is taken over ZZ, and the
    # one division is by a divisor with O(sqrt(N)) terms
    N = 125 * 1000
    calls = []
    for name in ("mul_exact", "mul_mod", "div_exact", "div_mod"):
        real = getattr(kernels, name)

        def spy(*args, _real=real, _name=name):
            calls.append((_name, args))
            return _real(*args)

        monkeypatch.setattr(kernels, name, spy)
    registry._build_core(Zmod(625), N)
    assert [name for name, _ in calls] == ["mul_exact", "div_mod"]
    _, (num, den, out_len, m) = calls[1]
    assert (out_len, m) == (N + 1, 625)
    assert sum(1 for c in den[1:] if c % m) <= isqrt(N) + 1


def test_i_alpha_builds_the_extracted_quotient_once(monkeypatch):
    # the three cases share one build of the core, and the plan keeps no
    # table after the claim
    built, cubes = [], []
    evaluate, cube = registry.eta_quotient, registry.jacobi_cube

    def spy(spec, ring, order):
        built.append((spec, order))
        return evaluate(spec, ring, order)

    def spy_cube(scale, ring, order):
        cubes.append((scale, ring.modulus, order))
        return cube(scale, ring, order)

    monkeypatch.setattr(registry, "eta_quotient", spy)
    monkeypatch.setattr(registry, "jacobi_cube", spy_cube)
    (claim,) = claims_by_id(["I-ALPHA"])
    plan = TablePlan([claim], order=40)
    assert verify_claim(claim, plan).passed
    assert cubes == [(2, 625, 25 * 40)]
    # the outer factors are the only eta quotients, one per case at order
    assert len(built) == len({spec for spec, _ in built}) == 3
    assert {order for _, order in built} == {40}
    assert plan._tables == {}
