"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its wall-clock time (run with `pytest -s` to see every line).

Budgets hold on the pure-Python kernels of `regover.kernels`;
`regover.backend_name()` is printed alongside the first criterion.
"""

import time

from regover import backend_name
from regover.arith import d_star, r_formula, r_oracle_table
from regover.claims import Caps, Term, verify_claims
from regover.products import eta_quotient
from regover.registry import claims_by_id, regular_overpartition_quotient
from regover.claims import hunt
from regover.sequences import SequenceRef, oracle_regular_overpartition, sequence_series
from regover.series import ZZ, Zmod


class _Criterion:
    def __init__(self, number, description, budget):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        self.ok = False
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if (exc_type is None and self.ok) else "FAIL"
        print(
            f"ACCEPTANCE {self.number:>2}: {status} - {self.description} "
            f"({elapsed:.1f}s, budget {self.budget:.0f}s)"
        )
        if exc_type is None:
            assert self.ok, f"criterion {self.number} checks did not complete"
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded budget: {elapsed:.1f}s"
            )
        return False


def test_criterion_01_oracle_equivalence():
    print(f"[kernel backend: {backend_name()}]")
    with _Criterion(1, "Eq.-(1) series equals enumeration oracle (l in 3,4,5,9,25; n<=40)", 10) as c:
        for ell in (3, 4, 5, 9, 25):
            series = eta_quotient(regular_overpartition_quotient(ell), ZZ, 40)
            for n in range(41):
                assert series[n] == oracle_regular_overpartition(ell, n), (ell, n)
        c.ok = True


def test_criterion_02_t1_via_dstar():
    with _Criterion(2, "A_5(n) = (-1)^n 8 d*(n) mod 5 for 1 <= n <= 2000", 5) as c:
        table = sequence_series(SequenceRef("A", 5), Zmod(5), 2000)
        for n in range(1, 2001):
            rhs = (-1) ** n * 8 * d_star(n)
            assert (table[n] - rhs) % 5 == 0, n
        (t1,) = claims_by_id(["C-T1"])
        (report,) = verify_claims([t1], Caps(bound=2000))
        assert report.status == "pass" and report.instances == 2000
        c.ok = True


def test_criterion_03_r_formula_vs_lattice():
    with _Criterion(3, "r_k closed formulas match lattice enumeration (k in 2,4,6,8; n<=2000)", 30) as c:
        for k in (2, 4, 6, 8):
            table = r_oracle_table(k, 2000)
            for n in range(1, 2001):
                assert r_formula(k, n) == table[n], (k, n)
        c.ok = True


def test_criterion_04_t6():
    with _Criterion(4, "A_25(5n) = sigma3m(n) mod 5 for n <= 2000 (bound 10000)", 10) as c:
        (t6,) = claims_by_id(["C-T6"])
        (report,) = verify_claims([t6], Caps(bound=10000))
        assert report.status == "pass"
        assert report.instances == 2000
        c.ok = True


def test_criterion_05_t9():
    with _Criterion(5, "A_125(25n) = A_125(625n) mod 5 for 625n <= 20000 (32 instances)", 60) as c:
        (t9,) = claims_by_id(["C-T9"])
        (report,) = verify_claims([t9], Caps(bound=20000))
        assert report.status == "pass"
        assert report.instances == 32
        c.ok = True


def test_criterion_06_t10_t12():
    with _Criterion(6, "C-T10/C-T12 (alpha in 4,5,6), indices <= 20000", 60) as c:
        for report in verify_claims(claims_by_id(["C-T10", "C-T12"]), Caps(bound=20000)):
            assert report.status == "pass", (report.claim_id, report.status)
            assert report.instances > 0
        c.ok = True


def test_criterion_07_identity_suite():
    exact_ids = ("I-PHI", "I-DISSECT", "I-TRIPLE", "I-GF125", "I-ALPHA")
    modular_ids = ("I-QP", "I-GF5", "I-R25", "I-TRENEER")
    with _Criterion(7, "identity suite exact+modular at order 2000", 60) as c:
        for report in verify_claims(claims_by_id(exact_ids + modular_ids), order=2000):
            assert report.status == "pass", (report.claim_id, report.status, report.counterexample)
            assert report.bound == 2000
        c.ok = True


def test_criterion_08_prime_families():
    with _Criterion(8, "family claims C-T2/T3/T5/T7/T8 (p<=20, k<=1, indices<=20000)", 180) as c:
        families = claims_by_id(["C-T2", "C-T3", "C-T5a", "C-T5b", "C-T5c", "C-T7", "C-T8"])
        for report in verify_claims(families, Caps(prime_cap=20, k_cap=1, bound=20000)):
            assert report.status == "pass", (report.claim_id, report.status, report.counterexample)
        c.ok = True


def test_criterion_09_mutation_sensitivity():
    with _Criterion(9, "five seeded registry mutations each fail at bound 200", 10) as c:
        t1, ex1, t6 = claims_by_id(["C-T1", "C-EX1", "C-T6"])
        (t1_instance,), (ex1_instance,) = t1.instances, ex1.instances

        def mutate(claim, **fields):  # a one-instance claim with fields replaced
            (instance,) = claim.instances
            return claim._replace(instances=(instance._replace(**fields),))

        mutations = [
            mutate(t1, rhs=t1_instance.rhs._replace(sign_twist=False)),
            mutate(t1, modulus=6),
            mutate(ex1, lhs=ex1_instance.lhs._replace(b=28)),
            mutate(t6, rhs=Term(SequenceRef("dstar"))),
            mutate(ex1, lhs=ex1_instance.lhs._replace(a=82)),
        ]
        for mutant, report in zip(mutations, verify_claims(mutations, Caps(bound=200))):
            assert report.failed, mutant
            assert report.counterexample is not None
        c.ok = True


def test_criterion_10_hunter_regression():
    with _Criterion(10, "hunter finds (81,27) for A_5 mod 5 and (9,6) for A_3 mod 24", 60) as c:
        found5 = hunt(SequenceRef("A", 5), 5, 100, 5000, 20)
        assert any(a == 81 and b == 27 for a, b, _ in found5)
        found3 = hunt(SequenceRef("A", 3), 24, 10, 2000, 1)
        assert any(a == 9 and b == 6 for a, b, _ in found3)
        c.ok = True
