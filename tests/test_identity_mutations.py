"""Mutation sensitivity of every identity claim.

Each test perturbs one side's construction, below the registry, by one
coefficient, and requires the claim to fail with a counterexample.  A claim
whose two sides were built from one shared table would pass any such
mutation of that table, so these tests pin that the two sides of every
identity are independent routes.  Where both sides share a builder (the
Euler product in I-QP and I-PBAR), the builder is perturbed at a scale only
one side uses.
"""

import pytest

from regover import products, registry, sequences
from regover.claims import verify_identity
from regover.registry import claims_by_id
from regover.sequences import SequenceRef
from regover.series import Series


@pytest.fixture(autouse=True)
def fresh_tables():
    # a mutated table must never outlive its test
    sequences.clear_caches()
    yield
    sequences.clear_caches()


def bump(series, index):
    """The series with the coefficient of q^index raised by one."""
    coeffs = series.coeffs
    if index < len(coeffs):
        coeffs[index] += 1
    return Series(series.ring, coeffs)


def bump_pbar(monkeypatch, index):
    """Perturb the overpartition table 1/phi(-q) every sequence is built from."""
    build = sequences._build_series

    def mutated(ref, ring, order, *inputs):
        series = build(ref, ring, order, *inputs)
        return bump(series, index) if ref == SequenceRef("pbar") else series

    monkeypatch.setattr(sequences, "_build_series", mutated)


def bump_euler(monkeypatch, owner, target, index):
    """Perturb owner.euler_product at one scale only."""
    build = owner.euler_product

    def mutated(scale, ring, order):
        series = build(scale, ring, order)
        return bump(series, index) if scale == target else series

    monkeypatch.setattr(owner, "euler_product", mutated)


def bump_phi(monkeypatch, target, index):
    """Perturb products.phi at one scale only."""
    build = products.phi

    def mutated(sign, ring, order, scale=1):
        series = build(sign, ring, order, scale=scale)
        return bump(series, index) if scale == target else series

    monkeypatch.setattr(products, "phi", mutated)


def check_fails(claim_id, order, params, index):
    (claim,) = claims_by_id([claim_id])
    report = verify_identity(claim, order)
    assert report.status == "fail", report
    assert report.counterexample is not None
    assert report.counterexample["params"] == params
    assert report.counterexample["index"] == index


def test_i_gf_fails_on_a_wrong_oracle_value(monkeypatch):
    oracle = registry.oracle_regular_overpartition
    monkeypatch.setattr(
        registry,
        "oracle_regular_overpartition",
        lambda ell, n: oracle(ell, n) + (n == 7),
    )
    check_fails("I-GF", 40, {"ell": 3}, 7)


def test_i_qp_fails_when_only_the_scale_one_product_is_wrong(monkeypatch):
    # f(q)^p = f(q^p) mod p for every f, so a wrong q^3 term of (q;q)
    # first shows at q^9 for p = 3
    bump_euler(monkeypatch, registry, 1, 3)
    check_fails("I-QP", 30, {"p": 3}, 9)


def test_i_phi_fails_on_a_wrong_eta_factor(monkeypatch):
    # the theta side never builds an Euler product
    bump_euler(monkeypatch, products, 2, 4)
    check_fails("I-PHI", 30, {}, 4)


def test_i_gf5_fails_on_a_wrong_overpartition_table(monkeypatch):
    bump_pbar(monkeypatch, 3)
    check_fails("I-GF5", 30, {}, 3)


def test_i_r25_fails_on_a_wrong_overpartition_table(monkeypatch):
    bump_pbar(monkeypatch, 10)
    check_fails("I-R25", 30, {}, 2)


def test_i_treneer_fails_on_a_wrong_overpartition_table(monkeypatch):
    bump_pbar(monkeypatch, 10)
    check_fails("I-TRENEER", 30, {}, 2)


def test_i_gf125_fails_on_a_wrong_overpartition_table(monkeypatch):
    # When both sides were the exact phi(-q^125) * pbar table, this mutation
    # changed them alike and the claim passed; the eta-quotient side now
    # never reads pbar.
    bump_pbar(monkeypatch, 250)
    check_fails("I-GF125", 20, {}, 2)


def test_i_gf125_fails_on_a_wrong_eta_factor(monkeypatch):
    # (q;q) enters the eta side twice, in the factor evaluated at order and
    # in the extracted overpartition quotient; the theta side reads neither
    bump_euler(monkeypatch, products, 1, 1)
    check_fails("I-GF125", 20, {}, 1)


def test_i_dissect_fails_on_a_wrong_dissection_component(monkeypatch):
    # phi(-q) itself is built at scale 1; only the dissection uses scale 25
    bump_phi(monkeypatch, 25, 25)
    check_fails("I-DISSECT", 30, {}, 25)


def test_i_triple_fails_on_a_wrong_product_side(monkeypatch):
    # the bilateral sum builds no Euler product
    bump_euler(monkeypatch, products, 10, 10)
    check_fails("I-TRIPLE", 30, {"a": 3, "b": 7}, 10)


def test_i_alpha_fails_on_a_wrong_overpartition_table(monkeypatch):
    # As for I-GF125: with both sides built from phi(-q^l) * pbar over ZZ
    # this mutation passed every case.
    bump_pbar(monkeypatch, 250)
    check_fails("I-ALPHA", 20, {"alpha": 2}, 10)


def test_i_alpha_fails_on_a_wrong_eta_factor(monkeypatch):
    # the autouse fixture empties the extracted-quotient memo, so the core
    # the three cases share is rebuilt from the mutated (q;q)
    bump_euler(monkeypatch, products, 1, 1)
    check_fails("I-ALPHA", 20, {"alpha": 2}, 1)


def test_i_pbar_fails_when_only_the_scale_two_product_is_wrong(monkeypatch):
    # the product side divides by (q;q) only; the eta side also uses (q^2;q^2)
    bump_euler(monkeypatch, products, 2, 2)
    check_fails("I-PBAR", 30, {}, 2)


def test_every_identity_has_a_mutation_test():
    tested = {
        name.split("_fails")[0].replace("test_i_", "I-").upper()
        for name in globals()
        if name.startswith("test_i_")
    }
    identities = {cid for cid in registry.registry_ids() if cid.startswith("I-")}
    assert tested == identities
