"""Mutation sensitivity of every identity claim.

Each test perturbs one side's construction, below the registry, by one
coefficient, and requires the claim to fail with a counterexample.  A claim
whose two sides were built from one shared table would pass any such
mutation of that table, so these tests pin that the two sides of every
identity are independent routes.  Where both sides share a builder (the
Euler product in I-QP and I-PBAR), the builder is perturbed at a scale only
one side uses.  Every mutant fails at the same place in a run of one table
plan over all eleven identities as in a run of its claim alone, so sharing
the plan's tables between claims hides no mutation.
"""

import pytest

from regover import products, registry, sequences
from regover.claims import IdentityClaim, verify_claims, verify_identity
from regover.registry import claims_by_id
from regover.sequences import SequenceRef
from regover.series import Series


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


def bump_core_factor(monkeypatch, name, index):
    """Perturb one of the two factors of the eta core psi(q)^2 / (q^2;q^2)^3:
    Jacobi's cube, or the theta series psi(q) alone."""
    build = getattr(registry, name)

    def mutated(spec_or_scale, ring, order):
        series = build(spec_or_scale, ring, order)
        if name == "theta_f_series" and spec_or_scale != registry._PSI:
            return series
        return bump(series, index)

    monkeypatch.setattr(registry, name, mutated)


def check_fails(claim_id, order, params, index):
    """The claim fails at (params, index), alone and in one plan over every
    identity; each run builds its tables afresh under the mutation."""
    (claim,) = claims_by_id([claim_id])
    selected = [c for c in registry.builtin_registry() if isinstance(c, IdentityClaim)]
    shared = {r.claim_id: r for r in verify_claims(selected, order=order)}
    for report in (verify_identity(claim, order), shared[claim_id]):
        assert report.status == "fail", report
        assert report.counterexample is not None
        assert report.counterexample["params"] == params
        assert report.counterexample["index"] == index


def test_i_gf_fails_on_a_wrong_oracle_value(monkeypatch):
    table = registry.oracle_regular_overpartition_table

    def mutated(ell, upto):
        values = table(ell, upto)
        if upto >= 7:
            values[7] += 1
        return values

    monkeypatch.setattr(registry, "oracle_regular_overpartition_table", mutated)
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
    # (q;q) enters the eta side in the factor evaluated at order; the theta
    # side never builds an Euler product
    bump_euler(monkeypatch, products, 1, 1)
    check_fails("I-GF125", 20, {}, 1)


@pytest.mark.parametrize("factor", ["jacobi_cube", "theta_f_series"])
def test_i_gf125_fails_on_a_wrong_core_factor(monkeypatch, factor):
    # a wrong q^250 term of either factor first changes the core at q^250,
    # its 125-progression at 2; the theta side builds neither factor
    bump_core_factor(monkeypatch, factor, 250)
    check_fails("I-GF125", 20, {}, 2)


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
    # (q;q) enters the outer factor of the first case, alpha = 2
    bump_euler(monkeypatch, products, 1, 1)
    check_fails("I-ALPHA", 20, {"alpha": 2}, 1)


@pytest.mark.parametrize("factor", ["jacobi_cube", "theta_f_series"])
def test_i_alpha_fails_on_a_wrong_core_factor(monkeypatch, factor):
    # the core the three cases share is built in the run, from the mutated
    # factor; its 25-progression first differs at 10
    bump_core_factor(monkeypatch, factor, 250)
    check_fails("I-ALPHA", 20, {"alpha": 2}, 10)


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
