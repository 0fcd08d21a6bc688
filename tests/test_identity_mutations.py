"""Mutation sensitivity of every identity claim.

Each test perturbs one side's construction, below the registry, by one
coefficient or, for phi, by dropping its sign, and requires the claim to
fail with a counterexample.  A claim whose two sides were built from one
shared table or constructor would pass any such mutation of it, so these
tests pin that the two sides of every identity are independent routes.  Where both sides share a builder (the
Euler product in I-QP and I-PBAR), the builder is perturbed at a scale only
one side uses.  Every mutant fails at the same place in a run of one table
plan over all eleven identities as in a run of its claim alone, so sharing
the plan's tables between claims hides no mutation.
"""

import pytest

from regover import products, registry, sequences
from regover.claims import IdentityClaim, verify_claims
from regover.registry import claims_by_id
from regover.sequences import SequenceRef
from regover.series import Series


def bump(series, index):
    """The series with the coefficient of q^index raised by one.  The output
    of a sparse constructor keeps a record of its nonzero terms, as the
    constructor would have made it, so the mutant takes the same kernel
    route as the real series."""
    coeffs = series.coeffs
    if index < len(coeffs):
        coeffs[index] = series.ring.reduce(coeffs[index] + 1)
    terms = None if series._terms is None else tuple((n, c) for n, c in enumerate(coeffs) if c)
    return Series._raw(series.ring, coeffs, terms)


def bump_pbar(monkeypatch, index):
    """Perturb the overpartition table 1/phi(-q) every sequence is built from,
    before it is extracted at the step the plan keeps.  An A_l built with no
    pbar, as the quotient phi(-q^l) / phi(-q), is perturbed whole at the
    same index: phi(-q^l) * pbar first differs from it there."""
    build = sequences._build_series

    def mutated(ref, ring, order, *inputs, step=1):
        if ref != SequenceRef("pbar") and (ref.name != "A" or inputs):
            return build(ref, ring, order, *inputs, step=step)
        return bump(build(ref, ring, order, *inputs), index).extract_progression(step)

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


def bump_expansion(monkeypatch, index):
    """Perturb the exact expansion prod (1 + q^e), as I-PBAR's product side
    reads it from registry and I-TRIPLE's from products."""
    build = products.one_plus_q_product

    def mutated(exponents, ring, order):
        return bump(build(exponents, ring, order), index)

    for owner in (products, registry):
        monkeypatch.setattr(owner, "one_plus_q_product", mutated)


def signless_phi(monkeypatch):
    """Make phi ignore its sign, at every module that builds with it: the
    overpartition table becomes 1/phi(q) and each A_l phi(q^l)/phi(q)."""
    build = products.phi

    def mutated(sign, ring, order, scale=1):
        return build(1, ring, order, scale=scale)

    for owner in (products, sequences, registry):
        monkeypatch.setattr(owner, "phi", mutated)


def bump_core_factor(monkeypatch, name, index):
    """Perturb one of the four factors of the eta core phi(q) G(q^2), G(x) =
    psi(x) / (x;x)^3 and phi(q) = phi(q^4) + 2q psi(q^8): Jacobi's cube, or
    one theta series alone, psi(x), phi(x^2) or psi(x^4) by its name in
    CORE_THETAS.  A bump at x^k changes G or phi(x^2) first at x^k, so the
    core at q^(2k), and psi(x^4) first at q^(2k + 1)."""
    build = getattr(registry, "jacobi_cube" if name == "jacobi_cube" else "theta_f_series")

    def mutated(spec_or_scale, ring, order):
        series = build(spec_or_scale, ring, order)
        if name != "jacobi_cube" and spec_or_scale != CORE_THETAS[name]:
            return series
        return bump(series, index)

    monkeypatch.setattr(registry, build.__name__, mutated)


CORE_THETAS = {
    "theta_f_series": registry._PSI,
    "phi_x2": registry._PHI_X2,
    "psi_x4": registry._PSI_X4,
}

# (factor, x-index bumped, first wrong index of the 125-progression, of the
# 25-progression): x^125 gives q^250 and x^62 gives q^125
CORE_BUMPS = [
    ("jacobi_cube", 125, 2, 10),
    ("theta_f_series", 125, 2, 10),
    ("phi_x2", 125, 2, 10),
    ("psi_x4", 62, 1, 5),
]


def check_fails(claim_id, order, params, index):
    """The claim fails at (params, index), alone and in one plan over every
    identity; each run builds its tables afresh under the mutation."""
    (claim,) = claims_by_id([claim_id])
    selected = [c for c in registry.builtin_registry() if isinstance(c, IdentityClaim)]
    shared = {r.claim_id: r for r in verify_claims(selected, order=order)}
    (alone,) = verify_claims([claim], order=order)
    for report in (alone, shared[claim_id]):
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


def test_i_r25_fails_on_a_signless_phi(monkeypatch):
    # the power of phi(-q) is the bilateral sum f(-q, -q), not phi, so a
    # wrong phi changes the table side alone
    signless_phi(monkeypatch)
    check_fails("I-R25", 30, {}, 1)


def test_i_treneer_fails_on_a_signless_phi(monkeypatch):
    signless_phi(monkeypatch)
    check_fails("I-TRENEER", 30, {}, 1)


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


@pytest.mark.parametrize(
    "factor, index, at", [bump[:3] for bump in CORE_BUMPS], ids=[bump[0] for bump in CORE_BUMPS]
)
def test_i_gf125_fails_on_a_wrong_core_factor(monkeypatch, factor, index, at):
    # a wrong term of any factor first changes the core at q^(125 at): the
    # theta side builds none of them
    bump_core_factor(monkeypatch, factor, index)
    check_fails("I-GF125", 20, {}, at)


def test_i_dissect_fails_on_a_wrong_dissection_component(monkeypatch):
    # phi(-q) itself is built at scale 1; only the dissection uses scale 25
    bump_phi(monkeypatch, 25, 25)
    check_fails("I-DISSECT", 30, {}, 25)


def test_i_triple_fails_on_a_wrong_product_side(monkeypatch):
    # the bilateral sum builds no Euler product
    bump_euler(monkeypatch, products, 10, 10)
    check_fails("I-TRIPLE", 30, {"a": 3, "b": 7}, 10)


def test_i_triple_fails_on_a_wrong_expansion(monkeypatch):
    # a wrong coefficient above the order the hypothesis test of the
    # expansion reaches; the bilateral sum never expands a product
    bump_expansion(monkeypatch, 70)
    check_fails("I-TRIPLE", 80, {"a": 3, "b": 7}, 70)


def test_i_alpha_fails_on_a_wrong_overpartition_table(monkeypatch):
    # As for I-GF125: with both sides built from phi(-q^l) * pbar over ZZ
    # this mutation passed every case.
    bump_pbar(monkeypatch, 250)
    check_fails("I-ALPHA", 20, {"alpha": 2}, 10)


def test_i_alpha_fails_on_a_wrong_eta_factor(monkeypatch):
    # (q;q) enters the outer factor of the first case, alpha = 2
    bump_euler(monkeypatch, products, 1, 1)
    check_fails("I-ALPHA", 20, {"alpha": 2}, 1)


@pytest.mark.parametrize(
    "factor, index, at",
    [bump[:2] + bump[3:] for bump in CORE_BUMPS],
    ids=[bump[0] for bump in CORE_BUMPS],
)
def test_i_alpha_fails_on_a_wrong_core_factor(monkeypatch, factor, index, at):
    # the core the three cases share is built in the run, from the mutated
    # factor; its 25-progression first differs at q^(25 at)
    bump_core_factor(monkeypatch, factor, index)
    check_fails("I-ALPHA", 20, {"alpha": 2}, at)


def test_i_pbar_fails_when_only_the_scale_two_product_is_wrong(monkeypatch):
    # the product side divides by (q;q) only; the eta side also uses (q^2;q^2)
    bump_euler(monkeypatch, products, 2, 2)
    check_fails("I-PBAR", 30, {}, 2)


def test_i_pbar_fails_on_a_wrong_expansion(monkeypatch):
    # (q;q) has constant term 1, so the quotient first differs where the
    # product does
    bump_expansion(monkeypatch, 70)
    check_fails("I-PBAR", 80, {}, 70)


def test_every_identity_has_a_mutation_test():
    tested = {
        name.split("_fails")[0].replace("test_i_", "I-").upper()
        for name in globals()
        if name.startswith("test_i_")
    }
    identities = {c.id for c in registry.builtin_registry() if c.id.startswith("I-")}
    assert tested == identities
