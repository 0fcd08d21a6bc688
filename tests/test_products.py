import random

import pytest
from hypothesis import given, settings, strategies as st

from regover import kernels, products
from regover.claims import IdentityClaim, verify_identity
from regover.products import (
    EtaQuotientSpec,
    EtaSpecParseError,
    ThetaSpec,
    eta_quotient,
    euler_product,
    jacobi_cube,
    one_plus_q_product,
    parse_eta_spec,
    phi,
    phi_five_dissection_residual,
    theta_f_product,
    theta_f_series,
)
from regover.registry import builtin_registry, regular_overpartition_quotient
from regover.sequences import clear_caches
from regover.series import Series, ZZ, Zmod


def finite_product_expansion(scale, order):
    """Brute-force oracle: expand prod_{n: scale*n <= order} (1 - q^(scale n))."""
    coeffs = [1] + [0] * order
    n = 1
    while scale * n <= order:
        e = scale * n
        for i in range(order - e, -1, -1):
            if coeffs[i]:
                coeffs[i + e] -= coeffs[i]
        n += 1
    return coeffs


def brute_eta(spec, order):
    """Evaluate an eta quotient with no sparsity tricks: numerator product
    times long-division by the denominator product."""
    num = [1] + [0] * order
    den = [1] + [0] * order

    def mul_into(target, factor):
        out = [0] * (order + 1)
        for i, c in enumerate(target):
            if c:
                for j, d in enumerate(factor):
                    if i + j > order:
                        break
                    out[i + j] += c * d
        return out

    for scale, e in spec.factors:
        block = finite_product_expansion(scale, order)
        for _ in range(abs(e)):
            if e > 0:
                num = mul_into(num, block)
            else:
                den = mul_into(den, block)
    quot = [0] * (order + 1)
    for n in range(order + 1):
        acc = num[n]
        for k in range(1, n + 1):
            acc -= den[k] * quot[n - k]
        quot[n] = acc
    return [0] * spec.prefactor_exponent + quot[: order + 1 - spec.prefactor_exponent]


def test_euler_small():
    assert euler_product(1, ZZ, 7).coeffs == [1, -1, -1, 0, 0, 1, 0, 1]
    assert euler_product(2, ZZ, 4).coeffs == [1, 0, -1, 0, -1]
    assert euler_product(3, ZZ, 0).coeffs == [1]


@pytest.mark.parametrize("scale", [1, 2, 3, 5, 10, 25])
def test_euler_matches_finite_product(scale):
    order = 400
    assert euler_product(scale, ZZ, order).coeffs == finite_product_expansion(scale, order)


@pytest.mark.parametrize("ring", [ZZ, Zmod(625)], ids=["ZZ", "mod625"])
@pytest.mark.parametrize("scale", [1, 2, 3, 5])
def test_jacobi_cube_is_the_cubed_pentagonal_series(scale, ring):
    # the second route: (q^s;q^s)^3 as the cube of the pentagonal series
    for order in range(301):
        cubed = euler_product(scale, ring, order) ** 3
        assert jacobi_cube(scale, ring, order) == cubed, order


def test_eta_quotient_partition_series():
    spec = EtaQuotientSpec(0, ((1, -1),))
    assert eta_quotient(spec, ZZ, 5).coeffs == [1, 1, 2, 3, 5, 7]


def test_eta_quotient_overpartition_series():
    spec = EtaQuotientSpec(0, ((2, 1), (1, -2)))
    assert eta_quotient(spec, ZZ, 4).coeffs == [1, 2, 4, 8, 14]


def test_eta_quotient_regular_overpartition_series():
    spec = EtaQuotientSpec(0, ((5, 2), (2, 1), (1, -2), (10, -1)))
    assert eta_quotient(spec, ZZ, 4).coeffs == [1, 2, 4, 8, 14]


@pytest.mark.parametrize(
    "spec",
    [
        EtaQuotientSpec(0, ((1, -1),)),
        EtaQuotientSpec(0, ((5, 2), (2, 1), (1, -2), (10, -1))),
        EtaQuotientSpec(2, ((1, 3), (3, -2))),
        EtaQuotientSpec(0, ((2, 2), (4, -1), (1, -2))),
    ],
)
def test_eta_quotient_matches_brute_force(spec):
    order = 120
    assert eta_quotient(spec, ZZ, order).coeffs == brute_eta(spec, order)
    assert eta_quotient(spec, Zmod(5), order).coeffs == [
        c % 5 for c in brute_eta(spec, order)
    ]


def test_eta_quotient_inverse_spec():
    spec = EtaQuotientSpec(0, ((5, 2), (2, 1), (1, -2), (10, -1)))
    s = eta_quotient(spec, ZZ, 60)
    t = eta_quotient(spec.inverse(), ZZ, 60)
    assert s * t == Series.one(ZZ, 60)


def repeated_eta(spec, ring, order):
    """The sparse route alone: one product or quotient per unit of |e|."""
    result = Series.monomial(ring, spec.prefactor_exponent, order)
    for scale, exponent in spec.factors:
        factor = euler_product(scale, ring, order)
        for _ in range(abs(exponent)):
            result = result * factor if exponent > 0 else result / factor
    return result


@pytest.mark.parametrize(
    "ring,order,kernel_names",
    [(Zmod(625), 3000, ("mul_mod", "div_mod")), (ZZ, 300, ("mul_exact", "div_exact"))],
    ids=["mod625", "ZZ"],
)
@pytest.mark.parametrize("ell", [25, 125, 625])
def test_eta_quotient_multiplies_before_dividing(monkeypatch, ell, ring, order, kernel_names):
    # every numerator factor goes in before the first division, and the
    # result equals the scale-order route coefficient for coefficient
    spec = regular_overpartition_quotient(ell)
    expected = repeated_eta(spec, ring, order)
    calls = []
    for name in kernel_names:
        real = getattr(kernels, name)

        def spy(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(kernels, name, spy)
    assert eta_quotient(spec, ring, order).coeffs == expected.coeffs
    mul, div = kernel_names
    # two products by (q^l;q^l) and one by (q^2;q^2), then two quotients
    # by (q;q) and one by (q^2l;q^2l)
    assert calls == [mul] * 3 + [div] * 3


def test_eta_quotient_powering_matches_repeated_products(monkeypatch):
    powered = []
    choose = products._power_is_cheaper

    def spy(count, factor):
        powered.append(choose(count, factor))
        return powered[-1]

    monkeypatch.setattr(products, "_power_is_cheaper", spy)
    rng = random.Random(7)
    for _ in range(60):
        factors = tuple(
            (rng.randint(1, 4), rng.choice([-1, 1]) * rng.randint(1, 40))
            for _ in range(rng.randint(1, 3))
        )
        spec = EtaQuotientSpec(rng.randint(0, 2), factors)
        order = rng.randint(0, 30)
        for ring in (ZZ, Zmod(7)):
            assert eta_quotient(spec, ring, order) == repeated_eta(spec, ring, order), (
                spec,
                order,
            )
    assert True in powered and False in powered  # both routes ran


def test_registry_eta_quotients_keep_the_sparse_route(monkeypatch):
    # every exponent the registry uses has |e| <= 8; at the registry's
    # orders the cost model must leave all of them on the repeated product
    choose = products._power_is_cheaper

    def spy(count, factor):
        assert not choose(count, factor), (count, len(factor))
        return False

    monkeypatch.setattr(products, "_power_is_cheaper", spy)
    clear_caches()
    for claim in builtin_registry():
        if isinstance(claim, IdentityClaim):
            assert verify_identity(claim, claim.default_order).passed


def test_eta_spec_merges_duplicate_scales():
    spec = EtaQuotientSpec(0, ((2, 2), (2, 1), (3, 1), (3, -1)))
    assert spec.factors == ((2, 3),)


def test_phi_values():
    assert phi(1, ZZ, 9).coeffs == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]
    assert phi(-1, ZZ, 9).coeffs == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2]


def test_phi_equals_eta_quotient():
    spec = EtaQuotientSpec(0, ((1, 2), (2, -1)))
    assert phi(-1, ZZ, 500) == eta_quotient(spec, ZZ, 500)


def test_phi_scaled():
    s = phi(-1, ZZ, 50, scale=25)
    assert s[0] == 1 and s[25] == -2 and sum(map(abs, s.coeffs)) == 3


def test_theta_f_qq_is_phi():
    spec = ThetaSpec(1, 1, 1, 1)
    assert theta_f_series(spec, ZZ, 30) == phi(1, ZZ, 30)


def test_theta_exponents_m1():
    # f(q^3, q^7): exponents 3 n(n+1)/2 + 7 n(n-1)/2 = 5n^2 - 2n
    s = theta_f_series(ThetaSpec(1, 3, 1, 7), ZZ, 30)
    nonzero = [n for n, c in enumerate(s.coeffs) if c]
    assert nonzero == [0, 3, 7, 16, 24]
    assert all(s[n] == 1 for n in nonzero)


def test_theta_exponents_m2():
    # f(q, q^9): exponents n(n+1)/2 + 9 n(n-1)/2 = 5n^2 - 4n
    s = theta_f_series(ThetaSpec(1, 1, 1, 9), ZZ, 30)
    nonzero = [n for n, c in enumerate(s.coeffs) if c]
    assert nonzero == [0, 1, 9, 12, 28]


def test_theta_negative_sign_series():
    s = theta_f_series(ThetaSpec(-1, 1, -1, 1), ZZ, 9)
    assert s == phi(-1, ZZ, 9)


@pytest.mark.parametrize("a,b", [(1, 1), (3, 7), (1, 9)])
def test_theta_sum_equals_product(a, b):
    spec = ThetaSpec(1, a, 1, b)
    assert theta_f_series(spec, ZZ, 500) == theta_f_product(spec, ZZ, 500)


@given(
    st.lists(st.integers(0, 70), max_size=25),
    st.sampled_from([ZZ, Zmod(2), Zmod(5), Zmod(24)]),
    st.integers(0, 60),
)
@settings(max_examples=150, deadline=None)
def test_one_plus_q_product_matches_factorwise_product(exponents, ring, order):
    # reference: one Series per factor (1 + q^e), multiplied through
    # Series.__mul__; exponents include 0, repeats and values above order
    expected = Series.one(ring, order)
    for e in exponents:
        factor = [1] + [0] * order
        if e <= order:
            factor[e] += 1
        expected = expected * Series(ring, factor)
    assert one_plus_q_product(exponents, ring, order) == expected


def test_one_plus_q_product_rejects_negative_exponent():
    with pytest.raises(ValueError):
        one_plus_q_product([1, -1], ZZ, 10)
    with pytest.raises(ValueError):
        one_plus_q_product([], ZZ, -1)


def test_theta_product_rejects_signs():
    with pytest.raises(ValueError):
        theta_f_product(ThetaSpec(-1, 3, 1, 7), ZZ, 10)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: euler_product(0, ZZ, 5), "scale must be >= 1"),
        (lambda: jacobi_cube(0, ZZ, 5), "scale must be >= 1"),
        (lambda: phi(2, ZZ, 5), "sign must be"),
        (lambda: phi(-1, ZZ, 5, scale=0), "scale must be >= 1"),
        # built directly: parse_eta_spec rejects both before construction
        (lambda: EtaQuotientSpec(-1, ((1, 1),)), "prefactor exponent must be >= 0"),
        (lambda: EtaQuotientSpec(0, ((0, 1),)), "scale 0 must be >= 1"),
    ],
    ids=["euler_scale", "cube_scale", "phi_sign", "phi_scale", "eta_prefactor", "eta_scale"],
)
def test_product_builders_reject_bad_parameters(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_theta_spec_validation():
    with pytest.raises(ValueError):
        ThetaSpec(1, 0, 1, 0)
    with pytest.raises(ValueError):
        ThetaSpec(2, 1, 1, 1)
    with pytest.raises(ValueError, match="powers must be >= 0"):
        ThetaSpec(1, -1, 1, 2)


def test_dissection_residual_zero():
    # below order 4 the q^4 term falls off the truncation, and the residual
    # is still zero: every order is valid
    for order in (0, 1, 2, 3, 4, 100, 1000):
        assert phi_five_dissection_residual(ZZ, order) == Series.zero(ZZ, order)


# -- spec grammar -------------------------------------------------------------


def test_parse_eta_spec():
    spec = parse_eta_spec("5^2 2^1 1^-2 10^-1")
    assert spec == EtaQuotientSpec(0, ((5, 2), (2, 1), (1, -2), (10, -1)))
    assert parse_eta_spec("q^2 1^3") == EtaQuotientSpec(2, ((1, 3),))


def test_parse_eta_spec_roundtrip():
    for text in ("1^-1", "q^1 1^1", "5^2 2^1 1^-2 10^-1"):
        spec = parse_eta_spec(text)
        assert parse_eta_spec(str(spec)) == spec


@pytest.mark.parametrize(
    "bad,token,pos",
    [
        ("nope", "nope", 0),
        ("1^2 x^3", "x^3", 1),
        ("1^0", "1^0", 0),
        ("2^1 q^3", "q^3", 1),
        ("0^2", "0^2", 0),
        ("q^-1 1^2", "q^-1", 0),
    ],
)
def test_parse_eta_spec_errors(bad, token, pos):
    with pytest.raises(EtaSpecParseError) as err:
        parse_eta_spec(bad)
    assert err.value.token == token
    assert err.value.position == pos
