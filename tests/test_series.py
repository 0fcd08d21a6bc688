import json
import operator
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from regover.series import Ring, Series, ZZ, Zmod
from regover.products import (
    ThetaSpec,
    euler_product,
    jacobi_cube,
    phi,
    theta_f_product,
    theta_f_series,
)


def squares_series(sign, order):
    # independent oracle for phi(sign*q): enumerate squares directly
    c = [0] * (order + 1)
    c[0] = 1
    for j in range(1, order + 1):
        if j * j > order:
            break
        c[j * j] = 2 * sign**j
    return c


def pad(coeffs, order):
    """coeffs followed by zeros up to the given order."""
    return list(coeffs) + [0] * (order + 1 - len(coeffs))


def test_ring_validation():
    assert ZZ.is_exact
    assert Zmod(5).modulus == 5
    with pytest.raises(ValueError, match="^modulus must be >= 2$"):
        Ring(1)


def test_construct_pads_and_reduces():
    s = Series(ZZ, pad([1], 3))
    assert s.coeffs == [1, 0, 0, 0]
    t = Series(Zmod(5), pad([7, -1], 2))
    assert t.coeffs == [2, 4, 0]


@pytest.mark.parametrize(
    "build",
    [
        lambda order: Series(ZZ, pad([], order)),
        lambda order: Series.one(ZZ, order),
        lambda order: euler_product(1, ZZ, order),
        lambda order: phi(-1, ZZ, order),
        lambda order: theta_f_series(ThetaSpec(), ZZ, order),
        lambda order: theta_f_product(ThetaSpec(), ZZ, order),
    ],
    ids=[
        "init",
        "one",
        "euler_product",
        "phi",
        "theta_f_series",
        "theta_f_product",
    ],
)
def test_negative_order_is_rejected(build):
    assert build(0).order == 0
    with pytest.raises(ValueError, match="order must be >= 0"):
        build(-1)


def test_pbar_prefix_from_coeffs():
    # overpartition counts 1,2,4,8,14 (enumeration oracle, see test_sequences)
    s = Series(ZZ, [1, 2, 4, 8, 14])
    assert s.order == 4 and s[4] == 14


def test_add_sub():
    one_plus = Series(ZZ, [1, 1])
    one_minus = Series(ZZ, [1, -1])
    assert (one_plus + one_minus).coeffs == [2, 0]
    s = Series(ZZ, [3, 1, 4, 1, 5])
    assert (s - s).coeffs == [0] * 5


def test_add_phi_pair():
    a = Series(ZZ, squares_series(1, 4))
    b = Series(ZZ, squares_series(-1, 4))
    assert (a + b).coeffs == [2, 0, 0, 0, 4]


def test_ring_mismatch():
    with pytest.raises(ValueError):
        Series(ZZ, [1]) + Series(Zmod(5), [1])
    with pytest.raises(ValueError):
        Series(ZZ, [1]) * Series(Zmod(5), [1])


def test_mul():
    a = Series(ZZ, [1, 1, 0])
    b = Series(ZZ, [1, -1, 0])
    assert (a * b).coeffs == [1, 0, -1]


def test_mul_inverse_is_one():
    u = euler_product(1, ZZ, 10)
    assert (u * u.inverse()) == Series.one(ZZ, 10)


def test_mul_eta_equals_phi():
    # (q;q)^2 * (q^2;q^2)^(-1) = phi(-q)
    lhs = euler_product(1, ZZ, 9) ** 2 * euler_product(2, ZZ, 9).inverse()
    assert lhs.coeffs == squares_series(-1, 9)


def test_invert_geometric():
    assert Series(ZZ, pad([1, -1], 4)).inverse().coeffs == [1, 1, 1, 1, 1]


def test_invert_euler_gives_partitions():
    assert euler_product(1, ZZ, 5).inverse().coeffs == [1, 1, 2, 3, 5, 7]


def test_invert_mod():
    assert Series(Zmod(5), [2, 1]).inverse().coeffs == [3, 1]


def test_invert_non_unit():
    with pytest.raises(ValueError):
        Series(ZZ, [2, 1]).inverse()
    with pytest.raises(ValueError):
        Series(Zmod(6), [3, 1]).inverse()


def test_pow():
    s = Series(ZZ, [2, 5, 1])
    assert (s**0) == Series.one(ZZ, 2)
    assert (Series(ZZ, [1, 1, 0]) ** 2).coeffs == [1, 2, 1]


def test_pow_binomial_congruence():
    lhs = euler_product(1, Zmod(5), 100) ** 5
    rhs = euler_product(5, Zmod(5), 100)
    assert lhs == rhs


def test_pow_negative():
    s = Series(ZZ, pad([1, 3, -2], 6))
    assert s**-2 == (s**2).inverse()


def test_extract_progression():
    # phi(-q) = 1 - 2q + 2q^4 - 2q^9 + ...
    assert phi(-1, ZZ, 9).extract_progression(3).coeffs == [1, 0, 0, -2]
    s = Series(ZZ, [3, 1, 4])
    assert s.extract_progression(1) == s
    assert s.extract_progression(5).coeffs == [3]
    with pytest.raises(ValueError, match="step must be >= 1"):
        s.extract_progression(0)


def test_shift_and_scalar():
    s = Series(ZZ, [1, 2, 3])
    assert s.shift(1).coeffs == [0, 1, 2]
    assert s.shift(5).coeffs == [0, 0, 0]
    with pytest.raises(ValueError, match="shift must be >= 0"):
        s.shift(-1)
    assert (s * 3).coeffs == [3, 6, 9]
    assert (-s).coeffs == [-1, -2, -3]


def test_series_is_immutable():
    s = Series(ZZ, [1, 2])
    with pytest.raises(AttributeError, match="Series is immutable"):
        s.ring = Zmod(5)
    assert s.ring == ZZ
    # coeffs is a fresh list, so writing into it leaves the series alone
    t = Series(Zmod(5), [1, 2, 4, 3, 4, 4])
    t.coeffs[:] = [0] * 6
    assert t.coeffs == [1, 2, 4, 3, 4, 4] and t[5] == 4


def test_foreign_operands_are_not_series():
    s = Series(ZZ, [1, 1])
    assert s != [1, 1]
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow):
        with pytest.raises(TypeError):
            op(s, 1.5)


def test_repr():
    assert repr(Series(ZZ, pad([-1, -1, 2, 0, 1, -3], 6))) == (
        "Series(ZZ, order=6, -1 - q + 2*q^2 + q^4 - 3*q^5)"
    )
    assert repr(Series(Zmod(5), pad([], 2))) == "Series(Zmod(5), order=2, 0)"
    assert repr(Series(ZZ, [1] * 10)) == (
        "Series(ZZ, order=9, 1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7 + ...)"
    )
    # "..." only when a further nonzero term follows the eighth shown
    assert repr(Series(ZZ, [1] * 8 + [0, 0])) == (
        "Series(ZZ, order=9, 1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7)"
    )
    assert repr(Series(ZZ, [1] * 8 + [0, 2])) == (
        "Series(ZZ, order=9, 1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7 + ...)"
    )
    assert repr(Series(ZZ, [1] * 8)) == (
        "Series(ZZ, order=7, 1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7)"
    )


def test_json_roundtrip():
    for s, obj in (
        (Series(ZZ, pad([1, -2, 0, 2], 5)), {"ring": "Z", "order": 5, "coeffs": [1, -2, 0, 2, 0, 0]}),
        (Series(Zmod(7), [3, 6, 1]), {"ring": {"mod": 7}, "order": 2, "coeffs": [3, 6, 1]}),
    ):
        assert s.to_json_obj() == obj
        assert json.loads(json.dumps(obj)) == obj


# -- algebraic laws ----------------------------------------------------------

rings = st.sampled_from([ZZ, Zmod(2), Zmod(5), Zmod(24), Zmod(2**40)])


@st.composite
def series_triples(draw):
    ring = draw(rings)
    order = draw(st.integers(min_value=0, max_value=200))
    coeff = st.integers(min_value=-50, max_value=50)
    make = lambda: Series(ring, pad(draw(st.lists(coeff, max_size=order + 1)), order))
    return make(), make(), make()


@given(series_triples())
@settings(max_examples=40, deadline=None)
def test_ring_laws(triple):
    a, b, c = triple
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@st.composite
def unit_series(draw):
    ring = draw(rings)
    order = draw(st.integers(min_value=0, max_value=120))
    coeffs = draw(st.lists(st.integers(-30, 30), max_size=order + 1))
    if not coeffs:
        coeffs = [1]
    # force a unit constant term
    if ring.is_exact:
        coeffs[0] = draw(st.sampled_from([1, -1]))
    else:
        units = [
            u for u in range(1, min(ring.modulus, 300)) if gcd(u, ring.modulus) == 1
        ]
        coeffs[0] = draw(st.sampled_from(units))
    return Series(ring, pad(coeffs, order))


@given(unit_series())
@settings(max_examples=40, deadline=None)
def test_inverse_two_sided(a):
    assert a * a.inverse() == Series.one(a.ring, a.order)
    assert a.inverse() * a == Series.one(a.ring, a.order)


@given(unit_series(), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=25, deadline=None)
def test_pow_additive(a, e1, e2):
    assert a ** (e1 + e2) == a**e1 * a**e2


@st.composite
def any_series(draw, max_order=120):
    ring = draw(rings)
    order = draw(st.integers(min_value=0, max_value=max_order))
    return Series(ring, pad(draw(st.lists(st.integers(-50, 50), max_size=order + 1)), order))


@given(any_series(), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_dissection_reconstructs(a, k):
    # the progression's n-th coefficient is the series' at index k n
    assert a.extract_progression(k) == Series(a.ring, a.coeffs[::k])


@st.composite
def exact_pairs(draw):
    order = draw(st.integers(min_value=0, max_value=100))
    coeff = st.integers(min_value=-10**6, max_value=10**6)
    a = Series(ZZ, pad(draw(st.lists(coeff, max_size=order + 1)), order))
    b = Series(ZZ, pad(draw(st.lists(coeff, max_size=order + 1)), order))
    return a, b


@given(exact_pairs(), st.integers(2, 97))
@settings(max_examples=40, deadline=None)
def test_reduce_mod_is_homomorphism(pair, m):
    # the exact and modular kernels agree: reducing mod m commutes with
    # every ring operation
    a, b = pair
    ring = Zmod(m)

    def red(s):
        return Series(ring, s.coeffs)

    assert red(a * b) == red(a) * red(b)
    assert red(a + b) == red(a) + red(b)
    assert red(a**3) == red(a) ** 3


@pytest.mark.parametrize("m", [2, 5, 24, 625, 840, 2**61 - 1])
@given(st.data())
@settings(max_examples=15, deadline=None)
def test_every_modular_series_holds_least_residues(m, data):
    # the modular kernels take least residues and never reduce an operand,
    # so every Series over Zmod(m) the package builds must hold them
    ring = Zmod(m)
    order = data.draw(st.integers(0, 120))
    big = st.integers(-(10**20), 10**20)
    a, b = (Series(ring, pad(data.draw(st.lists(big, max_size=order + 1)), order)) for _ in "ab")
    head = data.draw(big.filter(lambda c: gcd(c, m) == 1))
    unit = Series(ring, [head] + a[1:])
    scale = data.draw(st.integers(1, 5))
    powers = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: sum(p) >= 1)
    a_power, b_power = data.draw(powers)
    k = data.draw(st.integers(-(10**20), -1))
    step = data.draw(st.integers(1, 7))
    built = {
        "Series": a,
        "phi": phi(-1, ring, order, scale),
        "euler_product": euler_product(scale, ring, order),
        "jacobi_cube": jacobi_cube(scale, ring, order),
        "theta_f_series": theta_f_series(ThetaSpec(-1, a_power, -1, b_power), ring, order),
        "+": a + b,
        "-": a - b,
        "unary -": -a,
        "k * s": k * a,
        "s * k": a * k,
        "*": a * b,
        "* sparse": a * phi(-1, ring, order, scale),
        "/": a / unit,
        "/ sparse": a / euler_product(scale, ring, order),
        "inverse": unit.inverse(),
        "**": unit ** data.draw(st.integers(-3, 3)),
        "shift": a.shift(data.draw(st.integers(0, order + 2))),
        "extract_progression": a.extract_progression(step),
    }
    for name, series in built.items():
        assert series.ring == ring, name
        assert all(0 <= c < m for c in series[:]), name
