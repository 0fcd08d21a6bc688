"""Named q-products: Euler products (q^s;q^s)_inf and their cubes, eta
quotients, the theta functions phi(+-q) and f(a,b), and the 5-dissection
residual of phi(-q), whose M_i(-q^5) are theta sums f(a,b) straight from
their ThetaSpec.

Each construction has an independent second route used by the tests
(finite-product expansion, bilateral sum vs. triple product, Jacobi's cube
vs. the cubed pentagonal series), so a bug in one path cannot silently
confirm itself.  The triple product's and the overpartition product's
prod (1 + q^e) is expanded exactly on one packed int, one big-int
shift-add per factor, and the tests hold it to a plain list shift-add
per factor.
"""

from __future__ import annotations

import math
import re
from itertools import chain
from typing import NamedTuple

from . import kernels
from .series import Ring, Series, _zeros, check_order

_KARATSUBA = 1.585  # log2(3), the exponent of CPython's big-int multiply
_LN2 = math.log(2)


def euler_product(scale: int, ring: Ring, order: int) -> Series:
    """(q^s; q^s)_inf via the pentagonal number theorem.

    Nonzero terms sit at s*j(3j-1)/2 for j in Z with sign (-1)^j, so the
    truncation holds O(sqrt(order/s)) terms.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    check_order(order)
    terms = [(0, 1)]
    sign = -1
    j = 1
    while True:
        e1 = scale * j * (3 * j - 1) // 2
        e2 = scale * j * (3 * j + 1) // 2
        if e1 > order:
            break
        terms.append((e1, sign))
        if e2 <= order:
            terms.append((e2, sign))
        sign = -sign
        j += 1
    return _sparse(ring, order, terms)


def jacobi_cube(scale: int, ring: Ring, order: int) -> Series:
    """(q^s; q^s)_inf^3 via Jacobi's identity.

    Nonzero terms sit at s*n(n+1)/2 for n >= 0 with coefficient
    (-1)^n (2n+1), so the truncation holds O(sqrt(order/s)) terms.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    check_order(order)
    terms = []
    n = 0
    while scale * n * (n + 1) // 2 <= order:
        terms.append((scale * n * (n + 1) // 2, (-1) ** n * (2 * n + 1)))
        n += 1
    return _sparse(ring, order, terms)


def phi(sign: int, ring: Ring, order: int, scale: int = 1) -> Series:
    """Theta series phi(sign * q^scale) = 1 + sum_{n>=1} 2 sign^(n^2) q^(scale n^2)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if scale < 1:
        raise ValueError("scale must be >= 1")
    check_order(order)
    terms = [(0, 1)]
    n = 1
    while scale * n * n <= order:
        terms.append((scale * n * n, 2 * (sign ** (n * n))))
        n += 1
    return _sparse(ring, order, terms)


def _sparse(ring: Ring, order: int, terms: list) -> Series:
    """The Series to order with the given (exponent, coefficient) terms,
    at increasing exponents up to order; those nonzero in ring are recorded
    as the Series' terms."""
    c = _zeros(ring, order + 1)
    kept = []
    for e, v in terms:
        v = ring.reduce(v)
        if v:
            c[e] = v
            kept.append((e, v))
    return Series._raw(ring, c, tuple(kept))


def one_plus_q_product(exponents, ring: Ring, order: int) -> Series:
    """prod (1 + q^e) over the given exponents, by direct expansion in one
    packed int.

    Every exponent is checked before anything is expanded.  The series is
    packed reversed at a fixed field width w, coefficient 0 in the top
    field, as ``kernels.mul_mod``'s shift-add packs it, over only the
    d + 1 fields its degree d has reached: coefficient n sits in field
    d - n, and 1 is 1.  A factor (1 + q^e) with e <= order is one
    shift-add.  While d + e <= order it is c += c << (e * w), which moves
    coefficient n to field d + e - n and grows the series by e fields, so
    a factor costs the fields reached so far.  Past that the series is
    padded once to order + 1 fields, and a factor is c += c >> (e * w):
    the right shift drops exactly the fields that land past order, so no
    mask is needed.  e = 0 doubles the series, and e > order leaves it
    unchanged.  No field carries into the next, since w holds every
    coefficient (``_product_bytes``).  The fields are padded to order + 1,
    unpacked once, reversed, and reduced into ring once, at the end.
    """
    check_order(order)
    factors = []
    for e in exponents:
        if e < 0:
            raise ValueError(f"exponent {e} must be >= 0")
        if e <= order:
            factors.append(e)
    nbytes = _product_bytes(factors, order)
    w = 8 * nbytes
    c, degree = 1, 0
    for e in factors:
        if degree + e <= order:  # no field passes order: grow by e fields
            c += c << (e * w)
            degree += e
            continue
        if degree < order:  # pad to order + 1 fields, once
            c <<= (order - degree) * w
            degree = order
        c += c >> (e * w)
    c <<= (order - degree) * w
    return Series(ring, kernels._unpack(c, order + 1, nbytes)[::-1])


def _product_bytes(exponents, order: int) -> int:
    """Bytes per field that hold every coefficient to order of prod (1 + q^e)
    over exponents, all at most order, and over each partial product.

    The coefficients c_n are nonnegative, so c_n x^n <= P(x), the product at
    x, for 0 < x <= 1; with x^n >= x^order this gives c_n <= P(x) / x^order
    for n <= order, and a partial product's coefficients are no larger.  The
    bound is taken at x = 1 (2^#factors) and at x = e^-u for
    u = 2^k / sqrt(order + 1), k = -3..3, as a log-sum by math.fsum, and
    two guard bits cover its float rounding."""
    least = len(exponents) * _LN2
    for k in range(-3, 4):
        u = 2.0**k / math.sqrt(order + 1)
        logs = math.fsum([math.log1p(math.exp(-u * e)) for e in exponents])
        least = min(least, logs + order * u)
    bits = math.ceil(least / _LN2) + 2
    return kernels._load_bytes((1 << bits) - 1)


# -- eta quotients ---------------------------------------------------------


class _EtaQuotientFields(NamedTuple):
    prefactor_exponent: int = 0
    factors: tuple[tuple[int, int], ...] = ()


class EtaQuotientSpec(_EtaQuotientFields):
    """Formal product q^t * prod (q^s; q^s)_inf^e, described as data.

    Duplicate scales are merged (exponents summed) and zero exponents
    dropped, giving each quotient a canonical form.
    """

    __slots__ = ()

    def __new__(cls, prefactor_exponent: int = 0, factors: tuple[tuple[int, int], ...] = ()):
        if prefactor_exponent < 0:
            raise ValueError("prefactor exponent must be >= 0")
        merged: dict[int, int] = {}
        for scale, exponent in factors:
            if scale < 1:
                raise ValueError(f"scale {scale} must be >= 1")
            merged[scale] = merged.get(scale, 0) + exponent
        canonical = tuple(
            (s, e) for s, e in sorted(merged.items()) if e != 0
        )
        return super().__new__(cls, prefactor_exponent, canonical)

    @classmethod
    def _make(cls, fields):  # so _replace validates too
        return cls(*fields)

    def __str__(self):
        parts = []
        if self.prefactor_exponent:
            parts.append(f"q^{self.prefactor_exponent}")
        parts.extend(f"{s}^{e}" for s, e in self.factors)
        return " ".join(parts) if parts else "1"


_ETA_TOKEN = re.compile(r"^(q|[0-9]+)\^(-?[0-9]+)$")


def _bad_token(token: str, position: int, reason: str) -> ValueError:
    return ValueError(f"bad eta-quotient token {token!r} at position {position}: {reason}")


def parse_eta_spec(text: str) -> EtaQuotientSpec:
    """Parse the CLI grammar: optional leading 'q^t', then 'scale^exponent'
    tokens, e.g. '5^2 2^1 1^-2 10^-1'."""
    prefactor = 0
    factors = []
    tokens = text.split()
    if not tokens:
        raise _bad_token(text, 0, "empty spec")
    for pos, tok in enumerate(tokens):
        m = _ETA_TOKEN.match(tok)
        if m is None:
            raise _bad_token(tok, pos, "expected scale^exponent")
        base, exponent = m.group(1), int(m.group(2))
        if base == "q":
            if pos != 0:
                raise _bad_token(tok, pos, "q^t must come first")
            if exponent < 0:
                raise _bad_token(tok, pos, "prefactor exponent must be >= 0")
            prefactor = exponent
        else:
            scale = int(base)
            if scale < 1:
                raise _bad_token(tok, pos, "scale must be >= 1")
            if exponent == 0:
                raise _bad_token(tok, pos, "exponent must be nonzero")
            factors.append((scale, exponent))
    return EtaQuotientSpec(prefactor, tuple(factors))


def eta_quotient(spec: EtaQuotientSpec, ring: Ring, order: int) -> Series:
    """Evaluate q^t * prod (q^s;q^s)^e, truncated at the given order.

    A factor with a small exponent multiplies in (or divides out) its
    pentagonal-sparse series |e| times, so dense-by-dense products never
    arise.  A large exponent would make that loop the whole cost, so when
    ``_power_is_cheaper`` says so the factor (inverted first when e < 0) is
    raised to |e| by binary powering and multiplied in once.

    Every factor with e > 0 is applied before any with e < 0, each group in
    increasing scale.  A product costs in proportion to its sparser
    operand, so multiplying while the running result is still sparse is
    cheap, whereas a division costs the same whatever the numerator; the
    other order would shift-add a dense quotient once per term of each
    numerator factor.  The arithmetic is exact in either order, so the
    output does not depend on it.
    """
    result = Series.one(ring, order).shift(spec.prefactor_exponent)
    for scale, exponent in sorted(spec.factors, key=lambda f: f[1] < 0):
        factor = euler_product(scale, ring, order)
        count = abs(exponent)
        if _power_is_cheaper(count, factor):
            if exponent < 0:
                factor = factor.inverse()
            result = result * factor**count
            continue
        for _ in range(count):
            result = result * factor if exponent > 0 else result / factor
    return result


def _power_is_cheaper(count: int, factor: Series) -> bool:
    """Cost model for ``eta_quotient``: count sparse passes cost
    count * nnz * N coefficient steps, nnz being the terms ``euler_product``
    recorded for the factor, against (squarings + multiplies + 1) dense
    products for binary powering.  Over ZZ a dense product is the
    schoolbook N^2.  Over Zmod(m) it is ``kernels.mul_mod``'s one big-int
    multiply of N fields of w bytes, priced at (N * w)^log2(3) for
    CPython's Karatsuba: measured at 0.74-1.6 ns per unit from N = 1000 to
    64000 (m = 5, 7, 625, 840), against 0.8-30 ns per pass step, so a pass
    step priced at one unit leans to the sparse loop.  Dense products grow
    faster than passes, which caps the order at which powering wins: for
    |e| = 24 mod 5 or 7 it wins to order ~1400, for |e| = 400 mod 840 to
    ~5600, and at the registry's orders every |e| <= 8 keeps the sparse
    loop."""
    n = len(factor)
    products = count.bit_length() + bin(count).count("1")
    m = factor.ring.modulus
    dense = n * n if m is None else (n * kernels._field_bytes(n, m)) ** _KARATSUBA
    return count * len(factor._terms) * n > products * dense


# -- Ramanujan theta function f(a, b) ---------------------------------------


class _ThetaFields(NamedTuple):
    a_sign: int = 1
    a_power: int = 1
    b_sign: int = 1
    b_power: int = 1


class ThetaSpec(_ThetaFields):
    """f(a_sign q^a_power, b_sign q^b_power) in Ramanujan's notation."""

    __slots__ = ()

    def __new__(cls, a_sign: int = 1, a_power: int = 1, b_sign: int = 1, b_power: int = 1):
        if a_sign not in (1, -1) or b_sign not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if a_power < 0 or b_power < 0:
            raise ValueError("powers must be >= 0")
        if a_power + b_power < 1:
            raise ValueError("a_power + b_power must be >= 1")
        return super().__new__(cls, a_sign, a_power, b_sign, b_power)

    @classmethod
    def _make(cls, fields):  # so _replace validates too
        return cls(*fields)


def theta_f_series(spec: ThetaSpec, ring: Ring, order: int) -> Series:
    """Bilateral sum: f(a,b) = sum_{n in Z} a^(n(n+1)/2) b^(n(n-1)/2)."""
    check_order(order)
    sums = {}  # an exponent may come twice, as when a_power == b_power

    def add_term(n: int) -> bool:
        ta = n * (n + 1) // 2
        tb = n * (n - 1) // 2
        e = spec.a_power * ta + spec.b_power * tb
        if e > order:
            return False
        sign = (spec.a_sign ** (ta & 1)) * (spec.b_sign ** (tb & 1))
        sums[e] = sums.get(e, 0) + sign
        return True

    add_term(0)
    n = 1
    while True:
        # exponents are monotone in |n| for n >= 1 in each direction
        alive = add_term(n)
        alive |= add_term(-n)
        if not alive:
            break
        n += 1
    return _sparse(ring, order, sorted(sums.items()))


def theta_f_product(spec: ThetaSpec, ring: Ring, order: int) -> Series:
    """Jacobi triple product: f(a,b) = (-a;ab)(-b;ab)(ab;ab) for positive signs."""
    if spec.a_sign != 1 or spec.b_sign != 1:
        raise ValueError("product form requires positive signs")
    period = spec.a_power + spec.b_power
    exponents = chain(
        range(spec.a_power, order + 1, period), range(spec.b_power, order + 1, period)
    )
    return euler_product(period, ring, order) * one_plus_q_product(exponents, ring, order)


# -- 5-dissection of phi(-q) -------------------------------------------------

# M1(q) = f(q^3, q^7) and M2(q) = f(q, q^9): q -> -q^5 multiplies each power
# by 5 and, the powers being odd, negates each argument
_M1_AT_MINUS_Q5 = ThetaSpec(-1, 15, -1, 35)
_M2_AT_MINUS_Q5 = ThetaSpec(-1, 5, -1, 45)


def phi_five_dissection_residual(ring: Ring, order: int) -> Series:
    """phi(-q) - [phi(-q^25) - 2q M1(-q^5) + 2q^4 M2(-q^5)]; identically zero.

    M_i(-q^5) is the bilateral theta sum of its ThetaSpec, whose signs and
    powers already carry q -> -q^5.
    """
    lhs = phi(-1, ring, order)
    part25 = phi(-1, ring, order, scale=25)
    m1 = theta_f_series(_M1_AT_MINUS_Q5, ring, order)
    m2 = theta_f_series(_M2_AT_MINUS_Q5, ring, order)
    rhs = part25 - (m1 * 2).shift(1) + (m2 * 2).shift(4)
    return lhs - rhs
