"""Named q-products: Euler products (q^s;q^s)_inf and their cubes, eta
quotients, the theta functions phi(+-q) and f(a,b), and the 5-dissection
residual of phi(-q).

Each construction has an independent second route used by the tests
(finite-product expansion, bilateral sum vs. triple product, Jacobi's cube
vs. the cubed pentagonal series), so a bug in one path cannot silently
confirm itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

from .series import Ring, Series, check_order


def euler_product(scale: int, ring: Ring, order: int) -> Series:
    """(q^s; q^s)_inf via the pentagonal number theorem.

    Nonzero terms sit at s*j(3j-1)/2 for j in Z with sign (-1)^j, so the
    truncation holds O(sqrt(order/s)) terms.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    check_order(order)
    c = [0] * (order + 1)
    c[0] = ring.reduce(1)
    sign = -1
    j = 1
    while True:
        e1 = scale * j * (3 * j - 1) // 2
        e2 = scale * j * (3 * j + 1) // 2
        if e1 > order:
            break
        c[e1] = ring.reduce(sign)
        if e2 <= order:
            c[e2] = ring.reduce(sign)
        sign = -sign
        j += 1
    return Series._raw(ring, c)


def jacobi_cube(scale: int, ring: Ring, order: int) -> Series:
    """(q^s; q^s)_inf^3 via Jacobi's identity.

    Nonzero terms sit at s*n(n+1)/2 for n >= 0 with coefficient
    (-1)^n (2n+1), so the truncation holds O(sqrt(order/s)) terms.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    check_order(order)
    c = [0] * (order + 1)
    n = 0
    while scale * n * (n + 1) // 2 <= order:
        c[scale * n * (n + 1) // 2] = ring.reduce((-1) ** n * (2 * n + 1))
        n += 1
    return Series._raw(ring, c)


def phi(sign: int, ring: Ring, order: int, scale: int = 1) -> Series:
    """Theta series phi(sign * q^scale) = 1 + sum_{n>=1} 2 sign^(n^2) q^(scale n^2)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if scale < 1:
        raise ValueError("scale must be >= 1")
    check_order(order)
    c = [0] * (order + 1)
    c[0] = ring.reduce(1)
    n = 1
    while scale * n * n <= order:
        c[scale * n * n] = ring.reduce(2 * (sign ** (n * n)))
        n += 1
    return Series._raw(ring, c)


def one_plus_q_product(exponents, ring: Ring, order: int) -> Series:
    """prod (1 + q^e) over the given exponents, by direct expansion.

    One in-place shift-add per factor; e = 0 doubles the series, e > order
    leaves it unchanged.  Coefficients are reduced once, at the end.
    """
    check_order(order)
    c = [1] + [0] * order
    for e in exponents:
        if e < 0:
            raise ValueError(f"exponent {e} must be >= 0")
        c[e:] = [x + y for x, y in zip(c[e:], c)]
    return Series(ring, c)


# -- eta quotients ---------------------------------------------------------


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Formal product q^t * prod (q^s; q^s)_inf^e, described as data.

    Duplicate scales are merged (exponents summed) and zero exponents
    dropped, giving each quotient a canonical form.
    """

    prefactor_exponent: int = 0
    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.prefactor_exponent < 0:
            raise ValueError("prefactor exponent must be >= 0")
        merged: dict[int, int] = {}
        for scale, exponent in self.factors:
            if scale < 1:
                raise ValueError(f"scale {scale} must be >= 1")
            merged[scale] = merged.get(scale, 0) + exponent
        canonical = tuple(
            (s, e) for s, e in sorted(merged.items()) if e != 0
        )
        object.__setattr__(self, "factors", canonical)

    def inverse(self) -> EtaQuotientSpec:
        return EtaQuotientSpec(
            self.prefactor_exponent, tuple((s, -e) for s, e in self.factors)
        )

    def __str__(self):
        parts = []
        if self.prefactor_exponent:
            parts.append(f"q^{self.prefactor_exponent}")
        parts.extend(f"{s}^{e}" for s, e in self.factors)
        return " ".join(parts) if parts else "1"


_ETA_TOKEN = re.compile(r"^(q|[0-9]+)\^(-?[0-9]+)$")


class EtaSpecParseError(ValueError):
    def __init__(self, token: str, position: int, reason: str):
        self.token = token
        self.position = position
        super().__init__(f"bad eta-quotient token {token!r} at position {position}: {reason}")


def parse_eta_spec(text: str) -> EtaQuotientSpec:
    """Parse the CLI grammar: optional leading 'q^t', then 'scale^exponent'
    tokens, e.g. '5^2 2^1 1^-2 10^-1'."""
    prefactor = 0
    factors = []
    tokens = text.split()
    if not tokens:
        raise EtaSpecParseError(text, 0, "empty spec")
    for pos, tok in enumerate(tokens):
        m = _ETA_TOKEN.match(tok)
        if m is None:
            raise EtaSpecParseError(tok, pos, "expected scale^exponent")
        base, exponent = m.group(1), int(m.group(2))
        if base == "q":
            if pos != 0:
                raise EtaSpecParseError(tok, pos, "q^t must come first")
            if exponent < 0:
                raise EtaSpecParseError(tok, pos, "prefactor exponent must be >= 0")
            prefactor = exponent
        else:
            scale = int(base)
            if scale < 1:
                raise EtaSpecParseError(tok, pos, "scale must be >= 1")
            if exponent == 0:
                raise EtaSpecParseError(tok, pos, "exponent must be nonzero")
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
    result = Series.monomial(ring, spec.prefactor_exponent, order)
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
    count * nnz * N coefficient steps against (squarings + multiplies + 1)
    dense products for binary powering, each priced at the schoolbook N^2.
    That price is exact for the exact kernel and high for the packed
    modular one, so small exponents keep the sparse loop: at the orders the
    registry uses (>= 40) every |e| <= 8 does."""
    n = len(factor)
    nnz = n - factor[:].count(0)
    products = count.bit_length() + bin(count).count("1")
    return count * nnz * n > products * n * n


# -- Ramanujan theta function f(a, b) ---------------------------------------


@dataclass(frozen=True)
class ThetaSpec:
    """f(a_sign q^a_power, b_sign q^b_power) in Ramanujan's notation."""

    a_sign: int = 1
    a_power: int = 1
    b_sign: int = 1
    b_power: int = 1

    def __post_init__(self):
        if self.a_sign not in (1, -1) or self.b_sign not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if self.a_power < 0 or self.b_power < 0:
            raise ValueError("powers must be >= 0")
        if self.a_power + self.b_power < 1:
            raise ValueError("a_power + b_power must be >= 1")


def theta_f_series(spec: ThetaSpec, ring: Ring, order: int) -> Series:
    """Bilateral sum: f(a,b) = sum_{n in Z} a^(n(n+1)/2) b^(n(n-1)/2)."""
    check_order(order)
    c = [0] * (order + 1)

    def add_term(n: int) -> bool:
        ta = n * (n + 1) // 2
        tb = n * (n - 1) // 2
        e = spec.a_power * ta + spec.b_power * tb
        if e > order:
            return False
        sign = (spec.a_sign ** (ta & 1)) * (spec.b_sign ** (tb & 1))
        c[e] = ring.reduce(c[e] + sign)
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
    return Series._raw(ring, c)


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

_M1 = ThetaSpec(1, 3, 1, 7)
_M2 = ThetaSpec(1, 1, 1, 9)


def phi_five_dissection_residual(ring: Ring, order: int) -> Series:
    """phi(-q) - [phi(-q^25) - 2q M1(-q^5) + 2q^4 M2(-q^5)]; identically zero.

    M_i(-q^5) is built by sign-folding the M_i series (q -> -q) and then
    substituting q -> q^5.
    """
    lhs = phi(-1, ring, order)
    part25 = phi(-1, ring, order, scale=25)
    m1 = theta_f_series(_M1, ring, order).negate_variable().substitute_power(5)
    m2 = theta_f_series(_M2, ring, order).negate_variable().substitute_power(5)
    rhs = part25 - (m1 * 2).shift(1) + (m2 * 2).shift(4)
    return lhs - rhs
