"""Truncated formal power series in q over ZZ or ZZ/m.

A Series stores the dense coefficient list of sum a(n) q^n for n = 0..order
(truncation order inclusive).  Exact coefficients are arbitrary-precision
ints; modular coefficients are kept as least nonnegative residues.  A Series
is immutable after construction and every operation returns a new one.

A Series built by one of the sparse constructors in ``products`` (phi,
euler_product, jacobi_cube, theta_f_series) also holds its nonzero
(index, coefficient) terms in increasing index; every other Series,
shifts, progressions and results of arithmetic included, holds none.
Products and quotients over Zmod(m) hand those terms to
``kernels.mul_mod`` and ``kernels.div_mod``, whose one input contract is
least residues, so the kernels neither scan a sparse factor for its terms
nor reduce an operand again.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from . import kernels


class _RingFields(NamedTuple):
    modulus: int | None = None


class Ring(_RingFields):
    """Coefficient ring: exact integers (modulus None) or integers mod m."""

    __slots__ = ()

    def __new__(cls, modulus: int | None = None):
        if modulus is not None and modulus < 2:
            raise ValueError("modulus must be >= 2")
        return super().__new__(cls, modulus)

    @classmethod
    def _make(cls, fields):  # so _replace validates too
        return cls(*fields)

    @property
    def is_exact(self) -> bool:
        return self.modulus is None

    def reduce(self, x: int) -> int:
        return x if self.modulus is None else x % self.modulus

    def __repr__(self):
        return "ZZ" if self.modulus is None else f"Zmod({self.modulus})"


ZZ = Ring()


def Zmod(m: int) -> Ring:
    return Ring(m)


def check_order(order: int) -> None:
    """Reject a negative truncation order."""
    if order < 0:
        raise ValueError("order must be >= 0")


class Series:
    """Immutable truncated power series over a Ring."""

    __slots__ = ("ring", "_coeffs", "_terms")

    def __init__(self, ring: Ring, coeffs):
        m = ring.modulus
        coeffs = list(coeffs) if m is None else [c % m for c in coeffs]
        check_order(len(coeffs) - 1)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _raw(cls, ring: Ring, coeffs: list, terms: tuple | None = None) -> Series:
        """Internal fast path: coeffs already reduced, ownership transferred.
        terms, given by the sparse constructors in ``products`` only, are
        the nonzero (index, coefficient) pairs of coeffs in increasing index."""
        s = object.__new__(cls)
        object.__setattr__(s, "ring", ring)
        object.__setattr__(s, "_coeffs", coeffs)
        object.__setattr__(s, "_terms", terms)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def coeffs(self) -> list:
        """Dense coefficient list, index n = coefficient of q^n.  A fresh
        copy on every access, so no caller can alter the series; index or
        slice the series to read part of it."""
        return self._coeffs[:]

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def __getitem__(self, n: int | slice) -> int | list:
        return self._coeffs[n]

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring == other.ring and self._coeffs == other._coeffs

    __hash__ = None

    def __repr__(self):
        terms = []
        for n, c in enumerate(self._coeffs):
            if not c:
                continue
            if len(terms) == 8:  # a ninth nonzero term: show that more follow
                terms.append("...")
                break
            if n == 0:
                terms.append(str(c))
            else:
                mag = "" if c == 1 else "-" if c == -1 else f"{c}*"
                terms.append(f"{mag}q^{n}" if n > 1 else f"{mag}q")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"Series({self.ring!r}, order={self.order}, {body})"

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls, ring: Ring, order: int) -> Series:
        check_order(order)
        c = [0] * (order + 1)
        c[0] = ring.reduce(1)
        return cls._raw(ring, c)

    # -- ring operations -------------------------------------------------

    def _check_ring(self, other: Series):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_ring(other)
        n = min(len(self._coeffs), len(other._coeffs))
        red = self.ring.reduce
        return Series._raw(
            self.ring, [red(a + b) for a, b in zip(self._coeffs[:n], other._coeffs[:n])]
        )

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_ring(other)
        n = min(len(self._coeffs), len(other._coeffs))
        red = self.ring.reduce
        return Series._raw(
            self.ring, [red(a - b) for a, b in zip(self._coeffs[:n], other._coeffs[:n])]
        )

    def __neg__(self):
        red = self.ring.reduce
        return Series._raw(self.ring, [red(-c) for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            red = self.ring.reduce
            return Series._raw(self.ring, [red(other * c) for c in self._coeffs])
        if not isinstance(other, Series):
            return NotImplemented
        self._check_ring(other)
        n = min(len(self._coeffs), len(other._coeffs))
        m = self.ring.modulus
        if m is None:
            out = kernels.mul_exact(self._coeffs, other._coeffs, n)
        else:
            out = kernels.mul_mod(
                self._coeffs, other._coeffs, n, m, a_terms=self._terms, b_terms=other._terms
            )
        return Series._raw(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_ring(other)
        n = min(len(self._coeffs), len(other._coeffs))
        return Series._raw(self.ring, _div(self._coeffs, other, n))

    def inverse(self) -> Series:
        """Multiplicative inverse up to the truncation order."""
        one = [self.ring.reduce(1)]
        return Series._raw(self.ring, _div(one, self, len(self._coeffs)))

    def __pow__(self, e: int) -> Series:
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return (self ** (-e)).inverse()
        result = Series.one(self.ring, self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- structural operations --------------------------------------------

    def shift(self, t: int) -> Series:
        """Multiply by q^t, keeping the truncation order."""
        if t < 0:
            raise ValueError("shift must be >= 0")
        n = len(self._coeffs)
        return Series._raw(self.ring, [0] * min(t, n) + self._coeffs[: max(n - t, 0)])

    def extract_progression(self, k: int) -> Series:
        """Returns sum a(k n) q^n with order floor(order / k)."""
        if k < 1:
            raise ValueError("progression step must be >= 1")
        return Series._raw(self.ring, self._coeffs[::k])

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        ring = "Z" if self.ring.is_exact else {"mod": self.ring.modulus}
        return {"ring": ring, "order": self.order, "coeffs": list(self._coeffs)}


def _div(num: list, den: Series, out_len: int) -> list:
    d0, m = den[0] if den else 0, den.ring.modulus
    if m is None:
        if d0 not in (1, -1):
            raise ValueError(f"constant term {d0} is not a unit in ZZ")
        return kernels.div_exact(num, den._coeffs, out_len)
    if gcd(d0, m) != 1:
        raise ValueError(f"constant term {d0} is not a unit mod {m}")
    return kernels.div_mod(num, den._coeffs, out_len, m, den_terms=den._terms)

