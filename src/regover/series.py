"""Truncated formal power series in q over ZZ or ZZ/m.

A Series stores the dense coefficients of sum a(n) q^n for n = 0..order
(truncation order inclusive).  Exact coefficients are arbitrary-precision
ints; modular coefficients are kept as least nonnegative residues.  A Series
is immutable after construction and every operation returns a new one.

The store rule: over Zmod(m) with m <= ``kernels._BYTE_MODULI`` (128) the
residues are stored as bytes, one byte each, and otherwise, over ZZ
included, as a list of ints.  ``_store`` applies it to every constructor and
to ``_raw``, so the kernels' bytes outputs and the byte tables of
``sequences`` and ``claims`` are stored as they come.  The public API does
not show the store: ``coeffs`` and slices are lists, an index is an int, and
``==``, ``repr`` and ``to_json_obj`` read the same either way.  A scalar
product or a negation of a bytes store is one ``bytes.translate``.

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
        object.__setattr__(self, "_coeffs", _store(ring, coeffs))
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _raw(cls, ring: Ring, coeffs, terms: tuple | None = None) -> Series:
        """Internal fast path: coeffs already reduced, as bytes, a bytearray
        or a list, ownership transferred; stored by the store rule.  terms,
        given by the sparse constructors in ``products`` only, are the
        nonzero (index, coefficient) pairs of coeffs in increasing index."""
        s = object.__new__(cls)
        object.__setattr__(s, "ring", ring)
        object.__setattr__(s, "_coeffs", _store(ring, coeffs))
        object.__setattr__(s, "_terms", terms)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def coeffs(self) -> list:
        """Dense coefficient list, index n = coefficient of q^n.  A fresh
        copy on every access, so no caller can alter the series; index or
        slice the series to read part of it."""
        return list(self._coeffs)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def __getitem__(self, n: int | slice) -> int | list:
        value = self._coeffs[n]
        return list(value) if isinstance(value, bytes) else value

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
        c = _zeros(ring, order + 1)
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
        return self._scaled(-1)

    def _scaled(self, s: int) -> Series:
        """s times the series; a bytes store is translated by b -> s b mod m."""
        m = self.ring.modulus
        if isinstance(self._coeffs, bytes):
            return Series._raw(self.ring, self._coeffs.translate(kernels._scale_table(s % m, m)))
        red = self.ring.reduce
        return Series._raw(self.ring, [red(s * c) for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
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
        return Series._raw(self.ring, _zeros(self.ring, min(t, n)) + self._coeffs[: max(n - t, 0)])

    def extract_progression(self, k: int) -> Series:
        """Returns sum a(k n) q^n with order floor(order / k)."""
        if k < 1:
            raise ValueError("progression step must be >= 1")
        return Series._raw(self.ring, self._coeffs[::k])

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        ring = "Z" if self.ring.is_exact else {"mod": self.ring.modulus}
        return {"ring": ring, "order": self.order, "coeffs": list(self._coeffs)}


def _store(ring: Ring, coeffs) -> bytes | list:
    """The store rule: least residues mod m <= kernels._BYTE_MODULI as bytes,
    any other coefficients as a list; coeffs already of that type are kept
    as they are."""
    m = ring.modulus
    if m is not None and m <= kernels._BYTE_MODULI:
        return coeffs if type(coeffs) is bytes else bytes(coeffs)
    return coeffs if type(coeffs) is list else list(coeffs)


def _zeros(ring: Ring, n: int) -> bytearray | list:
    """n zero coefficients of ring, to fill in place and hand to Series._raw:
    a bytearray where the store is bytes, else a list."""
    m = ring.modulus
    return bytearray(n) if m is not None and m <= kernels._BYTE_MODULI else [0] * n


def _div(num, den: Series, out_len: int) -> bytes | list:
    d0, m = den[0] if den else 0, den.ring.modulus
    if m is None:
        if d0 not in (1, -1):
            raise ValueError(f"constant term {d0} is not a unit in ZZ")
        return kernels.div_exact(num, den._coeffs, out_len)
    if gcd(d0, m) != 1:
        raise ValueError(f"constant term {d0} is not a unit mod {m}")
    return kernels.div_mod(num, den._coeffs, out_len, m, den_terms=den._terms)

