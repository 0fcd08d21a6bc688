"""Truncated formal power series in q over ZZ or ZZ/m.

A Series stores the dense coefficient list of sum a(n) q^n for n = 0..order
(truncation order inclusive).  Exact coefficients are arbitrary-precision
ints; modular coefficients are kept as least nonnegative residues.  A Series
is immutable after construction and every operation returns a new one.
That alone does not make the package thread-safe: ``regover.sequences``
memoizes tables in ``_series_cache``, the one module-level table cache,
which is mutable and has no locking, so concurrent threads must not build
tables through it.  Only library callers of ``sequence_series``,
``sequence_table`` and ``sequence_value`` fill it; claim runs, hunts
included, read their tables from a ``regover.claims.TablePlan``, which
holds them for one run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import kernels


@dataclass(frozen=True)
class Ring:
    """Coefficient ring: exact integers (modulus None) or integers mod m."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2")

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

    __slots__ = ("ring", "_coeffs")

    def __init__(self, ring: Ring, coeffs=(), order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1 if coeffs else 0
        check_order(order)
        if len(coeffs) > order + 1:
            raise ValueError(
                f"{len(coeffs)} coefficients exceed order {order} (max {order + 1})"
            )
        coeffs = [ring.reduce(c) for c in coeffs]
        coeffs.extend([0] * (order + 1 - len(coeffs)))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_coeffs", coeffs)

    @classmethod
    def _raw(cls, ring: Ring, coeffs: list) -> Series:
        """Internal fast path: coeffs already reduced, ownership transferred."""
        s = object.__new__(cls)
        object.__setattr__(s, "ring", ring)
        object.__setattr__(s, "_coeffs", coeffs)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def coeffs(self) -> list:
        """Dense coefficient list, index n = coefficient of q^n.  A fresh
        copy on every access, so no caller can alter the series (or a
        cached table); index or slice the series to read part of it."""
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
    def zero(cls, ring: Ring, order: int) -> Series:
        check_order(order)
        return cls._raw(ring, [0] * (order + 1))

    @classmethod
    def one(cls, ring: Ring, order: int) -> Series:
        check_order(order)
        c = [0] * (order + 1)
        c[0] = ring.reduce(1)
        return cls._raw(ring, c)

    @classmethod
    def monomial(cls, ring: Ring, exponent: int, order: int, coefficient: int = 1) -> Series:
        check_order(order)
        c = [0] * (order + 1)
        if 0 <= exponent <= order:
            c[exponent] = ring.reduce(coefficient)
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
            out = kernels.mul_mod(self._coeffs, other._coeffs, n, m)
        return Series._raw(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_ring(other)
        n = min(len(self._coeffs), len(other._coeffs))
        return Series._raw(self.ring, _div(self._coeffs, other._coeffs, n, self.ring))

    def inverse(self) -> Series:
        """Multiplicative inverse up to the truncation order."""
        one = [self.ring.reduce(1)]
        return Series._raw(
            self.ring, _div(one, self._coeffs, len(self._coeffs), self.ring)
        )

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

    def truncate(self, order: int) -> Series:
        check_order(order)
        if order >= self.order:
            return self
        return Series._raw(self.ring, self._coeffs[: order + 1])

    def shift(self, t: int) -> Series:
        """Multiply by q^t, keeping the truncation order."""
        if t < 0:
            raise ValueError("shift must be >= 0")
        n = len(self._coeffs)
        return Series._raw(self.ring, [0] * min(t, n) + self._coeffs[: max(n - t, 0)])

    def substitute_power(self, k: int) -> Series:
        """q -> q^k: returns sum a(n) q^(k n), truncated at the same order."""
        if k < 1:
            raise ValueError("power substitution requires k >= 1")
        if k == 1:
            return self
        n = len(self._coeffs)
        out = [0] * n
        for i in range((n - 1) // k + 1):
            out[i * k] = self._coeffs[i]
        return Series._raw(self.ring, out)

    def extract_progression(self, k: int, r: int) -> Series:
        """Returns sum a(k n + r) q^n with order floor((order - r) / k)."""
        if k < 1:
            raise ValueError("progression step must be >= 1")
        if not 0 <= r < k:
            raise ValueError(f"residue {r} must satisfy 0 <= r < {k}")
        if r > self.order:
            raise ValueError(f"residue {r} exceeds truncation order {self.order}")
        return Series._raw(self.ring, self._coeffs[r :: k])

    def negate_variable(self) -> Series:
        """q -> -q: flips the sign of every odd-index coefficient."""
        red = self.ring.reduce
        return Series._raw(
            self.ring,
            [red(-c) if n & 1 else c for n, c in enumerate(self._coeffs)],
        )

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        ring = "Z" if self.ring.is_exact else {"mod": self.ring.modulus}
        return {"ring": ring, "order": self.order, "coeffs": list(self._coeffs)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> Series:
        ring = ZZ if obj["ring"] == "Z" else Zmod(obj["ring"]["mod"])
        return cls(ring, obj["coeffs"], obj["order"])


def _div(num: list, den: list, out_len: int, ring: Ring) -> list:
    d0 = den[0] if den else 0
    if ring.modulus is None:
        if d0 not in (1, -1):
            raise ValueError(f"constant term {d0} is not a unit in ZZ")
        return kernels.div_exact(num, den, out_len)
    if gcd(d0, ring.modulus) != 1:
        raise ValueError(f"constant term {d0} is not a unit mod {ring.modulus}")
    return kernels.div_mod(num, den, out_len, ring.modulus)

