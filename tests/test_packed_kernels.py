"""The packed modular kernels of ``regover.kernels`` against schoolbook
reference loops, bit for bit.

The references below are the plain O(N * nonzeros) loops the packed
kernels replaced; they are kept here only as the oracle.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from regover import kernels
from regover.claims import hunt
from regover.sequences import SequenceRef

B = kernels._BLOCK
MODULI = [2, 5, 24, 2**31 - 1, 2**40, 2**61 - 1]
OUT_LENS = [1, B - 1, B, B + 1, 2 * B + 1]


def _nonzero_mod(coeffs, limit, m):
    return [(i, v) for i, c in enumerate(coeffs[:limit]) if (v := c % m)]


def ref_mul_mod(a, b, out_len, m):
    nza = _nonzero_mod(a, out_len, m)
    nzb = _nonzero_mod(b, out_len, m)
    out = [0] * out_len
    for j, d in nzb:
        for i, c in nza:
            if i + j >= out_len:
                break
            out[i + j] = (out[i + j] + c * d) % m
    return out


def ref_div_mod(num, den, out_len, m):
    inv0 = pow((den[0] if den else 0) % m, -1, m)
    tail = [(k + 1, v) for k, v in _nonzero_mod(den[1:out_len], out_len - 1, m)]
    q = [0] * out_len
    for n in range(out_len):
        acc = num[n] if n < len(num) else 0
        for k, v in tail:
            if k > n:
                break
            acc -= v * q[n - k]
        q[n] = acc * inv0 % m
    return q


@st.composite
def coeff_lists(draw, max_len):
    """Random lists, possibly longer than the output, with negative entries
    and a drawn density; built from a seed so long lists stay cheap."""
    length = draw(st.integers(0, max_len))
    density = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    big = 10**20
    return [rng.randint(-big, big) if rng.random() < density else 0 for _ in range(length)]


@st.composite
def lacunary_divisors(draw, m):
    """A unit constant term plus a few tail terms at arbitrary positions,
    including multiples of the block length and hops over whole blocks."""
    head = draw(st.integers(-10**6, 10**6).filter(lambda h: _is_unit(h, m)))
    positions = draw(
        st.lists(
            st.one_of(
                st.integers(1, 3 * B + 2),
                st.sampled_from([B - 1, B, B + 1, 2 * B, 2 * B + 1, 3 * B]),
            ),
            max_size=12,
        )
    )
    den = [head] + [0] * max(positions, default=0)
    for k in positions:
        den[k] = draw(st.integers(-(m**2), m**2))
    return den


def _is_unit(c, m):
    try:
        pow(c % m, -1, m)
    except ValueError:
        return False
    return True


@given(
    st.data(),
    st.sampled_from(MODULI),
    st.one_of(st.sampled_from(OUT_LENS), st.integers(0, 80)),
)
@settings(max_examples=150, deadline=None)
def test_mul_mod_matches_schoolbook(data, m, out_len):
    a = data.draw(coeff_lists(out_len + 5))
    b = data.draw(coeff_lists(out_len + 5))
    assert kernels.mul_mod(a, b, out_len, m) == ref_mul_mod(a, b, out_len, m)


@given(
    st.data(),
    st.sampled_from(MODULI),
    st.one_of(st.sampled_from(OUT_LENS), st.integers(1, 80)),
)
@settings(max_examples=100, deadline=None)
def test_div_mod_matches_schoolbook(data, m, out_len):
    num = data.draw(coeff_lists(out_len + 5))
    den = data.draw(coeff_lists(out_len + 5))
    den[:1] = [data.draw(st.integers(-10**9, 10**9).filter(lambda h: _is_unit(h, m)))]
    assert kernels.div_mod(num, den, out_len, m) == ref_div_mod(num, den, out_len, m)


@given(st.data(), st.sampled_from(MODULI), st.sampled_from(OUT_LENS + [3 * B + 1, 4 * B + 1]))
@settings(max_examples=100, deadline=None)
def test_div_mod_lacunary_divisor_matches_schoolbook(data, m, out_len):
    num = data.draw(coeff_lists(out_len))
    den = data.draw(lacunary_divisors(m))
    assert kernels.div_mod(num, den, out_len, m) == ref_div_mod(num, den, out_len, m)


@pytest.mark.parametrize("m", MODULI)
def test_largest_field_sums_do_not_carry(m):
    # every residue m - 1 makes each packed field reach its worst case
    n = 2 * B + 1
    full = [-1] * n
    assert kernels.mul_mod(full, full, n, m) == ref_mul_mod(full, full, n, m)
    sparse = [-1 if k * k <= n or k % B == 0 else 0 for k in range(n)]
    assert kernels.mul_mod(full, sparse, n, m) == ref_mul_mod(full, sparse, n, m)
    den = [1] + [-1] * (n - 1)
    assert kernels.div_mod(full, den, n, m) == ref_div_mod(full, den, n, m)


@pytest.mark.parametrize("m, head", [(2, 0), (2, 4), (5, 10), (24, 6), (24, 9), (2**40, 2**20)])
@pytest.mark.parametrize("out_len", [0, 1, B + 1])
def test_div_mod_rejects_non_unit_constant_term(m, head, out_len):
    with pytest.raises(ValueError):
        kernels.div_mod([1, 2, 3], [head, 1], out_len, m)
    with pytest.raises(ValueError):
        ref_div_mod([1, 2, 3], [head, 1], out_len, m)


def test_empty_output():
    assert kernels.mul_mod([1, 2], [3], 0, 5) == []
    assert kernels.div_mod([1, 2], [3], 0, 5) == []


def test_hunt_at_bench_scale():
    # the rows bench/expected.json pins for the hunt workload
    assert hunt(SequenceRef("A", 5), 5, 100, 100000) == [(81, 27, 1235), (81, 54, 1234)]
