"""The packed modular kernels of ``regover.kernels`` against schoolbook
reference loops, bit for bit.

The references below are the plain O(N * nonzeros) loops the packed
kernels replaced; they are kept here only as the oracle.  They take any
integers, while the kernels take least residues, so negative and huge
draws are reduced here before a kernel sees them.
"""

import random
from collections import Counter
from itertools import product
from math import gcd, isqrt
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from regover import kernels
from regover.claims import hunt
from regover.products import jacobi_cube, phi
from regover.sequences import SequenceRef, sequence_series
from regover.series import Zmod

B = kernels._BLOCK
# the kernels hold residues mod m <= 128 as bytes and 129 is the first
# modulus they keep in lists; 256 is the last whose residues fit a byte,
# and 257 the first past CPython's small-int cache, where outputs of at
# least m entries share one object per residue
MODULI = [2, 3, 5, 7, 24, 127, 128, 129, 256, 257, 625, 840, 2**31 - 1, 2**40, 2**61 - 1]
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


def _residues(coeffs, m):
    return [c % m for c in coeffs]


def _terms(residues):
    """The nonzero (index, residue) terms of a residue list, as a sparse
    constructor records them; past out_len too."""
    return [(i, c) for i, c in enumerate(residues) if c]


def _as_list(out, m):
    """A kernel output mod m as a list, once it is checked to be in the
    store a Series over Zmod(m) keeps: bytes for m <= 128, else a list of
    ints."""
    if m <= kernels._BYTE_MODULI:
        assert type(out) is bytes
    else:
        assert type(out) is list and all(type(c) is int for c in out)
    return list(out)


def keyword_mul_mods(a, b, out_len, m):
    """mul_mod's outputs on the least residues of a and b, with the keywords
    a Series passes: each operand's terms or none."""
    x, y = _residues(a, m), _residues(b, m)
    return [
        _as_list(kernels.mul_mod(x, y, out_len, m, a_terms=a_terms, b_terms=b_terms), m)
        for a_terms, b_terms in product((None, _terms(x)), (None, _terms(y)))
    ]


def keyword_div_mods(num, den, out_len, m):
    """div_mod's outputs on the least residues of num and den, with the
    divisor's terms or none."""
    x, y = _residues(num, m), _residues(den, m)
    return [
        _as_list(kernels.div_mod(x, y, out_len, m, den_terms=den_terms), m)
        for den_terms in (None, _terms(y))
    ]


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
    expected = ref_mul_mod(a, b, out_len, m)
    assert all(out == expected for out in keyword_mul_mods(a, b, out_len, m))


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
    expected = ref_div_mod(num, den, out_len, m)
    assert all(out == expected for out in keyword_div_mods(num, den, out_len, m))


@given(st.data(), st.sampled_from(MODULI), st.sampled_from(OUT_LENS + [3 * B + 1, 4 * B + 1]))
@settings(max_examples=100, deadline=None)
def test_div_mod_lacunary_divisor_matches_schoolbook(data, m, out_len):
    num = data.draw(coeff_lists(out_len))
    den = data.draw(lacunary_divisors(m))
    expected = ref_div_mod(num, den, out_len, m)
    assert all(out == expected for out in keyword_div_mods(num, den, out_len, m))


@pytest.mark.parametrize("m", MODULI)
def test_largest_field_sums_do_not_carry(m):
    # every residue m - 1 makes each packed field reach its worst case
    n = 2 * B + 1
    full = [m - 1] * n
    sparse = [m - 1 if k * k <= n or k % B == 0 else 0 for k in range(n)]
    den = [1] + [m - 1] * (n - 1)
    for a, b in ((full, full), (full, sparse), (sparse, full)):
        expected = ref_mul_mod(a, b, n, m)
        assert all(out == expected for out in keyword_mul_mods(a, b, n, m))
    expected = ref_div_mod(full, den, n, m)
    assert all(out == expected for out in keyword_div_mods(full, den, n, m))


@pytest.mark.parametrize("layout", ["little", "big"])
@pytest.mark.parametrize("nbytes", [1, 2, 4, 8])
def test_byte_planes_reduce_like_mod(nbytes, layout):
    # every byte-path modulus, on the extreme field values and random ones;
    # _unpack reads field 0 first, so fields laid out big-endian, as the
    # shift-add of mul_mod lays them, read back reversed
    top = 256**nbytes - 1
    for m in range(2, kernels._BYTE_MODULI + 1):
        rng = random.Random(m * 16 + nbytes)
        fields = [0, m - 1, m, top] + [rng.randrange(top + 1) for _ in range(40)]
        x = int.from_bytes(b"".join(f.to_bytes(nbytes, layout) for f in fields), layout)
        out = kernels._unpack(x, len(fields), nbytes, m)
        if layout == "big":
            out = out[::-1]
        assert out == bytes(f % m for f in fields)


def test_byte_column_sums_reduce_like_mod():
    # 1 to 9 columns with random scales: a partial sum is reduced early once
    # k columns reach k * (m - 1) + m > 256, so at nine columns for every
    # m >= 30 and at three for m >= 87; above _BYTE_MODULI one column still
    # reduces by translate, and more are summed entry by entry
    for m in range(2, 257):
        rng = random.Random(m)
        for ncols in range(1, 10):
            columns = [bytes([0, 255, m - 1] + rng.choices(range(256), k=40)) for _ in range(ncols)]
            scales = [m - 1] + [rng.randrange(m) for _ in range(ncols - 1)]
            expected = bytes(sum(map(mul, scales, entries)) % m for entries in zip(*columns))
            assert kernels._residue_bytes(columns, scales, m) == expected, (m, ncols)


@pytest.mark.parametrize(
    "big, m",
    [(24, 3), (256, 128), (840, 5), (840, 8), (840, 105), (840, 210), (625, 125), (65537, 7),
     (2**32, 128), (2**40, 8), (2**40, 2**20)],
)
def test_reduce_takes_residues_into_the_store_of_m(big, m):
    # bytes come in when big <= 128; the byte planes serve lists mod up to
    # 2**32, and past that, or for m > 128, entries are reduced one by one
    rng = random.Random(big + m)
    residues = [0, 1, m - 1, m, big - 1] + [rng.randrange(big) for _ in range(300)]
    if big <= kernels._BYTE_MODULI:
        residues = bytes(residues)
    expected = [v % m for v in residues]
    for cut in (slice(None), slice(0), slice(3, None, 7)):
        assert _as_list(kernels._reduce(residues[cut], big, m), m) == expected[cut]


def test_scale_tables_map_every_byte_to_its_multiple_mod_m():
    # a read-back translates a group's residues mod its modulus, which may
    # exceed m, so every byte must map right, not only those below m
    for m in (2, 3, 5, 7, 105, 128, 129, 200, 255, 256):
        for s in range(m):
            assert kernels._scale_table(s, m) == bytes(b * s % m for b in range(256)), (s, m)


@pytest.mark.parametrize("layout", ["little", "big"])
@pytest.mark.parametrize("nbytes", [1, 2, 3, 8, 9])
def test_pack_puts_each_residue_in_its_field(nbytes, layout):
    # bytes, a list whose entries fit a byte, and one with an entry past 255;
    # _pack puts entry i in field i from the low end, so the big-endian
    # layout of mul_mod's shift-add is the pack of the reversed entries
    cases = [bytes([0, 1, 128, 255, 7]), [0, 1, 128, 255, 7]]
    if nbytes > 1:
        cases.append([0, 1, 300, 255, 7])
    for residues in cases:
        fields = b"".join(r.to_bytes(nbytes, layout) for r in residues)
        entries = residues if layout == "little" else residues[::-1]
        packed = kernels._pack(entries, nbytes)
        assert packed == int.from_bytes(fields, layout)
        assert list(kernels._unpack(packed, len(entries), nbytes)) == list(entries)


@pytest.mark.parametrize(
    "terms, m, nbytes",
    [
        (1, 2, 1),  # a sum of 1 needs one bit, and a field is at least a byte
        (1, 17, 2),  # 16^2 = 2^8 needs 9 bits
        (512, 5, 2),  # 512 * 4^2 = 2^13
        (1, 4096, 4),  # 4095^2 needs 3 bytes, rounded up to a power of two
        (512, 625, 4),  # 512 * 624^2 needs 28 bits
        (1, 65537, 8),  # 2^32 needs 5 bytes
        (1, 2**32 + 1, 9),  # 2^64 needs 9 bytes, past 8 kept as is
    ],
)
def test_field_bytes_on_hand_values(terms, m, nbytes):
    assert kernels._field_bytes(terms, m) == nbytes


@pytest.mark.parametrize("m, head", [(2, 0), (2, 4), (5, 10), (24, 6), (24, 9), (2**40, 2**20)])
@pytest.mark.parametrize("out_len", [0, 1, B + 1])
def test_div_mod_rejects_non_unit_constant_term(m, head, out_len):
    with pytest.raises(ValueError):
        kernels.div_mod([1, 2, 3], [head % m, 1], out_len, m)
    with pytest.raises(ValueError):
        ref_div_mod([1, 2, 3], [head, 1], out_len, m)


SPARSE_CASES = {
    # (dense, sparse, out_len), each at a boundary of the shift-add branch,
    # which packs the dense operand reversed and padded to out_len
    "term at out_len - 1": ([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], [2] + [0] * 10 + [7], 12),
    "lone term at out_len - 1": (list(range(1, 13)), [0] * 11 + [7], 12),
    "sparse longer than out_len": (list(range(2, 14)), [1, 0, 0, 4] + [0] * 10 + [5, 6], 12),
    "dense shorter than out_len": ([3, 1, 4, 1, 5], [1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3], 12),
    "dense shorter, sparse empty": ([3, 1, 4], [], 7),
    "empty dense": ([], [1, 2], 4),
    "both empty": ([], [], 3),
    "length one, out_len 1": ([3], [2], 1),
    "length one, out_len 5": ([3], [2], 5),
    "length one times sparse": ([-4], [0, 0, 6], 6),
    "negative inputs": ([-1, -2, -3, -4, -5, -6, -7, -8], [0, -3, 0, 0, -7], 10),
    "negative and huge": ([-(10**20) + k for k in range(9)], [-(10**19), 0, 0, 0, 0, 0, 0, 0, 1], 9),
}


@pytest.mark.parametrize("m", MODULI)
@pytest.mark.parametrize("case", SPARSE_CASES)
def test_sparse_product_boundaries(case, m):
    dense, sparse, out_len = SPARSE_CASES[case]
    # t * t <= _SPARSE_RATIO * len(dense) for t sparse terms, so mul_mod shift-adds
    assert len(_nonzero_mod(sparse, out_len, m)) ** 2 <= kernels._SPARSE_RATIO
    expected = ref_mul_mod(dense, sparse, out_len, m)
    assert all(out == expected for out in keyword_mul_mods(dense, sparse, out_len, m))
    assert all(out == expected for out in keyword_mul_mods(sparse, dense, out_len, m))


DIVISOR_CASES = {
    # (num, den, out_len): a divisor of length 1, one with a term at
    # out_len - 1, and one whose terms run past out_len
    "length one, out_len 1": ([4, 1, 5], [3], 1),
    "length one, out_len 7": ([4, 1, 5], [3], 7),
    "length one, past a block": (list(range(-3, B)), [-7], B + 2),
    "term at out_len - 1": (list(range(1, 13)), [1] + [0] * 10 + [6], 12),
    "terms past out_len": (list(range(1, 13)), [-1, 0, 2] + [0] * 12 + [5, 9], 12),
    "terms past a block": ([1] * (B + 3), [1] + [0] * (B + 1) + [3, 0, 0, 8], B + 3),
}


# every divisor head above (3, -7 and +-1) is a unit mod these
@pytest.mark.parametrize("m", [m for m in MODULI if gcd(m, 42) == 1])
@pytest.mark.parametrize("case", DIVISOR_CASES)
def test_divisor_boundaries(case, m):
    num, den, out_len = DIVISOR_CASES[case]
    expected = ref_div_mod(num, den, out_len, m)
    assert all(out == expected for out in keyword_div_mods(num, den, out_len, m))


N = 40
# phi(-q) and phi(q) mod 5 past q**N: seven nonzero terms below N each, on
# one support with different residues; ONE is Series.one's single term
PHI_MINUS, PHI_PLUS = (phi(sign, Zmod(5), N + 10)[:] for sign in (-1, 1))
ONE = [1] + [0] * (N + 10)
OPERANDS = {"a": (ONE, PHI_MINUS), "b": (PHI_MINUS, ONE), "tie": (PHI_MINUS, PHI_PLUS)}


@pytest.mark.parametrize("recorded", ["a", "b", "both", "neither"])
@pytest.mark.parametrize("sparser", OPERANDS)
def test_mul_mod_shift_adds_the_sparser_operand(monkeypatch, sparser, recorded):
    # mul_mod packs the operand with more nonzero terms below out_len and
    # shift-adds the other, whichever operand's terms are recorded; on a tie
    # it shift-adds the one with recorded terms, or b.  sparser "a" with
    # recorded "b" is Series.one(...) * phi, the first product of a power.
    a, b = OPERANDS[sparser]
    a_terms = _terms(a) if recorded in ("a", "both") else None
    b_terms = _terms(b) if recorded in ("b", "both") else None
    packs = []
    pack = kernels._pack

    def spy(residues, nbytes):
        packs.append(list(residues))
        return pack(residues, nbytes)

    monkeypatch.setattr(kernels, "_pack", spy)
    out = kernels.mul_mod(a, b, N, 5, a_terms=a_terms, b_terms=b_terms)
    assert _as_list(out, 5) == ref_mul_mod(a, b, N, 5)
    denser = b if sparser == "a" or (sparser == "tie" and recorded == "a") else a
    # reversed, so that coefficient 0 sits in the top field
    assert packs == [denser[:N][::-1]]


@pytest.mark.parametrize("m, n", [(625, 3 * 625), (840, 3 * 840), (2**31 - 1, 60)])
def test_outputs_share_one_object_per_residue(m, n):
    # past the small-int cache, an output of n >= m entries holds at most m
    # objects; with n < m every entry is reduced on its own, as before
    rng = random.Random(m)
    dense = _residues([rng.randrange(-(m**2), m**2) for _ in range(n)], m)
    sparse = [dense[k] if k % 41 == 0 else 0 for k in range(n)]
    head = dense[: 2 * isqrt(kernels._SPARSE_RATIO * n)]
    # times dense, sparse takes mul_mod's shift-add branch and head its
    # big-int multiply
    t_sparse, t_head = (len(_nonzero_mod(x, n, m)) for x in (sparse, head))
    assert t_sparse**2 <= kernels._SPARSE_RATIO * n < t_head**2
    den = [1] + sparse[1:]
    outputs = [
        (kernels.div_mod(dense, den, n, m), ref_div_mod(dense, den, n, m)),
        (kernels.mul_mod(dense, sparse, n, m), ref_mul_mod(dense, sparse, n, m)),
        (kernels.mul_mod(dense, head, n, m), ref_mul_mod(dense, head, n, m)),
    ]
    (_, div), (_, by_sparse), (_, by_head) = outputs
    outputs += [(out, div) for out in keyword_div_mods(dense, den, n, m)]
    outputs += [(out, by_sparse) for out in keyword_mul_mods(dense, sparse, n, m)]
    outputs += [(out, by_head) for out in keyword_mul_mods(dense, head, n, m)]
    for out, expected in outputs:
        assert _as_list(out, m) == expected
        assert len({id(v) for v in out}) <= m


def test_empty_output():
    # in the store of m: bytes for m <= 128, a list above
    for m in (5, 128, 129, 625):
        assert _as_list(kernels.mul_mod([1, 2], [3], 0, m), m) == []
        assert _as_list(kernels.div_mod([1, 2], [7], 0, m), m) == []


@pytest.mark.parametrize("m", [5, 128, 129, 625])
def test_a_zero_operand_gives_zeros_in_the_store(m):
    assert _as_list(kernels.mul_mod([1, 2, 3], [0, 0], 4, m), m) == [0] * 4
    assert _as_list(kernels.mul_mod([], [1], 3, m), m) == [0] * 3


def test_hunt_at_bench_scale():
    # the rows bench/expected.json pins for the hunt workload
    assert hunt(SequenceRef("A", 5), 5, 100, 100000) == [(81, 27, 1235), (81, 54, 1234)]


def test_byte_and_list_residues_agree_at_bench_scale():
    # each pair builds one table on the byte path (m <= 128) and on the list
    # path at a multiple of m: hunt's A_5 division, and pbar at the cut
    for ref, m, big_m, order in (
        (SequenceRef("A", 5), 5, 625, 10**5),
        (SequenceRef("pbar"), 128, 256, 2 * 10**4),
    ):
        small = sequence_series(ref, Zmod(m), order)[:]
        assert small == [c % m for c in sequence_series(ref, Zmod(big_m), order)[:]]


def test_hunts_table_hands_each_kernel_its_sparse_terms(monkeypatch):
    # a cost guard by count: hunt's A_5 table at 10**5 is one quotient
    # phi(-q^5) / phi(-q), with no pbar and no product built, and div_mod is
    # handed the O(sqrt(N)) terms of phi(-q), so it scans no sparse operand
    N = 10**5
    calls = []
    for name in ("mul_mod", "div_mod"):
        real = getattr(kernels, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append((_name, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
    sequence_series(SequenceRef("A", 5), Zmod(5), N)
    assert [name for name, _ in calls] == ["div_mod"]
    ((_, div),) = calls
    assert 0 < len(div["den_terms"]) <= isqrt(N) + 1


def _push_layouts(monkeypatch):
    """Every (push width, layout) div_mod tries, in order; the last one
    tried is the one it pushes through."""
    tried = []
    real = kernels._push_groups

    def spy(mags, minus, m, nbytes):
        layout = real(mags, minus, m, nbytes)
        tried.append((nbytes, layout))
        return layout

    monkeypatch.setattr(kernels, "_push_groups", spy)
    return tried


def _group_sizes(layout):
    """The term count of each push group, per sign (False for plus)."""
    groups, signs = layout
    sizes = Counter(groups)
    return {neg: [sizes[g] for g, s in enumerate(signs) if s == neg] for neg in (False, True)}


@pytest.mark.parametrize("m", [5, 127, 128, 129, 256, 257, 625, 840])
@pytest.mark.parametrize("mag", ["1", "2", "half"])
def test_capacity_filling_divisions(monkeypatch, m, mag):
    # every quotient coefficient is m - 1, so each field of each push group
    # reaches the group's load, sum |b| * (m - 1); the tail alternates +b
    # and -b (all +m/2 for even m and b = m/2) at every fourth index, so
    # greedy groups fill up to their width's capacity
    b = {"1": 1, "2": 2, "half": m // 2}[mag]
    n = 3 * B + 1
    den = [1] + [0] * (3 * B // 2)
    for j, k in enumerate(range(1, len(den), 4)):
        den[k] = (-b if j % 2 else b) % m
    quotient = [m - 1] * n
    num = ref_mul_mod(den, quotient, n, m)
    tried = _push_layouts(monkeypatch)
    assert all(out == quotient for out in keyword_div_mods(num, den, n, m))
    push, layout = tried[-1]
    per_term = b * (m - 1)
    by_sign = _group_sizes(layout)
    # b = m/2 is its own balanced residue, so that tail has no minus terms
    assert sum(by_sign[True]) == (0 if 2 * b == m else 96)
    for sizes in by_sign.values():
        # each group but a sign's last is full: one more term would not fit
        assert all((size + 1) * per_term > 256**push - 1 for size in sizes[:-1])



def test_solve_width_grows_for_a_long_heavy_tail():
    # m = 2897: 512 products fill 4 bytes to within 2**20, and a dense tail
    # of 1099 terms b = 1448 loads a field with 1099 * 1448 * 2896 > 2**32.
    # The quotient is all m - 1, so carried reaches that load at index
    # 3 * B, the first whose whole tail lies in earlier blocks, and the
    # solve width must grow to 8 bytes.  num = den * quotient is minus
    # den's prefix sums, since quotient = -1 / (1 - q) mod m.
    m, n = 2897, 3 * B + 1
    assert kernels._field_bytes(B, m) == 4
    den = [1] + [m // 2] * 1099
    num = [-sum(den[: i + 1]) % m for i in range(n)]
    assert all(out == [m - 1] * n for out in keyword_div_mods(num, den, n, m))
    # m = 12, where 512 products fill 2 bytes.  The plus terms b = 6 (990)
    # and 5 load 11 * 5945 = 65395, the three minus terms -4 load 132, a
    # multiple of 12 and so the offset, and their sum 65527 fits 2 bytes.
    # Lift it to 65532, the next multiple of 12: carried is at most that,
    # but num + 65532 - carried reaches 11 + 65532 > 65535 at index 3 * B,
    # where the minus terms see quotient 11 and the plus terms 0, so the
    # solve width must grow to 4 bytes.
    m = 12
    assert kernels._field_bytes(B, m) == 2
    den = [1] + [6] * 990 + [5] + [m - 4] * 3
    quotient = [0] * n
    for k in range(992, len(den)):
        quotient[3 * B - k] = m - 1
    rest = sum(den[k] * quotient[3 * B - k] for k in range(1, len(den)))
    quotient[3 * B] = (m - 1 - rest) % m
    num = ref_mul_mod(den, quotient, n, m)
    assert num[3 * B] == m - 1
    assert all(out == quotient for out in keyword_div_mods(num, den, n, m))

@pytest.mark.parametrize(
    "m, push, per_group",
    [
        (5, 1, 31),  # 31 * 2 * 4 <= 255: 1-byte fields, half the solve width
        (625, 2, 52),  # 52 * 2 * 624 <= 65535, solve width 4
        (840, 2, 39),
        (127, 2, 260),  # 1-byte groups would hold one term each
    ],
)
def test_theta_divisor_push_width(monkeypatch, m, push, per_group):
    # phi(-q) to 1e5: 316 tail terms, +-2 alternating, 158 per sign
    N = 10**5
    den = phi(-1, Zmod(m), N)
    tried = _push_layouts(monkeypatch)
    kernels.div_mod([1], den[:], N + 1, m, den_terms=list(den._terms))
    chosen, layout = tried[-1]
    assert chosen == push < kernels._field_bytes(B, m)
    for sizes in _group_sizes(layout).values():
        assert sum(sizes) == 158 and max(sizes) == min(per_group, 158)
        assert all(size == per_group for size in sizes[:-1])


def test_jacobi_cube_divisor_keeps_the_solve_width(monkeypatch):
    # (q;q)^3 mod 625, the identity core's divisor at half of 125000: |b|
    # up to 312, so one term's load 312 * 624 overflows 2 bytes, and the
    # push runs at the solve width, one group per sign
    N, m = 62500, 625
    den = jacobi_cube(1, Zmod(m), N)
    tried = _push_layouts(monkeypatch)
    kernels.div_mod([1], den[:], N + 1, m, den_terms=list(den._terms))
    assert [width for width, layout in tried if layout is not None] == [4]
    push, (groups, signs) = tried[-1]
    assert push == kernels._field_bytes(B, m) and sorted(signs) == [False, True]


def test_a_divisors_block_inverse_is_built_once():
    # eta_quotient divides by one divisor once per unit of its exponent; the
    # block inverse is cached by the divisor's terms below the block, the
    # block and the modulus, and the cache is bounded
    inverse = kernels._block_inverse
    inverse.cache_clear()
    den = phi(-1, Zmod(625), 3000)
    num = [n * n % 625 for n in range(3001)]
    first = _as_list(kernels.div_mod(num, den[:], 3001, 625, den_terms=list(den._terms)), 625)
    second = _as_list(kernels.div_mod(num, den[:], 3001, 625), 625)
    assert second == first == ref_div_mod(num, den[:], 3001, 625)
    assert (inverse.cache_info().misses, inverse.cache_info().hits) == (1, 1)
    # a tail past the block leaves the head, and so the inverse, as it is
    longer = den[:B] + [0] * B + [7]
    assert _as_list(kernels.div_mod(num, longer, 3001, 625), 625) == ref_div_mod(
        num, longer, 3001, 625
    )
    assert inverse.cache_info().misses == 1
    for m, out_len in ((5, 3001), (625, 100)):
        num_m, den_m = [c % m for c in num], [c % m for c in den[:]]
        out = kernels.div_mod(num_m, den_m, out_len, m)
        assert _as_list(out, m) == ref_div_mod(num_m, den_m, out_len, m)
    assert inverse.cache_info().misses == 3
    assert inverse.cache_info().maxsize is not None


def test_push_layouts_agree_at_bench_scale():
    # each pair divides by phi(-q) under two push layouts: pbar mod 3125
    # (2-byte groups of 10 terms, four phases per 8-byte field) against mod
    # 625 (groups of 52, two phases), and A_5 mod 125 (2-byte groups of 264
    # in 4-byte fields) against mod 5 (1-byte groups of 31 in 2-byte fields)
    for ref, m, big_m, order in (
        (SequenceRef("pbar"), 625, 3125, 2 * 10**4),
        (SequenceRef("A", 5), 5, 125, 10**5),
    ):
        small = sequence_series(ref, Zmod(m), order)[:]
        assert small == [c % m for c in sequence_series(ref, Zmod(big_m), order)[:]]
