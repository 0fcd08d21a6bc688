"""The exact kernels of ``regover.kernels`` against schoolbook reference
loops, bit for bit.

``div_exact`` runs the recurrence over the divisor's nonzero tail only,
skipping zero terms and stopping at the first term past n.  The reference
below walks every tail entry, zero or not, so a wrong cut-off or a
dropped term would show.  The hypothesis cases draw divisors with mixed
magnitudes and with one magnitude under random signs.  The block-edge cases
put tail terms, output lengths and numerator lengths around multiples of
``kernels._BLOCK`` (512, the block length of ``div_mod``); they exercise the
plain loop at those lengths with long big-int quotients.  The packed modular
kernels are tested in ``test_packed_kernels.py``.  The last test checks
that no kernel reaches another, which the kernels docstring promises.
"""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from regover import kernels

PHI_SHAPED = [1, 0, -2, 0, 0, 2, 0, 0, 0, -2]
PHI_PERTURBED = [1, 0, -2, 0, 0, 2, 0, 0, 0, -3]


def ref_mul_exact(a, b, out_len):
    out = [0] * out_len
    for i, c in enumerate(a[:out_len]):
        for j, d in enumerate(b[: out_len - i]):
            out[i + j] += c * d
    return out


def ref_div_exact(num, den, out_len):
    if not den or den[0] not in (1, -1):
        raise ValueError("constant term of divisor must be 1 or -1")
    q = [0] * out_len
    for n in range(out_len):
        acc = num[n] if n < len(num) else 0
        for k in range(1, min(n + 1, len(den))):
            acc -= den[k] * q[n - k]
        q[n] = acc * den[0]
    return q


coeff_lists = st.lists(st.integers(-(10**30), 10**30), max_size=60)
out_lens = st.integers(0, 80)


@st.composite
def unit_divisors(draw):
    """den[0] = +-1 and a tail of either mixed magnitudes or one magnitude
    with random signs (the shape of (q;q) and phi(-q))."""
    head = draw(st.sampled_from([1, -1]))
    length = draw(st.integers(0, 40))
    if draw(st.booleans()):
        tail = draw(st.lists(st.integers(-9, 9), min_size=length, max_size=length))
    else:
        g = draw(st.integers(1, 10**12))
        signs = draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=length, max_size=length))
        tail = [s * g for s in signs]
    return [head] + tail


@given(coeff_lists, coeff_lists, out_lens)
@settings(max_examples=150, deadline=None)
def test_mul_exact_matches_schoolbook(a, b, out_len):
    assert kernels.mul_exact(a, b, out_len) == ref_mul_exact(a, b, out_len)


@given(coeff_lists, unit_divisors(), out_lens)
@settings(max_examples=150, deadline=None)
def test_div_exact_matches_schoolbook(num, den, out_len):
    assert kernels.div_exact(num, den, out_len) == ref_div_exact(num, den, out_len)


@given(coeff_lists, st.integers(0, 60), st.sampled_from([1, -1]))
@settings(max_examples=80, deadline=None)
def test_div_exact_phi_shaped_divisor(num, out_len, head):
    # all tail entries +-2, as in phi(-q); the copy ending in -3 breaks that
    for den in (PHI_SHAPED, PHI_PERTURBED):
        den = [head] + den[1:]
        assert kernels.div_exact(num, den, out_len) == ref_div_exact(num, den, out_len)


def test_div_exact_three_magnitudes_negative_head():
    # tail magnitudes 1, 3 and 10**20 with both signs in each, den[0] = -1
    den = [-1, 3, 0, -1, 10**20, -3, 0, 1, -(10**20), 0, 3]
    num = [5, -7, 0, 2, 10**25, 0, 0, -1]
    for out_len in (0, 1, 4, 11, 40):
        assert kernels.div_exact(num, den, out_len) == ref_div_exact(num, den, out_len)


@given(coeff_lists, unit_divisors())
@settings(max_examples=100, deadline=None)
def test_division_inverts_multiplication(num, den):
    n = len(num)
    assert kernels.mul_exact(kernels.div_exact(num, den, n), den, n) == num


B = kernels._BLOCK
EDGE_LENS = (1, B - 1, B, B + 1, 2 * B + 1, 3 * B)
EDGE_KS = (1, B - 1, B, B + 1, 2 * B, 2 * B + 1)
BEYOND = 3 * B + 1  # a tail term past every out_len drawn
MAGNITUDES = (1, 2, 3, 10**20)
NUM_LENS = (3, B + 2, 4 * B)  # shorter and longer than out_len


def _numerator(seed, length):
    rng = random.Random(seed)
    return [rng.randint(-(10**30), 10**30) for _ in range(length)]


@st.composite
def block_edge_divisors(draw):
    """den[0] = +-1, tail terms on some of the block-edge offsets and one
    past every out_len, each of a magnitude from MAGNITUDES with either
    sign.  The term at k = 1 stays small: 10**20 there would grow the
    quotient by 20 digits per coefficient and only slow the reference."""
    den = [draw(st.sampled_from([1, -1]))] + [0] * BEYOND
    for k in sorted(draw(st.sets(st.sampled_from(EDGE_KS), min_size=1)) | {BEYOND}):
        g = draw(st.sampled_from(MAGNITUDES if k > 1 else MAGNITUDES[:-1]))
        den[k] = g * draw(st.sampled_from([1, -1]))
    return den


@given(
    block_edge_divisors(),
    st.sampled_from(EDGE_LENS),
    st.sampled_from(NUM_LENS),
    st.integers(0, 2**32),
)
@settings(max_examples=30, deadline=None)
def test_div_exact_across_block_edges(den, out_len, num_len, seed):
    num = _numerator(seed, num_len)
    assert kernels.div_exact(num, den, out_len) == ref_div_exact(num, den, out_len)


@pytest.mark.parametrize("g", MAGNITUDES)
@pytest.mark.parametrize("head", [1, -1])
def test_div_exact_one_magnitude_both_signs_on_every_edge(g, head):
    # den[1] = -1 keeps the quotient small whatever g is
    den = [head, -1] + [0] * BEYOND
    for i, k in enumerate(EDGE_KS[1:] + (BEYOND,)):
        den[k] = g if i % 2 else -g
    for num_len in (3, 4 * B):
        num = _numerator(num_len, num_len)
        assert kernels.div_exact(num, den, 3 * B) == ref_div_exact(num, den, 3 * B)


def test_div_exact_dense_divisor_across_two_blocks():
    rng = random.Random(5)
    den = [-1] + [rng.randint(-3, 3) for _ in range(2 * B)]
    num = _numerator(6, B)
    n = 2 * B + 1
    assert kernels.div_exact(num, den, n) == ref_div_exact(num, den, n)


@given(block_edge_divisors(), st.integers(0, 2**32))
@settings(max_examples=10, deadline=None)
def test_block_division_inverts_multiplication(den, seed):
    n = 2 * B + 1
    num = _numerator(seed, n)
    assert kernels.mul_exact(kernels.div_exact(num, den, n), den, n) == num


@pytest.mark.parametrize("den", [[], [0], [2, 1], [-2], [0, 1, 1], [3, 0, -2]])
@pytest.mark.parametrize("out_len", [0, 1, 4])
def test_div_exact_rejects_non_unit_constant_term(den, out_len):
    with pytest.raises(ValueError):
        kernels.div_exact([1, 2, 3], den, out_len)
    with pytest.raises(ValueError):
        ref_div_exact([1, 2, 3], den, out_len)


def test_backend_name():
    assert kernels.backend_name() == "pure-python"


KERNELS = {"mul_mod", "div_mod", "mul_exact", "div_exact"}


def test_no_kernel_reaches_another():
    # series and arith call the four kernels as module attributes, and
    # bench/tracer.py counts one span per kernel call: a kernel that used
    # another, directly or through a helper, would be counted twice
    tree = ast.parse(Path(kernels.__file__).read_text())
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    uses = {
        name: {n.id for n in ast.walk(f) if isinstance(n, ast.Name) and n.id in defs}
        for name, f in defs.items()
    }
    assert KERNELS <= set(defs)
    for kernel in KERNELS:
        reached, todo = set(), list(uses[kernel])
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo += uses[name]
        assert not reached & KERNELS, kernel
