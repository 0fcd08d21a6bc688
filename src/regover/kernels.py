"""Truncated power series kernels: packed modular kernels and plain-loop
exact kernels, in pure Python.

``mul_mod``, ``div_mod``, ``mul_exact`` and ``div_exact`` are the only
kernel implementation.  ``series`` and ``arith`` call them as attributes of
this module and none of them calls another, so wrapping the four attributes
(as ``bench/tracer.py`` does) sees every kernel call exactly once.
Coefficient lists may be shorter or longer than ``out_len`` (missing entries
are zero, extra ones are ignored); outputs have exactly ``out_len`` entries.
Modular results are least nonnegative residues.

``mul_mod`` and ``div_mod`` take lists of least residues mod m, as every
``Series`` over Zmod(m) holds them, and read them as they are: they make no
reduced copy of an operand.  An operand's terms (``a_terms``, ``b_terms``,
``den_terms``), when given, are exactly its nonzero (index, residue) pairs
in increasing index, which the sparse constructors in ``products`` record as
they build a series.  A kernel reads them only for the operand it steps
through term by term, cut at out_len, and then does not scan that operand
for its nonzeros.

Residues mod m <= 128 (``_BYTE_MODULI``) are one byte each inside the
kernels, and ``_unpack`` alone decides it: it returns the reduced fields of
a packed int as bytes for such m and as a list of ints above.  Bytes are
reduced by ``_residue_bytes``, a sum of scaled byte columns mod m: each
column is mapped by the 256-entry ``bytes.translate`` table b -> b * s mod
m of its scale s (``_scale_table``), the mapped columns are added as ints,
the sum is reduced early only when one more column could carry a byte past
255, and one more translate reduces it.  A packed int's byte planes are
such columns: byte j of every field, scaled by 256**j mod m.  The cut is
128 because then two residues sum to at most 254, so a reduced sum can
always take one more column; above it, up to m = 256, one column still
reduces by translate and several are summed entry by entry.  ``_pack``
packs bytes, or a list whose entries all fit a byte, by widening them into
their fields with one strided slice assignment; other lists go through an
array.  Outputs are lists of ints.  The paper's mod-625 and mod-840 tables
stay lists, reduced field by field with ``%``, since their residues do not
fit a byte.  The sieve tables of ``regover.sequences`` are bytes up to m =
256, and are scaled and summed with the same two helpers.

When m is past CPython's small-int cache (m > 256) and out_len >= m, a
modular output holds one shared int object per residue, from one
list(range(m)) per call, in place of a fresh 32-byte int per entry above
256.  Otherwise the list path reduces entries one by one: residues up to
256 are cached ints already, and a list of m ints would outweigh an output
shorter than m.

``mul_exact`` and ``div_exact`` are plain loops over the nonzero terms:
the schoolbook product, and the recurrence
q[n] = den[0] * (num[n] - sum of v * q[n - k]) over the divisor's nonzero
tail terms v q**k.  Exact series run to a few thousand coefficients, where
each call takes milliseconds; a blocked quotient would pay off only from
about 10**4 coefficients.

The modular kernels use Kronecker substitution: a list of residues mod m
becomes one Python int with a fixed field width, so CPython's C big-int
arithmetic runs the inner loops.  Field-width rule: a field gets the
smallest width of 1, 2, 4 or 8 bytes, or else the smallest whole number of
bytes, that holds the largest value it can reach, its load.  A field that
sums at most t products of two residues has load t * (m - 1)**2.  Then no
field carries into the next one, and the low fields unpack exactly.  A
packed int has one byte order: ``_pack`` puts entry i in field i, counted
from the low end, and ``_unpack`` returns field 0 first.  A caller that
needs coefficient 0 in the top field packs its list reversed and reverses
what it unpacks.  ``products.one_plus_q_product`` packs its exact
expansion by the same rule, ``_load_bytes`` of a bound on its
coefficients, and reads it back with ``_unpack``, reversed.

``mul_mod`` counts the zeros of both operands, truncated to out_len, and
packs the denser one; t is the nonzero count of the other, and on a tie the
other is the one whose terms are recorded.  The rule needs no terms, since
recorded terms are exactly an operand's nonzeros.  When the sparser operand
is sparse (see ``_SPARSE_RATIO``) it shift-adds a scaled copy of the packed
operand per nonzero term, from its recorded terms or else a scan;
otherwise it packs it too and does one big-int multiply.  The shift-add
packs the dense operand reversed and shifts it up to out_len fields, so
coefficient n sits in field out_len - 1 - n.  A term d q**j then adds
(d * packed) >> (j * width): the right shift drops exactly the products
that land at n >= out_len, and the accumulator never grows past out_len
fields.  Reversing the unpacked fields undoes the reversal.

``div_mod`` solves the quotient in blocks of ``_BLOCK`` coefficients.  The
inverse of the divisor mod q**_BLOCK comes from the sparse recurrence, once
per head of divisor terms, block and modulus (``_block_inverse``, a bounded
cache of tuples).  Each block is (numerator - carried) times that inverse,
one packed multiply, where "carried" is what earlier blocks contribute
through the divisor's tail.  Every modulus takes the same three steps: the
right-hand side is num + L - carried in every field, unpacked and so
reduced once, where the lift L is a multiple of m at least every field of
carried; it is packed and multiplied by the inverse, and the product is
unpacked to the block's quotient; the quotient is packed again at the push
width for the push.

The finished block is then pushed forward through the divisor's tail.  Each
tail residue v is read as its balanced b in (-m/2, m/2], v - m above m/2,
so a theta tail of 2s and -2s loads a field with 2 * (m - 1) per term, not
(m - 1)**2.  The tail terms are split by the sign of b and packed, in
increasing index, into push groups whose load, the sum of |b| * (m - 1)
over their terms, fits the push width.  For each term b q**k, |b| times
the block, packed at the push width, is added to its group's accumulator
("window") for the two blocks from k // _BLOCK blocks ahead, shifted left
by k mod _BLOCK fields; for k < _BLOCK only the part that lands in the next
block is added, shifted right by _BLOCK - k fields, since the block
inverse already accounts for the part in the block itself.  What lands
past out_len is never read.

Carried is offset + (plus groups) - (minus groups) in every field, where
the offset is the least multiple of m at or above the minus groups' total
load.  So each field is nonnegative, congruent to the sum of b * q[n - k]
mod m, and at most the lift L, the least multiple of m at or above offset
+ the plus groups' total load.  Then num + L - carried needs no borrow
between fields and stays below L + m.  The solve width is the width of a
sum of _BLOCK products, grown only when L + m - 1 would not fit it.  A
group's window for block T is complete once block T - h has pushed, h
being the nearest hop among its terms (1 for k < _BLOCK).  It is then
folded into block T's sum and freed: its fields are split by masks into p
phases (fields r, r + p, r + 2p, ...), whose slots of p times the push
width fit the solve width, and added to or subtracted from that block's
phase sums.  A block's carried is the low half of its phase sums plus the
high half of the previous block's, interleaved into solve-width fields by
strided slice assignment.  The push width is the narrowest of 1, 2, 4 and
8 bytes below the solve width whose groups hold at least
``_PUSH_GROUP_TERMS`` terms on average, or else the solve width, with one
group per sign and a single phase.  Dividing by phi(-q) mod 625 pushes
through 2-byte fields in groups of 52 terms, where the solve width is 4.
"""

from array import array
from bisect import bisect_left
from functools import lru_cache
from itertools import compress, count

# Both set by measurement on divisions by phi(-q) and (q;q) and on random
# sparse-by-dense products, N = 2e3 to 1e5.  div_mod's block lengths 256 to
# 1024 time alike; from 2048 on, mod-5 and mod-7 fields outgrow 2 bytes.
# mul_mod shift-adds the sparser operand when its nonzero count t
# satisfies t * t <= _SPARSE_RATIO * (length of the other), which tracks
# the break-even against one big-int (Karatsuba) multiply.
_BLOCK = 512
_SPARSE_RATIO = 30
# div_mod pushes through fields narrower than its solve width only when
# its push groups hold at least this many tail terms on average, since each
# group costs a few big-int operations per block.  Measured dividing by
# phi(-q) to 1e5: 1-byte groups of ~10 terms (mod 13) beat 2-byte groups of
# 158, ~8 (mod 16) tie and ~7 (mod 17, 19) lose.
_PUSH_GROUP_TERMS = 8

# the largest modulus whose residues the kernels hold as bytes
_BYTE_MODULI = 128

# array typecode per field width; arrays hold native-order items, swapped
# to and from a packed int's little-endian fields on a big-endian host
_ARRAY_CODES = {array(code).itemsize: code for code in "QLIHB"}
_SWAP = array("H", [1]).tobytes() != b"\x01\x00"


def backend_name():
    """Kernel implementation label recorded with benchmark results."""
    return "pure-python"


def _load_bytes(load):
    """Bytes per field for fields that hold values up to load."""
    nbytes = max(1, load.bit_length() + 7 >> 3)
    return 1 << (nbytes - 1).bit_length() if nbytes <= 8 else nbytes


def _field_bytes(terms, m):
    """Bytes per field for a sum of `terms` products of residues mod m."""
    return _load_bytes(terms * (m - 1) ** 2)


def _push_groups(mags, minus, m, nbytes):
    """div_mod's push groups at nbytes per field: each tail term, in
    increasing index, joins the open group of its sign while that group's
    load, the sum of |b| * (m - 1) over its terms, still fits; else it opens
    a new one.  Returns each term's group and each group's sign (True for
    minus), or None when one term alone does not fit."""
    cap = 256**nbytes - 1
    if max(mags, default=1) * (m - 1) > cap:  # a field holds a residue too
        return None
    groups, signs = [], []
    load = [cap, cap]  # full, so each sign's first term opens a group
    last = [0, 0]
    for b, neg in zip(mags, minus):
        c = b * (m - 1)
        if load[neg] + c > cap:
            last[neg], load[neg] = len(signs), 0
            signs.append(neg)
        load[neg] += c
        groups.append(last[neg])
    return groups, signs


def _shared_residues(m, out_len):
    """One int object per residue mod m, shared by every entry of an output,
    when m is past CPython's small-int cache and the output has at least m
    entries; otherwise None, and entries are reduced one by one."""
    return list(range(m)) if 256 < m <= out_len else None


def _pack(residues, nbytes):
    """One int with residues[i] in field i, from bytes or a list of ints.
    Residues that all fit a byte pack as bytes, each the low byte of its
    field, placed by one strided slice assignment; others through an array
    of the field width."""
    try:
        residues = bytes(residues)
    except ValueError:  # a residue past 255
        code = _ARRAY_CODES.get(nbytes)
        if code is None:
            data = b"".join([c.to_bytes(nbytes, "little") for c in residues])
            return int.from_bytes(data, "little")
        fields = array(code, residues)
        if _SWAP:
            fields.byteswap()
        return int.from_bytes(fields, "little")
    fields = bytearray(len(residues) * nbytes)
    fields[::nbytes] = residues
    return int.from_bytes(fields, "little")


def _low_fields(x, size):
    """The low size bytes of x, little-endian."""
    return x.to_bytes(max(size, (x.bit_length() + 7) >> 3), "little")[:size]


@lru_cache(maxsize=256)
def _scale_table(s, m):
    """The translate table b -> b * s mod m, for m <= 256: its first m
    entries repeated, since b * s mod m has period m in b."""
    return (bytes([b * s % m for b in range(m)]) * (256 // m + 1))[:256]


def _residue_bytes(columns, scales, m):
    """sum(s * column) mod m <= 256 as bytes, entry by entry, for byte
    columns of one length and their scales s: each column is translated by
    _scale_table(s, m), the results are added as ints, reduced early
    whenever one more column could carry a byte past 255, and the sum is
    translated once more.  Past _BYTE_MODULI two residues can pass 255, so
    there several columns are summed entry by entry."""
    if m > _BYTE_MODULI and len(columns) > 1:
        columns = [c.translate(_scale_table(s, m)) for c, s in zip(columns, scales)]
        return bytes([v % m for v in map(sum, zip(*columns))])
    n = len(columns[0])
    reduce = _scale_table(1, m)
    acc = top = 0  # top bounds every byte of acc
    for column, s in zip(columns, scales):
        if top + m > 256:
            acc = int.from_bytes(acc.to_bytes(n, "little").translate(reduce), "little")
            top = m - 1
        acc += int.from_bytes(column.translate(_scale_table(s, m)), "little")
        top += m - 1
    return acc.to_bytes(n, "little").translate(reduce)


def _unpack(x, n, nbytes, m=None, shared=None):
    """The low n fields of x, field 0 first, reduced mod m or as they are
    without m.  Residues mod m <= _BYTE_MODULI come as bytes, reduced by
    byte planes: plane j, byte j of every field, is a column scaled by
    256**j mod m.  Otherwise they come as a list, reduced field by field,
    as entries of `shared` when given."""
    size = n * nbytes
    data = _low_fields(x, size)
    if m is not None and m <= _BYTE_MODULI:
        planes = [data[j::nbytes] for j in range(nbytes)]
        return _residue_bytes(planes, [pow(256, j, m) for j in range(nbytes)], m)
    code = _ARRAY_CODES.get(nbytes)
    if code is None:
        fields = [int.from_bytes(data[i : i + nbytes], "little") for i in range(0, size, nbytes)]
    else:
        fields = array(code)
        fields.frombytes(data)
        if _SWAP:
            fields.byteswap()
    if m is None:
        return list(fields)
    if shared is None:
        return [f % m for f in fields]
    return [shared[f % m] for f in fields]


def _nonzero_terms(coeffs):
    """The nonzero (index, coefficient) terms of a list of ints, in
    increasing index."""
    return [(j, coeffs[j]) for j in compress(count(), coeffs)]


@lru_cache(maxsize=64)
def _block_inverse(head, block, m):
    """den**-1 mod q**block as a tuple of residues, by the sparse recurrence
    over den's head: its nonzero (index, residue) terms below block, the
    constant term first.  Cached, since eta_quotient divides by one
    divisor once per unit of its exponent."""
    (_, d0), *head = head
    inv0 = pow(d0, -1, m)
    inv = [inv0]
    for n in range(1, block):
        acc = 0
        for k, v in head:
            if k > n:
                break
            acc -= v * inv[n - k]
        inv.append(acc * inv0 % m)
    return tuple(inv)


def mul_mod(a, b, out_len, m, a_terms=None, b_terms=None):
    """Cauchy product of a and b mod m, truncated to out_len coefficients.

    a and b hold least residues mod m.  a_terms and b_terms, when given, are
    their nonzero (index, residue) terms in increasing index."""
    if out_len <= 0:
        return []
    a = a[:out_len] if len(a) > out_len else a
    b = b[:out_len] if len(b) > out_len else b
    na, nb = len(a) - a.count(0), len(b) - b.count(0)
    # b becomes the operand with the fewest nonzero terms, nb of them; a
    # tie prefers the operand whose terms are recorded
    if (na, a_terms is None) < (nb, b_terms is None):
        a, b, nb, b_terms = b, a, na, a_terms
    if not nb:
        return [0] * out_len
    nbytes = _field_bytes(nb, m)
    shared = _shared_residues(m, out_len)
    if nb * nb > _SPARSE_RATIO * len(a):
        acc = _pack(a, nbytes) * _pack(b, nbytes)
        return list(_unpack(acc, out_len, nbytes, m, shared))
    terms = _nonzero_terms(b) if b_terms is None else b_terms[: bisect_left(b_terms, (out_len,))]
    width = 8 * nbytes
    # a reversed, padded to out_len fields by the shift
    packed = _pack(a[::-1], nbytes) << (out_len - len(a)) * width
    del a, b  # free any truncated copies before the shift-adds
    scaled = {}
    acc = 0
    for j, d in terms:
        term = scaled.get(d)
        if term is None:
            term = scaled[d] = packed * d
        acc += term >> (j * width)
    out = list(_unpack(acc, out_len, nbytes, m, shared))
    out.reverse()
    return out


def mul_exact(a, b, out_len):
    """Cauchy product over exact integers, truncated to out_len coefficients."""
    nza = _nonzero_terms(a[:out_len])
    nzb = _nonzero_terms(b[:out_len])
    if len(nza) < len(nzb):
        nza, nzb = nzb, nza
    out = [0] * out_len
    for j, d in nzb:
        lim = out_len - j
        for i, c in nza:
            if i >= lim:
                break
            out[i + j] += c * d
    return out


def div_mod(num, den, out_len, m, den_terms=None):
    """Truncated quotient num/den mod m; den[0] must be invertible mod m.

    num and den hold least residues mod m.  den_terms, when given, are den's
    nonzero (index, residue) terms in increasing index."""
    pow(den[0] if den else 0, -1, m)  # raises ValueError when not a unit
    if out_len <= 0:
        return []
    end = min(len(den), out_len)
    terms = _nonzero_terms(den[:end]) if den_terms is None else den_terms
    tail = [k for k, _ in terms if 0 < k < end]
    vals = [v for k, v in terms if 0 < k < end]
    block = min(_BLOCK, out_len)
    shared = _shared_residues(m, out_len)
    head = tuple(terms[: bisect_left(terms, (min(block, end),))])
    inv = _block_inverse(head, block, m)
    # each tail residue v as its balanced b in (-m/2, m/2], |b| and a sign
    mags = [v if 2 * v <= m else m - v for v in vals]
    minus = [2 * v > m for v in vals]
    minus_load = (m - 1) * sum(compress(mags, minus))
    plus_load = (m - 1) * sum(mags) - minus_load
    # carried is offset + (plus groups) - (minus groups) in every field, at
    # most lift, so num + lift - carried is nonnegative and below lift + m
    offset = -(-minus_load // m) * m
    lift = -(-(offset + plus_load) // m) * m
    nbytes = max(_field_bytes(block, m), _load_bytes(lift + m - 1))
    packed_inv = _pack(inv, nbytes)
    for push in [w for w in (1, 2, 4, 8) if w < nbytes] + [nbytes]:
        layout = _push_groups(mags, minus, m, push)
        if push == nbytes or layout and len(tail) >= _PUSH_GROUP_TERMS * len(layout[1]):
            break
    groups, signs = layout
    nblocks = -(-out_len // block)
    # windows[g][T] collects group g's pushes into blocks T and T + 1.  A
    # term q**k adds |b| times the block to the window k // block ahead,
    # shifted left by k mod block fields, or for k < block only what lands
    # in the next block, shifted right by block - k fields.  So window T of
    # a group is complete once block T - first has pushed, first being its
    # nearest hop.
    windows = [[0] * nblocks for _ in signs]
    wins = [windows[g] for g in groups]
    near = bisect_left(tail, block)
    near_pushes = list(zip([(block - k) * 8 * push for k in tail[:near]], mags, wins))
    hops = [k // block for k in tail[near:]]
    shifts = [k % block * 8 * push for k in tail[near:]]
    far_pushes = list(zip(hops, shifts, mags[near:], wins[near:]))
    firsts = [nblocks] * len(signs)
    for g, hop in zip(groups, [1] * near + hops):
        firsts[g] = min(firsts[g], hop)
    # phase r of a window is its fields r, r + p, r + 2p, ... for p phases,
    # each in a slot of p * push >= nbytes bytes; one mask picks it.  p is
    # a power of two, at most 4 since a push field holds a residue, so it
    # divides the block.  sums[T] holds, per phase, offset in block T's
    # slots plus and minus the complete windows T of the groups; block t's
    # carried is the low half of sums[t] plus the high half of sums[t - 1].
    phases = 1 << (-(-nbytes // push) - 1).bit_length()
    slot = phases * push
    per_block = block // phases  # slots of a phase in one block
    half = per_block * slot * 8
    low_mask = (1 << half) - 1
    phase_mask = int.from_bytes((b"\xff" * push + bytes(slot - push)) * 2 * per_block, "little")
    offsets = [int.from_bytes(offset.to_bytes(slot, "little") * per_block, "little")] * phases
    sums = {}
    lifts = int.from_bytes(lift.to_bytes(nbytes, "little") * block, "little")
    q = []
    for t in range(nblocks):
        start = t * block
        size = min(block, out_len - start)
        for win, neg, first in zip(windows, signs, firsts):
            T = t - 1 + first
            if T < nblocks and win[T]:
                part, win[T] = win[T], 0
                acc = sums.setdefault(T, offsets[:])
                for r in range(phases):
                    f = part >> (8 * push * r) & phase_mask
                    acc[r] = acc[r] - f if neg else acc[r] + f
        cur = sums.get(t, offsets)
        prev = sums.pop(t - 1, None)
        lows = [(c & low_mask) + (p >> half) for c, p in zip(cur, prev or [0] * phases)]
        if phases == 1:
            carried = lows[0]
        else:
            # interleave the phase sums into nbytes fields
            wide = bytearray(size * nbytes)
            for r, phase in enumerate(lows):
                data = _low_fields(phase, len(range(r, size, phases)) * slot)
                for j in range(nbytes):
                    wide[r * nbytes + j :: phases * nbytes] = data[j::slot]
            carried = int.from_bytes(wide, "little")
        rhs = _unpack(_pack(num[start : start + size], nbytes) + lifts - carried, size, nbytes, m)
        solved = _unpack(_pack(rhs, nbytes) * packed_inv, size, nbytes, m, shared)
        packed = _pack(solved, push)
        q += solved
        scaled = {}
        if t + 1 < nblocks:
            for shift, v, win in near_pushes:
                term = scaled.get(v)
                if term is None:
                    term = scaled[v] = packed * v
                win[t + 1] += term >> shift
        for hop, shift, v, win in far_pushes[: bisect_left(hops, nblocks - t)]:
            term = scaled.get(v)
            if term is None:
                term = scaled[v] = packed * v
            win[t + hop] += term << shift
    return q


def div_exact(num, den, out_len):
    """Truncated quotient num/den over exact integers; den[0] must be ±1."""
    d0 = den[0] if den else 0
    if d0 not in (1, -1):
        raise ValueError("constant term of divisor must be 1 or -1")
    tail = _nonzero_terms(den[:out_len])[1:]
    q = []
    for n in range(out_len):
        acc = num[n] if n < len(num) else 0
        for k, v in tail:
            if k > n:
                break
            acc -= v * q[n - k]
        q.append(d0 * acc)
    return q
