"""Built-in claim registry: the congruences and series identities the
library verifies, with fixed ids for CLI addressing.

Every congruence claim is data: a tuple of instances, or a PrimeFamily
whose primes are residue classes.  A class not prime to its modulus holds
at most one prime, so leaving it out excludes that prime (2, 5 or 7).

Prime-family hypotheses are the sharp ones: the geometric sums behind
C-T2/C-T7 (1 + p + ... + p^(4k+3) and its cube version) vanish mod 5 only
when p mod 5 is not 0 or 1, and the C-T5c combination vanishes mod 7 for
all k only when p = 3 (mod 4) or p^2 != 1 (mod 7): the odd classes mod 28
prime to 7, except 1 and 13.  The regression tests exhibit counterexamples
(e.g. index 1331 = 11^3) for the unfiltered families.

Every identity claim is data too: instances whose sides are Terms, Builds
and Ops over module-level functions, so the registry holds no closure.
"""

from __future__ import annotations

import operator
from itertools import compress

# bench/tracer.py wraps registry.primes_up_to, so the name is kept here
from .arith import primes_up_to  # noqa: F401
from .claims import ZERO, Build, CongruenceClaim, IdentityClaim, Instance, Op, PrimeFamily, Term
from .products import (
    EtaQuotientSpec,
    ThetaSpec,
    eta_quotient,
    euler_product,
    jacobi_cube,
    one_plus_q_product,
    phi,
    phi_five_dissection_residual,
    theta_f_product,
    theta_f_series,
)
# bench/tracer.py wraps registry.sequence_series and
# registry.oracle_regular_overpartition, so both names are kept here
from .sequences import (  # noqa: F401
    SequenceRef,
    oracle_regular_overpartition,
    oracle_regular_overpartition_table,
    sequence_series,
)
from .series import Series

# -- congruence claims -------------------------------------------------------


def _a(ell):
    return SequenceRef("A", ell)


def _congruence_claims() -> list[CongruenceClaim]:
    pbar = SequenceRef("pbar")
    return [
        CongruenceClaim("C-SHEN-1", (Instance((), 2, Term(_a(3), 4, 1), ZERO),), "Shen (2016)"),
        CongruenceClaim("C-SHEN-2", (Instance((), 6, Term(_a(3), 4, 3), ZERO),), "Shen (2016)"),
        CongruenceClaim("C-SHEN-3", (Instance((), 6, Term(_a(3), 9, 3), ZERO),), "Shen (2016)"),
        CongruenceClaim("C-SHEN-4", (Instance((), 24, Term(_a(3), 9, 6), ZERO),), "Shen (2016)"),
        CongruenceClaim(
            "C-T1",
            (Instance((), 5, Term(_a(5)), Term(SequenceRef("r", 4), sign_twist=True)),),
            "5-regular overpartitions vs four squares",
        ),
        CongruenceClaim(
            "C-T2",
            PrimeFamily(_a(5), 5, c=1, e=3, s=4, classes=(10, (3, 7, 9))),
            "vanishing d*(p^(4k+3)) mod 5",
        ),
        CongruenceClaim(
            "C-EX1", (Instance((), 5, Term(_a(5), 81, 27), ZERO),), "C-T2 at p=3, k=0, i=1"
        ),
        CongruenceClaim(
            "C-T3",
            PrimeFamily(_a(5), 5, c=1, e=1, s=0, classes=(10, (9,))),
            "1 + p = 0 mod 5 for p = 9 mod 10",
        ),
        CongruenceClaim(
            "C-EX2", (Instance((), 5, Term(_a(5), 361, 19), ZERO),), "C-T3 at p=19, i=1"
        ),
        CongruenceClaim(
            "C-GEN",
            tuple(
                Instance(
                    (("ell", ell),),
                    ell,
                    Term(_a(ell)),
                    Term(SequenceRef("r", ell - 1), sign_twist=True),
                )
                for ell in (3, 7)
            ),
            "prime-regular overpartitions vs squares",
        ),
        CongruenceClaim(
            "C-T5a",
            PrimeFamily(_a(3), 3, c=1, e=1, s=2, classes=(4, (3,))),
            "r_2 divisor sum vanishes at p^(2k+1), p = 3 mod 4",
        ),
        CongruenceClaim(
            "C-T5b",
            PrimeFamily(_a(3), 3, c=1, e=2, s=3, classes=(4, (1,))),
            "r_2 divisor count 3(k+1) at p^(3k+2), p = 1 mod 4",
        ),
        CongruenceClaim(
            "C-T5c",
            PrimeFamily(
                _a(7), 7, c=1, e=5, s=6, classes=(28, (3, 5, 9, 11, 15, 17, 19, 23, 25, 27))
            ),
            "r_6 divisor sums vanish at p^(6k+5)",
        ),
        CongruenceClaim(
            "C-A9",
            (Instance((), 3, Term(_a(9)), Term(SequenceRef("r", 8), sign_twist=True)),),
            "9-regular overpartitions vs eight squares",
        ),
        CongruenceClaim(
            "C-T6",
            (Instance((), 5, Term(_a(25), 5), Term(SequenceRef("sigma3m"))),),
            "25-regular overpartitions vs signed cube divisor sum",
        ),
        CongruenceClaim(
            "C-T7",
            PrimeFamily(_a(25), 5, c=5, e=3, s=4, classes=(10, (3, 7, 9))),
            "vanishing sigma3m(p^(4k+3)) mod 5",
        ),
        CongruenceClaim(
            "C-T8",
            PrimeFamily(_a(25), 5, c=5, e=1, s=0, classes=(10, (9,))),
            "1 + p^3 = 0 mod 5 for p = 9 mod 10",
        ),
        CongruenceClaim(
            "C-T9",
            (Instance((), 5, Term(_a(125), 25), Term(_a(125), 625)),),
            "125-regular overpartition self-similarity",
        ),
        CongruenceClaim(
            "C-T10",
            tuple(
                Instance((("alpha", alpha), ("i", i)), 5, Term(_a(5**alpha), 625, i), ZERO)
                for alpha in (4, 5)
                for i in (125, 500)
            ),
            "overpartition vanishing on 625n+125, 625n+500",
        ),
        CongruenceClaim(
            "C-T11",
            tuple(
                Instance(
                    (("alpha", alpha),), 5, Term(_a(5**alpha), 25), Term(_a(5 ** (alpha + 2)), 625)
                )
                for alpha in (2, 3)
            ),
            "power-of-5 regular overpartition self-similarity",
        ),
        CongruenceClaim(
            "C-T12",
            tuple(
                Instance(
                    (("alpha", alpha), ("j", j), ("i", i)),
                    5,
                    Term(_a(5**alpha), 25**j * 625, 25**j * i),
                    ZERO,
                )
                for alpha in (4, 5, 6)
                for j in range((alpha - 4) // 2 + 1)
                for i in (125, 500)
            ),
            "iterated 25-scaling of C-T10",
        ),
        CongruenceClaim(
            "C-CHEN-1",
            tuple(Instance((("s", s),), 5, Term(pbar, 625, 125 * s), ZERO) for s in (1, -1)),
            "Chen et al. (2015), Eq. (5.3)",
        ),
        CongruenceClaim(
            "C-CHEN-2",
            (Instance((), 5, Term(pbar, 25), Term(pbar, 625)),),
            "Chen et al. (2015), Thm 1.5",
        ),
        CongruenceClaim(
            "C-CHEN-3",
            tuple(Instance((("i", i),), 5, Term(pbar, 625, i), ZERO) for i in (125, 500)),
            "Chen et al. (2015), Eq. (5.3)",
        ),
    ]


# -- identity claims ---------------------------------------------------------


def regular_overpartition_quotient(ell: int) -> EtaQuotientSpec:
    """The generating-function eta quotient of ell-regular overpartitions:
    (q^l;q^l)^2 (q^2;q^2) / (q;q)^2 (q^2l;q^2l)."""
    return EtaQuotientSpec(0, ((ell, 2), (2, 1), (1, -2), (2 * ell, -1)))


def _oracle_series(ell, ring, order):
    return Series(ring, oracle_regular_overpartition_table(ell, order))


def _eta(*factors) -> Build:
    """The side of the eta quotient of factors, with no q prefactor."""
    return Build(eta_quotient, (EtaQuotientSpec(0, factors),))


def _overpartition_product(ring, order):
    """prod (1 + q^n) for n = 1..order."""
    return one_plus_q_product(range(1, order + 1), ring, order)


_OVERPARTITION_QUOTIENT = EtaQuotientSpec(0, ((2, 1), (1, -2)))

# psi(q) = f(q, q^3) = sum q^(n(n+1)/2); phi(x^2) = f(x^2, x^2) and
# psi(x^4) = f(x^4, x^12), the two parts of phi(q) = phi(q^4) + 2q psi(q^8)
# at q^2 = x
_PSI = ThetaSpec(1, 1, 1, 3)
_PHI_X2 = ThetaSpec(1, 2, 1, 2)
_PSI_X4 = ThetaSpec(1, 4, 1, 12)


def _build_core(ring, order, step=1):
    """The eta core that I-GF125 and I-ALPHA read: the step-progression of
    (q^2;q^2)/(q;q)^2 = psi(q)^2 / (q^2;q^2)^3 to order.

    Gauss gives psi(q) = (q^2;q^2)^2/(q;q), and Ramanujan (Berndt,
    Notebooks III, p. 40, Entry 25) psi(q)^2 = phi(q) psi(q^2) and
    phi(q) = phi(q^4) + 2q psi(q^8).  So with G(x) = psi(x)/(x;x)^3 the
    core is E(q^2) + q O(q^2), E = phi(x^2) G and O = 2 psi(x^4) G: one
    division by Jacobi's sparse cube, to order // 2.  The progression reads
    E at x = step*n/2 for even step*n and O at x = (step*n - 1)/2 for odd,
    so only those x of E and O are formed (_theta_times).  The core reads
    no theta series of phi(-q), so it shares no construction with the pbar
    side."""
    half = order // 2
    g = theta_f_series(_PSI, ring, half) / jacobi_cube(1, ring, half)
    count = order // step + 1
    if step % 2 == 0:
        return Series(ring, _theta_times(_PHI_X2, g, 0, step // 2, count))
    values = [0] * count
    values[::2] = _theta_times(_PHI_X2, g, 0, step, (count + 1) // 2)
    odd = _theta_times(_PSI_X4, g, (step - 1) // 2, step, count // 2)
    values[1::2] = [2 * v for v in odd]
    return Series(ring, values)


def _theta_times(spec, g, r, d, count):
    """The coefficients of x^(r + d t) for t < count in theta * g, theta
    the theta series of spec, as unreduced ints.

    A term c x^e of theta meets g at x^(r + d t - e) = x^(j + d u) with
    j = (r - e) mod d and u = t - k, k = (e - r + j) / d >= 0.  So the
    terms of one class j form a sparse series sum c y^k, and its product
    with g's class j, sum g[j + d u] y^u, is their share: one Series
    product of count coefficients per class."""
    if not count:
        return []
    ring = g.ring
    theta = theta_f_series(spec, ring, r + d * (count - 1))[:]
    classes = {}
    for e in compress(range(len(theta)), theta):
        j = (r - e) % d
        if j not in classes:
            classes[j] = [0] * count
        classes[j][(e - r + j) // d] = theta[e]
    padded = g[:] + [0] * d  # so that each class of g has count coefficients
    shares = [
        (Series._raw(ring, sparse) * Series._raw(ring, padded[j::d]))[:]
        for j, sparse in classes.items()
    ]
    return list(map(sum, zip(*shares)))


def _gf_extracted(ell, step) -> Op:
    """The side of the step*n coefficients of the eta quotient, not of the
    A table: core, the step*n extraction of (q^2;q^2)/(q;q)^2 that the plan
    reads from _build_core, times (q^r;q^r)^2/(q^2r;q^2r), r = ell/step.

    step must divide ell.  Then the factor (q^ell;q^ell)^2/(q^2ell;q^2ell)
    is a series in q^step, so it commutes with the extraction and is
    evaluated at order instead of step*order.  _build_core, once per run,
    divides to step*order // 2 and forms only the core's step-progression."""
    r = ell // step
    return Op(operator.mul, (Term(_build_core, step), _eta((r, 2), (2 * r, -1))))


def _identity_claims() -> list[IdentityClaim]:
    # phi(-q) as f(-q, -q), since the table sides are built from products.phi
    theta_phi = Build(theta_f_series, (ThetaSpec(-1, 1, -1, 1),))
    euler = Build(euler_product, (1,))
    return [
        IdentityClaim(
            "I-GF",
            tuple(
                Instance(
                    (("ell", ell),),
                    None,
                    Build(eta_quotient, (regular_overpartition_quotient(ell),)),
                    Build(_oracle_series, (ell,)),
                )
                for ell in (3, 4, 5, 9, 25)
            ),
            default_order=40,
            order_cap=40,
            source="Shen (2016) generating function",
        ),
        IdentityClaim(
            "I-QP",
            tuple(
                Instance(
                    (("p", p),),
                    p,
                    Op(operator.pow, (euler, p)),
                    Build(euler_product, (p,)),
                )
                for p in (3, 5, 7)
            ),
            default_order=500,
            source="binomial theorem (freshman's dream)",
        ),
        IdentityClaim(
            "I-PHI",
            (Instance((), None, Build(phi, (-1,)), _eta((1, 2), (2, -1))),),
            default_order=1000,
            source="Berndt, Ramanujan's Notebooks III, p. 37",
        ),
        IdentityClaim(
            "I-GF5",
            (Instance((), 5, Term(_a(5)), _eta((1, 8), (2, -4))),),
            default_order=1000,
            source="generating function reduced mod 5",
        ),
        IdentityClaim(
            "I-R25",
            (Instance((), 5, Term(_a(25), 5), Op(operator.pow, (theta_phi, 8))),),
            default_order=1000,
            source="via Treneer's overpartition congruence",
        ),
        IdentityClaim(
            "I-TRENEER",
            (Instance((), 5, Term(SequenceRef("pbar"), 5), Op(operator.pow, (theta_phi, 3))),),
            default_order=1000,
            source="Treneer (2006)",
        ),
        IdentityClaim(
            "I-GF125",
            (Instance((), 5**4, _gf_extracted(125, 125), Term(_a(125), 125)),),
            default_order=200,
            source="generating function of A_125(125n); the paper states it mod 5",
        ),
        IdentityClaim(
            "I-DISSECT",
            (Instance((), None, Build(phi_five_dissection_residual), ZERO),),
            default_order=1000,
            source="Berndt, Ramanujan's Notebooks III, p. 49",
        ),
        IdentityClaim(
            "I-TRIPLE",
            tuple(
                Instance(
                    (("a", a), ("b", b)),
                    None,
                    Build(theta_f_series, (ThetaSpec(1, a, 1, b),)),
                    Build(theta_f_product, (ThetaSpec(1, a, 1, b),)),
                )
                for a, b in ((3, 7), (1, 9))
            ),
            default_order=300,
            source="Jacobi triple product identity",
        ),
        IdentityClaim(
            "I-ALPHA",
            tuple(
                Instance((("alpha", a),), 5**4, _gf_extracted(5**a, 25), Term(_a(5**a), 25))
                for a in (2, 3, 4)
            ),
            default_order=200,
            source="generating function of A_(5^a)(25n); the paper states it mod 5",
        ),
        IdentityClaim(
            "I-PBAR",
            (
                Instance(
                    (),
                    None,
                    Op(operator.truediv, (Build(_overpartition_product), euler)),
                    Build(eta_quotient, (_OVERPARTITION_QUOTIENT,)),
                ),
            ),
            default_order=500,
            source="overpartition generating function",
        ),
    ]


def builtin_registry() -> list:
    """All claims in fixed order; congruences first, then identities."""
    return _congruence_claims() + _identity_claims()


def claims_by_id(ids) -> list:
    table = {c.id: c for c in builtin_registry()}
    missing = [i for i in ids if i not in table]
    if missing:
        raise KeyError(f"unknown claim: {', '.join(missing)}")
    return [table[i] for i in ids]
