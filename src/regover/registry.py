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
"""

from __future__ import annotations

# bench/tracer.py wraps registry.primes_up_to, so the name is kept here
from .arith import primes_up_to  # noqa: F401
from .claims import ZERO, CongruenceClaim, IdentityClaim, Instance, PrimeFamily, Read, Term
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
from .series import Series, ZZ, Zmod

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


def _oracle_series(ring, order, ell):
    return Series(ring, oracle_regular_overpartition_table(ell, order))


def _gf_lhs(ring, order, ell):
    return eta_quotient(regular_overpartition_quotient(ell), ring, order)


_OVERPARTITION_QUOTIENT = EtaQuotientSpec(0, ((2, 1), (1, -2)))

# psi(q) = f(q, q^3) = sum q^(n(n+1)/2)
_PSI = ThetaSpec(1, 1, 1, 3)


def _build_core(ring, order, step=1):
    """The eta core that I-GF125 and I-ALPHA read: the step-progression of
    (q^2;q^2)/(q;q)^2 to order, built whole as psi(q)^2 / (q^2;q^2)^3.

    Gauss gives psi(q) = (q^2;q^2)^2/(q;q), so one division by Jacobi's
    sparse cube replaces two by (q;q).  psi is squared over ZZ, where the
    product is a sparse pair loop, and reduced into ring once; psi itself
    is dropped before the division.  The core reads no theta series of
    phi(-q), so it shares no construction with the pbar side."""
    psi = theta_f_series(_PSI, ZZ, order)
    square = Series(ring, (psi * psi)[:])
    del psi
    return (square / jacobi_cube(2, ring, order)).extract_progression(step, 0)


def _gf_extracted(ell, step, ring, order, core):
    """The step*n coefficients of the eta quotient, not of the A table:
    (q^r;q^r)^2/(q^2r;q^2r) times core, the step*n extraction of
    (q^2;q^2)/(q;q)^2 to order, with r = ell/step.

    step must divide ell.  Then the factor (q^ell;q^ell)^2/(q^2ell;q^2ell)
    is a series in q^step, so it commutes with the extraction and is
    evaluated at order instead of step*order.  Of the two factors only the
    core is expanded to step*order, by _build_core once per run."""
    r = ell // step
    outer = eta_quotient(EtaQuotientSpec(0, ((r, 2), (2 * r, -1))), ring, order)
    return outer * core


def _identity_claims() -> list[IdentityClaim]:
    return [
        IdentityClaim(
            "I-GF",
            _gf_lhs,
            _oracle_series,
            ZZ,
            cases=tuple({"ell": ell} for ell in (3, 4, 5, 9, 25)),
            default_order=40,
            order_cap=40,
            source="Shen (2016) generating function",
        ),
        IdentityClaim(
            "I-QP",
            lambda ring, order, p: euler_product(1, ring, order) ** p,
            lambda ring, order, p: euler_product(p, ring, order),
            lambda case: Zmod(case["p"]),
            cases=({"p": 3}, {"p": 5}, {"p": 7}),
            default_order=500,
            source="binomial theorem (freshman's dream)",
        ),
        IdentityClaim(
            "I-PHI",
            lambda ring, order: phi(-1, ring, order),
            lambda ring, order: eta_quotient(
                EtaQuotientSpec(0, ((1, 2), (2, -1))), ring, order
            ),
            ZZ,
            default_order=1000,
            source="Berndt, Ramanujan's Notebooks III, p. 37",
        ),
        IdentityClaim(
            "I-GF5",
            lambda ring, order, a5: a5,
            lambda ring, order: eta_quotient(
                EtaQuotientSpec(0, ((1, 8), (2, -4))), ring, order
            ),
            Zmod(5),
            default_order=1000,
            source="generating function reduced mod 5",
            lhs_reads=(Read(_a(5)),),
        ),
        IdentityClaim(
            "I-R25",
            lambda ring, order, a25: a25,
            # phi(-q) as f(-q, -q), since the table side is built from products.phi
            lambda ring, order: theta_f_series(ThetaSpec(-1, 1, -1, 1), ring, order) ** 8,
            Zmod(5),
            default_order=1000,
            source="via Treneer's overpartition congruence",
            lhs_reads=(Read(_a(25), 5),),
        ),
        IdentityClaim(
            "I-TRENEER",
            lambda ring, order, pbar: pbar,
            # phi(-q) as f(-q, -q), since the table side is built from products.phi
            lambda ring, order: theta_f_series(ThetaSpec(-1, 1, -1, 1), ring, order) ** 3,
            Zmod(5),
            default_order=1000,
            source="Treneer (2006)",
            lhs_reads=(Read(SequenceRef("pbar"), 5),),
        ),
        IdentityClaim(
            "I-GF125",
            lambda ring, order, core: _gf_extracted(125, 125, ring, order, core),
            lambda ring, order, a125: a125,
            Zmod(5**4),
            default_order=200,
            source="generating function of A_125(125n); the paper states it mod 5",
            lhs_reads=(Read(_build_core, 125),),
            rhs_reads=(Read(_a(125), 125),),
        ),
        IdentityClaim(
            "I-DISSECT",
            lambda ring, order: phi_five_dissection_residual(ring, order),
            lambda ring, order: Series.zero(ring, order),
            ZZ,
            default_order=1000,
            source="Berndt, Ramanujan's Notebooks III, p. 49",
        ),
        IdentityClaim(
            "I-TRIPLE",
            lambda ring, order, a, b: theta_f_series(
                ThetaSpec(1, a, 1, b), ring, order
            ),
            lambda ring, order, a, b: theta_f_product(
                ThetaSpec(1, a, 1, b), ring, order
            ),
            ZZ,
            cases=({"a": 3, "b": 7}, {"a": 1, "b": 9}),
            default_order=300,
            source="Jacobi triple product identity",
        ),
        IdentityClaim(
            "I-ALPHA",
            lambda ring, order, core, alpha: _gf_extracted(5**alpha, 25, ring, order, core),
            lambda ring, order, a25, a125, a625, alpha: (a25, a125, a625)[alpha - 2],
            Zmod(5**4),
            cases=({"alpha": 2}, {"alpha": 3}, {"alpha": 4}),
            default_order=200,
            source="generating function of A_(5^a)(25n); the paper states it mod 5",
            lhs_reads=(Read(_build_core, 25),),
            rhs_reads=tuple(Read(_a(5**alpha), 25) for alpha in (2, 3, 4)),
        ),
        IdentityClaim(
            "I-PBAR",
            lambda ring, order: one_plus_q_product(range(1, order + 1), ring, order)
            / euler_product(1, ring, order),
            lambda ring, order: eta_quotient(_OVERPARTITION_QUOTIENT, ring, order),
            ZZ,
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
