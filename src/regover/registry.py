"""Built-in claim registry: the congruences and series identities the
library verifies, with fixed ids for CLI addressing.

Prime-family hypotheses are the sharp ones: the geometric sums behind
C-T2/C-T7 (1 + p + ... + p^(4k+3) and its cube version) vanish mod 5 only
when p mod 5 is not 0 or 1, and the C-T5c combination vanishes mod 7 for
all k only when p = 3 (mod 4) or p^2 != 1 (mod 7).  The regression tests
exhibit counterexamples (e.g. index 1331 = 11^3) for the unfiltered
families.
"""

from __future__ import annotations

from itertools import takewhile

from .arith import primes_up_to
from .claims import ZERO, CongruenceClaim, IdentityClaim, Quantifier, Read, Term
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


def _prime_family(claim_id, seq, modulus, prefactor, e_base, e_step, p_filter, source):
    """Claim: seq(prefactor * p^(e_step*k + e_base) * (p n + i)) = 0 mod m.

    The least index of (p, k, i) is prefactor * p^e * i (at n = 0), so
    values that put it above the bound are dropped: they have no checkable
    instance, and enumerating them would cost time quadratic in the prime cap.
    """

    def exponent(env):
        return e_step * env.get("k", 0) + e_base

    def scale(env):
        return prefactor * env["p"] ** exponent(env)

    def primes(caps, env):
        candidates = primes_up_to(min(caps.prime_cap, caps.bound))
        return [p for p in candidates if p_filter(p) and scale({"p": p}) <= caps.bound]

    def ks(caps, env):
        return list(
            takewhile(lambda k: scale({**env, "k": k}) <= caps.bound, range(caps.k_cap + 1))
        )

    def residues(caps, env):
        return range(1, min(env["p"], caps.bound // scale(env) + 1))

    quants = [Quantifier("p", primes)]
    if e_step:
        quants.append(Quantifier("k", ks))
    quants.append(Quantifier("i", residues))
    lhs = Term(
        seq=seq,
        a=lambda env: prefactor * env["p"] ** (exponent(env) + 1),
        b=lambda env: scale(env) * env["i"],
    )
    return CongruenceClaim(claim_id, lhs, ZERO, modulus, tuple(quants), source)


def _a(ell):
    return SequenceRef("A", ell)


def _congruence_claims() -> list[CongruenceClaim]:
    pbar = SequenceRef("pbar")
    claims = [
        CongruenceClaim(
            "C-SHEN-1", Term(_a(3), 4, 1), ZERO, 2, source="Shen (2016)"
        ),
        CongruenceClaim(
            "C-SHEN-2", Term(_a(3), 4, 3), ZERO, 6, source="Shen (2016)"
        ),
        CongruenceClaim(
            "C-SHEN-3", Term(_a(3), 9, 3), ZERO, 6, source="Shen (2016)"
        ),
        CongruenceClaim(
            "C-SHEN-4", Term(_a(3), 9, 6), ZERO, 24, source="Shen (2016)"
        ),
        CongruenceClaim(
            "C-T1",
            Term(_a(5)),
            Term(SequenceRef("r", 4), sign_twist=True),
            5,
            source="5-regular overpartitions vs four squares",
        ),
        _prime_family(
            "C-T2",
            _a(5),
            5,
            prefactor=1,
            e_base=3,
            e_step=4,
            p_filter=lambda p: p % 2 and p % 5 not in (0, 1),
            source="vanishing d*(p^(4k+3)) mod 5",
        ),
        CongruenceClaim(
            "C-EX1", Term(_a(5), 81, 27), ZERO, 5, source="C-T2 at p=3, k=0, i=1"
        ),
        _prime_family(
            "C-T3",
            _a(5),
            5,
            prefactor=1,
            e_base=1,
            e_step=0,
            p_filter=lambda p: p % 10 == 9,
            source="1 + p = 0 mod 5 for p = 9 mod 10",
        ),
        CongruenceClaim(
            "C-EX2", Term(_a(5), 361, 19), ZERO, 5, source="C-T3 at p=19, i=1"
        ),
        CongruenceClaim(
            "C-GEN",
            Term(lambda env: _a(env["ell"])),
            Term(lambda env: SequenceRef("r", env["ell"] - 1), sign_twist=True),
            lambda env: env["ell"],
            (Quantifier("ell", (3, 7)),),
            source="prime-regular overpartitions vs squares",
        ),
        _prime_family(
            "C-T5a",
            _a(3),
            3,
            prefactor=1,
            e_base=1,
            e_step=2,
            p_filter=lambda p: p % 4 == 3,
            source="r_2 divisor sum vanishes at p^(2k+1), p = 3 mod 4",
        ),
        _prime_family(
            "C-T5b",
            _a(3),
            3,
            prefactor=1,
            e_base=2,
            e_step=3,
            p_filter=lambda p: p % 4 == 1,
            source="r_2 divisor count 3(k+1) at p^(3k+2), p = 1 mod 4",
        ),
        _prime_family(
            "C-T5c",
            _a(7),
            7,
            prefactor=1,
            e_base=5,
            e_step=6,
            p_filter=lambda p: p % 2 and p != 7 and (p % 4 == 3 or p * p % 7 != 1),
            source="r_6 divisor sums vanish at p^(6k+5)",
        ),
        CongruenceClaim(
            "C-A9",
            Term(_a(9)),
            Term(SequenceRef("r", 8), sign_twist=True),
            3,
            source="9-regular overpartitions vs eight squares",
        ),
        CongruenceClaim(
            "C-T6",
            Term(_a(25), 5),
            Term(SequenceRef("sigma3m")),
            5,
            source="25-regular overpartitions vs signed cube divisor sum",
        ),
        _prime_family(
            "C-T7",
            _a(25),
            5,
            prefactor=5,
            e_base=3,
            e_step=4,
            p_filter=lambda p: p % 2 and p % 5 not in (0, 1),
            source="vanishing sigma3m(p^(4k+3)) mod 5",
        ),
        _prime_family(
            "C-T8",
            _a(25),
            5,
            prefactor=5,
            e_base=1,
            e_step=0,
            p_filter=lambda p: p % 10 == 9,
            source="1 + p^3 = 0 mod 5 for p = 9 mod 10",
        ),
        CongruenceClaim(
            "C-T9",
            Term(_a(125), 25),
            Term(_a(125), 625),
            5,
            source="125-regular overpartition self-similarity",
        ),
        CongruenceClaim(
            "C-T10",
            Term(lambda env: _a(5 ** env["alpha"]), 625, lambda env: env["i"]),
            ZERO,
            5,
            (Quantifier("alpha", (4, 5)), Quantifier("i", (125, 500))),
            source="overpartition vanishing on 625n+125, 625n+500",
        ),
        CongruenceClaim(
            "C-T11",
            Term(lambda env: _a(5 ** env["alpha"]), 25),
            Term(lambda env: _a(5 ** (env["alpha"] + 2)), 625),
            5,
            (Quantifier("alpha", (2, 3)),),
            source="power-of-5 regular overpartition self-similarity",
        ),
        CongruenceClaim(
            "C-T12",
            Term(
                lambda env: _a(5 ** env["alpha"]),
                lambda env: 25 ** env["j"] * 625,
                lambda env: 25 ** env["j"] * env["i"],
            ),
            ZERO,
            5,
            (
                Quantifier("alpha", (4, 5, 6)),
                Quantifier("j", lambda caps, env: range((env["alpha"] - 4) // 2 + 1)),
                Quantifier("i", (125, 500)),
            ),
            source="iterated 25-scaling of C-T10",
        ),
        CongruenceClaim(
            "C-CHEN-1",
            Term(pbar, 625, lambda env: 125 * env["s"]),
            ZERO,
            5,
            (Quantifier("s", (1, -1)),),
            source="Chen et al. (2015), Eq. (5.3)",
        ),
        CongruenceClaim(
            "C-CHEN-2",
            Term(pbar, 25),
            Term(pbar, 625),
            5,
            source="Chen et al. (2015), Thm 1.5",
        ),
        CongruenceClaim(
            "C-CHEN-3",
            Term(pbar, 625, lambda env: env["i"]),
            ZERO,
            5,
            (Quantifier("i", (125, 500)),),
            source="Chen et al. (2015), Eq. (5.3)",
        ),
    ]
    return claims


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


def _build_core(ring, order):
    """The overpartition quotient (q^2;q^2)/(q;q)^2 as psi(q)^2 / (q^2;q^2)^3:
    the eta core that I-GF125 and I-ALPHA read extracted.

    Gauss gives psi(q) = (q^2;q^2)^2/(q;q), so one division by Jacobi's
    sparse cube replaces two by (q;q).  psi is squared over ZZ, where the
    product is a sparse pair loop, and reduced into ring once; psi itself
    is dropped before the division.  The core reads no theta series of
    phi(-q), so it shares no construction with the pbar side."""
    psi = theta_f_series(_PSI, ZZ, order)
    square = Series(ring, (psi * psi)[:])
    del psi
    return square / jacobi_cube(2, ring, order)


_PBAR = SequenceRef("pbar")


def _gf_extracted(ell, step, ring, order, core):
    """The step*n coefficients of the eta quotient, not of the A table:
    (q^r;q^r)^2/(q^2r;q^2r) times core, the step*n extraction of
    (q^2;q^2)/(q;q)^2 to order, with r = ell/step.

    step must divide ell.  Then the factor (q^ell;q^ell)^2/(q^2ell;q^2ell)
    is a series in q^step, so it commutes with the extraction and is
    evaluated at order instead of step*order.  Only the core is expanded to
    step*order, once per run by the claims' table plan."""
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
            lhs_text="eta quotient (q^l;q^l)^2 (q^2;q^2) / (q;q)^2 (q^2l;q^2l)"
            " from pentagonal Euler products",
            rhs_text="regular-overpartition enumeration oracle (descending-part recursion)",
            source="Shen (2016) generating function",
        ),
        IdentityClaim(
            "I-QP",
            lambda ring, order, p: euler_product(1, ring, order) ** p,
            lambda ring, order, p: euler_product(p, ring, order),
            lambda case: Zmod(case["p"]),
            cases=({"p": 3}, {"p": 5}, {"p": 7}),
            default_order=500,
            lhs_text="pentagonal series (q;q) raised to p by binary powering, mod p",
            rhs_text="pentagonal series (q^p;q^p), mod p",
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
            lhs_text="phi(-q) theta sum 1 + 2 sum (-1)^n q^(n^2)",
            rhs_text="eta quotient (q;q)^2 / (q^2;q^2) from pentagonal Euler products",
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
            lhs_text="A_5 table phi(-q^5) * 1/phi(-q), mod 5",
            rhs_text="eta quotient (q;q)^8 / (q^2;q^2)^4 from pentagonal Euler products, mod 5",
            source="generating function reduced mod 5",
            lhs_reads=(Read(_a(5), 5),),
        ),
        IdentityClaim(
            "I-R25",
            lambda ring, order, a25: a25,
            lambda ring, order: phi(-1, ring, order) ** 8,
            Zmod(5),
            default_order=1000,
            lhs_text="5n-extraction of the A_25 table phi(-q^25) * 1/phi(-q), mod 5",
            rhs_text="phi(-q) theta sum raised to 8 by binary powering, mod 5",
            source="via Treneer's overpartition congruence",
            lhs_reads=(Read(_a(25), 5, 5),),
        ),
        IdentityClaim(
            "I-TRENEER",
            lambda ring, order, pbar: pbar,
            lambda ring, order: phi(-1, ring, order) ** 3,
            Zmod(5),
            default_order=1000,
            lhs_text="5n-extraction of the overpartition table 1/phi(-q), mod 5",
            rhs_text="phi(-q) theta sum cubed by binary powering, mod 5",
            source="Treneer (2006)",
            lhs_reads=(Read(_PBAR, 5, 5),),
        ),
        IdentityClaim(
            "I-GF125",
            lambda ring, order, core: _gf_extracted(125, 125, ring, order, core),
            lambda ring, order, pbar: phi(-1, ring, order) * pbar,
            Zmod(5**4),
            default_order=200,
            lhs_text="125n-extraction of the eta quotient"
            " (q^125;q^125)^2 (q^2;q^2)/(q;q)^2 (q^250;q^250), evaluated as"
            " (q;q)^2/(q^2;q^2) from pentagonal Euler products times the"
            " 125n-extraction of (q^2;q^2)/(q;q)^2, built as psi(q)^2 / (q^2;q^2)^3"
            " from the triangular theta sum and Jacobi's cube, mod 5^4",
            rhs_text="phi(-q) theta sum * 125n-extraction of 1/phi(-q), mod 5^4",
            source="generating function of A_125(125n); the paper states it mod 5",
            lhs_reads=(Read(_build_core, 5**4, 125),),
            rhs_reads=(Read(_PBAR, 5**4, 125),),
        ),
        IdentityClaim(
            "I-DISSECT",
            lambda ring, order: phi_five_dissection_residual(ring, order),
            lambda ring, order: Series.zero(ring, order),
            ZZ,
            default_order=1000,
            lhs_text="phi(-q) theta sum minus its 5-dissection"
            " phi(-q^25) - 2q M1(-q^5) + 2q^4 M2(-q^5) from bilateral sums",
            rhs_text="0",
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
            lhs_text="f(q^a, q^b) bilateral sum",
            rhs_text="Jacobi triple product (-q^a;q^(a+b)) (-q^b;q^(a+b)) (q^(a+b);q^(a+b))"
            " by shift-adds and a pentagonal series",
            source="Jacobi triple product identity",
        ),
        IdentityClaim(
            "I-ALPHA",
            lambda ring, order, core, alpha: _gf_extracted(5**alpha, 25, ring, order, core),
            lambda ring, order, pbar, alpha: phi(-1, ring, order, scale=5 ** (alpha - 2))
            * pbar,
            Zmod(5**4),
            cases=({"alpha": 2}, {"alpha": 3}, {"alpha": 4}),
            default_order=200,
            lhs_text="25n-extraction of the eta quotient"
            " (q^l;q^l)^2 (q^2;q^2)/(q;q)^2 (q^2l;q^2l), l = 5^a, evaluated as"
            " (q^r;q^r)^2/(q^2r;q^2r), r = 5^(a-2), from pentagonal Euler products"
            " times the 25n-extraction of (q^2;q^2)/(q;q)^2, built as"
            " psi(q)^2 / (q^2;q^2)^3 from the triangular theta sum and Jacobi's cube,"
            " mod 5^4",
            rhs_text="phi(-q^(5^(a-2))) theta sum * 25n-extraction of 1/phi(-q), mod 5^4",
            source="generating function of A_(5^a)(25n); the paper states it mod 5",
            lhs_reads=(Read(_build_core, 5**4, 25),),
            rhs_reads=(Read(_PBAR, 5**4, 25),),
        ),
        IdentityClaim(
            "I-PBAR",
            lambda ring, order: one_plus_q_product(range(1, order + 1), ring, order)
            / euler_product(1, ring, order),
            lambda ring, order: eta_quotient(_OVERPARTITION_QUOTIENT, ring, order),
            ZZ,
            default_order=500,
            lhs_text="(-q;q) by shift-adds, divided by the pentagonal series (q;q)",
            rhs_text="eta quotient (q^2;q^2) / (q;q)^2 from pentagonal Euler products",
            source="overpartition generating function",
        ),
    ]


def builtin_registry() -> list:
    """All claims in fixed order; congruences first, then identities."""
    return _congruence_claims() + _identity_claims()


def registry_ids() -> list[str]:
    return [c.id for c in builtin_registry()]


def claims_by_id(ids) -> list:
    table = {c.id: c for c in builtin_registry()}
    missing = [i for i in ids if i not in table]
    if missing:
        raise KeyError(f"unknown claim: {', '.join(missing)}")
    return [table[i] for i in ids]
