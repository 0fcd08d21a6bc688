import json
import operator

import pytest

from regover import arith
from regover.claims import (
    ZERO,
    Build,
    Caps,
    CongruenceClaim,
    IdentityClaim,
    Instance,
    Op,
    PrimeFamily,
    Term,
    hunt,
    verify_claims,
)
from regover.products import phi
from regover.registry import _a, builtin_registry, claims_by_id
from regover.sequences import SequenceRef, sequence_series
from regover.series import Series, Zmod


def verify_one(claim, bound=2000, order=None, **caps):
    """The claim's report from a batch of its own."""
    (report,) = verify_claims([claim], Caps(bound=bound, **caps), order)
    return report


def single(claim_id, lhs, rhs, modulus):
    """A claim of one instance with no params."""
    return CongruenceClaim(claim_id, (Instance((), modulus, lhs, rhs),))


def linear_claim(seq, a, b, modulus):
    return single("test", Term(seq, a, b), ZERO, modulus)


def with_instance(claim, **fields):
    """The one-instance claim with those fields of its instance replaced."""
    (instance,) = claim.instances
    return claim._replace(instances=(instance._replace(**fields),))


def test_theorem1_style_claim():
    (t1,) = claims_by_id(["C-T1"])
    report = verify_one(t1, 2000)
    assert report.status == "pass"
    assert report.instances == 2000  # n = 1..2000


def test_example1_instances():
    (ex1,) = claims_by_id(["C-EX1"])
    report = verify_one(ex1, 2000)
    assert report.status == "pass"
    assert report.instances == 25  # n = 0..24, indices 27..1971


def test_falsified_claim_counterexample():
    # drop the sign twist: A_5(n) = r_4(n) mod 5 breaks at n = 1 (2 vs 8)
    bogus = single("bogus", Term(_a(5)), Term(SequenceRef("r", 4)), 5)
    report = verify_one(bogus, 50)
    assert report.failed
    ce = report.counterexample
    assert ce["params"]["n"] == 1
    assert ce["index"] == 1
    assert ce["lhs"] == 2 and ce["rhs"] == 3


@pytest.mark.parametrize(
    "b,twist,counterexample",
    [
        (0, True, None),
        (1, True, None),
        (0, False, None),
        # A_5(1) = 2 but r_4(1) = 8 = 3 mod 5: only the twist mends it
        (1, False, {"params": {"n": 0}, "index": 1, "lhs": 2, "rhs": 3}),
    ],
)
def test_even_step_sign_twist(b, twist, counterexample):
    # A_5(2n + b) = (-1)^b r_4(2n + b) mod 5: at an even step the twist
    # negates every value of the odd progression and none of the even one
    claim = single(
        "even-step",
        Term(_a(5), 2, b),
        Term(SequenceRef("r", 4), 2, b, sign_twist=twist),
        5,
    )
    report = verify_one(claim, 200)
    assert report.counterexample == counterexample
    if counterexample is None:
        assert report.status == "pass" and report.instances == 100


def test_failure_in_second_environment_counts_every_earlier_instance():
    # A_5(3n) = (-1)^(3n) r_4(3n) holds mod 5 (n = 1..20) but not mod 20,
    # where it first breaks at n = 3: index 9 is odd, so the twisted rhs is
    # -r_4(9) = -104 = 16 mod 20
    claim = CongruenceClaim(
        "two-env",
        tuple(
            Instance(
                (("m", m),), m, Term(_a(5), a=3), Term(SequenceRef("r", 4), a=3, sign_twist=True)
            )
            for m in (5, 20)
        ),
    )
    report = verify_one(claim, 60)
    assert report.to_json_obj() == {
        "id": "two-env",
        "bound": 60,
        "instances": 20 + 3,
        "status": "fail",
        "counterexample": {"params": {"m": 20, "n": 3}, "index": 9, "lhs": 6, "rhs": 16},
    }


def test_zero_instances_is_skipped_not_pass():
    # C-T9 needs 625n >= 625 on the rhs, so bound 100 has no instance
    (t9,) = claims_by_id(["C-T9"])
    report = verify_one(t9, 100)
    assert report.status.startswith("skipped")
    assert report.status != "pass" and not report.failed
    assert report.instances == 0


def test_deterministic_reports():
    (t6,) = claims_by_id(["C-T6"])
    assert verify_one(t6, 600) == verify_one(t6, 600)


def test_index_zero_never_checked():
    # constant-zero sequence comparison at index 0 would be vacuous; the
    # engine starts each progression at index >= 1
    (t1,) = claims_by_id(["C-T1"])
    report = verify_one(t1, 5)
    assert report.instances == 5


def test_prime_family_dependent_quantifiers():
    # the one class mod 3 that holds 3 admits p = 3 alone
    claim = CongruenceClaim("fam", PrimeFamily(_a(5), 5, c=1, e=3, s=4, classes=(3, (0,))))
    report = verify_one(claim, 2000, prime_cap=20, k_cap=0)
    # p=3, k=0: indices 27(3n+i), i in {1,2}: n = 0..24 each minus overshoot
    assert report.status == "pass"
    assert report.instances == sum(1 for i in (1, 2) for n in range(25) if 27 * (3 * n + i) <= 2000)


def test_literal_t2_hypothesis_fails_at_p_11():
    # p odd and p != 5: every class mod 10 prime to 10
    literal = CongruenceClaim(
        "T2-literal", PrimeFamily(_a(5), 5, c=1, e=3, s=4, classes=(10, (1, 3, 7, 9)))
    )
    report = verify_one(literal, 20000, prime_cap=20, k_cap=1)
    assert report.failed and report.instances == 551
    assert report.counterexample == {
        "params": {"p": 11, "k": 0, "i": 1, "n": 0},
        "index": 1331,
        "lhs": 3,
        "rhs": 0,
    }


def test_literal_t7_hypothesis_fails_at_p_11():
    literal = CongruenceClaim(
        "T7-literal", PrimeFamily(_a(25), 5, c=5, e=3, s=4, classes=(10, (1, 3, 7, 9)))
    )
    report = verify_one(literal, 20000, prime_cap=20, k_cap=1)
    assert report.failed
    assert report.counterexample["index"] == 5 * 1331


def test_prime_families_pruned_by_bound():
    # (p, k, i) whose least index prefactor * p^e * i exceeds the bound has
    # no instance, so the prime cap beyond the bound changes no report
    (t2,) = claims_by_id(["C-T2"])
    report = verify_one(t2, 200, prime_cap=300)
    assert report.instances == 5
    assert verify_one(t2, 200, prime_cap=5000) == report

    def envs(claim, caps):
        return [dict(instance.params) for instance in claim.instances.instances(caps)]

    assert envs(t2, Caps(prime_cap=5000, k_cap=1, bound=200)) == [
        {"p": 3, "k": 0, "i": 1},
        {"p": 3, "k": 0, "i": 2},
    ]
    # p, k and i each stop exactly where the least index passes the bound
    assert sorted({env["p"] for env in envs(t2, Caps(prime_cap=5000, bound=7**3))}) == [3, 7]
    at_3_to_the_7 = envs(t2, Caps(prime_cap=5000, k_cap=5, bound=3**7))
    assert sorted({env["k"] for env in at_3_to_the_7 if env["p"] == 3}) == [0, 1]
    assert [env["i"] for env in at_3_to_the_7 if env["p"] == 3 and env["k"] == 1] == [1]
    (t3,) = claims_by_id(["C-T3"])
    assert verify_one(t3, 190).instances == 10  # 19 i for i = 1..10
    caps = Caps(prime_cap=5000, k_cap=3, bound=200)
    for claim in claims_by_id(["C-T2", "C-T3", "C-T5a", "C-T5b", "C-T5c", "C-T7", "C-T8"]):
        for instance in claim.instances.instances(caps):
            assert instance.lhs.b <= 200  # so n = 0 is a checkable instance


# -- mutation sensitivity ------------------------------------------------------


def mutated_registry_claims():
    t1, ex1, t6 = claims_by_id(["C-T1", "C-EX1", "C-T6"])
    (t1_instance,), (ex1_instance,) = t1.instances, ex1.instances
    return [
        ("sign flip", with_instance(t1, rhs=t1_instance.rhs._replace(sign_twist=False))),
        ("modulus +1", with_instance(t1, modulus=6)),
        ("offset +1", with_instance(ex1, lhs=ex1_instance.lhs._replace(b=28))),
        ("wrong rhs", with_instance(t6, rhs=Term(SequenceRef("dstar")))),
        ("multiplier +1", with_instance(ex1, lhs=ex1_instance.lhs._replace(a=82))),
    ]


# (index, lhs, rhs) of each mutant's first counterexample at bound 200
MUTANT_FAILURES = {
    "sign flip": (1, 2, 3),
    "modulus +1": (1, 2, 4),
    "offset +1": (28, 2, 0),
    "wrong rhs": (5, 4, 1),
    "multiplier +1": (191, 4, 0),
}


def first_failure(report):
    ce = report.counterexample
    return ce["index"], ce["lhs"], ce["rhs"]


@pytest.mark.parametrize("label,claim", mutated_registry_claims())
def test_mutation_sensitivity(label, claim):
    report = verify_one(claim, 200)
    assert report.failed, label
    assert first_failure(report) == MUTANT_FAILURES[label]


def test_mutants_fail_alike_under_one_plan_with_the_registry():
    # C-T1 at modulus 6 puts A_5 at lcm(5, 6) = 30 and pbar at lcm(840, 6)
    mutants = mutated_registry_claims()
    registered = [c for c in builtin_registry() if isinstance(c, CongruenceClaim)]
    selected = registered + [claim for _, claim in mutants]
    reports = list(verify_claims(selected, Caps(bound=200)))
    for (label, _), report in zip(mutants, reports[len(registered) :]):
        assert report.failed and first_failure(report) == MUTANT_FAILURES[label]
    assert reports[: len(registered)] == [verify_one(c, 200) for c in registered]


# -- identity verification -----------------------------------------------------


def test_identity_pass_and_order_cap():
    (gf,) = claims_by_id(["I-GF"])
    report = verify_one(gf, order=100)
    assert report.status == "pass"
    assert report.bound == 40  # capped at the oracle range


def polynomial(coeffs, ring, order):
    """coeffs followed by zeros, to order."""
    return Series(ring, [*coeffs, *[0] * order][: order + 1])


def identity(claim_id, *instances, **fields):
    """An identity claim of the (params, modulus, lhs, rhs) instances."""
    return IdentityClaim(claim_id, tuple(Instance(*i) for i in instances), **fields)


_FAMILY = PrimeFamily(SequenceRef("A", 5), 5, c=1, e=3, s=4, classes=(10, (1, 3, 7, 9)))
_IDENTITY = identity("I-X", ((), 5, Term(SequenceRef("pbar")), Term(SequenceRef("pbar"))))


@pytest.mark.parametrize(
    "record, field, value, message",
    [
        (_FAMILY, "classes", (0, (0,)), "class modulus must be >= 1"),
        (_FAMILY, "c", 0, "scale c must be >= 1"),
        (_FAMILY, "c", -1, "scale c must be >= 1"),
        (_FAMILY, "e", -1, "exponents e and s must be >= 0"),
        (_FAMILY, "s", -1, "exponents e and s must be >= 0"),
        (_IDENTITY, "default_order", -3, "default_order and order_cap must be >= 1"),
        (_IDENTITY, "default_order", 0, "default_order and order_cap must be >= 1"),
        (_IDENTITY, "order_cap", -3, "default_order and order_cap must be >= 1"),
        (_IDENTITY, "order_cap", 0, "default_order and order_cap must be >= 1"),
    ],
)
def test_claim_data_refuses_out_of_range_integers(record, field, value, message):
    # each once gave a ZeroDivisionError, TypeError or IndexError at run
    # time, or a silent fail, skipped or pass
    with pytest.raises(ValueError, match=f"^{message}$"):
        type(record)(**{**record._asdict(), field: value})
    with pytest.raises(ValueError, match=f"^{message}$"):
        record._replace(**{field: value})


def test_identity_counterexample():
    wrong = identity(
        "wrong",
        ((), None, Build(polynomial, ((1, 1),)), Build(polynomial, ((1, 2),))),
        default_order=5,
    )
    report = verify_one(wrong, order=5)
    assert report.failed
    assert report.counterexample == {"params": {}, "index": 1, "lhs": 1, "rhs": 2}
    with pytest.raises(ValueError):
        verify_one(wrong, order=0)


def test_an_identity_term_is_read_with_its_sign_twist():
    # pbar(-q) = 1/phi(q): twisting the table of 1/phi(-q) negates its odd
    # coefficients; without the twist the claim breaks at q^1 (2 vs -2)
    pbar = Term(SequenceRef("pbar"), sign_twist=True)
    reciprocal = Op(operator.truediv, (Build(Series.one), Build(phi, (1,))))
    claim = identity("twist", ((), 5, pbar, reciprocal))
    assert verify_one(claim, order=50).status == "pass"
    (instance,) = claim.instances
    untwisted = claim._replace(instances=(instance._replace(lhs=pbar._replace(sign_twist=False)),))
    report = verify_one(untwisted, order=50)
    assert report.counterexample == {"params": {}, "index": 1, "lhs": 2, "rhs": 3}


def truncated(stop, ring, order):
    """The series 1 to order, stopped at stop."""
    return Series.one(ring, min(stop, order))


def short_table(ring, order, step):
    """A table function whose table stops at 3."""
    return Series.one(ring, 3)


@pytest.mark.parametrize("short_side", ["lhs", "rhs"])
def test_a_short_side_is_an_error_not_a_smaller_check(short_side):
    # a side that stops at order 3 would have shrunk the check to 4
    # coefficients and still passed; so would a short table read
    for modulus, short in ((None, Build(truncated, (3,))), (5, Term(short_table))):
        sides = {"lhs": Build(Series.one), "rhs": Build(Series.one), short_side: short}
        claim = identity("stub", ((("k", 1),), modulus, sides["lhs"], sides["rhs"]))
        with pytest.raises(ValueError) as err:
            verify_one(claim, order=10)
        message = str(err.value)
        assert "stub" in message and short_side in message and "{'k': 1}" in message
        assert verify_one(claim, order=3).status == "pass"


def test_claims_reject_malformed_shapes():
    one, pbar = Build(Series.one), Term(SequenceRef("pbar"))
    with pytest.raises(ValueError, match="at least one instance"):
        identity("no-instances")
    # a read is built mod its instance's modulus, so it needs one, at any
    # depth of a side; ZZ is for sides that read no table
    assert identity("zero", ((), None, one, ZERO)).instances[0].rhs == ZERO
    claim = identity("reads", ((), 5, one, pbar))
    for lhs, rhs in ((pbar, one), (one, pbar), (Op(operator.pow, (pbar, 2)), one)):
        with pytest.raises(ValueError, match="a table read needs a modulus"):
            identity("reads", ((), None, lhs, rhs))
        with pytest.raises(ValueError, match="a table read needs a modulus"):
            claim._replace(instances=(Instance((), None, lhs, rhs),))
    # an index multiplier below 1: an identity's when it is built, a
    # congruence's when its instances are listed
    for step in (0, -1):
        with pytest.raises(ValueError, match="index multiplier must be >= 1"):
            identity("zero-step", ((), 5, one, Op(operator.mul, (one, pbar._replace(a=step)))))
        with pytest.raises(ValueError, match="index multiplier must be >= 1"):
            verify_one(linear_claim(SequenceRef("p"), step, 1, 5), 10)
    # an identity reads from n = 0, so its first index b is at least 0
    with pytest.raises(ValueError, match="an identity read starts at an index >= 0"):
        identity("before-zero", ((), 5, pbar._replace(b=-1), one))
    # a congruence instance compares two Terms mod a modulus
    valid = linear_claim(SequenceRef("p"), 5, 4, 5)
    assert verify_one(valid, 10).status == "pass"
    for fields in ({"modulus": None}, {"rhs": one}, {"lhs": Op(operator.pow, (pbar, 2))}):
        with pytest.raises(ValueError, match="a congruence instance needs a modulus and two Terms"):
            verify_one(with_instance(valid, **fields), 10)


def geometric(k, ring, order):
    """1/(1 - q^k)."""
    one = Series.one(ring, order)
    return one / (one - one.shift(k))


def test_identity_failure_in_second_case_counts_every_earlier_instance():
    # 1/(1 - q^k) against 1/(1 - q^2): case k = 2 passes (7 coefficients),
    # case k = 4 breaks at q^2
    claim = identity(
        "two-case",
        *(((("k", k),), None, Build(geometric, (k,)), Build(geometric, (2,))) for k in (2, 4)),
    )
    report = verify_one(claim, order=6)
    assert report.to_json_obj() == {
        "id": "two-case",
        "bound": 6,
        "instances": 7 + 3,
        "status": "fail",
        "counterexample": {"params": {"k": 4}, "index": 2, "lhs": 0, "rhs": 1},
    }


def test_report_json_shape():
    (t6,) = claims_by_id(["C-T6"])
    report = verify_one(t6, 600)
    obj = report.to_json_obj()
    assert list(obj) == ["id", "bound", "instances", "status", "counterexample"]
    line = json.dumps(obj)
    assert json.dumps(json.loads(line)) == line


# -- hunting --------------------------------------------------------------------


def test_hunt_finds_known_progressions():
    found = hunt(_a(5), 5, 100, 5000, 20)
    assert (81, 27, 62) in found
    found3 = hunt(_a(3), 2, 10, 2000, 50)
    assert any(a == 4 and b == 1 for a, b, _ in found3)


def test_hunt_small_overpartition_scan_is_empty():
    assert hunt(SequenceRef("pbar"), 5, 3, 1000, 1) == []


def test_hunt_sorted_and_subsumed_kept():
    found = hunt(_a(3), 6, 10, 2000, 50)
    assert found == sorted(found)
    pairs = {(a, b) for a, b, _ in found}
    assert (9, 3) in pairs and (9, 6) in pairs
    # multiples of a reported progression stay in the listing
    assert (4, 3) in pairs and (8, 3) in pairs


def test_hunt_results_reverify():
    found = hunt(_a(5), 5, 100, 5000, 20)
    assert (79, 0, 63) in found  # b = 0 rows start at index a, as in verify
    for a, b, count in found:
        report = verify_one(linear_claim(_a(5), a, b, 5), 5000)
        assert report.status == "pass"
        assert report.instances == count


def test_hunt_stops_when_steps_outgrow_min_instances():
    # step a reaches at most (200 - 1) // a + 1 indices in [1, 200]: 10 up
    # to a = 22, fewer beyond
    found = hunt(_a(5), 5, 10**5, 200, 10)
    assert found == hunt(_a(5), 5, 22, 200, 10)
    assert found
    # a = 24 is the last step that reaches 9 indices, and its row is kept
    assert (24, 3, 9) in hunt(_a(3), 6, 10**5, 200, 9)


def test_hunt_stops_at_step_bound():
    # a step past the bound reaches one index, already a row at step bound
    assert hunt(_a(3), 2, 10**6, 50, 1) == hunt(_a(3), 2, 50, 50, 1)


def test_hunt_validation():
    with pytest.raises(ValueError):
        hunt(_a(5), 1, 10, 100)
    with pytest.raises(ValueError):
        hunt(_a(5), 5, 0, 100)
    with pytest.raises(ValueError):
        hunt(_a(5), 5, 10, 100, 0)


def test_hunt_pointwise_sequence():
    # chi vanishes exactly at the even indices
    assert hunt(SequenceRef("chi"), 2, 4, 40, 5) == [(2, 0, 20), (4, 0, 10), (4, 2, 10)]
    # r_4 = 8 d* vanishes mod 8 everywhere; the last index reached is the bound
    assert hunt(SequenceRef("r", 4), 8, 3, 10, 1) == [
        (1, 0, 10), (2, 0, 5), (2, 1, 5), (3, 0, 3), (3, 1, 4), (3, 2, 3),
    ]


def brute_force_hunt(value, modulus, max_step, bound, min_instances=1):
    """hunt's rows, from one value per index, such as a closed form or a
    table lookup."""
    vanishes = [None] + [value(n) % modulus == 0 for n in range(1, bound + 1)]
    rows = []
    for a in range(1, max_step + 1):
        for b in range(min(a, bound + 1)):
            indices = range(b or a, bound + 1, a)
            if len(indices) >= min_instances and all(vanishes[i] for i in indices):
                rows.append((a, b, len(indices)))
    return rows


@pytest.mark.parametrize(
    "ref, modulus, value",
    [
        (SequenceRef("r", 6), 7, lambda n: arith.r_formula(6, n)),
        (SequenceRef("dstar"), 5, arith.d_star),
        (SequenceRef("dstar"), 3, arith.d_star),  # d*(2m) = 3 sigma(odd part)
    ],
    ids=["r6-mod-7", "dstar-mod-5", "dstar-mod-3"],
)
def test_pointwise_hunt_matches_a_scan_of_the_closed_forms(ref, modulus, value):
    assert hunt(ref, modulus, 50, 3000, 1) == brute_force_hunt(value, modulus, 50, 3000)


@pytest.mark.parametrize("min_instances", [2, 3])
@pytest.mark.parametrize("bound", [11, 51])
def test_hunt_keeps_the_rows_of_steps_that_divide_bound_minus_one(bound, min_instances):
    # at a step a dividing bound - 1, the row from index 1 reaches the
    # bound itself: (bound - 1) // a + 1 indices, one more than elsewhere
    table = sequence_series(_a(3), Zmod(2), bound).coeffs
    expected = brute_force_hunt(table.__getitem__, 2, bound, bound, min_instances)
    assert hunt(_a(3), 2, bound, bound, min_instances) == expected
