import ast
import inspect
import json
import sys
from math import gcd, isqrt
from pathlib import Path

from regover import claims, kernels, products, registry, sequences
from regover.arith import primes_up_to
from regover.claims import (
    Build,
    Caps,
    CongruenceClaim,
    IdentityClaim,
    Op,
    PrimeFamily,
    TablePlan,
    Term,
    verify_claim,
    verify_claims,
)
from regover.products import eta_quotient, jacobi_cube, theta_f_series
from regover.registry import builtin_registry, claims_by_id
from regover.sequences import SequenceRef, sequence_series
from regover.series import ZZ, Ring, Series, Zmod

import pytest


def test_registry_counts():
    reg = builtin_registry()
    congruences = [c for c in reg if isinstance(c, CongruenceClaim)]
    identities = [c for c in reg if isinstance(c, IdentityClaim)]
    assert len(congruences) >= 23
    assert len(identities) >= 10


def test_claim_ids_unique():
    ids = [c.id for c in builtin_registry()]
    assert len(ids) == len(set(ids))


def test_expected_ids_present():
    ids = {c.id for c in builtin_registry()}
    expected = {
        "C-SHEN-1", "C-SHEN-2", "C-SHEN-3", "C-SHEN-4",
        "C-T1", "C-T2", "C-EX1", "C-T3", "C-EX2", "C-GEN",
        "C-T5a", "C-T5b", "C-T5c", "C-A9", "C-T6", "C-T7", "C-T8",
        "C-T9", "C-T10", "C-T11", "C-T12",
        "C-CHEN-1", "C-CHEN-2", "C-CHEN-3",
        "I-GF", "I-QP", "I-PHI", "I-GF5", "I-R25", "I-TRENEER",
        "I-GF125", "I-DISSECT", "I-TRIPLE", "I-ALPHA", "I-PBAR",
    }
    assert expected <= ids


def test_claim_t6_shape():
    (t6,) = claims_by_id(["C-T6"])
    (instance,) = t6.instances
    assert instance.params == ()
    assert instance.modulus == 5
    assert instance.rhs.seq == SequenceRef("sigma3m")
    assert instance.lhs.a == 5


# the paper's hypothesis on p for each prime family, as a predicate
FAMILY_HYPOTHESES = {
    "C-T2": lambda p: p % 2 and p % 5 not in (0, 1),
    "C-T7": lambda p: p % 2 and p % 5 not in (0, 1),
    "C-T3": lambda p: p % 10 == 9,
    "C-T8": lambda p: p % 10 == 9,
    "C-T5a": lambda p: p % 4 == 3,
    "C-T5b": lambda p: p % 4 == 1,
    "C-T5c": lambda p: p % 2 and p != 7 and (p % 4 == 3 or p * p % 7 != 1),
}


def test_family_classes_admit_the_primes_of_the_hypotheses():
    families = {
        c.id: c.instances
        for c in builtin_registry()
        if isinstance(c, CongruenceClaim) and isinstance(c.instances, PrimeFamily)
    }
    assert sorted(families) == sorted(FAMILY_HYPOTHESES)
    primes = primes_up_to(10**5)
    for claim_id, hypothesis in FAMILY_HYPOTHESES.items():
        m, allowed = families[claim_id].classes
        assert [p for p in primes if p % m in allowed] == [p for p in primes if hypothesis(p)]


def _values(value):
    """value and every value inside it, through tuples and named tuples."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _values(item)


def test_congruence_claims_hold_no_code():
    congruences = [c for c in builtin_registry() if isinstance(c, CongruenceClaim)]
    assert not [v for c in congruences for v in _values(c) if callable(v)]
    for claim in congruences:
        if isinstance(claim.instances, PrimeFamily):
            m, allowed = claim.instances.classes
            assert list(allowed) == sorted(allowed), claim.id
            assert all(0 <= r < m and gcd(r, m) == 1 for r in allowed), claim.id


def test_the_registry_holds_no_lambda():
    tree = ast.parse(Path(registry.__file__).read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Lambda)] == []


def test_every_function_in_a_claim_is_found_by_its_name():
    # a claim holds module-level functions only, never a closure: each one
    # is the object its module holds under its name
    functions = {v for c in builtin_registry() for v in _values(c) if callable(v)}
    assert registry._build_core in functions
    for fn in functions:
        assert getattr(sys.modules[fn.__module__], fn.__name__) is fn, fn


def test_claims_by_id_unknown():
    with pytest.raises(KeyError):
        claims_by_id(["C-T1", "NOPE"])


def test_verify_all_small_bound_never_fails():
    reports = list(verify_claims(builtin_registry(), Caps(prime_cap=3, k_cap=0, bound=625)))
    assert len(reports) == len(builtin_registry())
    assert [r.claim_id for r in reports] == [c.id for c in builtin_registry()]
    for r in reports:
        assert not r.failed, r
        assert r.status == "pass" or r.status.startswith("skipped")


def test_verify_all_default_scale_passes():
    reports = list(verify_claims(builtin_registry(), Caps(prime_cap=20, k_cap=1, bound=2000)))
    assert all(r.status == "pass" for r in reports), [
        (r.claim_id, r.status) for r in reports if r.status != "pass"
    ]


BENCH_EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"


def test_identity_reports_match_the_benchmark_expectations():
    # the `identities` benchmark workload runs every identity at order 1000
    # and gates on these (status, bound, instances); a claim rewrite that
    # drifts from them fails here, not only in a benchmark run
    expected = json.loads(BENCH_EXPECTED.read_text())["identities"]
    identities = [c for c in builtin_registry() if isinstance(c, IdentityClaim)]
    assert sorted(expected) == sorted(c.id for c in identities)
    for report in verify_claims(identities, order=1000):
        want = expected[report.claim_id]
        assert (report.status, report.bound, report.instances) == (
            want["status"],
            want["bound"],
            want["instances"],
        ), report.claim_id


def test_congruence_reports_match_the_benchmark_expectations():
    # the `congruences` benchmark workload runs every congruence at bound
    # 20000 (prime cap 20, k cap 1) and gates on these (status, bound,
    # instances); a pointwise or claim rewrite that drifts fails here
    expected = json.loads(BENCH_EXPECTED.read_text())["congruences"]
    congruences = [c for c in builtin_registry() if isinstance(c, CongruenceClaim)]
    assert sorted(expected) == sorted(c.id for c in congruences)
    for report in verify_claims(congruences, Caps(prime_cap=20, k_cap=1, bound=20000)):
        want = expected[report.claim_id]
        assert (report.status, report.bound, report.instances) == (
            want["status"],
            want["bound"],
            want["instances"],
        ), report.claim_id


@pytest.mark.parametrize("ell, step", [(125, 125), (25, 25), (125, 25), (625, 25)])
@pytest.mark.parametrize(
    "ring, order",
    [(ring, order) for ring in (Zmod(625), Zmod(5)) for order in (0, 1, 7, 40)]
    + [(ZZ, order) for order in (0, 1, 7)],
)
def test_gf_extracted_equals_the_extraction_of_the_whole_quotient(ell, step, ring, order):
    # the factor in q^step is evaluated after the extraction, at order, and
    # multiplies the extracted core that the claims read from their plan
    whole = eta_quotient(registry.regular_overpartition_quotient(ell), ring, step * order)
    got = evaluate_alone(registry._gf_extracted(ell, step), ring, order)
    assert got == whole.extract_progression(step)


# the series constructors of products, spied wherever a module imports them
BUILDERS = [
    name
    for name, f in vars(products).items()
    if inspect.isfunction(f) and f.__module__ == products.__name__ and not name.startswith("_")
]


def evaluate_alone(side, ring, order):
    """An identity side over ring to order, each table it reads built alone
    over ring."""

    def read(t):
        assert t.b == 0 and not t.sign_twist  # the registry's identity reads
        if t.seq is None:
            return [0] * (order + 1)
        if isinstance(t.seq, SequenceRef):
            return sequence_series(t.seq, ring, t.a * order).extract_progression(t.a)[:]
        return t.seq(ring, t.a * order, t.a)[:]

    return claims._evaluate(side, ring, order, read)


def sources(side) -> set:
    """What a side is made from, by its data: the tables its Terms read and
    the functions its Builds call."""
    if isinstance(side, Term):
        return {side.seq} - {None}
    if isinstance(side, Build):
        return {side.fn}
    if isinstance(side, Op):
        return set().union(*map(sources, side.args))
    return set()


def shared_sources(claim) -> set:
    """The sources that the two sides of one of the claim's instances share."""
    return {s for i in claim.instances for s in sources(i.lhs) & sources(i.rhs)}


def test_no_identity_side_reads_the_other_sides_table(monkeypatch):
    # the eta core and pbar are two routes to one series: a side that read
    # the other route's table, or that built with a constructor the other
    # side also calls, would let a wrong table or constructor confirm
    # itself.  The Euler product is the one declared exception: the mutation
    # tests perturb it at a scale only one side of I-QP or I-PBAR uses.
    # Each side's tables and builders are read from its data, and the
    # constructors it calls, seen by a spy, cross-check them.
    identities = [c for c in builtin_registry() if isinstance(c, IdentityClaim)]
    shared = {c.id: {getattr(s, "__name__", s) for s in shared_sources(c)} for c in identities}
    (gf125,) = claims_by_id(["I-GF125"])
    (instance,) = gf125.instances
    assert sources(instance.lhs) == {registry._build_core, products.eta_quotient}
    assert sources(instance.rhs) == {SequenceRef("A", 125)}
    reads_a125 = instance._replace(lhs=Term(SequenceRef("A", 125), 125))
    assert shared_sources(gf125._replace(instances=(reads_a125,))) == {SequenceRef("A", 125)}
    called = []
    for owner in (products, sequences, registry):
        for name in BUILDERS:
            if hasattr(owner, name):
                real = getattr(owner, name)

                def spy(*args, _real=real, _name=name, **kwargs):
                    called.append(_name)
                    return _real(*args, **kwargs)

                monkeypatch.setattr(owner, name, spy)
    # a Build binds its function when the claim is made, so the claims
    # that run under the spies are made after them
    builders = {}
    expands = set()
    spied = [c for c in builtin_registry() if isinstance(c, IdentityClaim)]
    for claim, data in zip(spied, identities):
        for instance, data_instance in zip(claim.instances, data.instances):
            sides = builders[claim.id] = []
            for side, data_side in zip(instance[2:], data_instance[2:]):
                called.clear()
                evaluate_alone(side, Ring(instance.modulus), 20)
                sides.append(set(called))
                if "one_plus_q_product" in called:
                    expands.add(claim.id)
                named = {s.__name__ for s in sources(data_side) if callable(s)}
                assert named & set(BUILDERS) <= sides[-1], (claim.id, named)
            shared[claim.id] |= sides[0] & sides[1]
    assert {k: v for k, v in shared.items() if v} == {
        "I-QP": {"euler_product"},
        "I-PBAR": {"euler_product"},
    }
    assert builders["I-R25"] == builders["I-TRENEER"] == [{"phi"}, {"theta_f_series"}]
    # the exact expansion is read by I-PBAR and I-TRIPLE alone
    assert expands == {"I-PBAR", "I-TRIPLE"}


def psi_squared_over_cube(ring, order):
    """The core's former route: psi(q)^2 squared over ZZ, reduced into ring
    and divided by (q^2;q^2)^3 at full length."""
    psi = theta_f_series(registry._PSI, ZZ, order)
    return Series(ring, (psi * psi)[:]) / jacobi_cube(2, ring, order)


@pytest.mark.parametrize(
    "ring", [ZZ, Zmod(625), Zmod(5), Zmod(840)], ids=["ZZ", "mod625", "mod5", "mod840"]
)
def test_the_core_equals_the_pentagonal_eta_quotient(ring):
    # phi(q) G(q^2), formed at the progression's indices only, against psi^2
    # / (q^2;q^2)^3 and the two divisions by (q;q), each whole and
    # extracted; odd steps read both halves E and O, even ones E alone
    for order in (0, 1, 2, 3, 7, 40, 25000):
        whole = psi_squared_over_cube(ring, order)
        assert whole == eta_quotient(registry._OVERPARTITION_QUOTIENT, ring, order), order
        for step in (1, 2, 3, 6, 25, 125, order + 1):
            got = registry._build_core(ring, order, step)
            assert got == whole.extract_progression(step), (order, step)


def test_one_core_build_divides_once_by_a_sparse_divisor(monkeypatch):
    # a cost guard by count: the one division runs at half length by a
    # divisor with O(sqrt(N)) terms, no product is taken over ZZ, and no
    # kernel call runs past half length
    N = 125 * 1000
    calls = []
    for name in ("mul_exact", "mul_mod", "div_exact", "div_mod"):
        real = getattr(kernels, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append((_name, args))
            return _real(*args, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
    for step in (1, 25):
        calls.clear()
        registry._build_core(Zmod(625), N, step)
        names = [name for name, _ in calls]
        assert names.count("div_mod") == 1 and set(names) == {"div_mod", "mul_mod"}
        _, (num, den, out_len, m) = calls[names.index("div_mod")]
        assert (out_len, m) == (N // 2 + 1, 625)
        assert sum(1 for c in den[1:] if c % m) <= isqrt(N) + 1
        assert max(args[2] for _, args in calls) <= N // 2 + 1


def test_i_alpha_builds_the_extracted_quotient_once(monkeypatch):
    # the three cases share one build of the core, and the plan keeps no
    # table after the claim
    built, cubes = [], []
    evaluate, cube = registry.eta_quotient, registry.jacobi_cube

    def spy(spec, ring, order):
        built.append((spec, order))
        return evaluate(spec, ring, order)

    def spy_cube(scale, ring, order):
        cubes.append((scale, ring.modulus, order))
        return cube(scale, ring, order)

    monkeypatch.setattr(registry, "eta_quotient", spy)
    monkeypatch.setattr(registry, "jacobi_cube", spy_cube)
    (claim,) = claims_by_id(["I-ALPHA"])
    plan = TablePlan([claim], order=40)
    assert verify_claim(claim, plan).status == "pass"
    assert cubes == [(1, 625, 25 * 40 // 2)]
    # the outer factors are the only eta quotients, one per case at order
    assert len(built) == len({spec for spec, _ in built}) == 3
    assert {order for _, order in built} == {40}
    assert plan._tables == {}
