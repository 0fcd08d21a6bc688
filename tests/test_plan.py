"""The table plan of a run: every table is built once, over the lcm of the
moduli its claims read it at and to the largest index they read, and
dropped after its last consumer, with every report unchanged.  The plan,
or a library call's caller, is the only holder of a table: the package
keeps no table or claim list at module level."""

import sys
from itertools import permutations

import pytest

from regover import claims, kernels, registry, sequences
from regover.claims import (
    ZERO,
    Caps,
    CongruenceClaim,
    Instance,
    TablePlan,
    Term,
    hunt,
    verify_claim,
    verify_claims,
)
from regover.cli import main
from regover.products import phi
from regover.registry import _a, claims_by_id
from regover.sequences import SequenceRef, SieveGroup, sequence_series
from regover.series import Zmod

BOUND = 2000


@pytest.fixture
def builds(monkeypatch):
    """(label, modulus, order, step) of every table built, in order."""
    seen = []
    build = sequences._build_series

    def spy(ref, ring, order, *inputs, step=1):
        seen.append((ref.label(), ring.modulus, order, step))
        return build(ref, ring, order, *inputs, step=step)

    monkeypatch.setattr(sequences, "_build_series", spy)
    return seen


def module_state():
    """Each regover module's globals, dunder names aside: the id of every
    object, and the length of every dict, list or set."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name == "regover" or name.startswith("regover."):
            for key, value in vars(module).items():
                if not key.startswith("__"):
                    size = len(value) if isinstance(value, (dict, list, set)) else None
                    state[name, key] = (id(value), size)
    return state


def congruences():
    return [c for c in registry.builtin_registry() if isinstance(c, claims.CongruenceClaim)]


def run_plan(selected):
    return {r.claim_id: r for r in verify_claims(selected, Caps(bound=BOUND))}


def test_reports_do_not_depend_on_the_plan():
    selected = congruences()
    assert len(selected) == 24
    alone = {c.id: run_plan([c])[c.id] for c in selected}
    assert run_plan(selected) == alone
    assert run_plan(selected[::-1]) == alone
    assert all(r.status == "pass" for r in alone.values())


def test_each_sequence_is_built_once_over_the_lcm_of_its_moduli(builds):
    run_plan(congruences())
    labels = [label for label, *_ in builds]
    # ten series tables and five sieved ones
    assert len(labels) == len(set(labels)) == 15
    assert ("pbar", 840, BOUND, 1) in builds  # lcm(2, 3, 5, 6, 7, 24)
    assert ("A(3)", 24, BOUND, 1) in builds  # lcm(2, 3, 6, 24)
    assert set(builds) > {
        ("r(2)", 3, BOUND, 1),
        ("r(4)", 5, BOUND, 1),
        ("r(6)", 7, BOUND, 1),
        ("r(8)", 3, BOUND, 1),
        ("sigma3m", 5, BOUND // 5, 1),  # C-T6 reads it at n for A_25(5n)
    }
    # each A_(5^a) read only on a progression is built at it
    assert set(builds) > {
        ("A(5)", 5, BOUND, 1),
        ("A(25)", 5, BOUND, 5),
        ("A(125)", 5, 3 * 625, 25),  # C-T9 reads 625 n up to 1875
        ("A(625)", 5, BOUND, 125),
        ("A(3125)", 5, BOUND, 125),
        ("A(15625)", 5, BOUND, 125),
    }
    # pbar is built before the first A_l that is built from it
    assert labels[0] == "pbar"


def test_the_package_keeps_no_module_state(capsys):
    before = module_state()
    sequences.sequence_series(_a(5), Zmod(5), 100)
    registry.builtin_registry()
    assert main(["value", "pbar", "--n", "3000"]) == 0
    assert main(["verify", "C-T1", "--bound", "200"]) == 0
    assert module_state() == before


def test_a_run_leaves_no_table_it_built(capsys):
    ids = [c.id for c in congruences()]
    before = module_state()
    assert main(["verify", *ids, "--bound", str(BOUND), "--json"]) == 0
    assert module_state() == before


def test_hunt_and_a_lone_claim_build_at_the_requested_modulus(builds):
    hunt(_a(3), 6, 10, BOUND, 1)
    assert builds == [("A(3)", 6, BOUND, 1)]
    builds.clear()
    hunt(SequenceRef("r", 6), 7, 10, BOUND, 1)
    assert builds == [("r(6)", 7, BOUND, 1)]
    builds.clear()
    (shen2,) = claims_by_id(["C-SHEN-2"])
    assert run_plan([shen2])["C-SHEN-2"].status == "pass"
    # pbar has no reader but A_3, so A_3 is one quotient, as in hunt
    assert [(label, m, step) for label, m, _, step in builds] == [("A(3)", 6, 1)]


@pytest.mark.parametrize(
    "ids,calls",
    [
        # pbar has no reader but A_5: A_5 is one quotient phi(-q^5) / phi(-q)
        (["C-T1"], [("div_mod", 5)]),
        # A_5 and A_3 share pbar, one division over lcm(5, 2), then a product each
        (["C-T1", "C-SHEN-1"], [("div_mod", 10), ("mul_mod", 5), ("mul_mod", 2)]),
        # pbar is read (C-CHEN-2) and A_5 is built from it: one division, one product
        (["C-T1", "C-CHEN-2"], [("div_mod", 5), ("mul_mod", 5)]),
    ],
)
def test_pbar_is_built_only_for_a_tables_that_share_it(monkeypatch, ids, calls):
    seen = []
    for name in ("mul_mod", "div_mod"):

        def spy(a, b, n, m, _name=name, _kernel=getattr(kernels, name), **kwargs):
            seen.append((_name, m))
            return _kernel(a, b, n, m, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
    assert all(r.status == "pass" for r in run_plan(claims_by_id(ids)).values())
    assert seen == calls


def test_a_lone_a_table_plan_never_declares_pbar():
    (t1,) = claims_by_id(["C-T1"])
    plan = TablePlan([t1], Caps(bound=BOUND))
    plan.checks(t1)
    assert plan._inputs[_a(5)] == ()
    assert SequenceRef("pbar") not in plan._spec


def test_the_registrys_pointwise_tables_are_sieved_in_two_groups_mod_105():
    # r_4 mod 5, r_2 mod 3 and r_6's T mod 7 share one group; r_6's P mod 7
    # cannot join it, so it starts a second one, with r_8 mod 3 and sigma3m
    # mod 5
    selected = congruences()
    plan = TablePlan(selected, Caps(bound=BOUND))
    plan.checks(selected[0])
    r2, r4, r6, r8 = (SequenceRef("r", k) for k in (2, 4, 6, 8))
    s3 = SequenceRef("sigma3m")
    moduli = {
        s: m
        for s, (m, *_) in plan._spec.items()
        if isinstance(s, SequenceRef) and not s.is_series_backed
    }
    assert list(moduli.items()) == [(r4, 5), (r2, 3), (r6, 7), (r8, 3), (s3, 5)]
    first = SieveGroup((((r4, 0), 5), ((r2, 0), 3), ((r6, 0), 7)))
    second = SieveGroup((((r6, 1), 7), ((r8, 0), 3), ((s3, 0), 5)))
    assert first.modulus == second.modulus == 105
    inputs = {r4: (first,), r2: (first,), r6: (first, second), r8: (second,), s3: (second,)}
    assert sequences.table_inputs(moduli) == inputs
    assert {ref: plan._inputs[ref] for ref in moduli} == inputs


def test_a_plan_that_verifies_a_claim_twice_keeps_no_table():
    shen1, shen4 = claims_by_id(["C-SHEN-1", "C-SHEN-4"])
    plan = TablePlan([shen1, shen4], Caps(bound=BOUND))
    first = verify_claim(shen1, plan)
    assert verify_claim(shen4, plan).status == "pass"
    assert verify_claim(shen1, plan) == first
    assert first.status == "pass"
    assert plan._tables == {}


def test_a_claim_outside_the_plan_is_refused():
    shen1, shen2 = claims_by_id(["C-SHEN-1", "C-SHEN-2"])
    plan = TablePlan([shen1], Caps(bound=BOUND))
    with pytest.raises(ValueError, match="not in the plan"):
        verify_claim(shen2, plan)


def test_a_congruence_table_is_kept_as_the_progression_its_reads_share():
    # A_625 is read at 625 n + 125, 625 n + 500 and 625 n (C-T10 to C-T12),
    # A_25 only at multiples of 5 (C-T6 to C-T8, C-T11)
    selected = congruences()
    plan = TablePlan(selected, Caps(bound=BOUND))
    assert verify_claim(selected[0], plan).status == "pass"
    a625, a25, pbar = _a(625), _a(25), SequenceRef("pbar")
    assert plan._spec[a625][2] == 125
    assert len(plan._tables[a625]) == BOUND // 125 + 1 == 17
    assert plan._spec[a25][2] == 5
    assert len(plan._tables[a25]) == BOUND // 5 + 1
    # pbar stays whole: every A_l is built from all of it
    assert plan._spec[pbar][2] == 1
    assert len(plan._tables[pbar]) == BOUND + 1
    whole = sequences.sequence_series(_a(625), Zmod(5), BOUND).coeffs
    assert list(plan.read(a625, 5, range(125, BOUND + 1, 625))) == whole[125::625]


def test_a_625_is_one_product_of_phi_and_pbars_125_progression(monkeypatch):
    # phi(-q^625) is a series in q^125, so the 125-progression of A_625 that
    # C-T10 to C-T12 read is phi(-q^5) times pbar's 125-progression: one
    # product of 17 entries at bound 2000, not one of the whole table
    whole = sequences.sequence_series(_a(625), Zmod(5), BOUND)
    pbar = sequences.sequence_series(SequenceRef("pbar"), Zmod(5), BOUND)
    products = []
    mul = kernels.mul_mod

    def spy(a, b, n, m, **kwargs):
        products.append((a[:n], b[:n], m))
        return mul(a, b, n, m, **kwargs)

    monkeypatch.setattr(kernels, "mul_mod", spy)
    selected = congruences()
    plan = TablePlan(selected, Caps(bound=BOUND))
    plan.checks(selected[0])
    table = plan._table(_a(625))  # builds pbar by division first
    ((theta, progression, m),) = products
    assert m == 5
    assert list(theta) == phi(-1, Zmod(5), BOUND // 125, scale=5).coeffs
    assert list(progression) == pbar[::125] and len(progression) == 17
    assert table == whole.extract_progression(125)


def test_a_plans_pointwise_tables_equal_lone_builds():
    # r_4 mod 5, r_2 mod 3 and r_6's T mod 7 share one sieve group mod 105;
    # r_6's P, r_8 mod 6 and sigma3m mod 25 one mod 1050 (not coprime to
    # the first); chi mod 7 a third.  r_8 and chi are kept as progressions of
    # step 2 and 4, and sigma3m is read to bound / 5 only, next to A_5 at
    # 5 n.  Below top 49, some of 2, 3, 5 and 7 have no square up to top.
    r2, r4, r6, r8, s3, chi = (
        *(SequenceRef("r", k) for k in (2, 4, 6, 8)),
        SequenceRef("sigma3m"),
        SequenceRef("chi"),
    )
    sides = [(5, r4, 1, 0), (3, r2, 2, 1), (7, r6, 3, 2), (6, r8, 2, 0), (7, chi, 4, 0)]
    instances = tuple(Instance((), m, Term(ref, a, b), ZERO) for m, ref, a, b in sides)
    claim = CongruenceClaim("PLAN", (*instances, Instance((), 25, Term(s3), Term(_a(5), 5))))
    for bound in [*range(61), 20000]:
        plan = TablePlan([claim], Caps(bound=bound))
        read = 0
        for check in plan.checks(claim):
            for t in (check.lhs, check.rhs):
                if t.seq is not None and not t.seq.is_series_backed:
                    indices = claims._indices(t, check)
                    lone = sequence_series(t.seq, Zmod(check.modulus), indices[-1])
                    values = plan.read(t.seq, check.modulus, indices)
                    assert list(values) == lone[indices.start :: indices.step], (bound, t.seq)
                    read += 1
        if bound == 20000:
            groups = {ref.label(): [g.modulus for g in plan._inputs[ref]] for ref in (r6, s3, chi)}
            assert groups == {"r(6)": [105, 1050], "sigma3m": [1050], "chi": [7]}
            assert plan._spec[r8][2] == 2 and plan._spec[chi][2] == 4
            assert plan._spec[s3][1] == bound // 5 < plan._spec[r8][1]
        plan.done(claim)
        assert plan._tables == {}
        assert read == 6 or bound < 5, bound  # sigma3m's first index is 1, next to A_5's 5


def test_hunt_rejects_a_negative_bound():
    with pytest.raises(ValueError):
        hunt(SequenceRef("chi"), 2, 4, -1)
    with pytest.raises(ValueError):
        hunt(_a(5), 5, 4, -1)


# -- identity claims ----------------------------------------------------------


def identities():
    return [c for c in registry.builtin_registry() if isinstance(c, claims.IdentityClaim)]


def run_identities(selected, order):
    return {r.claim_id: r for r in verify_claims(selected, order=order)}


@pytest.mark.parametrize("order", [7, 200])
def test_identity_reports_do_not_depend_on_the_plan(order):
    selected = identities()
    assert len(selected) == 11
    alone = {c.id: run_identities([c], order)[c.id] for c in selected}
    assert run_identities(selected, order) == alone
    assert run_identities(selected[::-1], order) == alone
    assert all(r.status == "pass" for r in alone.values())


def test_each_identity_table_is_built_once_to_its_largest_read(builds, monkeypatch):
    core = []
    cube = registry.jacobi_cube

    def spy(scale, ring, order):
        core.append((ring.modulus, order))  # one cube per core build
        return cube(scale, ring, order)

    monkeypatch.setattr(registry, "jacobi_cube", spy)
    order = 20
    run_identities(identities(), order)
    # pbar is built whole for the A tables and serves I-TRENEER's mod-5
    # read by reduction; I-R25 reads A_25 mod 5 from the table that I-ALPHA
    # reads mod 5^4
    assert sorted(builds) == [
        ("A(125)", 625, 125 * order, 25),  # I-GF125 at 125, I-ALPHA at 25
        ("A(25)", 625, 25 * order, 5),  # I-R25 at 5, I-ALPHA at 25
        ("A(5)", 5, order, 1),
        ("A(625)", 625, 25 * order, 25),
        ("pbar", 625, 125 * order, 1),
    ]
    # one core for I-GF125 (step 125) and the three cases of I-ALPHA (25)
    assert core == [(625, 125 * order // 2)]


def test_progression_tables_are_built_before_whole_ones(builds, monkeypatch):
    # I-GF5 reads first, but pbar to 125*order is not held while the core
    # is built
    cube = registry.jacobi_cube

    def spy(scale, ring, order):
        builds.append(("core", ring.modulus, order))  # one cube per core build
        return cube(scale, ring, order)

    monkeypatch.setattr(registry, "jacobi_cube", spy)
    selected = claims_by_id(["I-GF5", "I-R25", "I-GF125"])
    assert all(r.status == "pass" for r in run_identities(selected, 20).values())
    assert builds == [
        ("core", 625, 1250),  # divided to half of 2500, kept as its 125-progression
        ("pbar", 625, 2500, 1),  # built for A_125, kept whole for A_25 and A_5
        ("A(125)", 625, 2500, 125),
        ("A(25)", 5, 100, 5),
        ("A(5)", 5, 20, 1),
    ]


def test_the_core_is_built_before_pbar_in_every_claim_order(monkeypatch):
    # pbar is built whole, to 125*order, for the first A table; the core is
    # built before it, whatever the claim order, because a claim declares
    # its lhs reads (the core) before its rhs reads (the A tables of the
    # core's step), and the plan builds tables of one step in that order
    events = []
    build, cube = sequences._build_series, registry.jacobi_cube

    def spy_build(ref, ring, order, *inputs, step=1):
        events.append(ref.label())
        return build(ref, ring, order, *inputs, step=step)

    def spy_cube(scale, ring, order):
        events.append("core")  # one cube per core build
        return cube(scale, ring, order)

    monkeypatch.setattr(sequences, "_build_series", spy_build)
    monkeypatch.setattr(registry, "jacobi_cube", spy_cube)
    selected = claims_by_id(["I-GF5", "I-R25", "I-TRENEER", "I-ALPHA", "I-GF125"])
    orders = list(permutations(selected))
    assert len(orders) == 120
    for claim_order in orders:
        events.clear()
        assert all(r.status == "pass" for r in run_identities(claim_order, 20).values())
        assert events.count("core") == events.count("pbar") == 1
        assert events.index("core") < events.index("pbar"), [c.id for c in claim_order]


def test_the_core_is_kept_as_the_progression_its_reads_share():
    gf125, alpha = claims_by_id(["I-GF125", "I-ALPHA"])
    plan = TablePlan([gf125, alpha], order=40)
    plan.checks(gf125)
    core = registry._build_core(Zmod(5**4), 125 * 40)
    assert plan.read(registry._build_core, 5**4, range(0, 125 * 40 + 1, 125)) == core[::125]
    assert len(plan._tables[registry._build_core]) == 125 * 40 // 25 + 1
    assert verify_claim(gf125, plan).status == "pass"
    assert verify_claim(alpha, plan).status == "pass"
    assert plan._tables == {}


def test_an_identity_run_leaves_no_table(capsys):
    ids = [c.id for c in identities()]
    before = module_state()
    assert main(["identities", *ids, "--order", "30", "--json"]) == 0
    assert main(["verify", "--bound", "200", "--order", "30", "--json"]) == 0
    assert module_state() == before


def test_an_identity_outside_the_plan_is_refused():
    gf125, alpha = claims_by_id(["I-GF125", "I-ALPHA"])
    plan = TablePlan([gf125], order=20)
    with pytest.raises(ValueError, match="not in the plan"):
        verify_claim(alpha, plan)
    with pytest.raises(ValueError, match="order must be >= 1"):
        TablePlan([gf125], order=0)
    default = TablePlan([gf125])
    assert verify_claim(gf125, default) == run_identities([gf125], gf125.default_order)["I-GF125"]


def test_a_batch_gives_each_claim_kind_one_plan(monkeypatch):
    # the benchmark stamps its wall time at the first claims.verify_claim
    # call and wraps that attribute with the claim as first argument:
    # verify_claims looks it up per claim, and builds no table before it.
    # The claims of each kind share one plan, and the two plans share no
    # table.
    events = []
    verify, build = claims.verify_claim, sequences._build_series

    def spy_verify(claim, plan):
        events.append(("verify", claim.id, plan))
        return verify(claim, plan)

    def spy_build(ref, ring, order, *inputs, step=1):
        events.append(("build", ref.label(), ring.modulus, step))
        return build(ref, ring, order, *inputs, step=step)

    monkeypatch.setattr(claims, "verify_claim", spy_verify)
    monkeypatch.setattr(sequences, "_build_series", spy_build)
    ids = ["C-SHEN-4", "I-TRENEER", "C-T1", "I-PHI", "C-SHEN-1"]
    reports = list(verify_claims(claims_by_id(ids), Caps(bound=200), order=20))
    assert [r.claim_id for r in reports] == ids
    assert all(r.status == "pass" for r in reports)
    calls = [e for e in events if e[0] == "verify"]
    assert [claim_id for _, claim_id, _ in calls] == ids
    plans = {kind: {id(plan) for _, claim_id, plan in calls if claim_id[0] == kind} for kind in "CI"}
    assert len(plans["C"]) == len(plans["I"]) == 1
    assert plans["C"] != plans["I"]
    assert events[0] == calls[0]
    assert ("build", "pbar", 5, 5) in events  # I-TRENEER's, in the identity plan
    # C-SHEN-4's 24 and C-T1's 5, once, in the congruence plan only
    assert events.count(("build", "pbar", 24 * 5, 1)) == 1
