"""The table plan of a run: every table is built once, over the lcm of the
moduli its claims read it at and to the largest index they read, and
dropped after its last consumer, with every report unchanged.  The plan,
or a library call's caller, is the only holder of a table: the package
keeps no table or claim list at module level."""

import sys

import pytest

from regover import claims, registry, sequences
from regover.claims import (
    Caps,
    TablePlan,
    hunt,
    verify_claim,
    verify_claims,
    verify_congruence,
    verify_identity,
)
from regover.cli import main
from regover.registry import _a, claims_by_id
from regover.sequences import SequenceRef
from regover.series import Zmod

BOUND = 2000


@pytest.fixture
def builds(monkeypatch):
    """(label, modulus, order) of every table built, in order."""
    seen = []
    build = sequences._build_series

    def spy(ref, ring, order, *inputs):
        seen.append((ref.label(), ring.modulus, order))
        return build(ref, ring, order, *inputs)

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
    alone = {c.id: verify_congruence(c, BOUND) for c in selected}
    assert run_plan(selected) == alone
    assert run_plan(selected[::-1]) == alone
    assert all(r.passed for r in alone.values())


def test_each_sequence_is_built_once_over_the_lcm_of_its_moduli(builds):
    run_plan(congruences())
    labels = [label for label, _, _ in builds]
    # ten series tables and five sieved ones
    assert len(labels) == len(set(labels)) == 15
    assert ("pbar", 840, BOUND) in builds  # lcm(2, 3, 5, 6, 7, 24)
    assert ("A(3)", 24, BOUND) in builds  # lcm(2, 3, 6, 24)
    assert set(builds) > {
        ("r(2)", 3, BOUND),
        ("r(4)", 5, BOUND),
        ("r(6)", 7, BOUND),
        ("r(8)", 3, BOUND),
        ("sigma3m", 5, BOUND // 5),  # C-T6 reads it at n for A_25(5n)
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
    assert builds == [("pbar", 6, BOUND), ("A(3)", 6, BOUND)]
    builds.clear()
    (shen2,) = claims_by_id(["C-SHEN-2"])
    assert verify_congruence(shen2, BOUND).passed
    assert [(label, m) for label, m, _ in builds] == [("pbar", 6), ("A(3)", 6)]


def test_a_plan_that_verifies_a_claim_twice_keeps_no_table():
    shen1, shen4 = claims_by_id(["C-SHEN-1", "C-SHEN-4"])
    plan = TablePlan([shen1, shen4], Caps(bound=BOUND))
    first = verify_claim(shen1, plan)
    assert verify_claim(shen4, plan).passed
    assert verify_claim(shen1, plan) == first
    assert first.passed
    assert plan._tables == {}


def test_a_claim_outside_the_plan_is_refused():
    shen1, shen2 = claims_by_id(["C-SHEN-1", "C-SHEN-2"])
    plan = TablePlan([shen1], Caps(bound=BOUND))
    with pytest.raises(ValueError, match="not in the plan"):
        verify_claim(shen2, plan)


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
    alone = {c.id: verify_identity(c, order) for c in selected}
    assert run_identities(selected, order) == alone
    assert run_identities(selected[::-1], order) == alone
    assert all(r.passed for r in alone.values())


def test_each_identity_table_is_built_once_to_its_largest_read(builds, monkeypatch):
    core = []
    cube = registry.jacobi_cube

    def spy(scale, ring, order):
        core.append((ring.modulus, order))  # one cube per core build
        return cube(scale, ring, order)

    monkeypatch.setattr(registry, "jacobi_cube", spy)
    order = 20
    run_identities(identities(), order)
    # pbar serves the mod-5 reads of I-TRENEER, A_5 and A_25 by reduction
    assert sorted(builds) == [
        ("A(25)", 5, 5 * order),
        ("A(5)", 5, order),
        ("pbar", 625, 125 * order),
    ]
    # one core for I-GF125 (step 125) and the three cases of I-ALPHA (25)
    assert core == [(625, 125 * order)]


def test_progression_tables_are_built_before_whole_ones(builds, monkeypatch):
    # I-GF5 reads first, but pbar to 125*order is not held while the core
    # is expanded to the same length
    cube = registry.jacobi_cube

    def spy(scale, ring, order):
        builds.append(("core", ring.modulus, order))  # one cube per core build
        return cube(scale, ring, order)

    monkeypatch.setattr(registry, "jacobi_cube", spy)
    selected = claims_by_id(["I-GF5", "I-R25", "I-GF125"])
    assert all(r.passed for r in run_identities(selected, 20).values())
    assert builds == [
        ("core", 625, 2500),  # kept as its 125-progression
        ("pbar", 625, 2500),  # built for A_25, kept whole for I-GF5 and I-GF125
        ("A(25)", 5, 100),  # kept as its 5-progression
        ("A(5)", 5, 20),
    ]


def test_the_core_is_kept_as_the_progression_its_reads_share():
    gf125, alpha = claims_by_id(["I-GF125", "I-ALPHA"])
    plan = TablePlan([gf125, alpha], order=40)
    key = (registry._build_core, claims._IDENTITY)
    plan.identity_tables(gf125)
    assert len(plan._tables[key]) == 125 * 40 // 25 + 1
    assert verify_claim(gf125, plan).passed
    assert verify_claim(alpha, plan).passed
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
    assert verify_claim(gf125, default) == verify_identity(gf125, gf125.default_order)


def test_a_batch_calls_verify_claim_once_per_claim_from_one_plan(monkeypatch):
    # the benchmark stamps its wall time at the first claims.verify_claim
    # call and wraps that attribute with the claim as first argument:
    # verify_claims looks it up per claim, and builds no table before it
    events = []
    verify, build = claims.verify_claim, sequences._build_series

    def spy_verify(claim, plan):
        events.append(("verify", claim.id, plan))
        return verify(claim, plan)

    def spy_build(ref, ring, order, *inputs):
        events.append(("build", ref.label(), ring.modulus))
        return build(ref, ring, order, *inputs)

    monkeypatch.setattr(claims, "verify_claim", spy_verify)
    monkeypatch.setattr(sequences, "_build_series", spy_build)
    ids = ["C-SHEN-4", "I-TRENEER", "C-T1", "I-PHI", "C-SHEN-1"]
    reports = list(verify_claims(claims_by_id(ids), Caps(bound=200), order=20))
    assert [r.claim_id for r in reports] == ids
    assert all(r.passed for r in reports)
    calls = [e for e in events if e[0] == "verify"]
    assert [claim_id for _, claim_id, _ in calls] == ids
    assert len({id(plan) for _, _, plan in calls}) == 1
    assert events[0] == calls[0]
    assert ("build", "pbar", 24 * 5) in events  # C-SHEN-4's 24 and C-T1's 5
