"""The table plan of a run: every table is built once, over the lcm of the
moduli its claims read it at and to the largest index they read, and
dropped after its last consumer, with every report unchanged."""

import pytest

from regover import claims, registry, sequences
from regover.claims import (
    Caps,
    TablePlan,
    hunt,
    verify_claim,
    verify_congruence,
    verify_identity,
)
from regover.cli import main
from regover.registry import _a, claims_by_id
from regover.sequences import SequenceRef
from regover.series import Zmod

BOUND = 2000


@pytest.fixture(autouse=True)
def fresh_tables():
    sequences.clear_caches()
    yield
    sequences.clear_caches()


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


def congruences():
    return [c for c in registry.builtin_registry() if isinstance(c, claims.CongruenceClaim)]


def run_plan(selected):
    plan = TablePlan(selected, Caps(bound=BOUND))
    return {c.id: verify_claim(c, BOUND, plan=plan) for c in selected}


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


def test_a_run_leaves_no_table_it_built(capsys):
    ids = [c.id for c in congruences()]
    assert main(["verify", *ids, "--bound", str(BOUND), "--json"]) == 0
    assert sequences._series_cache == {}


def test_hunt_and_a_lone_claim_build_at_the_requested_modulus(builds):
    hunt(_a(3), 6, 10, BOUND, 1)
    assert builds == [("pbar", 6, BOUND), ("A(3)", 6, BOUND)]
    builds.clear()
    (shen2,) = claims_by_id(["C-SHEN-2"])
    assert verify_congruence(shen2, BOUND).passed
    assert [(label, m) for label, m, _ in builds] == [("pbar", 6), ("A(3)", 6)]
    assert sequences._series_cache == {}


def test_a_run_leaves_other_callers_tables_alone(capsys):
    a5, pbar = _a(5), SequenceRef("pbar")
    sequences.sequence_series(a5, Zmod(5), 100)
    sequences.sequence_series(pbar, Zmod(5), 100)
    cached = dict(sequences._series_cache)
    assert set(cached) == {("A", 5, 5), ("pbar", None, 5)}
    (t1,) = claims_by_id(["C-T1"])
    assert verify_congruence(t1, 200).passed
    assert sequences._series_cache == cached
    assert all(sequences._series_cache[k] is v for k, v in cached.items())
    assert main(["verify", "C-T1", "--bound", "200", "--json"]) == 0
    assert sequences._series_cache == cached
    assert all(sequences._series_cache[k] is v for k, v in cached.items())


def test_a_plan_that_verifies_a_claim_twice_keeps_no_table():
    shen1, shen4 = claims_by_id(["C-SHEN-1", "C-SHEN-4"])
    plan = TablePlan([shen1, shen4], Caps(bound=BOUND))
    first = verify_claim(shen1, BOUND, plan=plan)
    assert verify_claim(shen4, BOUND, plan=plan).passed
    assert verify_claim(shen1, BOUND, plan=plan) == first
    assert first.passed
    assert sequences._series_cache == {}
    assert plan._tables == {}


def test_a_claim_outside_the_plan_or_caps_is_refused():
    shen1, shen2 = claims_by_id(["C-SHEN-1", "C-SHEN-2"])
    plan = TablePlan([shen1], Caps(bound=BOUND))
    with pytest.raises(ValueError):
        verify_congruence(shen2, BOUND, plan=plan)
    with pytest.raises(ValueError):
        verify_congruence(shen1, BOUND + 1, plan=plan)


def test_hunt_rejects_a_negative_bound():
    with pytest.raises(ValueError):
        hunt(SequenceRef("chi"), 2, 4, -1)
    with pytest.raises(ValueError):
        hunt(_a(5), 5, 4, -1)


# -- identity claims ----------------------------------------------------------


def identities():
    return [c for c in registry.builtin_registry() if isinstance(c, claims.IdentityClaim)]


def run_identities(selected, order):
    plan = TablePlan(selected, order=order)
    return {c.id: verify_identity(c, order, plan) for c in selected}


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
    assert verify_identity(gf125, 40, plan).passed
    assert verify_identity(alpha, 40, plan).passed
    assert plan._tables == {}


def test_an_identity_run_leaves_no_table(capsys):
    ids = [c.id for c in identities()]
    assert main(["identities", *ids, "--order", "30", "--json"]) == 0
    assert main(["verify", "--bound", "200", "--order", "30", "--json"]) == 0
    assert sequences._series_cache == {}


def test_an_identity_outside_the_plan_or_order_is_refused():
    gf125, alpha = claims_by_id(["I-GF125", "I-ALPHA"])
    plan = TablePlan([gf125], order=20)
    with pytest.raises(ValueError, match="not in the plan"):
        verify_identity(alpha, 20, plan)
    with pytest.raises(ValueError, match="order 20, not 21"):
        verify_identity(gf125, 21, plan)
    default = TablePlan([gf125])
    assert verify_identity(gf125, gf125.default_order, default).passed
