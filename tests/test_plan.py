"""The table plan of a congruence run: every series-backed sequence is built
once, over the lcm of the moduli its claims read it at, and dropped after
its last consumer, with every report unchanged."""

import pytest

from regover import claims, registry, sequences
from regover.claims import Caps, TablePlan, hunt, verify_claim, verify_congruence
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
    assert len(labels) == len(set(labels)) == 10
    assert ("pbar", 840, BOUND) in builds  # lcm(2, 3, 5, 6, 7, 24)
    assert ("A(3)", 24, BOUND) in builds  # lcm(2, 3, 6, 24)
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
