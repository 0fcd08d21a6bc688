"""The benchmark's tracer wraps package attributes by name from outside the
package (bench/tracer.py).  Installing and uninstalling it here makes a
refactor that drops or renames a wrapped name fail the package tests too."""

import importlib.util
from pathlib import Path

from regover import arith, claims, cli, kernels, registry, sequences
from regover.series import Series

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_against_the_package():
    tracer_mod = load_tracer()
    modules = (arith, claims, cli, kernels, registry, sequences)
    before = [dict(vars(m)) for m in modules] + [dict(vars(Series))]
    sequence_value = claims.sequence_value
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install_layers(tracer)
        assert claims.sequence_value is not sequence_value
        (t6,) = registry.claims_by_id(["C-T6"])
        assert claims.verify_congruence(t6, 50).passed
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    # the sigma3m table is sieved from arith's values at the prime powers
    assert {"claims.C-T6", "sequences.build", "arith", "registry"} <= names
    assert tracer.counts["arith.trial_div_steps"] > 0
    after = [dict(vars(m)) for m in modules] + [dict(vars(Series))]
    assert after == before


def test_one_plan_over_the_congruences_builds_each_table_once():
    # the benchmark's per-layer build count reads the sequences.build spans:
    # every plan build goes through sequences._build_series by attribute,
    # the ten series tables and the five sieved ones (r_2, r_4, r_6, r_8
    # and sigma3m)
    tracer_mod = load_tracer()
    selected = [c for c in registry.builtin_registry() if isinstance(c, claims.CongruenceClaim)]
    assert len(selected) == 24
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install_layers(tracer)
        assert all(r.passed for r in claims.verify_claims(selected, claims.Caps(bound=2000)))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("sequences.build") == 15
    assert names.count("kernels.div_mod") == 1


def test_one_plan_over_the_identities_builds_each_table_once(monkeypatch):
    # the spies sit under the tracer, so the spans counted are the ones the
    # benchmark reads, and the spies add the rings and orders
    tracer_mod = load_tracer()
    builds, cores = [], []
    build, cube = sequences._build_series, registry.jacobi_cube

    def spy_build(ref, ring, order, *inputs):
        builds.append((ref.label(), ring.modulus, order))
        return build(ref, ring, order, *inputs)

    def spy_cube(scale, ring, order):
        cores.append((ring.modulus, order))  # one cube per core build
        return cube(scale, ring, order)

    monkeypatch.setattr(sequences, "_build_series", spy_build)
    monkeypatch.setattr(registry, "jacobi_cube", spy_cube)
    selected = [c for c in registry.builtin_registry() if isinstance(c, claims.IdentityClaim)]
    assert len(selected) == 11
    order = 200
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install_layers(tracer)
        plan = claims.TablePlan(selected, order=order)
        assert all(claims.verify_claim(c, plan).passed for c in selected)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("sequences.build") == 3
    assert sorted(builds) == [
        ("A(25)", 5, 5 * order),
        ("A(5)", 5, order),
        ("pbar", 625, 125 * order),
    ]
    assert cores == [(625, 125 * order)]
    # pbar 1, the core 1 (by (q^2;q^2)^3), the outer factors of I-GF125 and
    # I-ALPHA's three cases 4, and I-GF5's eta side 4
    assert names.count("kernels.div_mod") == 10
    assert plan._tables == {}
