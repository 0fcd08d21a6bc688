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
    registry.builtin_registry()  # built once per process; not the tracer's doing
    before = [dict(vars(m)) for m in modules] + [dict(vars(Series))]
    sequence_value = claims.sequence_value
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install_layers(tracer)
        assert claims.sequence_value is not sequence_value
        (t6,) = registry.claims_by_id(["C-T6"])
        assert claims.verify_claim(t6, 50).passed
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"claims.C-T6", "sequences.value", "arith", "registry"} <= names
    assert tracer.counts["arith.trial_div_steps"] > 0
    after = [dict(vars(m)) for m in modules] + [dict(vars(Series))]
    assert after == before


def test_one_plan_over_the_congruences_builds_each_table_once():
    # the benchmark's per-layer build count reads the sequences.build spans:
    # every plan build goes through sequences._build_series by attribute
    tracer_mod = load_tracer()
    selected = [c for c in registry.builtin_registry() if isinstance(c, claims.CongruenceClaim)]
    assert len(selected) == 24
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install_layers(tracer)
        plan = claims.TablePlan(selected, claims.Caps(bound=2000))
        assert all(claims.verify_claim(c, 2000, plan=plan).passed for c in selected)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("sequences.build") == 10
    assert names.count("kernels.div_mod") == 1
