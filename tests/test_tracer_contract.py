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
