"""Tests of the benchmark's tracer: self time, restoring wrapped attributes,
operation counts against hand-computed values, and repeatable counts.

Run with: python3 -m pytest bench/tests
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from regover import cli, sequences  # noqa: E402
from regover.sequences import SequenceRef  # noqa: E402
from regover.series import Series, ZZ, Zmod  # noqa: E402

SMALL_ARGV = ["verify", "C-T1", "C-T6", "C-SHEN-1", "I-PHI", "I-PBAR", "I-GF5",
              "--bound", "2000", "--order", "200", "--json"]


def test_self_time_of_nested_spans():
    # (name, enter, start, end, leave, parent)
    spans = [
        ("cli", 0.0, 0.0, 16.0, 16.0, -1),
        ("claims", 1.0, 1.0, 15.0, 15.0, 0),
        ("value", 1.5, 2.0, 4.0, 4.5, 1),  # wrapper bookkeeping outside start..end
        ("value", 5.0, 5.0, 8.0, 8.0, 1),
        ("arith", 6.0, 6.0, 7.0, 7.0, 3),
        ("build", 9.0, 9.0, 14.0, 14.0, 1),
        ("build", 10.0, 10.0, 12.0, 12.0, 5),  # recursion: busy counts the outer span once
    ]
    stats = tracer.summarize(spans)
    assert stats["cli"] == [1, 16.0, 2.0]
    assert stats["claims"] == [1, 14.0, 14.0 - 3.0 - 3.0 - 5.0]
    assert stats["value"] == [2, 5.0, 2.0 + 2.0]
    assert stats["arith"] == [1, 1.0, 1.0]
    assert stats["build"] == [2, 5.0, 3.0 + 2.0]


def _package_attributes():
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "regover"]
    attrs = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    attrs.update({("Series", k): v for k, v in vars(Series).items()})
    return attrs


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_uninstall_restores_every_wrapped_attribute():
    assert _run_cli(SMALL_ARGV) == 0  # fill lazily built module state first
    before = _package_attributes()
    t = tracer.Tracer()
    tracer.install_layers(t)
    assert sequences.arith is not before[("regover.sequences", "arith")]
    assert _run_cli(SMALL_ARGV) == 0
    t.uninstall()
    after = _package_attributes()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert t.spans and not t._saved


def test_ops_and_trial_division_steps_match_hand_values():
    sequences.clear_caches()
    t = tracer.Tracer()
    tracer.install_layers(t)
    try:
        # 1/(q;q) to order 20: the divisor tail is nonzero at the pentagonal
        # numbers 1, 2, 5, 7, 12, 15, so ops = 20 + 19 + 16 + 14 + 9 + 6
        p = sequences.sequence_series(SequenceRef("p"), ZZ, 20)
        # pairs (0,0), (1,0), (0,2): 1 + 1 = 2 < 3 but 1 + 2 = 3 is cut off
        Series(ZZ, [1, 1, 0]) * Series(ZZ, [1, 0, 1])
        # mod 3, a nonzero at 0, 1, 3 and b at 0, 2 (4 reduces to 1, 3 to 0):
        # pairs with i + j < 4 are (0,0), (1,0), (3,0), (0,2), (1,2)
        Series(Zmod(3), [1, 2, 0, 1]) * Series(Zmod(3), [2, 3, 4, 0])
        # r_6(20) makes two divisor passes of isqrt(20) = 4, d*(10) one of 3
        sequences.sequence_value(SequenceRef("r", 6), 20)
        sequences.sequence_value(SequenceRef("dstar"), 10)
        sequences.sequence_value(SequenceRef("chi"), 7)
    finally:
        t.uninstall()
    m = tracer.layer_metrics(t)
    assert m["kernels.div_exact.calls"] == 1
    assert m["kernels.div_exact.ops"] == 84
    assert m["kernels.mul_exact.ops"] == 3
    assert m["kernels.mul_mod.ops"] == 5
    assert m["kernels.div_mod.calls"] == 0
    partitions = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231,
                  297, 385, 490, 627]
    assert p.coeffs == partitions
    out_bits = sum(c.bit_length() for c in partitions) + sum(
        c.bit_length() for c in [1, 1, 1]
    )
    assert m["kernels.exact.out_mib"] * 8 * 2**20 == out_bits
    assert m["arith.calls"] == 3
    assert m["arith.trial_div_steps"] == 2 * 4 + 3
    assert m["sequences.series.calls"] == 1
    assert m["sequences.series.builds"] == 1
    assert m["products.calls"] == 1


def _traced_counts():
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--trace", "1", "--", *SMALL_ARGV],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    layers = json.loads(done.stdout.splitlines()[-1])["layers"]
    units = tracer.metric_units([])
    return {k: v for k, v in layers.items() if units.get(k) == "count"}


def test_two_traced_runs_give_identical_counts():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    for name in ("kernels.mul_mod.ops", "kernels.div_exact.ops", "arith.trial_div_steps",
                 "sequences.series.builds", "claims.instances"):
        assert first[name] > 0
