"""Span tracer for the regover benchmark.

The tracer wraps public functions at each layer boundary of the regover
package from outside it.  A name is wrapped where its caller looks it up
(for example ``regover.claims.sequence_value`` or the ``arith`` module
reference held by ``regover.sequences``), so a layer's calls to itself stay
untraced.  Every wrapped call records one span in memory:

    (name, enter, start, end, leave, parent)

``start``/``end`` bracket the wrapped call; ``enter``/``leave`` also cover
the wrapper's own bookkeeping (labels and operation counts), which a parent
span excludes from its self time just like a child's duration.  ``parent``
is the index of the enclosing span, or -1.

Counts computed from arguments (kernel operation counts, trial-division
steps, claim instances) are kept beside the spans.  ``Tracer.uninstall``
puts every wrapped attribute back.
"""

from __future__ import annotations

import sys
import time
import types
from bisect import bisect_left
from collections import defaultdict
from math import isqrt

KERNELS = ("mul_mod", "div_mod", "mul_exact", "div_exact")
SERIES_OPS = {
    "mul": ("__mul__", "__rmul__"),
    "div": ("__truediv__", "inverse"),
    "pow": ("__pow__",),
    "add": ("__add__", "__sub__", "__neg__"),
}
PRODUCTS = ("eta_quotient", "theta", "construct")
MIB = 1 << 20


class Tracer:
    """Wraps attributes, records spans and counts, and restores on uninstall."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self._stack = [-1]
        self._saved: list = []  # (owner, attr, original, was_own_attribute)

    def replace(self, owner, attr, value):
        """Set owner.attr to value, remembering the original for uninstall."""
        self._saved.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, name, count=None):
        """Trace calls of owner.attr as spans called ``name``.

        name may be a callable of the call's arguments returning the span
        name.  count(counts, result, *args) runs after the call, outside the
        span, and adds to the tracer's counts.
        """
        fn = getattr(owner, attr)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            enter = clock()
            label = name(*args) if callable(name) else name
            idx = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[idx] = (label, enter, start, end, end, parent)
                raise
            end = clock()
            stack.pop()
            if count is not None:
                count(counts, result, *args)
            spans[idx] = (label, enter, start, end, clock(), parent)
            return result

        self.replace(owner, attr, traced)

    def uninstall(self):
        """Restore every replaced attribute, newest first."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write_spans(self, path):
        """Write the spans as tab-separated name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, _, start, end, _, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def summarize(spans) -> dict:
    """Per span name: [calls, busy seconds, self seconds].

    Busy time counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice.  Self time is a span's duration
    minus the intervals its children cover, their bookkeeping included.
    """
    covered = [0.0] * len(spans)
    for _, enter, _, _, leave, parent in spans:
        if parent >= 0:
            covered[parent] += leave - enter
    stats: dict = {}
    for i, (name, _, start, end, _, parent) in enumerate(spans):
        s = stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += 1
        s[2] += end - start - covered[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][5]
        if p < 0:
            s[1] += end - start
    return stats


# -- operation counts computed from arguments ---------------------------------


def _nonzero_positions(coeffs, limit, m):
    if m is None:
        return [i for i, c in enumerate(coeffs[:limit]) if c]
    return [i for i, c in enumerate(coeffs[:limit]) if c % m]


def mul_ops(a, b, out_len, m=None) -> int:
    """Nonzero coefficient pairs (i, j) with i + j < out_len."""
    ia = _nonzero_positions(a, out_len, m)
    ib = _nonzero_positions(b, out_len, m)
    if len(ia) > len(ib):
        ia, ib = ib, ia
    return sum(bisect_left(ib, out_len - i) for i in ia)


def div_ops(den, out_len, m=None) -> int:
    """Sum of (out_len - k) over the nonzero divisor-tail positions k >= 1."""
    return sum(out_len - k for k in _nonzero_positions(den, out_len, m) if k)


def trial_div_steps(fn_name, args) -> int:
    """isqrt(n) per trial-division pass over the divisors of n; r_6 makes two
    passes and chi none."""
    n = args[-1]
    if fn_name == "r_formula":
        passes = 2 if args[0] == 6 else 1
    else:
        passes = 1 if fn_name in ("d_star", "sigma3_minus") else 0
    return passes * isqrt(n) if n >= 1 else 0


def _kernel_counter(kernel):
    exact = kernel.endswith("_exact")
    is_mul = kernel.startswith("mul")

    def count(counts, result, *args):
        m = None if exact else args[3]
        if is_mul:
            counts[f"kernels.{kernel}.ops"] += mul_ops(args[0], args[1], args[2], m)
        else:
            counts[f"kernels.{kernel}.ops"] += div_ops(args[1], args[2], m)
        if exact:
            counts["kernels.exact.out_bits"] += sum(map(int.bit_length, result))

    return count


def _arith_counter(fn_name):
    def count(counts, result, *args):
        counts["arith.trial_div_steps"] += trial_div_steps(fn_name, args)

    return count


def _count_instances(counts, report, *args):
    counts["claims.instances"] += report.instances


def _claim_span_name(claim, *args):
    return f"claims.{claim.id}"


# -- the layer boundaries -----------------------------------------------------


def install_layers(tracer: Tracer):
    """Wrap every layer boundary the benchmark reports on."""
    from regover import arith, claims, cli, kernels, registry, sequences
    from regover.series import Series

    for k in KERNELS:
        tracer.wrap(kernels, k, f"kernels.{k}", _kernel_counter(k))
    for op, methods in SERIES_OPS.items():
        for method in methods:
            tracer.wrap(Series, method, f"series.{op}")

    for owner in (registry, sequences):
        tracer.wrap(owner, "euler_product", "products.construct")
        tracer.wrap(owner, "phi", "products.construct")
    tracer.wrap(registry, "eta_quotient", "products.eta_quotient")
    for fn in ("theta_f_series", "theta_f_product", "phi_five_dissection_residual"):
        tracer.wrap(registry, fn, "products.theta")

    # sequence_series is looked up as a module global by sequence_table and
    # _build_series, and imported by name into registry
    tracer.wrap(sequences, "sequence_series", "sequences.series")
    tracer.wrap(registry, "sequence_series", "sequences.series")
    tracer.wrap(sequences, "_build_series", "sequences.build")
    tracer.wrap(claims, "sequence_value", "sequences.value")
    tracer.wrap(registry, "oracle_regular_overpartition", "sequences.oracle")

    # sequences reaches arith through its module reference; a stand-in
    # namespace traces those calls and leaves arith's calls to itself alone
    proxy = types.SimpleNamespace(**vars(arith))
    for fn in ("r_formula", "d_star", "sigma3_minus", "chi"):
        tracer.wrap(proxy, fn, "arith", _arith_counter(fn))
    tracer.replace(sequences, "arith", proxy)
    tracer.wrap(registry, "primes_up_to", "arith")

    tracer.wrap(claims, "verify_claim", _claim_span_name, _count_instances)
    tracer.wrap(claims, "hunt", "claims.hunt")
    tracer.wrap(registry, "builtin_registry", "registry")
    tracer.wrap(registry, "claims_by_id", "registry")
    tracer.wrap(cli, "main", "cli")


def cache_footprint() -> tuple[int, int]:
    """Coefficients resident in the sequence-series cache, and their bytes
    (list slots plus each distinct int object outside the small-int cache)."""
    from regover import sequences

    cache = getattr(sequences, "_series_cache", {})
    coeffs = 0
    size = 0
    seen = set()
    for series in cache.values():
        values = series.coeffs
        coeffs += len(values)
        size += sys.getsizeof(values)
        for c in values:
            if not -5 <= c <= 256 and id(c) not in seen:
                seen.add(id(c))
                size += sys.getsizeof(c)
    return coeffs, size


# -- per-layer metrics ----------------------------------------------------------


def metric_units(claim_ids) -> dict:
    """Every per-layer metric a traced worker reports, with its unit."""
    units = {}
    for k in KERNELS:
        units.update({f"kernels.{k}.calls": "count", f"kernels.{k}.busy_s": "s",
                      f"kernels.{k}.ops": "count"})
    units["kernels.exact.out_mib"] = "MiB"
    for op in SERIES_OPS:
        units.update({f"series.{op}.calls": "count", f"series.{op}.self_s": "s"})
    units["products.calls"] = "count"
    for p in PRODUCTS:
        units[f"products.{p}.busy_s"] = "s"
    units.update({
        "sequences.series.calls": "count",
        "sequences.series.builds": "count",
        "sequences.series.hit_ratio": "ratio",
        "sequences.series.build_s": "s",
        "sequences.cache_coeffs": "count",
        "sequences.cache_mib": "MiB",
        "sequences.value.calls": "count",
        "sequences.value.busy_s": "s",
        "sequences.oracle.calls": "count",
        "sequences.oracle.busy_s": "s",
        "arith.calls": "count",
        "arith.busy_s": "s",
        "arith.trial_div_steps": "count",
        "claims.instances": "count",
        "claims.self_s": "s",
        "claims.hunt.busy_s": "s",
        "claims.hunt.self_s": "s",
    })
    for cid in claim_ids:
        units[f"claims.{cid}.busy_s"] = "s"
    units.update({"registry.build_s": "s", "cli.self_s": "s"})
    return units


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values from the tracer's spans and counts, keyed as in
    metric_units; only the claims that ran get a claims.<id>.busy_s."""
    stats = summarize(tracer.spans)
    counts = tracer.counts

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    out = {}
    for k in KERNELS:
        name = f"kernels.{k}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.ops"] = counts[f"{name}.ops"]
    out["kernels.exact.out_mib"] = counts["kernels.exact.out_bits"] / 8 / MIB
    for op in SERIES_OPS:
        out[f"series.{op}.calls"] = calls(f"series.{op}")
        out[f"series.{op}.self_s"] = self_s(f"series.{op}")
    out["products.calls"] = sum(calls(f"products.{p}") for p in PRODUCTS)
    for p in PRODUCTS:
        out[f"products.{p}.busy_s"] = busy(f"products.{p}")
    series_calls = calls("sequences.series")
    builds = calls("sequences.build")
    out["sequences.series.calls"] = series_calls
    out["sequences.series.builds"] = builds
    out["sequences.series.hit_ratio"] = 1 - builds / series_calls if series_calls else 0.0
    out["sequences.series.build_s"] = busy("sequences.build")
    coeffs, size = cache_footprint()
    out["sequences.cache_coeffs"] = coeffs
    out["sequences.cache_mib"] = size / MIB
    for part in ("value", "oracle"):
        out[f"sequences.{part}.calls"] = calls(f"sequences.{part}")
        out[f"sequences.{part}.busy_s"] = busy(f"sequences.{part}")
    out["arith.calls"] = calls("arith")
    out["arith.busy_s"] = busy("arith")
    out["arith.trial_div_steps"] = counts["arith.trial_div_steps"]
    claim_names = [n for n in stats if n.startswith("claims.") and n != "claims.hunt"]
    out["claims.instances"] = counts["claims.instances"]
    out["claims.self_s"] = sum(self_s(n) for n in claim_names)
    out["claims.hunt.busy_s"] = busy("claims.hunt")
    out["claims.hunt.self_s"] = self_s("claims.hunt")
    for name in claim_names:
        out[f"{name}.busy_s"] = busy(name)
    out["registry.build_s"] = busy("registry")
    out["cli.self_s"] = self_s("cli")
    return out
