"""Compare benchmark records written by ``run.py --out``.

    python3 bench/compare.py BASE.json [BASE2.json ...] [-- NEW.json ...]

Each side may hold several records, one per seed.  For every workload and
metric the script prints the median of the records' medians and their
spread (quartile distance over median).  Given a second side, it also
prints the change of the medians and, for end-to-end metrics, whether the
change stays within the bound in BENCHMARK.json.  Records taken on
different kernel backends are refused with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def side_medians(records) -> dict:
    """{(workload, metric): [median per record]} over end-to-end and per-layer."""
    values = defaultdict(list)
    for rec in records:
        for workload, run in rec["runs"].items():
            for section in ("end_to_end", "per_layer"):
                for name, m in run.get(section, {}).items():
                    values[(workload, name)].append(m["median"])
    return values


def spread(values) -> float:
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def end_to_end_bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def main(argv) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    sides = [argv[:split], argv[split + 1 :]]
    if not sides[0]:
        print(__doc__, file=sys.stderr)
        return 2
    records = [[json.loads(Path(p).read_text()) for p in paths] for paths in sides]
    backends = {rec["env"]["backend"] for side in records for rec in side}
    if len(backends) > 1:
        print(f"error: refusing to compare results from different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    base = side_medians(records[0])
    new = side_medians(records[1]) if records[1] else None
    bounds = end_to_end_bounds()
    print(f"backend={backends.pop()}  base records={len(records[0])}  new records={len(records[1])}")
    for key, values in base.items():
        workload, name = key
        line = f"{workload:<12} {name:<28} {statistics.median(values):>12.6g}  spread {spread(values):6.1%}"
        if new is not None and new.get(key):
            b, n = statistics.median(values), statistics.median(new[key])
            change = (n - b) / b if b else 0.0
            line += f"  -> {n:>12.6g}  spread {spread(new[key]):6.1%}  change {change:+7.1%}"
            if name in bounds:
                line += "  worse" if change > bounds[name] else "  ok"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
