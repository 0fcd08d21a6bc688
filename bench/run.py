"""The regover benchmark: the CLI as its users run it, one process per command.

    python3 bench/run.py --workload congruences|identities|hunt|all \
        --seed N --seconds S --trace 0|1 [--out FILE]

Each timed sample is a fresh, single-threaded process (worker.py) running
one ``regover`` command with ``--json`` on whatever kernel backend imports
from ``src/``.  Samples run back to back (a closed loop with one client)
until the next one would end after ``--seconds``, and at least three run.
Every sample's output is checked against expected.json.

With ``--trace 0`` the result holds the end-to-end metrics, each the median
over the samples: ``wall_s`` (first claim or hunt call to the end of the
report), ``setup_s`` (process launch to the first claim call) and
``peak_rss_mib`` (the process's ``ru_maxrss``).  Times are in reference
seconds.  On a shared machine the speed of one CPU drifts by a third or more
for seconds to minutes at a time, so each sample is pinned to one CPU, in
turn over the allowed CPUs, and the benchmark times a fixed probe loop on
that CPU before the sample, every PROBE_INTERVAL_S while it runs, and after
it.  The sample's seconds are scaled by PROBE_REF_S over the median probe
time.  The record keeps the raw seconds as ``wall_raw_s`` and
``setup_raw_s``.

With ``--trace 1`` each round runs one untraced and one traced sample, and
the result holds the per-layer metrics of tracer.py plus the tracing
overhead.  ``--seed`` only permutes the claim order; every expected output
is independent of it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
claim report or one hunt call; a sample that exits non-zero fails all of
its operations.  The exit code is 0 only when every operation matched.
README.md lists every metric and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "regover"
WORKER = BENCH / "worker.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("congruences", "identities", "hunt")
HUNT_ARGV = ["hunt", "A", "--ell", "5", "--mod", "5", "--max-step", "100",
             "--bound", "100000", "--json"]
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
MIN_ROUNDS = 3
# probe() time on a quiet CPU: 2-vCPU Xeon VM at 2.0 GHz, Python 3.11
PROBE_REF_S = 0.0088
PROBE_INTERVAL_S = 0.3

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_expected() -> dict:
    return json.loads((BENCH / "expected.json").read_text())


def workload_argv(workload: str, seed: int, expected: dict) -> list[str]:
    """The regover command line of a workload; the seed permutes claim order."""
    if workload == "hunt":
        return list(HUNT_ARGV)
    ids = list(expected[workload])
    random.Random(seed).shuffle(ids)
    if workload == "congruences":
        return ["verify", *ids, "--bound", "20000", "--json"]
    return ["identities", *ids, "--order", "1000", "--json"]


def check(workload: str, code: int, stdout: str, expected: dict) -> tuple[int, int]:
    """(operations attempted, operations failed) for one sample's output."""
    if workload == "hunt":
        if code != 0:
            return 1, 1
        try:
            rows = [[r["a"], r["b"], r["instances"]] for r in map(json.loads, stdout.splitlines())]
        except (ValueError, KeyError, TypeError):
            return 1, 1
        return 1, int(rows != expected["hunt"])
    want = expected[workload]
    if code != 0:
        return len(want), len(want)
    try:
        reports = [json.loads(line) for line in stdout.splitlines()]
    except ValueError:
        return len(want), len(want)
    seen, extra = {}, 0
    for report in reports:
        rid = report.get("id") if isinstance(report, dict) else None
        if rid in want and rid not in seen:
            seen[rid] = report
        else:
            extra += 1
    failed = extra + sum(
        1
        for cid, fields in want.items()
        if cid not in seen or any(seen[cid].get(k) != v for k, v in fields.items())
    )
    return len(want) + extra, failed


def probe() -> float:
    """CPU seconds this thread takes for a fixed bit of pure-Python work: a
    small-int modular convolution, as in the kernels, and big-int squarings.
    It never calls regover, so no change to the package can move it."""
    start = time.thread_time()
    n = 300
    a = [(i * i + 1) % 5 for i in range(n)]
    out = [0] * n
    for j in range(n):
        d = a[j]
        for i in range(n - j):
            out[i + j] = (out[i + j] + a[i] * d) % 5
    x = 3 ** 30000
    for _ in range(10):
        x * x
    return time.thread_time() - start


def run_sample(workload: str, argv: list[str], trace: int, expected: dict) -> dict:
    """Run one worker process; return its timings, raw and in reference
    seconds, its memory and the check of its output."""
    cmd = [sys.executable, str(WORKER), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(OUT_DIR / f"spans-{workload}.tsv")]
    cmd += ["--", *argv]
    OUT_DIR.mkdir(exist_ok=True)
    probes = [probe()]
    launch = time.perf_counter()
    with open(OUT_DIR / "worker-stdout", "w+b") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                time.sleep(PROBE_INTERVAL_S)
                probes.append(probe())
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    probes.append(probe())
    try:
        payload = json.loads(stdout.splitlines()[-1])
    except (IndexError, ValueError):
        payload = {}
    attempted, failed = check(workload, code, payload.get("stdout", ""), expected)
    first = payload.get("first_call")
    sample = {
        "exit": code,
        "attempted": attempted,
        "failed": failed,
        "backend": payload.get("backend"),
        "setup_raw_s": first - launch if first else None,
        "wall_raw_s": payload["end"] - first if first else None,
        "peak_rss_mib": usage.ru_maxrss / 1024,
    }
    if "layers" in payload:
        sample["layers"] = payload["layers"]
    # reference seconds: raw seconds scaled by the probe's speed on this CPU
    sample["scale"] = scale = PROBE_REF_S / statistics.median(probes)
    for name in ("wall", "setup"):
        raw = sample[f"{name}_raw_s"]
        sample[f"{name}_s"] = raw * scale if raw is not None else None
    for name, value in sample.get("layers", {}).items():
        if name.endswith("_s"):
            sample["layers"][name] = value * scale
    return sample


def summary(values) -> dict:
    """Median, quartiles and sample count."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: str, seed: int, seconds: float, trace: int, expected: dict) -> dict:
    """Sample one workload for about `seconds` and summarize it."""
    argv = workload_argv(workload, seed, expected)
    plain, traced = [], []
    cpus = sorted(os.sched_getaffinity(0))
    begin = time.perf_counter()
    try:
        while True:
            for kind, samples in ((0, plain), (1, traced))[: 1 + trace]:
                os.sched_setaffinity(0, {cpus[len(plain + traced) % len(cpus)]})
                samples.append(run_sample(workload, argv, kind, expected))
            rounds = len(plain)
            elapsed = time.perf_counter() - begin
            if rounds >= (1 if trace else MIN_ROUNDS) and elapsed * (rounds + 1) / rounds > seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    samples = plain + traced
    backends = {s["backend"] for s in samples if s["backend"]}
    if len(backends) > 1:
        raise BenchError(f"samples ran on different backends: {sorted(backends)}")
    timed = [s for s in plain if s["wall_s"] is not None]
    timed_traced = [s for s in traced if s["wall_s"] is not None]
    if not timed or (trace and not timed_traced):
        raise BenchError(f"no sample of {workload} reached its first claim call")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    result = {
        "workload": workload,
        "argv": argv,
        "backend": backends.pop() if backends else None,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "end_to_end": {
            name: {**summary([s[name] for s in timed]), "unit": unit}
            for name, unit in END_TO_END.items()
        },
        "samples": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
    }
    if trace:
        result["per_layer"] = per_layer(timed_traced, result["end_to_end"]["wall_s"]["median"], expected)
    return result


def per_layer_units(expected: dict) -> dict:
    units = tracer.metric_units([*expected["congruences"], *expected["identities"]])
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


def per_layer(traced: list[dict], plain_wall: float, expected: dict) -> dict:
    """Median of each per-layer metric over the traced samples; claims a
    workload does not run read 0.  Counts must repeat exactly."""
    out = {}
    for name, unit in per_layer_units(expected).items():
        if name.startswith("trace."):
            continue
        values = [s["layers"].get(name, 0) for s in traced]
        if unit == "count" and len(set(values)) > 1:
            raise BenchError(f"count {name} differs between traced samples: {values}")
        out[name] = {**summary(values), "unit": unit}
    wall = summary([s["wall_s"] for s in traced])
    out["trace.wall_s"] = {**wall, "unit": "s"}
    out["trace.overhead_s"] = {**summary([wall["median"] - plain_wall]), "unit": "s"}
    return out


# -- environment -----------------------------------------------------------------


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def source_digest() -> str:
    """sha256 over the package's files, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(PACKAGE)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(loadavg, backend) -> dict:
    return {
        "backend": backend,
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(loadavg),
    }


# -- output ------------------------------------------------------------------------


def print_table(result: dict):
    w = result["workload"]
    rows = list(result["end_to_end"].items()) + list(result.get("per_layer", {}).items())
    for name, m in rows:
        print(f"{w:<12} {name:<28} {m['median']:>14.6g} {m['unit']:<6}"
              f" q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")
    print(f"{w:<12} {'fail_ratio':<28} {result['fail_ratio']:>14.6g} {'ratio':<6}"
          f" ({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record, environment included, as JSON")
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no regover package under {PACKAGE.parent}", file=sys.stderr)
        return 2

    expected = load_expected()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(w, args.seed, args.seconds, args.trace, expected) for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    backends = {r["backend"] for r in results}
    if len(backends) > 1:
        print(f"error: workloads ran on different backends: {sorted(backends)}", file=sys.stderr)
        return 2
    env = environment(loadavg, backends.pop())
    record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "env": env,
              "runs": {r["workload"]: r for r in results}}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    print(f"backend={env['backend']} python={env['python']} commit={env['commit']}"
          f" source={env['source_sha256'][:12]} nproc={env['nproc']}"
          f" loadavg={env['loadavg'][0]:.2f} seed={args.seed}")
    metrics = {}
    for r in results:
        print_table(r)
        chosen = r["per_layer"] if args.trace else r["end_to_end"]
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        metrics.update({prefix + name: {"value": m["median"], "unit": m["unit"]}
                        for name, m in chosen.items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
