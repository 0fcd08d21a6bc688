"""A golden corpus of CLI outputs: the sha256 of the standard output and
standard error, and the exit code, of a fixed list of ``regover`` commands.

    python3 tools/golden.py record   # write tools/golden.json
    python3 tools/golden.py check    # compare against tools/golden.json

Every command runs in this process through ``regover.cli.main``, imported
from this checkout's ``src``.  The list holds the benchmark's three commands
(``bench/run.py``'s, at seed 1), ``verify all`` as text and JSON at bounds
2000 and 20000, ``identities --order 1000 --json``, ``value``, ``hunt`` and
``expand`` at moduli on both sides of the byte cut (128), of 256 and of the
shared-residue cut, and two usage errors.  ``check`` prints each command
whose digests or exit code differ and exits 1 if any does, else 0.  A change
that alters an output records new digests and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
MODULI = (127, 128, 129, 256, 257, 625, 840)


def commands() -> list[list[str]]:
    """The corpus's command lines, in a fixed order."""
    sys.path.insert(0, str(ROOT / "bench"))
    import run  # the benchmark's own command lines

    expected = run.load_expected()
    cmds = [run.workload_argv(w, 1, expected) for w in run.WORKLOADS]
    for bound in ("2000", "20000"):
        cmds += [["verify", "all", "--bound", bound], ["verify", "all", "--bound", bound, "--json"]]
    cmds.append(["identities", "--order", "1000", "--json"])
    for m in map(str, MODULI):
        cmds += [
            ["value", "A", "--ell", "3", "--n", m],
            ["hunt", "pbar", "--mod", m, "--max-step", "400", "--bound", "400",
             "--min-instances", "1"],
            ["hunt", "r", "--k", "2", "--mod", m, "--max-step", "30", "--bound", "3000",
             "--min-instances", "2", "--csv"],
            ["expand", "5^2 2^1 1^-2 10^-1", "--order", "1500", "--mod", m],
        ]
    cmds += [["expand", "2^0", "--order", "5"], ["hunt", "A", "--ell", "5", "--max-step", "3"]]
    return cmds


def run_command(argv: list[str]) -> dict:
    """argv's digests and exit code, run in this process."""
    from regover import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code if isinstance(exc.code, int) else 2
    return {"argv": argv, "stdout": _sha256(out), "stderr": _sha256(err), "code": code}


def _sha256(stream: io.StringIO) -> str:
    return hashlib.sha256(stream.getvalue().encode()).hexdigest()


def main(argv) -> int:
    if argv not in (["record"], ["check"]):
        print("usage: golden.py record|check", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    results = [run_command(cmd) for cmd in commands()]
    if argv == ["record"]:
        GOLDEN.write_text(json.dumps(results, indent=1) + "\n")
        print(f"recorded {len(results)} commands")
        return 0
    want = json.loads(GOLDEN.read_text())
    bad = [w["argv"] for w, got in zip(want, results) if w != got]
    if len(want) != len(results):
        bad.append(f"{len(results)} commands, {len(want)} recorded")
    for item in bad:
        print(f"differs: {item}")
    print(f"{len(results) - len(bad)} of {len(want)} commands match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
