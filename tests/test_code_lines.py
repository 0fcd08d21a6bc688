"""Smoke test of ``tools/code_lines.py``, the per-module code-line count."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_code_lines_prints_one_count_per_module_and_their_total():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert all(len(row) == 2 for row in rows), done.stdout
    *modules, (label, total) = rows
    names = [name for name, _ in modules]
    assert sorted(names) == sorted(p.stem for p in (ROOT / "src" / "regover").glob("*.py"))
    counts = [int(count) for _, count in modules]
    assert all(count > 0 for count in counts)
    assert label == "total"
    assert int(total) == sum(counts)
