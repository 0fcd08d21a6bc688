"""``tools/golden.py check``: every command of the golden corpus prints, to
the byte, what its recorded digests say, and exits with its recorded code."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_golden_corpus_matches_its_recorded_digests():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "golden.py"), "check"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    *_, summary = done.stdout.splitlines()
    assert summary == "38 of 38 commands match"


def test_the_golden_tool_refuses_an_unknown_action():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "golden.py"), "verify"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and done.stderr == "usage: golden.py record|check\n"
