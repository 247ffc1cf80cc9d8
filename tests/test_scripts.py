"""Smoke tests: each experiment script runs at a small size in a subprocess."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_meps_margin_scan_smoke():
    proc = run_script("meps_margin_scan.py", "--denominators", "60")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert ["1/60", "True", "1/9"] in rows


def test_output_digest_smoke():
    proc = run_script("output_digest.py", "--limit", "2", "1")
    assert proc.returncode == 0, proc.stderr
    count, hexdigest = proc.stdout.split()
    assert count == "15"  # 2 ops from each of the three pools, then F1..F9
    assert re.fullmatch("[0-9a-f]{64}", hexdigest)
