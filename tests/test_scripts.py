"""Smoke tests: each experiment script runs at a small size in a subprocess;
and every committed benchmark record is whole."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_meps_margin_scan_smoke():
    proc = run_script("meps_margin_scan.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[:4] for line in proc.stdout.splitlines()[1:]]
    assert rows == [
        ["2", "2", "3", "1/16"],
        ["2", "3", "5/4", "1/54"],
        ["3", "3", "5/4", "1/81"],
        ["2", "4", "1/3", "1/128"],
    ]


def test_committed_bench_records_are_whole():
    # a root BENCH_<label>.json holds the last stdout line of
    # `bench/run.py --workload all` and the commit, Python, seed and
    # --seconds it ran with
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        doc = json.loads(path.read_text())
        assert {"commit", "python", "seed", "seconds"} <= doc.keys(), path.name
        assert doc["correct"] is True and doc["failed"] == 0, path.name


def test_output_digest_smoke():
    proc = run_script("output_digest.py", "--limit", "2", "1")
    assert proc.returncode == 0, proc.stderr
    count, hexdigest = proc.stdout.split()
    assert count == "15"  # 2 ops from each of the three pools, then F1..F9
    # the exit codes, stdout and stderr of those ops, pinned: any change to
    # the CLI's output bytes changes it (the same under Python 3.10-3.13)
    assert hexdigest == "721ed43e992332356f79b8cd3e3cafeed48b54e06c98c53b3998ec2941fe2c25"


def test_output_digest_wider_pin():
    # 12 ops of each pool: enough rounds of the engine to pin its item
    # tie-break (which items each agent gets), not just the profile
    proc = run_script("output_digest.py", "--limit", "12", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "45", "cdde83432e28de5bb8d7e613901e9e5088036edfaec2cb3913fcbc8be4f2d117"
    ]
