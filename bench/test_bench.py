"""Tests of the benchmark itself.

Run from the repository root with `python3 -m pytest bench`; the tier-1
suite under tests/ does not collect them.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from egalloc.cli import main  # noqa: E402
from egalloc.io import emit_instance  # noqa: E402
from run import WORKLOAD_NAMES, _call  # noqa: E402


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def _exact(key: str) -> bool:
    return (
        key.endswith(".calls")
        or ".calls." in key
        or key in ("intersection.augmentations", "lorenz.resolves_per_solve")
    )


def test_run_lists_every_workload():
    assert WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_across_processes(workload):
    counts = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({k: v["value"] for k, v in result["metrics"].items() if _exact(k)})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "exact-small", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _solved(tmp_path, name):
    ops = workloads.WORKLOADS[name].build(random.Random(0), tmp_path)
    op = ops[0]
    rc, out, _ = _call(main, op.argv)
    assert check.check_op(op, rc, out)[0] == []
    return op, json.loads(out)


def test_checker_rejects_a_non_maximal_allocation(tmp_path):
    op, doc = _solved(tmp_path, "solve-matroid")
    agent = next(name for name, items in doc["allocation"].items() if items)
    doc["unallocated"].append(doc["allocation"][agent].pop())
    problems, _ = check.check_op(op, 0, json.dumps(doc))
    assert any("welfare" in p or "utilities" in p for p in problems)


def test_checker_rejects_a_changed_profile_value(tmp_path):
    op, doc = _solved(tmp_path, "solve-additive")
    _, digest = check.check_op(op, 0, json.dumps(doc))
    doc["potential"] = str(int(doc["potential"]) + 1)
    problems, _ = check.check_op(op, 0, json.dumps(doc), reference=digest)
    assert any("potential" in p for p in problems)
    assert any("recorded" in p for p in problems)


def test_checker_rejects_uneven_distribution_weights(tmp_path):
    ops = workloads.WORKLOADS["exact-small"].build(random.Random(0), tmp_path)
    op = next(o for o in ops if o.command == "distribution")
    rc, out, _ = _call(main, op.argv)
    doc = json.loads(out)
    doc["atoms"][0]["weight"] = "0"
    problems, _ = check.check_op(op, rc, json.dumps(doc))
    assert any("sum" in p for p in problems)


def _brute_force_welfare(reports: check.Reports) -> int:
    """Most items over every assignment of each item to one agent or to none."""
    n, best = len(reports.agents), 0
    for owners in itertools.product(range(n + 1), repeat=len(reports.items)):
        bundles = [frozenset(x for x, o in enumerate(owners) if o == v) for v in range(n)]
        if all(indep(b) for indep, b in zip(reports.independent, bundles)):
            best = max(best, sum(map(len, bundles)))
    return best


@pytest.mark.parametrize("seed", range(12))
def test_max_welfare_matches_brute_force(seed):
    rng = random.Random(seed)
    for make in (gen.matroid_instance, gen.additive_instance):
        inst = make(rng, 3, 6, 0.5)
        reports = check.Reports.read(json.loads(emit_instance(inst)))
        assert check.max_welfare(reports) == _brute_force_welfare(reports)
