"""Record the profile-level values the output checker compares against.

    python3 bench/record_reference.py

Runs the first `check.REFERENCE_OPS` ops of every workload for each of
`REFERENCE_SEEDS`, checks them with the reference-free invariants, and
writes their digests to bench/reference.json.  Run it at the commit
whose results are the reference, never to make a failing check pass.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import check  # noqa: E402
import workloads  # noqa: E402
from egalloc.cli import main as cli_main  # noqa: E402
from run import _call  # noqa: E402

REFERENCE_SEEDS = range(20)


def record(seeds, workdir: Path) -> dict:
    out: dict = {}
    for name, workload in workloads.WORKLOADS.items():
        for seed in seeds:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            ops = workload.build(random.Random(seed), workdir)[: check.REFERENCE_OPS]
            digests = []
            for op in ops:
                problems, digest = check.check_op(op, *_call(cli_main, op.argv)[:2])
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {' '.join(op.argv)}: {problems}")
                digests.append(digest)
            out.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} ops", flush=True)
    return out


def main() -> int:
    workdir = Path.cwd() / ".bench_work" / "reference"
    try:
        reference = record(REFERENCE_SEEDS, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
