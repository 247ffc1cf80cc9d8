#!/usr/bin/env python3
"""Digest the CLI's output bytes over the benchmark's op pools.

Runs every op of the three benchmark workloads' pools for each seed given,
then `fixture --id F1` to `F9`, in-process through `egalloc.cli.main`, and
prints one line, `<ops> <sha256>`: the hash is taken over the exit code,
stdout and stderr of every op, in order.  Two trees that print the same
line gave the same bytes on every op, so a change meant to keep outputs
can be checked by running this script at it and at its parent (copy the
script into a checkout of the parent).  `bench/record_reference.py` is a
different check: it digests profile-level values of the first ops only.

Pools are built by `bench/workloads.py` into a temporary directory and
named by relative paths, so the digest does not depend on where the tree
lives.  An op that raises has a traceback with file paths as its stderr;
such a digest matches only within one tree.

Usage:
    python scripts/output_digest.py 1 2 3
    python scripts/output_digest.py --limit 2 1    # first 2 ops of each pool
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from egalloc.cli import main as cli_main  # noqa: E402
from run import _call  # noqa: E402

FIXTURE_IDS = tuple(f"F{k}" for k in range(1, 10))


def all_argvs(seeds, limit):
    """Every op's argv in digest order; each pool's files exist while its ops are yielded."""
    pool = Path("ops")
    for name, workload in workloads.WORKLOADS.items():
        for seed in seeds:
            shutil.rmtree(pool, ignore_errors=True)
            pool.mkdir()
            ops = workload.build(random.Random(seed), pool)
            for op in ops[:limit]:
                yield op.argv
    for fixture_id in FIXTURE_IDS:
        yield ("fixture", "--id", fixture_id)


def digest(seeds, limit=None) -> tuple[int, str]:
    """(number of ops, sha256 hex) over the ops' (exit code, stdout, stderr)."""
    h = hashlib.sha256()
    count = 0
    for argv in all_argvs(seeds, limit):
        rc, out, err = _call(cli_main, argv)
        h.update(json.dumps([rc, out, err]).encode())
        count += 1
    return count, h.hexdigest()


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--limit", type=int, help="run only the first LIMIT ops of each pool")
    args = parser.parse_args()
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            count, hexdigest = digest(args.seeds, args.limit)
        finally:
            os.chdir(start)
    print(count, hexdigest)


if __name__ == "__main__":
    main()
