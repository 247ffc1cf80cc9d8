"""The benchmark workloads: which CLI commands each one runs, and why.

One op is one `egalloc` CLI command.  A workload turns its seed into a pool
of ops (instance files written into a work directory); the timed loop runs
the pool in order and wraps around if it runs out.  The first
`trace_ops` ops of the pool are the fixed set a traced run counts over, so
its `*.calls` numbers are exact for a given seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from egalloc.io import emit_instance
from egalloc.model import Instance


@dataclass(frozen=True)
class Op:
    """One CLI command and what the output checker needs to judge it."""

    argv: tuple[str, ...]
    command: str
    mech: str | None
    #: The instance document the command reads, as parsed JSON.
    instance: dict
    seed: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trace_ops: int
    build: Callable[[random.Random, Path], list[Op]]


def _file(inst: Instance, workdir: Path, k: int) -> tuple[str, dict]:
    """Write the instance file; returns its path and its parsed document."""
    text = emit_instance(inst)
    path = workdir / f"{k:04d}.json"
    path.write_text(text)
    return str(path), json.loads(text)


# The plan named sizes alternating 8/24 and 12/36.  A 12/36 solve takes
# 0.7 s with a tail past 1.4 s on the reference machine, and mixing sizes
# puts the median between two modes, so runs on different seeds disagree by
# more than the bounds allow.  One size, 8/24 (0.07 to 0.1 s median, p90
# twice that), still spends its time in the capped-re-solve descent that
# ROADMAP items 2 and 3 target, and fits about 300 ops in a run.
MATROID_N, MATROID_M = 8, 24
MATROID_DENSITY = 0.3
MATROID_POOL = 400


def _solve_matroid(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for k in range(MATROID_POOL):
        inst = gen.matroid_instance(rng, MATROID_N, MATROID_M, MATROID_DENSITY)
        path, instance = _file(inst, workdir, k)
        ops.append(Op(("solve", "--mech", "pe", "--in", path), "solve", "pe", instance))
    return ops


# The plan named n/m from 30/150 to 40/200: 0.3 to 0.9 s per solve here,
# too few ops per run.  One size, 24/120 (0.16 s per solve), keeps
# additive_balanced dominant and fits about 180 ops in a run.
ADDITIVE_N, ADDITIVE_M = 24, 120
ADDITIVE_DENSITY = 0.15
ADDITIVE_POOL = 240
ADDITIVE_MECHS = ("pe", "rpe", "meps")


def _solve_additive(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for k in range(ADDITIVE_POOL):
        inst = gen.additive_instance(rng, ADDITIVE_N, ADDITIVE_M, ADDITIVE_DENSITY)
        mech = ADDITIVE_MECHS[k % len(ADDITIVE_MECHS)]
        path, instance = _file(inst, workdir, k)
        argv = ["solve", "--mech", mech, "--in", path]
        seed = None
        if mech != "pe":
            seed = rng.randrange(2**31)
            argv += ["--seed", str(seed)]
        ops.append(Op(tuple(argv), "solve", mech, instance, seed))
    return ops


# (command, mech, extra flags, valuation kind, n, m, density).  Sizes are
# below the planned ones where the planned size took 0.75 to 1.3 s per op
# (fuzz rpe 4/8, fuzz meps 3/6) or up to 2.6 s (matroid rpe 5/10); a cycle
# takes about 1 s, so a run has about 200 ops.
EXACT_CYCLE = (
    ("distribution", "rpe", (), "additive", 6, 12, 0.3),
    ("distribution", "rpe", (), "matroid", 4, 8, 0.3),
    ("distribution", "meps", (), "additive", 4, 8, 0.3),
    ("fuzz", "rpe", ("--expectation",), "additive", 4, 6, 0.3),
    ("fuzz", "meps", ("--expectation",), "additive", 3, 5, 0.3),
    ("fuzz", "pe", ("--space", "subsets"), "additive", 3, 10, 0.3),
    ("enumerate", None, (), "additive", 4, 6, 0.4),
)
EXACT_CYCLES = 36


def _exact_small(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for k in range(EXACT_CYCLES * len(EXACT_CYCLE)):
        command, mech, flags, kind, n, m, p = EXACT_CYCLE[k % len(EXACT_CYCLE)]
        make = gen.matroid_instance if kind == "matroid" else gen.additive_instance
        inst = make(rng, n, m, p)
        argv = [command]
        if mech is not None:
            argv += ["--mech", mech]
        path, instance = _file(inst, workdir, k)
        argv += [*flags, "--in", path]
        if command == "fuzz":
            argv += ["--deviator", inst.agent_names[rng.randrange(n)]]
        ops.append(Op(tuple(argv), command, mech, instance))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-matroid",
            "pe on structured and small explicit matroids: lorenz descent, "
            "intersection re-solves and matroid oracles do the work; the additive "
            "fast path does none",
            12,
            _solve_matroid,
        ),
        Workload(
            "solve-additive",
            "pe/rpe/meps on additive demand sets: additive_balanced and the "
            "result audit dominate; no intersection or matroid oracle calls",
            12,
            _solve_additive,
        ),
        Workload(
            "exact-small",
            "exact distributions, truthfulness fuzzing and enumeration: thousands "
            "of tiny solves per op, so per-call overhead dominates",
            len(EXACT_CYCLE) * 2,
            _exact_small,
        ),
    )
}
