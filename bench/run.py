"""Benchmark for egalloc: timed CLI ops on seeded instances, with checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

One process runs one workload as a single closed-loop client: each op is
one `egalloc.cli.main(argv)` call made in-process with stdout captured, so
interpreter start-up stays out of op time, and the next op starts when the
previous one returns.  `all` runs each workload in its own child process,
one after another, so memory is measured per workload.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it alternates untraced and traced passes over the workload's first
`trace_ops` ops and reports per-layer counts and self times.  Each output
is checked outside op timing; a failed check, a non-zero exit,
an exception or stdout that differs between two runs of one op counts as a
failed op.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("solve-matroid", "solve-additive", "exact-small")
SETUP_REPEATS = 5
#: Ops timed between two looks at the machine's speed.
BLOCK = 8
#: Distinct ops run a second time after the timed loop to compare stdout bytes.
DETERMINISM_REPEATS = 7
#: Seconds `_calibration_s` takes on the reference machine when no other
#: tenant slows it down; timed metrics are scaled to this speed.
CALIBRATION_REF_S = 0.001
#: Calibration runs before and after each set-up repeat.
SETUP_CALIBRATIONS = 10
BENCH_MODULES = ("gen", "workloads", "check", "tracer")


def _fresh_import():
    """Import egalloc and the benchmark modules afresh; returns `workloads`."""
    for key in list(sys.modules):
        if key == "egalloc" or key.startswith("egalloc.") or key in BENCH_MODULES:
            del sys.modules[key]
    return importlib.import_module("workloads")


def _calibration_s() -> float:
    """Time a fixed piece of pure-Python work like the program's own.

    The machine this benchmark was tuned on is shared: the same op ran up
    to 1.6 times slower for seconds or minutes at a time while other
    tenants loaded the host.  Over any window of a few seconds, the mean op
    time divided by the mean time of this loop, run just before each op,
    stayed within 3 %, so timed metrics are scaled by
    CALIBRATION_REF_S / (mean calibration time).
    """
    start = time.perf_counter()
    base = frozenset(range(0, 40, 3))
    acc = 0
    for i in range(2500):
        acc += len(base | {i % 50}) + i * 7 % 13
    return time.perf_counter() - start


def _speed_scale(calibrations) -> float:
    """Factor that turns seconds measured alongside `calibrations` into reference seconds."""
    return CALIBRATION_REF_S * len(calibrations) / sum(calibrations)


def _setup(name: str, seed: int, workdir: Path):
    """Median scaled set-up time over SETUP_REPEATS, and the last repeat's modules and ops."""
    times = []
    for _ in range(SETUP_REPEATS):
        # drop the previous repeat's pool first, so that no more than one is
        # alive at a time and set-up does not set the peak RSS
        workloads = ops = None
        gc.collect()
        shutil.rmtree(workdir, ignore_errors=True)
        calibrations = [_calibration_s() for _ in range(SETUP_CALIBRATIONS)]
        start = time.perf_counter()
        workloads = _fresh_import()
        workdir.mkdir(parents=True)
        ops = workloads.WORKLOADS[name].build(random.Random(seed), workdir)
        elapsed = time.perf_counter() - start
        calibrations += [_calibration_s() for _ in range(SETUP_CALIBRATIONS)]
        times.append(elapsed * _speed_scale(calibrations))
    return statistics.median(times), workloads, ops


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except Exception:  # an op that raises is a failed op, not a failed run
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


class Verifier:
    """Checks each distinct op once and every repeat of it for identical stdout.

    Only a hash of each op's first stdout is kept, so the benchmark's own
    memory does not grow with the number of ops run.
    """

    def __init__(self, ops, check, reference):
        self.ops, self.check, self.reference = ops, check, reference
        self.first: dict[int, tuple[list[str], bytes]] = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, idx: int, rc, out: str, err: str) -> bool:
        self.attempted += 1
        out_hash = hashlib.sha256(out.encode()).digest()
        if idx not in self.first:
            ref = self.reference[idx] if idx < len(self.reference) else None
            problems, _ = self.check.check_op(self.ops[idx], rc, out, ref)
            self.first[idx] = (problems, out_hash)
        else:
            problems, first_hash = self.first[idx]
            if out_hash != first_hash:
                problems = problems + ["stdout differs from an earlier run of the same op"]
        if problems:
            self.failed += 1
            print(f"FAILED op {idx} {' '.join(self.ops[idx].argv)}: {problems}", file=sys.stderr)
            if err:
                print(err, file=sys.stderr)
        return not problems


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _measure(ops, seconds: float, verify) -> dict:
    """Run ops in pool order until they have taken `seconds` of op time.

    Every op is preceded by one calibration run, and the op times of each
    block of BLOCK ops are scaled by that block's calibrations.  Outputs are
    checked after each block, outside op timing.
    """
    from egalloc.cli import main

    times = []
    ok = 0
    busy = 0.0
    while not times or busy < seconds:
        block = [(k % len(ops), ops[k % len(ops)]) for k in range(len(times), len(times) + BLOCK)]
        results, scaled, scale = _timed_pass(block, lambda argv: _call(main, argv))
        busy += sum(scaled) / scale
        times += scaled
        ok += sum(verify(*result) for result in results)
    for idx in range(min(DETERMINISM_REPEATS, len(times), len(ops))):
        verify(idx, *_call(main, ops[idx].argv))
    return {
        "ops_per_s": ok / sum(times),
        "samples": len(times),
        "op_s.p50": statistics.median(times),
        "op_s.p90": _quantile(sorted(times), 0.9),
        "unscaled_ops_per_s": len(times) / busy,
        "machine_slowdown": busy / sum(times),
    }


def _measure_traced(count_ops, seconds: float, verify, tracer_mod) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over `count_ops` until `seconds` pass.

    Counts come from the first traced pass and must repeat exactly in every
    later one; self times are scaled like op times and summed over all
    traced passes.
    """
    from egalloc.cli import main

    count_ops = list(enumerate(count_ops))
    first = None
    self_s: dict[str, float] = {}
    untraced_s = traced_s = 0.0
    traced_ops = 0
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        results, scaled, _ = _timed_pass(count_ops, lambda argv: _call(main, argv))
        untraced_s += sum(scaled)
        for result in results:
            verify(*result)
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            results, scaled, scale = _timed_pass(
                count_ops, lambda argv: tracer.op(_call, main, argv)
            )
        finally:
            tracer.uninstall()
        traced_s += sum(scaled)
        for result in results:
            verify(*result)
        traced_ops += len(count_ops)
        for layer, value in tracer.self_s.items():
            self_s[layer] = self_s.get(layer, 0.0) + value * scale
        counts = tracer.counts()
        if first is None:
            first = counts
        elif counts != first:
            verify.failed += len(count_ops)
            print("FAILED: per-layer counts differ between traced passes", file=sys.stderr)
    # traced ops/s over untraced ops/s, both over the same ops
    overhead = untraced_s / traced_s
    return first, {"self_s": self_s, "traced_s": traced_s, "traced_ops": traced_ops,
                   "overhead": overhead}


def _timed_pass(indexed_ops, run):
    """Run each op after one calibration.

    Returns (idx, rc, stdout, stderr) per op, the op times scaled by this
    pass's calibrations, and the scale factor.
    """
    results, calibrations, times = [], [], []
    for idx, op in indexed_ops:
        calibrations.append(_calibration_s())
        t0 = time.perf_counter()
        results.append((idx, *run(op.argv)))
        times.append(time.perf_counter() - t0)
    scale = _speed_scale(calibrations)
    return results, [t * scale for t in times], scale


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_one(args) -> int:
    src = Path.cwd() / "src"
    if not (src / "egalloc" / "cli.py").is_file():
        print(f"error: no egalloc sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    workdir = Path.cwd() / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # a terminated run still deletes its instance files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        setup_s, workloads, ops = _setup(args.workload, args.seed, workdir)
        setup_rss_mb = _peak_rss_mb()
        import check
        import tracer

        reference = json.loads((BENCH_DIR / "reference.json").read_text())
        ref = reference.get(args.workload, {}).get(str(args.seed), [])
        verify = Verifier(ops, check, ref)
        if args.trace:
            trace_ops = workloads.WORKLOADS[args.workload].trace_ops
            counts, spans = _measure_traced(ops[:trace_ops], args.seconds, verify, tracer)
            metrics = _layer_metrics(counts, spans, tracer)
        else:
            got = _measure(ops, args.seconds, verify)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (got["ops_per_s"], "1/s"),
                "op_s.p50": (got["op_s.p50"], "s"),
                "op_s.p90": (got["op_s.p90"], "s"),
                "peak_rss_mb": (_peak_rss_mb(), "MB"),
            }
            print(f"# {args.workload} seed {args.seed}: {got['samples']} timed ops, "
                  f"failed_frac {verify.failed}/{verify.attempted} = "
                  f"{verify.failed / verify.attempted:.4f}")
            print(f"# unscaled ops_per_s {got['unscaled_ops_per_s']:.4f}; calibration loop "
                  f"{got['machine_slowdown']:.3f} x its reference time; "
                  f"peak RSS after set-up {setup_rss_mb:.2f} MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": verify.failed == 0,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _layer_metrics(counts, spans, tracer) -> dict:
    ops = spans["traced_ops"]
    metrics = {}
    print(f"# traced ops {ops}; self time share of traced op time")
    for layer in (*tracer.LAYERS, tracer.ROOT):
        total = spans["self_s"].get(layer, 0.0)
        if layer != tracer.ROOT:
            metrics[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count")
        metrics[f"{layer}.self_s"] = (total / ops, "s/op")
        print(f"#   {layer:40s} {total / spans['traced_s']:7.1%}")
    for key, value in counts.items():
        if key not in metrics:
            metrics[key] = (value, "count" if ".calls." in key or key.endswith("augmentations")
                            else "ratio")
    metrics["trace.overhead"] = (spans["overhead"], "ratio")
    return metrics


def _run_all(args) -> int:
    """Each workload in its own child process, one at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"## {name}", flush=True)
        # a run measures for --seconds of op time; set-up, checks and
        # calibration take at most about twice that again
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=60 + 3 * args.seconds, check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
