"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions of each `egalloc` layer and
`uninstall()` puts the originals back.  The modules bind each other's
functions with `from .x import y`, so a wrapper must replace the name where
the caller looks it up: every `egalloc.*` module attribute that is the
original function is replaced, e.g. `egalloc.lorenz.max_common_independent`
as well as `egalloc.intersection.max_common_independent`.  Matroid
`is_independent` methods and `Allocation.__post_init__` are patched on
their classes.

Spans are aggregated as they close rather than stored: a span's self time
is its duration minus the time covered by its child spans, and each layer
keeps its call count and summed self time.  The op itself is the root
span, so the op time outside every layer is reported as `cli.self_s`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from egalloc import audit, harness, intersection, io, lorenz, matroid, mechanisms, model, valuation

#: Layer name -> (module, function name) of the public functions traced.
FUNCTIONS = {
    "matroid.validate_matroid": (matroid, "validate_matroid"),
    "intersection.max_common_independent": (intersection, "max_common_independent"),
    "lorenz.compute_lorenz_dominating": (lorenz, "compute_lorenz_dominating"),
    "lorenz.additive_balanced": (lorenz, "additive_balanced"),
    "lorenz.enumerate_optimal": (lorenz, "enumerate_optimal"),
    "mechanisms.run_pe": (mechanisms, "run_pe"),
    "mechanisms.sanitize_reports": (mechanisms, "sanitize_reports"),
    "mechanisms.run_mx": (mechanisms, "run_mx"),
    "mechanisms.expected_utilities": (mechanisms, "expected_utilities"),
    "valuation.evaluate": (valuation, "evaluate"),
    "audit.check_envy": (audit, "check_envy"),
    "audit.efficiency_metrics": (audit, "efficiency_metrics"),
    "io.parse_instance": (io, "parse_instance"),
    "io.distribution_document": (io, "distribution_document"),
    "harness.fuzz_truthfulness": (harness, "fuzz_truthfulness"),
}

#: Matroid tag -> class whose is_independent is traced.
MATROID_TAGS = {
    "free": matroid.FreeOver,
    "uniform": matroid.Uniform,
    "partition": matroid.Partition,
    "explicit": matroid.Explicit,
    "truncated": matroid.Truncated,
    "restricted": matroid.Restricted,
}

LAYERS = (
    "matroid.is_independent",
    *FUNCTIONS,
    "model.Allocation",
)
ROOT = "cli"

_CLD = "lorenz.compute_lorenz_dominating"
_MCI = "intersection.max_common_independent"


class Tracer:
    """Call counts and self times per layer, plus the intersection/lorenz ratios."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.augmentations = 0
        self.capped = 0
        self.capped_feasible = 0
        self.resolves = 0
        self._open_solves = 0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, count_key=None, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            if count_key is not None:
                calls[count_key] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[name] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def op(self, fn, *args):
        """Run one op as the root span."""
        return self._wrap(ROOT, fn)(*args)

    # -- derived counts ------------------------------------------------------

    def _after_intersection(self, args, kwargs, result):
        total = result.total_items()
        self.augmentations += total
        caps = kwargs.get("caps", args[2] if len(args) > 2 else None)
        if caps is not None:
            self.capped += 1
            self.capped_feasible += total == sum(caps)
            if self._open_solves:
                self.resolves += 1

    def _solve_span(self, fn):
        def solve(*args, **kwargs):
            self._open_solves += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._open_solves -= 1

        return solve

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "egalloc" or key.startswith("egalloc."))
        ]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(module, attr)
            after = self._after_intersection if name == _MCI else None
            wrapper = self._wrap(name, original, after=after)
            if name == _CLD:
                wrapper = self._solve_span(wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for tag, cls in MATROID_TAGS.items():
            method = vars(cls)["is_independent"]
            key = f"matroid.is_independent.calls.{tag}"
            self._patch(cls, "is_independent", self._wrap("matroid.is_independent", method, key))
        post_init = vars(model.Allocation)["__post_init__"]
        self._patch(model.Allocation, "__post_init__", self._wrap("model.Allocation", post_init))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def counts(self) -> dict[str, float]:
        """The exact per-layer counts and ratios, by metric name."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
        for tag in MATROID_TAGS:
            key = f"matroid.is_independent.calls.{tag}"
            out[key] = self.calls[key]
        out["intersection.augmentations"] = self.augmentations
        out["intersection.capped_feasible_ratio"] = (
            self.capped_feasible / self.capped if self.capped else 0.0
        )
        solves = self.calls[_CLD]
        out["lorenz.resolves_per_solve"] = self.resolves / solves if solves else 0.0
        return out

