"""Span recording around the public functions of each cluttercov layer.

The tracer wraps a fixed list of functions from outside the package. A
wrapped call records one span (name, start, end, parent span); a layer's
self time is its span duration minus the time covered by its child spans.
Spans stay in memory until the replay ends.

Wrappers must replace a function under every name a caller looks it up
by: ``from .rmt import eigh`` in ``scenario`` binds its own name, while
``detector`` calls ``rmt.eigh`` through the module. ``install`` therefore
rebinds every attribute of every loaded ``cluttercov`` module that holds
the original object, and the call-count check in the benchmark fails when
a binding is missed.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass

# (layer metric prefix, module, attribute path) for every traced function
TRACED = (
    ("cli.self", "cluttercov.cli", "main"),
    ("validate.self", "cluttercov.validate", "sweep"),
    ("validate.self", "cluttercov.validate", "verify_clt"),
    ("scenario.synthesize", "cluttercov.scenario", "synthesize_clutter_covariance"),
    ("scenario.truth_spiked_model", "cluttercov.scenario", "truth_spiked_model"),
    ("scenario.sampler_init", "cluttercov.scenario", "SnapshotSampler.__init__"),
    ("scenario.draw", "cluttercov.scenario", "SnapshotSampler.draw"),
    ("scenario.inject_target", "cluttercov.scenario", "inject_target"),
    ("rmt.sample_covariance", "cluttercov.rmt", "sample_covariance"),
    ("rmt.eigh", "cluttercov.rmt", "eigh"),
    ("rmt.mp_median", "cluttercov.rmt", "mp_median"),
    ("shrinkage.shrink_spectrum", "cluttercov.shrinkage", "shrink_spectrum"),
    ("shrinkage.estimate_noise", "cluttercov.shrinkage", "estimate_noise"),
    ("rcml.rcml_estimate", "cluttercov.rcml", "rcml_estimate"),
    ("metrics.stein_loss", "cluttercov.metrics", "stein_loss"),
    ("metrics.normalized_scnr_batch", "cluttercov.metrics", "normalized_scnr_batch"),
    ("metrics.mvdr_error_variance", "cluttercov.metrics", "mvdr_error_variance"),
    ("metrics.kantorovich_bound", "cluttercov.metrics", "kantorovich_bound"),
    ("detector.detect", "cluttercov.detector", "detect"),
    ("detector.theoretical_pd", "cluttercov.detector", "theoretical_pd"),
)


def _scm_flops(args, kwargs) -> float:
    """Computed real flops of the p x n by n x p complex product: 8 p^2 n."""
    data = args[0] if args else kwargs["data"]
    shape = getattr(data, "shape", ())
    if len(shape) != 2:
        return 0.0
    p, n = shape
    return 8.0 * p * p * n


WORK = {"rmt.sample_covariance": _scm_flops}


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    work: float = 0.0


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        work_of = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0, 0, self._stack[-1] if self._stack else None)
            if work_of is not None:
                span.work = work_of(args, kwargs)
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()

        return traced

    def self_times(self) -> list[float]:
        """Self time of each span in seconds: duration minus its direct children."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end - span.start
        return [(s.end - s.start - c) / 1e9 for s, c in zip(self.spans, child_ns)]

    def summary(self) -> dict:
        """Per layer: call count, summed self time, per-call self times, computed work."""
        out: dict[str, dict] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "per_call_s": [], "work": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            row["per_call_s"].append(self_s)
            row["work"] += span.work
        return out


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Replace every binding of each traced function by its wrapper.

    Raises if a traced function is not found, so a renamed function cannot
    silently drop out of the trace.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if n == "cluttercov" or n.startswith("cluttercov.")]
    for name, mod_name, path in TRACED:
        owner, attr = _resolve(sys.modules[mod_name], path)
        original = owner.__dict__.get(attr)
        if original is None:
            raise RuntimeError(f"cannot trace {mod_name}.{path}")
        wrapper = tracer.wrap(name, original)
        if owner is not sys.modules[mod_name]:  # a method: rebind on its class
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """Highest of p50..p99 with at least ten samples beyond it, or None."""
    qs = [q for q in (50, 75, 90, 95, 99) if len(values) * (100 - q) / 100.0 >= 10]
    if not qs:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return f"p{qs[-1]}", cuts[qs[-1] - 1]
