"""Span tracing around the public functions of each tspc layer.

Wrappers are installed from here, so the package itself is untouched.  A
wrapper replaces a function at every name that binds it in a loaded ``tspc``
module (``tspc.tpc.pc``, ``tspc.reproduce.pc``, ``tspc.cli.pc`` ...), because
callers look names up in their own module globals.  Spans are recorded only
while an op is active; each records its name, start, end, parent span and op
id, is kept in memory, and is written out by :meth:`Tracer.save`.

Self time is a span's duration minus the durations of its direct child spans.
Calls are single-threaded, so the sum of self times over every span of an op
equals the summed duration of its top-level spans; the rest of the op's wall
time is unattributed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

# Public functions wrapped per module.  The span name is the layer (module
# name, with the citests submodules folded into "citests") plus the function.
WRAPPED = {
    "tspc.simulate": ("generate",),
    "tspc.data": ("ingest_csv", "write_text_atomic"),
    "tspc.cli": ("main",),
    "tspc.reproduce": ("run_sweep", "metrics_csv", "frequency_csv"),
    "tspc.tpc": ("unroll", "tpc", "tpcns", "forward_time"),
    "tspc.pc": ("pc", "find_skeleton", "orient", "decisions_to_csv"),
    "tspc.citests.gaussian": (
        "sample_covariance", "partial_correlation", "gaussian_gamma", "gaussian_ci_test",
    ),
    "tspc.citests.hsic": (
        "median_bandwidth", "centered_gram", "hsic_conditional", "hsic_ci_test",
        "decoupled_pair_gamma",
    ),
    "tspc.citests.bootstrap": ("stationary_bootstrap_threshold",),
    "tspc.graphs": ("meek_closure", "roll", "to_json"),
    "tspc.evaluate": ("confusion", "metrics", "aggregate", "edge_frequency"),
}

# A binding site that gets its own span name: the sweep's kernel-threshold
# calibration is the bootstrap as called from tspc.reproduce.
SITE_NAMES = {("tspc.reproduce", "stationary_bootstrap_threshold"): "reproduce.calibration"}


def _binder(fn):
    """Bind a call's arguments to fn's parameters, defaults applied."""
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> inspect.BoundArguments:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound

    return bind


class Tracer:
    """Records spans and counters while an op is active."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.self_time: list[float] = []
        self.counters: dict[str, float] = {}
        self.op = -1
        self.op_walls: list[float] = []
        self.top_level = 0.0  # summed top-level span time of the current op
        self.attributed: list[float] = []
        self._stack: list[list] = []  # [span index, child time]

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None):
        """fn with a span around every call made during an op.

        before(tracer, args, kwargs) may record counters and returns the
        (args, kwargs) to call with.
        """
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.span_end[index] = end
                self.calls[nid] += 1
                self.inclusive[nid] += duration
                self.self_time[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_level += duration

        return traced

    def begin_op(self, op: int) -> None:
        self.op = op
        self.top_level = 0.0

    def end_op(self, wall: float) -> None:
        self.op = -1
        self.op_walls.append(wall)
        self.attributed.append(self.top_level)

    def save(self, path: Path) -> None:
        """Write every span as numpy arrays plus the name table."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )

    def spans(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive s and self s, summed over ops."""
        return {
            name: {"calls": self.calls[i], "s": self.inclusive[i], "self_s": self.self_time[i]}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }


def _hooks(modules: dict[str, object]):
    """Counters recorded at call boundaries, keyed by (module, function)."""
    skeleton_args = _binder(modules["tspc.pc"].find_skeleton)
    tpcns_args = _binder(modules["tspc.tpc"].tpcns)
    boot_args = _binder(modules["tspc.citests.bootstrap"].stationary_bootstrap_threshold)
    hsic_args = _binder(modules["tspc.citests.hsic"].hsic_conditional)

    def find_skeleton(tr, args, kwargs):
        bound = skeleton_args(args, kwargs)
        ci = bound.arguments["ci"]

        def counted(query):
            outcome = ci(query)
            tr.count("pc.queries")
            if outcome.independent:
                tr.count("pc.removals")
            return outcome

        bound.arguments["ci"] = counted
        return bound.args, bound.kwargs

    def tpcns(tr, args, kwargs):
        tr.count("tpc.subsamples", tpcns_args(args, kwargs).arguments["config"].num_subsamples)
        return args, kwargs

    def bootstrap(tr, args, kwargs):
        config = boot_args(args, kwargs).arguments["config"]
        tr.count("citests.bootstrap.replicates", config.num_replicates)
        return args, kwargs

    def hsic(tr, args, kwargs):
        # Per resolvent: Cholesky n^3/3 plus the n-column solve 2 n^3.
        bound = hsic_args(args, kwargs).arguments
        n = len(bound["x"])
        z = bound["z"]
        resolvents = 2 if z is None or getattr(z, "size", 1) == 0 else 3
        tr.count("citests.hsic.flops_computed", resolvents * (n ** 3 / 3 + 2 * n ** 3))
        return args, kwargs

    return {
        ("tspc.pc", "find_skeleton"): find_skeleton,
        ("tspc.tpc", "tpcns"): tpcns,
        ("tspc.citests.bootstrap", "stationary_bootstrap_threshold"): bootstrap,
        ("tspc.citests.hsic", "hsic_conditional"): hsic,
    }


def install(tracer: Tracer) -> int:
    """Replace every binding of each wrapped function; returns sites replaced."""
    import importlib

    modules = {name: importlib.import_module(name) for name in WRAPPED}
    loaded = [m for name, m in sys.modules.items() if name == "tspc" or name.startswith("tspc.")]
    hooks = _hooks(modules)
    replaced = 0
    for module, functions in WRAPPED.items():
        for fname in functions:
            original = getattr(modules[module], fname)
            default = f"{module.split('.')[1]}.{fname}"
            before = hooks.get((module, fname))
            sites = 0
            for site in loaded:
                for attr, value in list(vars(site).items()):
                    if value is not original:
                        continue
                    name = SITE_NAMES.get((site.__name__, attr), default)
                    setattr(site, attr, tracer.wrap(name, original, before))
                    sites += 1
            if sites == 0:
                raise RuntimeError(f"no binding of {module}.{fname} found")
            replaced += sites
    return replaced
