"""In-memory span tracer that instruments ``mallows_binomial`` from outside.

The library has no tracing of its own, so :meth:`Tracer.install` replaces the
public functions of each module with timing wrappers.  A name is replaced at
every module attribute that is bound to it: ``from .model import Dataset``
binds ``Dataset`` again inside ``estimation``, ``bootstrap``, ``io``, and the
package itself, and each caller looks the name up in its own module.  Methods
are replaced once, on their class.  :meth:`Tracer.uninstall` puts every
original back.

A *span* wrapper records one span per call (layer, start, end, parent span,
benchmark operation) and adds the call's self time (its duration minus the
time covered by its child spans) to its layer.  A *count* wrapper only counts
calls; it is used for helpers that run many times inside one profile, where a
span would cost a visible share of the profile itself.  Spans stay in memory
until :meth:`Tracer.write` saves them.

Worker processes forked by a process pool inherit the wrappers; an at-fork
hook disables the tracer in the child, so workers run at full speed and only
the benchmark process is traced.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
import sys
import time
import weakref

PACKAGE = "mallows_binomial"

# (module, attribute, layer, kind): every public function of each module.
# Layers named by the benchmark's metric table get spans; helpers that run
# many times per profile (rankings checks, the normalizer, the expected
# distance inside the theta root) are counted without spans.
TARGETS = (
    ("model", "Dataset.__init__", "model.dataset_init", "span"),
    ("model", "Dataset.take", "model.take", "count"),
    ("model", "SufficientStats.from_dataset", "model.stats", "span"),
    ("model", "SufficientStats.mean_distance", "model.mean_distance", "count"),
    ("model", "Params.__init__", "model.params_init", "count"),
    ("model", "log_likelihood", "model.loglik", "span"),
    ("model", "as_ranking", "model.as_ranking", "count"),
    ("model", "kendall_distance", "model.kendall_distance", "count"),
    ("model", "max_kendall_distance", "model.max_kendall_distance", "count"),
    ("model", "order_of", "model.order_of", "count"),
    ("model", "psi", "model.psi", "count"),
    ("model", "log_psi", "model.log_psi", "count"),
    ("model", "expected_distance", "model.expected_distance", "count"),
    ("model", "distance_variance", "model.distance_variance", "count"),
    ("model", "distance_mean_var", "model.distance_mean_var", "count"),
    ("sampling", "spawn_rng", "sampling.spawn_rng", "count"),
    ("sampling", "derive_seed", "sampling.derive_seed", "count"),
    ("sampling", "sample_mallows", "sampling.sample_mallows", "span"),
    ("sampling", "sample_ratings", "sampling.sample_ratings", "span"),
    ("sampling", "sample_dataset", "sampling.sample_dataset", "span"),
    ("estimation", "isotonic_regression", "estimation.isotonic", "span"),
    ("estimation", "constrained_p_mle", "estimation.constrained_p", "count"),
    ("estimation", "theta_mle", "estimation.theta_solve", "span"),
    ("estimation", "profile_loglik", "estimation.profile", "span"),
    ("estimation", "fit_exhaustive", "estimation.fit", "span"),
    ("estimation", "fit_best_first", "estimation.fit", "span"),
    ("estimation", "fit", "estimation.fit", "span"),
    ("bootstrap", "resample", "bootstrap.resample", "span"),
    ("bootstrap", "percentile_interval", "bootstrap.intervals", "span"),
    ("bootstrap", "bootstrap_fit", "bootstrap.fit", "span"),
    ("asymptotics", "theoretical_se", "asymptotics.theoretical_se", "count"),
    ("asymptotics", "lan_check", "asymptotics.replication", "span"),
    ("asymptotics", "coverage_study", "asymptotics.replication", "span"),
    ("io", "read_ratings", "io.read", "span"),
    ("io", "read_rankings", "io.read", "span"),
    ("io", "read_dataset", "io.read", "span"),
    ("io", "write_ratings", "io.write", "span"),
    ("io", "write_rankings", "io.write", "span"),
    ("cli", "build_parser", "cli.build_parser", "count"),
    ("cli", "run", "cli.run", "span"),
)

# files whose sizes count as I/O bytes (read_dataset delegates to these)
_READERS = ("read_ratings", "read_rankings")
_WRITERS = ("write_ratings", "write_rankings")


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self):
        self.layer_names: list[str] = []
        self._layer_index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.root_ns = 0
        self.enabled = False
        self.op = -1
        self._stack: list[list[int]] = []
        self._fit_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        ref = weakref.ref(self)

        def disable_in_child():
            tracer = ref()
            if tracer is not None:
                tracer.enabled = False

        os.register_at_fork(after_in_child=disable_in_child)

    def layer(self, name: str) -> int:
        if name not in self._layer_index:
            self._layer_index[name] = len(self.layer_names)
            self.layer_names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._layer_index[name]

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- span bookkeeping -------------------------------------------------

    def _open(self) -> list[int]:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans) + len(self._stack), parent, 0, time.perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[int], index: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, parent, child_ns, start = frame
        duration = end - start
        self.calls[index] += 1
        self.self_ns[index] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_ns += duration
        self.spans.append((span_id, parent, index, start, end, self.op))

    def span_wrapper(self, layer: str, func, after=None):
        index = self.layer(layer)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            frame = self._open()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(frame, index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count_wrapper(self, layer: str, func):
        index = self.layer(layer)

        @functools.wraps(func)
        def counted(*args, **kwargs):
            if self.enabled:
                self.calls[index] += 1
            return func(*args, **kwargs)

        return counted

    # -- installing -------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` at every package module attribute bound to it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self, modules: dict) -> None:
        """Wrap every target in ``modules`` (short name -> imported module)."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for mod_name, attr, layer, kind in TARGETS:
            module = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                is_classmethod = isinstance(raw, classmethod)
                func = raw.__func__ if is_classmethod else raw
                wrapped = (
                    self.span_wrapper(layer, func)
                    if kind == "span"
                    else self.count_wrapper(layer, func)
                )
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            original = getattr(module, attr)
            if kind == "count":
                wrapped = self.count_wrapper(layer, original)
            else:
                wrapped = self.span_wrapper(layer, original, self._after_hook(attr))
            if layer == "estimation.fit":
                wrapped = self._fit_depth_wrapper(wrapped)
            self._replace_everywhere(original, wrapped)
        pool = modules["bootstrap"].ProcessPoolExecutor
        self._replace_everywhere(pool, self._pool_class(pool))

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-layer extras -------------------------------------------------

    def _after_hook(self, attr: str):
        if attr in _READERS:
            return lambda args, kwargs, result: self.count(
                "io.read.bytes", os.path.getsize(args[0])
            )
        if attr in _WRITERS:
            return lambda args, kwargs, result: self.count(
                "io.write.bytes", os.path.getsize(args[0])
            )
        if attr == "sample_dataset":
            return lambda args, kwargs, result: self.count(
                "sampling.judges", result.n_judges
            )
        if attr in ("fit", "fit_exhaustive", "fit_best_first"):
            return self._record_fit
        return None

    def _fit_depth_wrapper(self, wrapped):
        @functools.wraps(wrapped)
        def depth_tracked(*args, **kwargs):
            self._fit_depth += 1
            try:
                return wrapped(*args, **kwargs)
            finally:
                self._fit_depth -= 1

        return depth_tracked

    def _record_fit(self, args, kwargs, result) -> None:
        # fit() delegates to fit_exhaustive / fit_best_first: count the
        # outermost call only
        if self._fit_depth != 1:
            return
        self.count("estimation.fits")
        self.count("estimation.nodes_expanded", result.nodes_expanded)
        self.count("estimation.candidates_profiled", result.candidates_profiled)
        self.count("estimation.permutations", math.factorial(result.p.size))

    def _pool_class(self, base):
        tracer = self
        wait_index = self.layer("bootstrap.pool_wait")

        class TracedPool(base):
            """Counts pool starts and job bytes; times the parent's waits."""

            def __init__(self, *args, **kwargs):
                if tracer.enabled:
                    tracer.count("bootstrap.pool_starts")
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                if not tracer.enabled:
                    return super().map(fn, *iterables, **kwargs)
                jobs = list(iterables[0])
                if jobs:
                    tracer.count("bootstrap.job_bytes", len(pickle.dumps(jobs[0])) * len(jobs))
                frame = tracer._open()
                try:
                    return list(super().map(fn, jobs, *iterables[1:], **kwargs))
                finally:
                    tracer._close(frame, wait_index)

            def shutdown(self, *args, **kwargs):
                if not tracer.enabled:
                    return super().shutdown(*args, **kwargs)
                frame = tracer._open()
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    tracer._close(frame, wait_index)

        TracedPool.__name__ = TracedPool.__qualname__ = base.__name__
        return TracedPool

    # -- results ----------------------------------------------------------

    def layer_stats(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of a layer; zeros when it never ran."""
        index = self._layer_index.get(name)
        if index is None:
            return 0, 0.0
        return self.calls[index], self.self_ns[index] / 1e9

    def write(self, path, extra: dict) -> None:
        """Save layers, counters and every span as one JSON document."""
        columns = list(zip(*self.spans)) if self.spans else [()] * 6
        document = {
            "layers": [
                {"name": name, "calls": calls, "self_s": ns / 1e9}
                for name, calls, ns in zip(self.layer_names, self.calls, self.self_ns)
            ],
            "counters": self.counters,
            "span_columns": ["id", "parent", "layer", "start_ns", "end_ns", "op"],
            "spans": [list(column) for column in columns],
            **extra,
        }
        with open(path, "w") as handle:
            json.dump(document, handle)
