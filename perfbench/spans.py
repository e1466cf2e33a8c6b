"""In-process spans around calls into giantflux's modules.

``install`` wraps every public function of every giantflux module and
rebinds each name under which a module holds one: a module attribute such
as ``theory.mixed_moment`` (bound by ``from .weights import mixed_moment``)
or a value in a module-level dict such as ``harness._RUNNERS``.  One wrapper
serves all bindings of a function, so a call is recorded once, under the
module that defines the function, whichever binding the caller used.

The replicate runner ``harness._map_indexed`` is wrapped too, and it wraps
each replicate task, so every replicate gets a span with its wall time and
its thread CPU time.

Spans stay in memory; ``Tracer.summary`` reduces them to per-function calls,
busy time and self time, per-layer self time, replicate statistics and the
counters the hooks record.  Layer names drop the leading underscore of the
module name (``_numeric`` is the ``numeric`` layer), because metric names
start with a letter.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

PACKAGE = "giantflux"
REPLICATE = "harness.replicate"


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _mixed_moment_hook(counters, args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    counters["weights.moment_terms"] += model.values.size


def _chol_hook(counters, args, kwargs, result):
    eps = result[1]
    eps_start = kwargs.get("eps_start", args[1] if len(args) > 1 else 1e-12)
    counters["numeric.chol_with_jitter.retries"] += round(math.log10(eps / eps_start)) if eps else 0
    counters["numeric.chol_with_jitter.jitter"] = max(counters["numeric.chol_with_jitter.jitter"], eps)


def _simulate_hook(counters, args, kwargs, result):
    counters["graph_oracle.arrivals_sampled"] += result.arrivals.size


def _giant_path_hook(counters, args, kwargs, result):
    import numpy as np

    realization = args[0] if args else kwargs["r"]
    lambdas = args[1] if len(args) > 1 else kwargs["lambdas"]
    threshold = float(np.max(lambdas)) / realization.n
    used = int(np.searchsorted(realization.arrivals, threshold, side="right"))
    counters["graph_oracle.arrivals_used"] += used


# Counters read from the arguments and results of a call, after its span closes.
HOOKS = {
    "weights.mixed_moment": _mixed_moment_hook,
    "numeric.chol_with_jitter": _chol_hook,
    "graph_oracle.simulate_dynamic_graph": _simulate_hook,
    "graph_oracle.giant_path": _giant_path_hook,
}


class Tracer:
    def __init__(self) -> None:
        # (name, span id, parent id, start, end); parent 0 is the root
        self.spans: list[tuple[str, int, int, float, float]] = []
        # (span id, thread CPU seconds) of each replicate span
        self.replicate_cpu: list[tuple[int, float]] = []
        # (span id of a _map_indexed call, workers it ran with)
        self.maps: list[tuple[int, int]] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._hook_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, ids, counters = self.spans, self._ids, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((name, sid, parent, start, end))
            if hook is not None:
                with self._hook_lock:
                    hook(counters, args, kwargs, result)
            return result

        return wrapper

    def wrap_runner(self, fn):
        """Wrap ``_map_indexed(fn, count, threads)`` so each task gets a span."""

        def map_indexed(task, count, threads):
            parent = self._stack()[-1]
            self.maps.append((parent, min(threads, count) if threads > 1 else 1))

            def replicate(i):
                stack = self._stack()
                sid = next(self._ids)
                stack.append(sid)
                cpu = thread_time()
                start = perf_counter()
                try:
                    return task(i)
                finally:
                    end = perf_counter()
                    self.replicate_cpu.append((sid, thread_time() - cpu))
                    stack.pop()
                    self.spans.append((REPLICATE, sid, parent, start, end))

            return fn(replicate, count, threads)

        return self.wrap("harness._map_indexed", functools.wraps(fn)(map_indexed))

    def summary(self) -> dict:
        children = defaultdict(list)
        for span in self.spans:
            children[span[2]].append(span)
        functions: dict[str, dict] = {}
        layers: dict[str, float] = defaultdict(float)
        durations = {}
        for name, sid, _parent, start, end in self.spans:
            covered = 0.0
            cursor = start
            for _n, _s, _p, c_start, c_end in sorted(children.get(sid, ()), key=lambda s: s[3]):
                lo, hi = max(c_start, cursor), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            own = (end - start) - covered
            entry = functions.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += own
            layers[name.split(".", 1)[0]] += own
            durations[sid] = end - start
        rep_wall = [durations[sid] for sid, _ in self.replicate_cpu]
        rep_cpu = sum(cpu for _, cpu in self.replicate_cpu)
        capacity = sum(workers * durations[sid] for sid, workers in self.maps)
        if len(rep_wall) >= 2:
            p95 = statistics.quantiles(rep_wall, n=20, method="inclusive")[-1]
        else:
            p95 = rep_wall[0] if rep_wall else 0.0
        return {
            "functions": functions,
            "layer_self_s": dict(layers),
            "counters": dict(self.counters),
            "replicates": {
                "count": len(rep_wall),
                "wait_s": sum(rep_wall) - rep_cpu,
                "utilization": rep_cpu / capacity if capacity else 0.0,
                "ms_p50": 1000 * statistics.median(rep_wall) if rep_wall else 0.0,
                "ms_p95": 1000 * p95,
            },
        }


def package_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_functions(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        obj for n in names
        if inspect.isfunction(obj := getattr(module, n)) and obj.__module__ == module.__name__
    ]


def _bindings(modules):
    """Every (container, key, value) slot a module holds: attributes and dict values."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            yield vars(mod), key, value
            if isinstance(value, dict) and not key.startswith("__"):
                for k, v in list(value.items()):
                    yield value, k, v


def install(tracer: Tracer) -> int:
    """Wrap every public function of the loaded giantflux modules; return the rebinds."""
    modules = package_modules()
    wrappers = {}
    for mod in modules:
        if mod.__name__ == PACKAGE:
            continue
        layer = layer_of(mod.__name__)
        for fn in public_functions(mod):
            wrappers[fn] = tracer.wrap(f"{layer}.{fn.__name__}", fn)
    harness = sys.modules[f"{PACKAGE}.harness"]
    runner = harness._map_indexed
    wrappers[runner] = tracer.wrap_runner(runner)
    rebinds = 0
    for container, key, value in _bindings(modules):
        if inspect.isfunction(value) and value in wrappers:
            container[key] = wrappers[value]
            rebinds += 1
    leftover = unwrapped_bindings(set(wrappers))
    if leftover:
        raise RuntimeError(f"bindings left unwrapped: {', '.join(leftover)}")
    return rebinds


def unwrapped_bindings(targets) -> list[str]:
    """Names under which a module still holds an unwrapped target function."""
    return [
        f"{key}->{value.__module__}.{value.__name__}"
        for _container, key, value in _bindings(package_modules())
        if inspect.isfunction(value) and value in targets
    ]
