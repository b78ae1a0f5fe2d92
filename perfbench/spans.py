"""In-memory spans around chaoskit's layer boundaries, installed from outside.

The tracer replaces every binding of a layer's public functions (and the
public methods of its classes) with a wrapper that records one span per
call: name, layer, start, end, parent span and thread. Because each module
looks its imports up in its own globals, rebinding at every module attribute
that holds a layer function catches both cross-module and intra-module
calls. Registered suite checks are wrapped through `suites.suite_checks`.

Spans stay in memory until the run ends; `summarize` turns them into
per-layer self times and counts and checks that they nest.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
import types

LAYERS = (
    "levy",
    "integrals",
    "chaos",
    "montecarlo",
    "indices",
    "fock",
    "dense",
    "exponential",
    "suites",
    "reporting",
)
# Dunder methods that do algebra work; other dunders are plumbing.
_ARITH = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")
# Tolerance of the self-time identity, per span (float rounding only).
IDENTITY_TOL_PER_SPAN_S = 1e-9


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        self.spans = []  # (id, name, layer, start, end, parent, thread)
        self.counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._count_lock = threading.Lock()
        self._wrapped = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A pool thread's first span belongs to whatever the main thread has
        # open: the call that fanned the work out.
        main = self._main_stack
        return main[-1] if main else 0

    def span(self, name: str, layer: str):
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, name, layer)

    def count(self, key: str, amount) -> None:
        with self._count_lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name: str, layer: str, hook=None):
        key = (id(fn), name)
        if key not in self._wrapped:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name, layer):
                    result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result)
                return result

            self._wrapped[key] = traced
        return self._wrapped[key]


class _Span:
    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = self.tracer._parent(stack)
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.sid, self.name, self.layer, self.start, end, self.parent,
             threading.get_ident())
        )
        return False


def _layer_of(obj, package: str):
    module = getattr(obj, "__module__", None) or ""
    prefix = package + "."
    if not module.startswith(prefix):
        return None
    layer = module[len(prefix):]
    return layer if layer in LAYERS else None


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or type(obj).__name__ == "_lru_cache_wrapper"


def install(tracer: Tracer, package, hooks: dict) -> None:
    """Rebind every layer function and method of `package` to a traced wrapper.

    `hooks` maps a span name to hook(tracer, args, result), called after the
    wrapped function returns, for counts measured at the boundary.
    """
    name = package.__name__
    modules = {
        layer: getattr(package, layer) for layer in LAYERS if hasattr(package, layer)
    }
    # Functions: every module attribute bound to a public layer function.
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not _is_function(obj):
                continue
            layer = _layer_of(obj, name)
            if layer is None:
                continue
            span_name = f"{layer}.{obj.__name__}"
            setattr(module, attr, tracer.wrap(obj, span_name, layer, hooks.get(span_name)))
    # Methods: public ones and arithmetic dunders of classes defined in a layer.
    for layer, module in modules.items():
        for cls in list(vars(module).values()):
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") and attr not in _ARITH:
                    continue
                span_name = f"{layer}.{cls.__name__}.{attr}"
                hook = hooks.get(span_name)
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, span_name, layer, hook)))
                elif isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(tracer.wrap(raw.__func__, span_name, layer, hook)))
                elif isinstance(raw, types.FunctionType):
                    setattr(cls, attr, tracer.wrap(raw, span_name, layer, hook))
    # Registered checks: one span per check function, named by its check id.
    suites = modules["suites"]
    original = suites.suite_checks

    def traced_checks(suite):
        out = []
        for fn in original(suite):
            # functools.wraps copies the check_id attribute run_suite reads
            out.append(tracer.wrap(fn, f"check.{fn.check_id}", "suites"))
        return tuple(out)

    suites.suite_checks = traced_checks


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def analyse(spans):
    """Self time per span, nesting violations and the self-time identity.

    Returns (self_times, problems, identity) where self_times maps span id to
    seconds, problems lists nesting defects, and identity maps each root span
    id to (duration, sum of self times below it, overlap of its subtree).
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[5], []).append(s)
    problems = []
    self_time = {}
    overlap = {}
    for s in spans:
        sid, name, _, start, end, parent, thread = s
        kids = children.get(sid, [])
        covered = _union_length([(k[3], k[4]) for k in kids])
        self_time[sid] = (end - start) - covered
        overlap[sid] = sum(k[4] - k[3] for k in kids) - covered
        if self_time[sid] < -IDENTITY_TOL_PER_SPAN_S:
            problems.append(f"negative self time in {name}")
        if parent == 0:
            continue
        up = by_id.get(parent)
        if up is None:
            problems.append(f"{name} names a parent span that was never closed")
            continue
        if start < up[3] or end > up[4]:
            problems.append(f"{name} is not inside its parent {up[1]}")
        if thread != up[6] and not name.startswith("check."):
            problems.append(f"{name} changed thread without a check boundary")
    identity = {}
    for root in children.get(0, []):
        total_self, total_overlap, todo = 0.0, 0.0, [root]
        while todo:
            s = todo.pop()
            total_self += self_time[s[0]]
            total_overlap += overlap[s[0]]
            todo.extend(children.get(s[0], []))
        identity[root[0]] = (root[4] - root[3], total_self, total_overlap)
        n = len(spans)
        if abs(total_self - (root[4] - root[3]) - total_overlap) > IDENTITY_TOL_PER_SPAN_S * n:
            problems.append(f"self times under {root[1]} do not add up to its duration")
    return self_time, problems, identity


def summarize(spans, counts) -> dict:
    """Per-layer self times and call counts, suite times and trace checks."""
    self_time, problems, identity = analyse(spans)
    out = {"problems": problems, "spans": len(spans)}
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    layer_calls = {layer: 0 for layer in LAYERS + ("bench",)}
    fn_self = {}
    fn_calls = {}
    suite_s = {}
    check_s = {}
    check_total = 0.0
    run_span = None
    for s in spans:
        sid, name, layer, start, end = s[:5]
        layer_self[layer] += self_time[sid]
        layer_calls[layer] += 1
        fn_self[name] = fn_self.get(name, 0.0) + self_time[sid]
        fn_calls[name] = fn_calls.get(name, 0) + 1
        if name.startswith("check."):
            suite = name.split(".")[1]
            suite_s[suite] = suite_s.get(suite, 0.0) + (end - start)
            check_s[name[len("check."):]] = end - start
            check_total += end - start
        if name == "bench.run":
            run_span = s
    run_s = run_span[4] - run_span[3]
    duration, total_self, overlap = identity[run_span[0]]
    out.update(
        layer_self=layer_self,
        layer_calls=layer_calls,
        fn_self=fn_self,
        fn_calls=fn_calls,
        suite_s=suite_s,
        check_s=check_s,
        concurrency=check_total / run_s,
        run_s=run_s,
        glue_s=self_time[run_span[0]],
        self_total_s=total_self,
        overlap_s=overlap,
        identity_gap_s=total_self - duration - overlap,
        counts=dict(counts),
    )
    return out
