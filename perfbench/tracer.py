"""Span tracer for the benchmark's traced run.

The program is measured from outside: :meth:`Tracer.install` wraps the
public entry points of each ``repro`` module (the layers) and rebinds
every module attribute that refers to the original, so callers that
imported a function by name (``from repro.compiler.codegen import
compile_kernel``) go through the wrapper too.  Spans are kept in memory
and folded into per-layer figures by :func:`analyze` after the run.

Parenting: a span's parent is the innermost open span of its own
thread.  A span that opens on a thread with no open span (a pool worker
of the explorer, a service worker) is adopted by the innermost open
span of the op thread when exactly one op is in flight; otherwise it is
a root.  Self time is the span's duration minus the part of its
interval its children cover.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "rewrite", "ir", "arith", "compiler", "opencl", "backend", "cache",
    "service",
)

_CACHE_METHODS = (
    "get_kernel", "put_kernel", "get_run", "put_run", "get_cycles",
    "put_cycles",
)


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "outcome")

    def __init__(self, layer: str, name: str, parent: Optional["Span"]):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.outcome = None
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records layer spans while :attr:`recording` is set."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.ops: List[Tuple[float, float]] = []
        self.recording = False
        self._calls = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_stacks: Dict[int, list] = {}
        self._undo: List[Callable[[], None]] = []

    # -- ops -------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def op_begin(self) -> float:
        with self._lock:
            self._op_stacks[threading.get_ident()] = self._stack()
        return time.perf_counter()

    def op_end(self, start: float) -> float:
        end = time.perf_counter()
        with self._lock:
            self._op_stacks.pop(threading.get_ident(), None)
            self.ops.append((start, end))
        return end

    def _adopt(self) -> Optional[Span]:
        with self._lock:
            if threading.get_ident() in self._op_stacks:
                return None
            if len(self._op_stacks) != 1:
                return None
            (stack,) = self._op_stacks.values()
        return stack[-1] if stack else None

    def wrapper_calls(self) -> int:
        """Wrapper invocations so far while recording (spans plus
        nested same-function calls passed straight through)."""
        return next(self._calls)

    # -- wrapping --------------------------------------------------------
    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` timed as one ``layer`` span per outermost call (nested
        calls of the same function in one thread pass straight
        through)."""
        tracer = self
        guard = threading.local()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            next(tracer._calls)
            if getattr(guard, "active", False):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(layer, name, stack[-1] if stack else tracer._adopt())
            stack.append(span)
            guard.active = True
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, bool):
                    span.outcome = result
                return result
            except BaseException:
                span.outcome = "raised"
                raise
            finally:
                span.end = time.perf_counter()
                guard.active = False
                stack.pop()
                tracer.spans.append(span)

        return wrapper

    def rebind(self, original: Callable, replacement: Callable) -> None:
        """Point every ``repro`` module attribute that is ``original``
        at ``replacement`` (undone by :meth:`uninstall`)."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append(
                        functools.partial(setattr, module, attr, original)
                    )

    def _patch_attr(self, owner, attr: str, layer: str, name: str) -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(layer, name, original))
        if had_own:
            self._undo.append(functools.partial(setattr, owner, attr, original))
        else:
            self._undo.append(functools.partial(delattr, owner, attr))

    def install(self) -> None:
        """Wrap every layer's public entry points (see module doc)."""
        import repro.arith
        from repro.backend import registry
        from repro.cache import TuningCache
        from repro.compiler import codegen, kernel
        from repro.ir import interp, structural, typecheck
        from repro.opencl import cost, cparser, runtime
        from repro.rewrite import explore
        from repro.service import TuningService

        functions = [
            ("rewrite", "explore_program", explore.explore_program),
            ("ir", "canonical", structural.canonical),
            ("ir", "infer_types", typecheck.infer_types),
            ("ir", "reference", interp.apply_fun),
            ("arith", "simplify", repro.arith.simplify),
            ("compiler", "compile_kernel", codegen.compile_kernel),
            ("compiler", "execute_kernel", kernel.execute_kernel),
            ("opencl", "launch", runtime.launch),
            ("opencl", "parse", cparser.parse),
            ("opencl", "static_cost", cost.static_program_cost),
        ]
        for layer, name, fn in functions:
            self.rebind(fn, self.wrap(layer, name, fn))
        for method in _CACHE_METHODS:
            self._patch_attr(TuningCache, method, "cache", method)
        self._patch_attr(TuningService, "submit_run", "service", "submit_run")
        for backend_name in registry.backend_names():
            backend = registry.get_backend(backend_name)
            self._patch_attr(backend, "run", "backend", f"run.{backend_name}")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _union(intervals) -> List[Tuple[float, float]]:
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def _length(intervals) -> float:
    return sum(e - s for s, e in intervals)


def _clipped_cover(intervals, start: float, end: float) -> float:
    return _length(
        _union(
            (max(s, start), min(e, end)) for s, e in intervals
            if e > start and s < end
        )
    )


def _intersection(a, b) -> float:
    """Length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def measure_wrapper_cost(batches: int = 5, calls: int = 20000) -> float:
    """Seconds one recorded wrapper call adds over a plain call (median
    of ``batches``), measured on a no-op in a throwaway tracer."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("bench", "noop", noop)
    tracer.recording = True
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(0.0, _median(costs))


def analyze(tracer: Tracer) -> dict:
    """Per-layer figures from the recorded spans (units in the names'
    suffixes: ``_s`` seconds, ``_ms``/``_us`` per call, else counts)."""
    spans = tracer.spans
    children: Dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)

    out: dict = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span in spans:
        kids = children.get(id(span), ())
        covered = _clipped_cover(
            ((k.start, k.end) for k in kids), span.start, span.end
        )
        out[f"{span.layer}.self_s"] += span.duration - covered

    def select(name: str) -> list:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        return sum(s.duration for s in select(name))

    for tier in ("scalar", "interp", "compiled", "fused"):
        out[f"backend.run_s.{tier}"] = total(f"run.{tier}")
    declined = [
        s for s in spans if s.layer == "backend" and s.outcome is False
    ]
    out["backend.declined_runs"] = len(declined)
    out["backend.declined_run_s"] = sum(s.duration for s in declined)

    launches = select("launch")
    out["opencl.launches"] = len(launches)
    out["opencl.launch_s"] = total("launch")
    out["opencl.launch_overhead_us"] = 1e6 * _median(
        s.duration - sum(
            k.duration for k in children.get(id(s), ())
            if k.layer == "backend"
        )
        for s in launches
    )
    out["opencl.parse_calls"] = len(select("parse"))
    out["opencl.parse_s"] = total("parse")
    out["opencl.static_cost_s"] = total("static_cost")

    out["compiler.compile_calls"] = len(select("compile_kernel"))
    out["compiler.compile_s"] = total("compile_kernel")
    out["compiler.execute_calls"] = len(select("execute_kernel"))

    out["arith.simplify_calls"] = len(select("simplify"))
    out["arith.simplify_s"] = total("simplify")

    out["ir.canonical_calls"] = len(select("canonical"))
    out["ir.canonical_s"] = total("canonical")
    out["ir.infer_types_s"] = total("infer_types")
    out["ir.reference_s"] = total("reference")

    gets = [s for s in spans if s.layer == "cache" and s.name.startswith("get_")]
    puts = [s for s in spans if s.layer == "cache" and s.name.startswith("put_")]
    out["cache.get_calls"] = len(gets)
    out["cache.put_calls"] = len(puts)
    out["cache.get_p50_ms"] = 1e3 * _median(s.duration for s in gets)
    out["cache.put_p50_ms"] = 1e3 * _median(s.duration for s in puts)

    out["service.submit_s"] = total("submit_run")

    ops = _union(tracer.ops)
    covered = _union((s.start, s.end) for s in spans)
    op_s = _length(ops)
    out["traced_op_s"] = op_s
    out["residue_s"] = op_s - _intersection(ops, covered)
    out["trace.spans"] = len(spans)
    out["trace_overhead_frac"] = (
        tracer.wrapper_calls() * measure_wrapper_cost() / op_s
        if op_s > 0 else 0.0
    )
    return out
