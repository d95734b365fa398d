"""Span recorder that times sglap's public functions from outside the package.

``SpanRecorder.install`` replaces each listed function with a timing
wrapper under every name any ``sglap`` module bound it to, because modules
import functions by name (``bounds`` binds ``balance_info`` and
``degree_profile`` at import time).  Methods are patched on their class.
A listed name the package no longer has is skipped and reports zero.

Each span is (name, start_ns, end_ns, parent index, op id), kept in memory.
A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import sys
import time

LAYERS = {
    "sgraph": ("parse_signed_graph", "degree_profile", "triangle_stats",
               "serialize_signed_graph", "SignedGraph.neighbor_map", "SignedGraph.from_edges"),
    "spectra": ("laplacian", "eigenvalues", "sign_all", "trace_moment", "rayleigh_moment"),
    "balance": ("balance_info", "switch", "switching_equivalent", "induced_sign_subgraph"),
    "bounds": ("evaluate_all", "sandwich_violations", "lb_net_mean", "lb_net_sq",
               "lb_net_cubic", "ub_wang_edge", "ub_wang_global", "ub_rank_trace",
               "lb_trace_sq", "lb_trace_cubic_a", "lb_trace_cubic_b", "ub_all_negative",
               "lb_interlacing", "classic_bounds"),
    "harness": ("generate", "verify", "report"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
ORDER3 = "spectra.eigenvalues.order3_sum"


def solve_work(args, kwargs) -> int:
    """Sum of n^3 over the matrices one eigensolve call receives.

    Accepts a ``SymMatrix`` (``.data``) or a plain or stacked array, so a
    batched (k, n, n) solve counts k * n^3.
    """
    m = args[0] if args else next(iter(kwargs.values()))
    shape = getattr(getattr(m, "data", m), "shape", ())
    if len(shape) < 2:
        return 0
    return math.prod(shape[:-2]) * shape[-1] ** 3


class SpanRecorder:
    def __init__(self):
        self.spans: list = []
        self.order3_sum = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_work = name == "spectra.eigenvalues"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if count_work:
                self.order3_sum += solve_work(args, kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sglap" or key.startswith("sglap."))]
        for mod_name, fns in LAYERS.items():
            home = sys.modules.get(f"sglap.{mod_name}")
            if home is None:
                continue
            for fn in fns:
                name = f"{mod_name}.{fn}"
                if "." in fn:
                    self._patch_method(home, fn, name)
                    continue
                orig = getattr(home, fn, None)
                if not callable(orig):
                    continue
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))

    def _patch_method(self, home, dotted: str, name: str) -> None:
        cls_name, meth = dotted.split(".")
        cls = getattr(home, cls_name, None)
        raw = vars(cls).get(meth) if isinstance(cls, type) else None
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(name, raw.__func__))
        elif callable(raw):
            patched = self._wrap(name, raw)
        else:
            return
        setattr(cls, meth, patched)
        self._restore.append((cls, meth, raw))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def summary(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, self time in ns)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: (0, 0) for name in SPAN_NAMES}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls, self_ns = out[name]
            out[name] = (calls + 1, self_ns + end - start - child_ns[idx])
        return out
