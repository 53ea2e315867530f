"""Span tracing of the anchorclust layers, from outside the package.

While an operation is traced, the functions in HOOKS are replaced by
timing wrappers set as module attributes. The package looks them up at
call time (``solver.fit`` calls the module-level ``update_Z``, ``cli``
calls ``anchors_mod.select_anchors``, ...), so every call is seen
without editing the program. Outside a traced operation the original
functions are back in place, so the correctness checks and the untraced
timings run the program unchanged.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the
index of the enclosing span or None, ``op`` the operation id, and
``info`` what the hook recorded about the call's inputs and result.
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path


def _kmeans_key(args, kwargs):
    # One k-means input is (view contents, m, RNG state). The contents key
    # hashes 64 evenly spaced rows, enough to tell datasets apart without
    # reading a whole high-dimensional view inside the traced region.
    X, m, rng = args[0], args[1], args[2]
    step = max(1, X.shape[0] // 64)
    digest = hashlib.blake2b(X[::step].tobytes(), digest_size=16)
    digest.update(repr(X.shape).encode())
    return {"key": f"{digest.hexdigest()}/{m}/{rng.bit_generator.state!r}"}


def _load_key(args, kwargs):
    root = Path(args[0]).resolve()
    size = sum(p.stat().st_size for p in root.iterdir() if p.is_file())
    return {"key": str(root), "bytes": size}


def _graph_shape(args, kwargs):
    gs = args[0]
    return {"V": gs.num_views, "n": gs.n, "m": gs.m}


# (module, attribute, span name, info from the arguments, info from the result)
HOOKS = [
    ("dataset", "load_dataset", "dataset.load", _load_key, None),
    ("anchors", "select_anchors", "anchors.select", None,
     lambda r: {"iters_used": r.kmeans_iters_used}),
    ("anchors", "kmeans", "anchors.kmeans", _kmeans_key, lambda r: {"iters": r[1]}),
    ("anchors", "_kmeans_pp_init", "anchors.seed", None, None),
    ("anchors", "build_anchor_graph", "anchors.graph", None, None),
    ("solver", "fit", "solver.fit", _graph_shape, None),
    ("solver", "init_state", "solver.init", None, None),
    ("solver", "update_F", "solver.F", None, None),
    ("solver", "update_G", "solver.G", None, None),
    ("solver", "update_Z", "solver.Z", None, None),
    ("solver", "update_alpha", "solver.alpha", None, None),
    ("solver", "_objective", "solver.objective", None, None),
    ("metrics", "evaluate_all", "metrics.eval", None, None),
    ("cli", "run_fit", "cli.run_fit", None, None),
]


class Tracer:
    """Collects spans of the hooked functions during traced operations."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.absent = sorted(
            name for mod, attr, name, _, _ in HOOKS
            if not hasattr(modules[mod], attr)
        )
        self._stack: list[int] = []
        self._op = None

    def _wrap(self, fn, name, pre, post):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            info = pre(args, kwargs) if pre else None
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._op, info]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if post:
                span[5] = {**(info or {}), **post(result)}
            return result

        return wrapper

    @contextmanager
    def op(self, op_id):
        """Trace one operation: hooks are installed only inside this block."""
        saved = []
        for mod, attr, name, pre, post in HOOKS:
            module = self.modules[mod]
            fn = getattr(module, attr, None)
            if fn is not None:
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, pre, post))
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}))
                fh.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def cycle_times(spans: list[list]) -> list[float]:
    """Seconds per solver cycle: from update_F to the objective that ends it."""
    cycles, start = [], None
    for name, t0, t1, *_ in spans:
        if name == "solver.F":
            start = t0
        elif name == "solver.objective" and start is not None:
            cycles.append(t1 - start)
            start = None
    return cycles
