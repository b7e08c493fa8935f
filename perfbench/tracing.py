"""Spans around raag's public functions, recorded from outside the program.

``Tracer`` replaces every public function of the six layers in each
module namespace where a caller looks it up (``raag.conjugacy.pi_star``
as well as ``raag.piling.pi_star``) with a wrapper that records a span:
name, start, end, parent span, decision id, the input size in letters and
a few counts read from the arguments and the return value.  Spans stay in
memory until the run ends.  Leaving the ``with`` block puts every
original function back.
"""
from __future__ import annotations

import functools
import importlib
import json
import types
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("core", "piling", "conjugacy", "centralizer", "cubecomplex", "cli")

# Per-step helpers called once per letter or per visited vertex: wrapping
# them would make tracing cost scale with the input, and their time
# belongs to the stage that loops over them.
SKIP = frozenset({"cubecomplex.trace", "piling.cycle_bottom"})


def _reach(args, result):
    gens = args[2]
    moves = 2 * sum(len(z) for z, _ in gens.roots) + 2 * len(gens.link_gens)
    return 1, (len(result), moves)


# name -> (args, result) -> (input letters, extra counts)
COUNTS = {
    "piling.pi_star": lambda a, r: (len(a[1]), (r.signed_count, sum(map(len, r.stacks)))),
    "piling.sigma_star": lambda a, r: (a[0].signed_count, len(r)),
    "piling.cyclic_reduce": lambda a, r: (a[0].signed_count, len(r[1])),
    "piling.pyramidalize": lambda a, r: (a[0].signed_count, len(r[1])),
    "piling.split_components": lambda a, r: (a[0].signed_count, len(r)),
    "conjugacy.cyclic_normal_factors": lambda a, r: (len(a[1]), None),
    "conjugacy.normal_form": lambda a, r: (len(a[1]), None),
    "conjugacy.conjugate_in_raag": lambda a, r: (len(a[1]) + len(a[2]), None),
    "conjugacy.cyclic_equal": lambda a, r: (len(a[0]) + len(a[1]), None),
    "centralizer.minimal_root": lambda a, r: (len(a[0]), None),
    "cubecomplex.normalize_based": lambda a, r: (len(a[2].word), None),
    "cubecomplex.groupoid_conjugate": lambda a, r: (len(a[2].word) + len(a[3].word), None),
    "cubecomplex.reach_by_centralizer": _reach,
    "core.parse_word": lambda a, r: (len(r), None),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "decision", "size", "extra")

    def __init__(self, name, start, parent, decision):
        self.name, self.start, self.end = name, start, start
        self.parent, self.decision = parent, decision
        self.size, self.extra = 0, None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.decision = None   # id stamped on every span until changed
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- installing and removing the wrappers --------------------------------

    def __enter__(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"raag.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                pkg, _, home = fn.__module__.rpartition(".")
                name = f"{home}.{fn.__name__}"
                if pkg != "raag" or home not in LAYERS or name in SKIP:
                    continue
                self._patched.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        while self._patched:
            mod, attr, fn = self._patched.pop()
            setattr(mod, attr, fn)
        return False

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0, stack[-1] if stack else -1, self.decision)
            stack.append(len(spans))
            spans.append(span)
            try:
                span.start = perf_counter_ns()
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
            if count is not None:
                span.size, span.extra = count(args, result)
            return result
        return wrapper

    def span(self, name: str, decision):
        """Context manager for a span opened by the benchmark itself, such
        as one decision."""
        return _Outer(self, name, decision)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.decision]) + "\n")


class _Outer:
    def __init__(self, tracer, name, decision):
        self.tracer, self.name, self.decision = tracer, name, decision

    def __enter__(self):
        t = self.tracer
        t.decision = self.decision
        self.span = Span(self.name, 0, t._stack[-1] if t._stack else -1, self.decision)
        t._stack.append(len(t.spans))
        t.spans.append(self.span)
        self.span.start = perf_counter_ns()
        return self.span

    def __exit__(self, *exc):
        self.span.end = perf_counter_ns()
        self.tracer._stack.pop()
        return False


class Profile:
    """Per-name totals over a set of spans, with self time taken as a
    span's duration minus the part its child spans cover."""

    def __init__(self, spans: list[Span], keep):
        child_ns = defaultdict(int)
        for s in spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end - s.start
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.size = defaultdict(int)
        self.extra = defaultdict(list)
        for i, s in enumerate(spans):
            if not keep(s):
                continue
            dur = s.end - s.start
            self.calls[s.name] += 1
            self.total_ns[s.name] += dur
            self.self_ns[s.name] += dur - child_ns[i]
            self.size[s.name] += s.size
            if s.extra is not None:
                self.extra[s.name].append(s.extra)

    def per_letter(self, name: str, self_time: bool = False) -> float:
        ns = (self.self_ns if self_time else self.total_ns)[name]
        return ns / self.size[name] if self.size[name] else 0.0

    def per_call(self, name: str, scale: float = 1.0) -> float:
        return self.total_ns[name] / scale / self.calls[name] if self.calls[name] else 0.0

    def module_self_ns(self, module: str) -> int:
        return sum(ns for name, ns in self.self_ns.items() if name.partition(".")[0] == module)

    def extra_sum(self, name: str, index: int | None = None) -> int:
        vals = self.extra[name]
        return sum(v if index is None else v[index] for v in vals)
