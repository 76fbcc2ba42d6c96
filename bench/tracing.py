"""Spans around the library's layers, recorded from outside the library.

Every public function of the layer modules is wrapped at each module
attribute through which the package calls it (``split_panels`` is bound in
``quadrature``, ``problems`` and ``solver``), plus
``PiecewisePoly.eval_on_cells`` on its class and ``numpy.linalg.cond`` and
``solve`` (the solver's linear algebra).  A problem's kernel pieces and its
right-hand side are wrapped by rebuilding the problem with
``dataclasses.replace``.  Spans stay in memory; self time is a span's
duration minus the durations of the spans it directly caused.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYER_MODULES = ("quadrature", "piecewise", "problems", "solver", "study", "cli")

KERNEL_SPAN = "problems.kernel"
RHS_SPAN = "problems.rhs"
LINALG_SPAN = "solver.linalg"
SOLVE_SPAN = "solver.solve_galerkin"

_MARK = "__bench_span__"


def _points(result) -> int:
    """Points a layer evaluated: the size of the array it returned."""
    return result.size if isinstance(result, np.ndarray) else 1


def _iterations(result) -> int:
    return getattr(result, "iterations", 0)


class Tracer:
    """Installs and removes the wraps and collects spans.

    A span is ``(name, op, parent, start, end, work)``: ``parent`` is the
    index of the span that was open when it started (-1 at top level) and
    ``work`` is a count taken from the layer's result (points evaluated, or
    iterations for ``solver.solve_galerkin``).
    """

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._stack: list = []
        self._patches: list = []
        self.layers: set = {KERNEL_SPAN, RHS_SPAN, LINALG_SPAN}
        self._plan = self._find_targets()

    def wrap(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            count = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    count = work(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, self.op, parent, start, end, count)

        setattr(traced, _MARK, name)
        return traced

    def _find_targets(self) -> list:
        """(owner, attribute, wrapper) for every wrap target present in this
        version of the package."""
        package = importlib.import_module("urysohn")
        modules = {short: importlib.import_module(f"urysohn.{short}") for short in LAYER_MODULES}
        owners = [package, *modules.values()]
        plan = []
        for short, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                work = None
                if name == SOLVE_SPAN:
                    work = _iterations
                elif attr == "get_problem":
                    fn = self._tracing_get_problem(fn)
                wrapped = self.wrap(name, fn, work)
                plan += [(owner, attr, wrapped) for owner in owners
                         if owner.__dict__.get(attr) is getattr(module, attr)]
                self.layers.add(name)
        poly = getattr(modules["piecewise"], "PiecewisePoly", None)
        method = getattr(poly, "eval_on_cells", None)
        if method is not None:
            plan.append((poly, "eval_on_cells", self.wrap("piecewise.eval_on_cells", method, _points)))
            self.layers.add("piecewise.eval_on_cells")
        for attr in ("cond", "solve"):
            plan.append((np.linalg, attr, self.wrap(LINALG_SPAN, getattr(np.linalg, attr))))
        return plan

    def _tracing_get_problem(self, get_problem):
        @functools.wraps(get_problem)
        def get_traced_problem(*args, **kwargs):
            return self.trace_problem(get_problem(*args, **kwargs))
        return get_traced_problem

    def trace_problem(self, prob):
        """The same problem with its kernel pieces and right-hand side wrapped."""
        if getattr(prob.f, _MARK, None):
            return prob
        kernel = prob.kernel
        pieces = {}
        if dataclasses.is_dataclass(kernel):
            pieces = {field.name: self.wrap(KERNEL_SPAN, getattr(kernel, field.name), _points)
                      for field in dataclasses.fields(kernel)
                      if callable(getattr(kernel, field.name))}
        rhs = self.wrap(RHS_SPAN, prob.f, _points)
        return dataclasses.replace(prob, kernel=dataclasses.replace(kernel, **pieces), f=rhs)

    def install(self) -> None:
        for owner, attr, wrapped in self._plan:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def aggregate(spans, ops) -> dict:
    """Per layer: calls, work, total and self seconds over the given ops."""
    child = [0.0] * len(spans)
    for name, op, parent, start, end, work in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "work": 0, "total_s": 0.0, "self_s": 0.0})
    for index, (name, op, parent, start, end, work) in enumerate(spans):
        if op not in ops:
            continue
        entry = totals[name]
        entry["calls"] += 1
        entry["work"] += work
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child[index]
    return dict(totals)
