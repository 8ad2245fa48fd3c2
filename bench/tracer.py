"""Span tracer that wraps the public functions of every ``hviheat`` layer.

The tracer lives in the benchmark: it replaces module attributes and class
methods with recording wrappers and puts the originals back on ``remove()``.
A function is replaced under every module name that bound it, because
``from .mesh import validate_mesh`` copies the binding into the importing
module.  Inside ``hvi_solver`` the ``scipy.sparse.linalg`` module is swapped
for a proxy whose ``splu`` and ``cg`` are traced, and the factor objects that
``splu`` returns are wrapped so that each back-solve is a span too.

Spans are kept in flat arrays (name id, start, end, parent) and only while
``recording`` is true, so set-up and output checks stay out of the trace.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

import numpy as np

# (module, public function) -> span name; functions not listed are traced
# under "<module>.<function>".
SPAN_NAMES = {
    ("mesh", "generate_unit_square_mesh"): "mesh.generate",
    ("mesh", "validate_mesh"): "mesh.validate",
    ("mesh", "load_mesh"): "mesh.load",
    ("assembly", "assemble_system"): "assembly.system",
    ("assembly", "assemble_stiffness"): "assembly.stiffness",
    ("assembly", "assemble_mass"): "assembly.mass",
    ("assembly", "estimate_coercivity"): "assembly.coercivity",
    ("cli", "parse_config"): "cli.parse",
}
LAYERS = ("mesh", "assembly", "potentials", "hvi_solver", "verification", "cli")
SOLVES = ("solve_dirichlet", "solve_robin", "solve_hvi", "solve_vi_convex")
POTENTIAL_METHODS = {"subdiff_bounds": "potentials.subdiff", "slope": "potentials.slope", "prox": "potentials.prox"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.recording = False
        self.counts = {"solves": 0, "certified": 0, "iterations": 0, "cg_iterations": 0}
        self.merit_max = 0.0
        self._solve_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call made while recording is a span."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import hviheat.hvi_solver as hvi_solver
        import hviheat.potentials as potentials

        modules = [m for name, m in sorted(sys.modules.items()) if name == "hviheat" or name.startswith("hviheat.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"hviheat.{layer}"]
            for fname in module.__all__:
                fn = getattr(module, fname)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = SPAN_NAMES.get((layer, fname), f"{layer}.{fname}")
                wrappers[id(fn)] = self._solve_span(fn) if fname in SOLVES else self.span(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])

        classes = [potentials.Potential]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            for method, name in POTENTIAL_METHODS.items():
                if method in cls.__dict__:
                    self._patch(cls, method, self.span(name, cls.__dict__[method]))

        self._patch(hvi_solver, "spla", self._scipy_proxy(hvi_solver.spla))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _solve_span(self, fn):
        """Span ``hvi_solver.solve`` that also counts outermost solves and their reports."""
        from hviheat.hvi_solver import DEFAULT_OPTIONS

        traced = self.span("hvi_solver.solve", fn)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.recording or self._solve_depth:
                return traced(*args, **kwargs)
            self._solve_depth += 1
            try:
                report = traced(*args, **kwargs)
            finally:
                self._solve_depth -= 1
            opts = signature.bind(*args, **kwargs).arguments.get("opts", DEFAULT_OPTIONS)
            self.counts["solves"] += 1
            self.counts["iterations"] += report.iterations
            if report.converged:
                self.counts["certified"] += 1
                self.merit_max = max(self.merit_max, report.certificate.merit(opts))
            return report

        return counted

    def _scipy_proxy(self, spla):
        tracer = self
        splu = self.span("hvi_solver.factor", spla.splu)
        backsolve = self.name_id("hvi_solver.backsolve")
        cg = self.span("hvi_solver.cg", spla.cg)

        class Factor:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, *args, **kwargs):
                if not tracer.recording:
                    return self._lu.solve(*args, **kwargs)
                idx = tracer.open(backsolve)
                try:
                    return self._lu.solve(*args, **kwargs)
                finally:
                    tracer.close(idx)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        def traced_splu(*args, **kwargs):
            return Factor(splu(*args, **kwargs))

        def traced_cg(*args, callback=None, **kwargs):
            def count(xk):
                if tracer.recording:
                    tracer.counts["cg_iterations"] += 1
                if callback is not None:
                    callback(xk)

            return cg(*args, callback=count, **kwargs)

        proxy = types.ModuleType(spla.__name__)
        proxy.__dict__.update(vars(spla))
        proxy.splu = traced_splu
        proxy.cg = traced_cg
        return proxy

    # -- reduction --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
        }

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), self time excluding child spans."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        child_time = np.zeros_like(duration)
        has_parent = spans["parent"] >= 0
        np.add.at(child_time, spans["parent"][has_parent], duration[has_parent])
        self_time = duration - child_time
        calls = np.bincount(spans["name"], minlength=len(self.names))
        seconds = np.bincount(spans["name"], weights=self_time, minlength=len(self.names))
        return {name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())
