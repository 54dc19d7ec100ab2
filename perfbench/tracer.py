"""In-memory span recorder that instruments the lab from outside the package.

:meth:`Tracer.install` replaces the functions listed in ``SPANS`` and
``COUNTED`` with timing wrappers.  It rebinds every module attribute that refers to a wrapped
function, so callers that imported the name (``from .eigensolve import
lowest_two``) reach the wrapper too.  Nothing in the package is edited.

Each wrapped call opens a span (name, start, end, parent and ``P``/``lam``/
``dim`` attributes).  Matvecs are too many and too short for one span each:
they are counted and timed in aggregate, and their time is charged to the
enclosing span as child time.  A span's self time is its duration minus the
time of its child spans and matvecs.

The recorder assumes one thread, which the benchmark ensures by leaving the
pipeline's ``threads`` at 1.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "polaron_effmass"

# (module, attribute, span name, recorded argument); a dotted attribute
# names a method on a class of that module.  The argument is kept as the
# span's P or lam attribute, or as its dim when it is an operator.
SPANS = (
    ("pipeline", "run", "pipeline.run", None),
    ("pipeline", "stage_dispersion", "pipeline.dispersion_stage", None),
    ("pipeline", "stage_static", "pipeline.static_stage", None),
    ("pipeline", "stage_sandwich", "pipeline.sandwich_stage", None),
    ("pipeline", "run_oracle_check", "pipeline.oracle_stage", None),
    ("pipeline", "run_converge", "pipeline.converge_stage", None),
    ("operators", "FiberTemplate.__init__", "operators.template", None),
    ("operators", "assemble_coupled_llp", "operators.coupled_assemble",
     "lam"),
    ("dispersion", "FiberCache._solve", "dispersion.fiber_solve", "P"),
    ("eigensolve", "lowest_two", "eigensolve.pair", "op"),
    ("eigensolve", "ground_state", "eigensolve.lanczos", "op"),
    ("eigensolve", "davidson_ground", "eigensolve.davidson", "op"),
    ("eigensolve", "dense_ground", "eigensolve.dense", "A"),
    ("eigensolve", "dense_spectrum", "eigensolve.dense", "A"),
    ("staticmass", "coupled_ground", "staticmass.coupled_ground", "lam"),
    ("staticmass", "extrapolate_static_mass", "staticmass.extrapolate", None),
    ("staticmass", "invert_E", "staticmass.inversion", None),
    ("staticmass", "schrodinger_energy", "staticmass.schrodinger", None),
    ("trialstate", "minimize_upper_bound", "trialstate.ustar", "lam"),
    ("trialstate", "upper_bound", "trialstate.evaluation", "lam"),
    ("bounds", "momentum_lower_bound", "bounds.l1", "lam"),
    ("bounds", "split_lower_bound", "bounds.l2", "lam"),
)

# aggregated, span-free counters: (module, attribute, counter kind)
COUNTED = (
    ("operators", "SymmetricOperator.matvec", "matvec"),
    ("dispersion", "FiberCache._ensure", "fiber_request"),
)


def _dim(op):
    dim = getattr(op, "dim", None)
    if dim is None:
        dim = getattr(op, "shape", (None,))[0]
    return int(dim) if dim is not None else None


def _attrs(signature, param, args, kwargs) -> dict:
    """The span attribute recorded from argument `param` of one call."""
    if param is None:
        return {}
    value = signature.bind(*args, **kwargs).arguments[param]
    if param in ("op", "A"):
        return {"dim": _dim(value)}
    return {param: float(value)}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "child_s")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = attrs
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s


class Tracer:
    """Spans, aggregated matvecs and solver counters of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def _open(self, name, attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int):
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def _charge(self, seconds: float):
        if self._stack:
            self.spans[self._stack[-1]].child_s += seconds

    def _record_result(self, name, span, result):
        if name in ("eigensolve.lanczos", "eigensolve.davidson"):
            key = name.split(".")[1]
            self.counts[f"{key}_iterations"] += int(result.iterations)
            self.counts[f"{key}_matvecs"] += int(result.matvecs)
            self.counts[f"{key}_restarts"] += int(result.restarts)
        elif name == "eigensolve.dense":
            self.counts["dense_dim_sum"] += int(span.attrs["dim"] or 0)
        elif name == "operators.coupled_assemble":
            m = result.matrix
            stored = (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                      + (0 if result.diag is None else result.diag.nbytes))
            span.attrs["dim"] = int(result.dim)
            span.attrs["stored_mb"] = stored / 1e6

    def _span_wrapper(self, fn, name, param):
        tracer = self
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            index = tracer._open(name, _attrs(signature, param, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._record_result(name, tracer.spans[index], result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _matvec_wrapper(self, fn):
        tracer = self

        def matvec(op, x):
            t0 = time.perf_counter()
            y = fn(op, x)
            dt = time.perf_counter() - t0
            kind = op.name.split("(")[0] or "other"
            tracer.counts[f"{kind}_matvecs"] += 1
            tracer.sums[f"{kind}_matvec_s"] += dt
            tracer.sums[f"{kind}_matvec_flop"] += 2.0 * op.nnz
            # computed minimum traffic: the CSR arrays, then x, the extra
            # diagonal and y once each
            m = op.matrix
            vectors = (2 if op.diag is None else 3) * 8 * op.dim
            tracer.sums[f"{kind}_matvec_bytes"] += (
                m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + vectors)
            tracer._charge(dt)
            return y

        matvec.__wrapped__ = fn
        return matvec

    def _request_wrapper(self, fn):
        tracer = self
        depth = [0]

        def ensure(cache, P):
            # the cache calls itself for parity images and the phase
            # reference; only the outermost call is a caller's request
            if depth[0] == 0:
                tracer.counts["fiber_requests"] += 1
            depth[0] += 1
            try:
                return fn(cache, P)
            finally:
                depth[0] -= 1

        ensure.__wrapped__ = fn
        return ensure

    # -- installation --------------------------------------------------------

    def _replace(self, module, attr, make):
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[name]
        replacement = make(original)
        setattr(owner, name, replacement)
        if owner_name:
            return
        # functions imported by name into other modules of the package
        for mod_name, mod in list(sys.modules.items()):
            if mod is module or not mod_name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)

    def install(self):
        """Wrap the package's functions for the rest of this process."""
        for mod_name, _, _, _ in SPANS:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        for mod_name, attr, name, param in SPANS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            self._replace(module, attr, lambda fn, n=name, p=param:
                          self._span_wrapper(fn, n, p))
        makers = {"matvec": self._matvec_wrapper,
                  "fiber_request": self._request_wrapper}
        for mod_name, attr, kind in COUNTED:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            self._replace(module, attr, makers[kind])
        return self

    # -- output ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus the raw counters."""
        calls, self_s = Counter(), defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += span.self_s
        roots = [(s.name, s.end - s.start) for s in self.spans
                 if s.parent is None]
        return {"calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(self.counts), "sums": dict(self.sums),
                "roots": roots,
                "min_self_s": min((s.self_s for s in self.spans),
                                  default=0.0)}

    def under(self, name: str, ancestor: str) -> int:
        """Number of spans called `name` that have an `ancestor` span."""
        total = 0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None:
                if self.spans[parent].name == ancestor:
                    total += 1
                    break
                parent = self.spans[parent].parent
        return total

    def max_attr(self, name: str, key: str):
        values = [s.attrs[key] for s in self.spans
                  if s.name == name and s.attrs.get(key) is not None]
        return max(values) if values else None

    def write(self, path: str):
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **s.attrs} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts),
                       "sums": dict(self.sums)}, fh)
