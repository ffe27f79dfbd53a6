"""Spans around the public functions of the ncfield modules, installed at run time.

The tracer lives entirely outside the package.  ``install`` replaces every
binding of each public module-level function, wherever it is bound (the
defining module, the package namespace, and every ncfield module that
imported it by name), together with a few methods on their classes.
``restore`` puts every original object back.

Each call records a span: name, op id, parent span, start and end.  A span's
self time is its duration minus the time covered by its direct children;
a function's busy time sums only its outermost spans, so recursion is not
counted twice.  Exact work counts are gathered by hooks that read the
arguments and results after the span has closed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = (
    "scalars",
    "ncpoly",
    "ratexpr",
    "realization",
    "randmat",
    "ncrank",
    "spectra",
    "freegroup",
    "cli",
)

# (module, class, method) wrapped on the class itself.
METHODS = (
    ("ncpoly", "NcPoly", "evaluate"),
    ("ncpoly", "NcMatrix", "evaluate"),
    ("ncpoly", "LinearPencil", "evaluate"),
    ("realization", "LinearRepresentation", "evaluate"),
    ("freegroup", "SparseOp", "apply"),
)

OP_SPAN = "op"


def _layer_module(layer: str):
    # ``ncfield.ncrank`` as an attribute of the package is the function, so
    # the submodule is reached through the import system.
    return importlib.import_module(f"ncfield.{layer}")


def public_functions() -> Dict[str, types.FunctionType]:
    """Span name -> function, for every public function the layers define."""
    found: Dict[str, types.FunctionType] = {}
    for layer in LAYERS:
        mod = _layer_module(layer)
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
            ):
                found[f"{layer}.{name}"] = obj
    for layer, cls_name, meth in METHODS:
        cls = getattr(_layer_module(layer), cls_name, None)
        fn = cls.__dict__.get(meth) if cls is not None else None
        if isinstance(fn, types.FunctionType):
            found[f"{layer}.{cls_name}.{meth}"] = fn
    return found


def package_namespaces() -> List[Tuple[str, object]]:
    return [
        (name, mod)
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "ncfield" or name.startswith("ncfield."))
    ]


def binding_snapshot() -> Dict[Tuple[str, str], object]:
    """Every module attribute and wrapped class attribute, by identity."""
    snap: Dict[Tuple[str, str], object] = {}
    for mod_name, mod in package_namespaces():
        for attr, val in vars(mod).items():
            if callable(val):
                snap[(mod_name, attr)] = val
    for layer, cls_name, meth in METHODS:
        cls = getattr(_layer_module(layer), cls_name, None)
        if cls is not None and meth in cls.__dict__:
            snap[(f"{layer}.{cls_name}", meth)] = cls.__dict__[meth]
    return snap


class Tracer:
    """In-memory span recorder with exact work counters."""

    def __init__(self):
        self.spans: List[list] = []  # [name, op, parent, t0, t1, outermost]
        self.counters: Dict[str, float] = {}
        self.op_id: Optional[str] = None
        self.enabled = False
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []
        self._hooks = _hooks()

    # bookkeeping

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = {}
        return local

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def _call(self, name: str, fn: Callable, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else -1
        depth = state.active.get(name, 0)
        span = [name, self.op_id, parent, 0.0, 0.0, depth == 0]
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        state.active[name] = depth + 1
        hook = self._hooks.get(name)
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[4] = time.perf_counter()
            stack.pop()
            state.active[name] = depth
            if hook is not None:
                hook(self, args, kwargs, None, exc)
            raise
        span[4] = time.perf_counter()
        stack.pop()
        state.active[name] = depth
        if hook is not None:
            hook(self, args, kwargs, result, None)
        return result

    def op(self, op_id: str, fn: Callable):
        """Run one benchmark op under a root span; calls outside ops go unrecorded."""
        self.op_id = op_id
        self.enabled = True
        try:
            return self._call(OP_SPAN, fn, (), {})
        finally:
            self.enabled = False
            self.op_id = None

    # installation

    def _wrapper(self, name: str, fn: types.FunctionType):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        return traced

    def install(self) -> List[str]:
        """Wrap every binding of every public function; returns span names."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        targets = public_functions()
        # ``targets`` keeps every function alive, so ids stay unique here.
        wrappers = {id(fn): self._wrapper(name, fn) for name, fn in targets.items()}
        for _, mod in package_namespaces():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._installed.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(_layer_module(layer), cls_name, None)
            fn = cls.__dict__.get(meth) if cls is not None else None
            if fn is not None and id(fn) in wrappers:
                self._installed.append((cls, meth, fn))
                setattr(cls, meth, wrappers[id(fn)])
        return sorted(targets)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # summaries

    def per_function(self) -> Dict[str, Dict[str, float]]:
        """calls, busy_s (outermost spans) and self_s for every span name."""
        child_time = [0.0] * len(self.spans)
        for name, _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        table: Dict[str, Dict[str, float]] = {}
        for k, (name, _, _, t0, t1, outer) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if outer:
                row["busy_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time[k]
        return table


# exact work counters, keyed by span name


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _rank_exact(tr: Tracer, args, kwargs, result, exc):
    rows = _arg(args, kwargs, 0, "rows") or []
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    tr.count("scalars.rank_exact.entries", n_rows * n_cols)
    tr.maximum("scalars.rank_exact.max_rows", n_rows)
    if exc is None and n_rows and result == min(n_rows, n_cols):
        tr.count("scalars.rank_exact.full")


def _fullness_scaling(tr: Tracer, args, kwargs, result, exc):
    if exc is not None:
        if type(exc).__name__ == "Inconclusive":
            tr.count("ncrank.inconclusive")
        return
    tr.count("ncrank.fullness_scaling.iterations", result.iterations)
    if result.verdict == "full":
        tr.count("ncrank.verdict.full")
    elif result.method == "hollow":
        tr.count("ncrank.verdict.hollow")
    else:
        tr.count("ncrank.verdict.nonfull")


def _linearize_matrix(tr: Tracer, args, kwargs, result, exc):
    if exc is None:
        tr.count("ncrank.linearize_matrix.border", result[1])


def _empirical_rank(tr: Tracer, args, kwargs, result, exc):
    if exc is None and not result.clean:
        tr.count("randmat.empirical_rank.unclean")


def _spectrum_counts(tr: Tracer, report) -> None:
    tr.count("spectra.atoms_certified", len(report.atoms))
    tr.count("spectra.uncertified", len(report.uncertified))


def _central_eigs_pencil(tr: Tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    _spectrum_counts(tr, result)
    pencil = _arg(args, kwargs, 0, "pencil")
    n = pencil.rows
    if result.diagnostics.get("homogeneous_rho") == n:
        return  # a full homogeneous part rules out every candidate
    # Candidates are the distinct eigenvalues of the constant coefficient.
    a0 = np.array([[complex(x) for x in row] for row in pencil.coeffs[0]])
    eigs = sorted(np.linalg.eigvals(a0), key=lambda z: (z.real, z.imag))
    tol = 1e-8 * max(1.0, float(np.linalg.norm(a0)))
    distinct = 0
    last = None
    for z in eigs:
        if last is None or abs(z - last) > tol:
            distinct += 1
            last = z
    tr.count("spectra.candidates", distinct)


def _central_eigs_polymatrix(tr: Tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    _spectrum_counts(tr, result)
    tr.count("spectra.candidates", len(result.diagnostics.get("candidates", ())))


def _sparse_apply(tr: Tracer, args, kwargs, result, exc):
    tr.count("freegroup.SparseOp.apply.entries_scanned", len(args[0].entries))


def _hooks() -> Dict[str, Callable]:
    return {
        "scalars.rank_exact": _rank_exact,
        "ncrank.fullness_scaling": _fullness_scaling,
        "ncrank.linearize_matrix": _linearize_matrix,
        "randmat.empirical_rank": _empirical_rank,
        "spectra.central_eigs_pencil": _central_eigs_pencil,
        "spectra.central_eigs_polymatrix": _central_eigs_polymatrix,
        "freegroup.SparseOp.apply": _sparse_apply,
    }
