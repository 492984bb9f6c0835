"""Outside-in layer tracing: wraps public functions of qloopk from outside the
library, keeps span statistics in memory, and removes every wrapper again.

A span is one call of a wrapped function. Spans nest on a stack; a span's
self time is its duration minus the durations of the spans it directly
encloses. Inclusive time is counted only for the outermost active span of a
name, so recursion (``build_rep`` calling ``build_eval_rep_sl2``) is not
counted twice. Per-call raw spans are not kept: ``Rat.is_zero`` alone runs
hundreds of thousands of times per unit, so each name aggregates its calls,
self time and inclusive time as it goes.

Methods are wrapped on their class. A module-level function is replaced in
every loaded module that binds it, because ``from .linalg import kron``
copies the name into ``rmat``, ``kmat``, ``irred`` and ``repcore``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time

# metric name -> (module, attributes). "Cls.meth" wraps a method on its class;
# several attributes aggregate into one metric.
SPANS = {
    "scalars.rat_new": ("qloopk.scalars", ("Rat.__init__",)),
    "scalars.is_zero": ("qloopk.scalars", ("Rat.is_zero",)),
    "scalars.num_den": ("qloopk.scalars", ("Rat.num", "Rat.den")),
    "scalars.str": ("qloopk.scalars", ("Rat.__str__",)),
    "scalars.substitute": ("qloopk.scalars", ("Rat.substitute",)),
    "linalg.matmul": ("qloopk.linalg", ("Mat.__matmul__",)),
    "linalg.span_add": ("qloopk.linalg", ("SpanBasis.add",)),
    "linalg.rref": ("qloopk.linalg", ("rref",)),
    "linalg.kron": ("qloopk.linalg", ("kron",)),
    "linalg.substitute": ("qloopk.linalg", ("Mat.substitute",)),
    "linalg.algebra_closure": ("qloopk.linalg", ("algebra_closure",)),
    "repcore.build": ("qloopk.repcore", ("build_eval_rep_sl2",
                                         "build_vector_rep_slN_eval",
                                         "build_rep")),
    "braid.lusztig_T": ("qloopk.braid", ("lusztig_T",)),
    "braid.t_theta_matrix": ("qloopk.braid", ("t_theta_matrix",)),
    "braid.realize_twist": ("qloopk.braid", ("realize_twist",)),
    "rmat.solve_R": ("qloopk.rmat", ("solve_R",)),
    "rmat.verify_YBE": ("qloopk.rmat", ("verify_YBE",)),
    "kmat.qsp_generators": ("qloopk.kmat", ("qsp_generators",)),
    "kmat.solve_K": ("qloopk.kmat", ("solve_K",)),
    "kmat.normalize_K": ("qloopk.kmat", ("normalize_K",)),
    "kmat.verify_gre": ("qloopk.kmat", ("verify_gre",)),
    "kmat.verify_standard_re": ("qloopk.kmat", ("verify_standard_re",)),
    "kmat.verify_K_unitarity": ("qloopk.kmat", ("verify_K_unitarity",)),
    "irred.check_irreducible": ("qloopk.irred", ("check_irreducible",)),
    "irred.check_modified_nilpotent_irreducible":
        ("qloopk.irred", ("check_modified_nilpotent_irreducible",)),
    "irred.check_generic_tensor_irreducible":
        ("qloopk.irred", ("check_generic_tensor_irreducible",)),
    "cli.main": ("qloopk.cli", ("main",)),
}

# Solvers whose argument fingerprints and result degrees are recorded.
SOLVERS = ("rmat.solve_R", "kmat.solve_K")

# name -> (unit, better) for every per-layer metric, in emission order.
METRICS: dict[str, tuple[str, str]] = {}
for _span in SPANS:
    METRICS[_span + ".calls"] = ("count", "lower")
    METRICS[_span + ".self_s"] = ("s", "lower")
    METRICS[_span + ".incl_s"] = ("s", "lower")
METRICS.update({
    "linalg.matmul.cells": ("count", "lower"),
    "linalg.span_add.useful_ratio": ("ratio", "higher"),
    "linalg.algebra_closure.dim": ("count", "lower"),
    "rmat.solve_R.repeat_ratio": ("ratio", "lower"),
    "rmat.solve_R.max_degree": ("degree", "lower"),
    "kmat.solve_K.repeat_ratio": ("ratio", "lower"),
    "kmat.solve_K.max_degree": ("degree", "lower"),
    "kmat.normalize_K.fallback_ratio": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
})


class Tracer:
    """Collects span statistics for the functions named in ``SPANS``.

    ``install()`` wraps them, ``uninstall()`` restores the originals. Between
    the two, ``covered_s`` accumulates the time spent inside outermost spans.
    """

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, self, incl
        self.cells = 0
        self.span_add_true = 0
        self.closure_dim = 0
        self.fallbacks = 0
        self.solver_calls = {name: [] for name in SOLVERS}  # (args, kwargs, matrix)
        self.covered_s = 0.0
        self._stack: list[list[float]] = []  # per open span: time of its children
        self._depth = {name: 0 for name in SPANS}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name, fn, note):
        stats, stack, depth = self.stats[name], self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            outer = depth[name] == 0
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[name] -= 1
                stack.pop()
                stats[0] += 1
                stats[1] += dt - frame[0]
                if outer:
                    stats[2] += dt
                if stack:
                    stack[-1][0] += dt
                else:
                    self.covered_s += dt
            if note is not None:
                note(args, kwargs, result)
            return result

        return wrapper

    def _notes(self):
        """Per-span hooks that record extras from arguments and results."""
        def matmul(args, kwargs, result):
            a, b = args
            self.cells += a.nrows * a.ncols * b.ncols

        def span_add(args, kwargs, result):
            self.span_add_true += bool(result)

        def closure(args, kwargs, result):
            self.closure_dim = max(self.closure_dim, result.dim)

        def normalize(args, kwargs, result):
            self.fallbacks += result.normalization.get("mode") == "first-entry"

        def solver(name):
            # keep the matrix object itself: normalize_K_paired later rebinds
            # result.matrix, it does not mutate it
            return lambda args, kwargs, result: self.solver_calls[name].append(
                (args, kwargs, result.matrix))

        return {"linalg.matmul": matmul, "linalg.span_add": span_add,
                "linalg.algebra_closure": closure, "kmat.normalize_K": normalize,
                **{name: solver(name) for name in SOLVERS}}

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for modname, _ in SPANS.values():
            importlib.import_module(modname)
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "qloopk" or n.startswith("qloopk.")
                                        or n.startswith("perfbench"))]
        notes = self._notes()
        for name, (modname, attrs) in SPANS.items():
            module = sys.modules[modname]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(name, orig, notes.get(name)),
                              orig)
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(name, orig, notes.get(name))
                for m in loaded:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, key, wrapper, orig)

    def _set(self, owner, attr, new, orig):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------
    def metrics(self, unit_wall_s: float, covered_s: float,
                untraced_proof_s: float | None) -> dict[str, float]:
        """Per-layer metric values. Call after ``uninstall()``: fingerprints
        and degrees are computed here, untimed, with the library unwrapped."""
        out: dict[str, float] = {}
        for name, (calls, self_s, incl_s) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
            out[name + ".incl_s"] = incl_s
        out["linalg.matmul.cells"] = self.cells
        out["linalg.span_add.useful_ratio"] = _ratio(
            self.span_add_true, self.stats["linalg.span_add"][0])
        out["linalg.algebra_closure.dim"] = self.closure_dim
        for name in SOLVERS:
            calls = self.solver_calls[name]
            seen, repeats, degree = set(), 0, 0
            for args, kwargs, matrix in calls:
                key = fingerprint((args, kwargs))
                repeats += key in seen
                seen.add(key)
                degree = max(degree, max_degree(matrix))
            out[name + ".repeat_ratio"] = _ratio(repeats, len(calls))
            out[name + ".max_degree"] = degree
        out["kmat.normalize_K.fallback_ratio"] = _ratio(
            self.fallbacks, self.stats["kmat.normalize_K"][0])
        out["trace.overhead_ratio"] = (unit_wall_s / untraced_proof_s
                                       if untraced_proof_s else 0.0)
        out["trace.unattributed_share"] = max(0.0, 1.0 - covered_s / unit_wall_s)
        mismatch = set(METRICS) ^ set(out)
        if mismatch:
            raise AssertionError(f"metric table out of step: {sorted(mismatch)}")
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def fingerprint(obj):
    """A hashable value that is equal for mathematically equal solver
    arguments: exact entries by canonical string, dataclasses by their public
    fields except ``label``."""
    from qloopk.linalg import Mat
    from qloopk.scalars import Rat
    if isinstance(obj, Rat):
        return str(obj)
    if isinstance(obj, Mat):
        return tuple(tuple(str(x) for x in row) for row in obj.data)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, fingerprint(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_") and f.name != "label")
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), fingerprint(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(x) for x in obj)
    return repr(obj)


def max_degree(matrix) -> int:
    """Largest numerator plus denominator total degree over the entries."""
    return max((x.num().total_degree() + x.den().total_degree()
                for row in matrix.data for x in row if not x.is_zero()),
               default=0)
