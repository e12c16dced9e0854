"""In-memory span tracing around the public entry points of each toepcov layer.

``Tracer.install`` rebinds every module attribute of the ``toepcov`` package
that refers to a traced function, so calls made through ``from .x import f``
bindings are recorded as well as calls through the defining module, and
``uninstall`` restores the originals.  No file of the package is edited.

A span is ``[op, name, start, end, parent, error, info, warnings]``: ``op``
identifies the benchmark operation the span belongs to, ``parent`` is the
index of the enclosing span (-1 for an operation's root span), ``error`` the
exception class name when the call raised, ``info`` ``(iterations,
converged)`` for estimator reports, and ``warnings`` the number of
``RuntimeWarning`` records attributed to the span while it was the innermost
open one.  Spans are only recorded while an operation span is open.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

#: ``(module, attribute, span name)``; a dotted attribute is a class member.
#: The span name is ``<layer>.<entry point>``, the layer being the module.
TARGETS = (
    ("processes", "sample", "processes.sample"),
    ("processes", "true_cm", "processes.true_cm"),
    ("processes", "nmse", "processes.nmse"),
    ("toeplitz", "PartialDiagSums.from_matrix", "toeplitz.diag_sums"),
    ("toeplitz", "ar_to_autocov", "toeplitz.ar_to_autocov"),
    ("toeplitz", "gs_assemble", "toeplitz.gs_assemble"),
    ("toeplitz", "gs_to_ar", "toeplitz.gs_to_ar"),
    ("toeplitz", "fib_seq", "toeplitz.fib_seq"),
    ("toeplitz", "toeplitz_logdet", "toeplitz.toeplitz_logdet"),
    ("likelihood", "GsObjective.value", "likelihood.value"),
    ("likelihood", "GsObjective.gradient", "likelihood.gradient"),
    ("likelihood", "loglik", "likelihood.loglik"),
    ("likelihood", "grad", "likelihood.grad"),
    ("constraints", "box_spec_for", "constraints.box_spec_for"),
    ("constraints", "bisect_box_scale", "constraints.bisect_box_scale"),
    ("constraints", "project_box", "constraints.project_box"),
    ("constraints", "frob_constraint", "constraints.frob_constraint"),
    ("constraints", "frobenius_gain_sq", "constraints.frobenius_gain_sq"),
    ("constraints", "cross_diagonals", "constraints.cross_diagonals"),
    ("constraints", "spectral_pd_check", "constraints.spectral_pd_check"),
    ("estimators", "estimate_pgd", "estimators.estimate_pgd"),
    ("estimators", "estimate_pls", "estimators.estimate_pls"),
    ("estimators", "estimate_frob", "estimators.estimate_frob"),
    ("estimators", "estimate_eig", "estimators.estimate_eig"),
    ("estimators", "tune_order", "estimators.tune_order"),
    ("estimators", "tune_box_family", "estimators.tune_box_family"),
    ("estimators", "white_noise_report", "estimators.white_noise_report"),
    ("baselines", "sample_cov", "baselines.sample_cov"),
    ("baselines", "toeplitz_avg", "baselines.toeplitz_avg"),
    ("baselines", "cv_tune_mask", "baselines.cv_tune_mask"),
    ("baselines", "band_estimate", "baselines.band_estimate"),
    ("baselines", "circulant_mle", "baselines.circulant_mle"),
    ("baselines", "em_toeplitz", "baselines.em_toeplitz"),
    ("baselines", "shrink_coefficient", "baselines.shrink_coefficient"),
    ("baselines", "shrink", "baselines.shrink"),
    ("bench", "run_benchmark", "bench.run_benchmark"),
    ("cli", "main", "cli.main"),
)

#: Layers in report order; ``svg`` is output-only and left unmeasured.
LAYERS = ("processes", "toeplitz", "likelihood", "constraints", "estimators",
          "baselines", "bench", "cli")

OP, NAME, START, END, PARENT, ERROR, INFO, WARNINGS = range(8)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._log = None
        self._seen = 0
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _flush_warnings(self):
        """Attribute warnings recorded since the last flush to the open span."""
        log = self._log
        if log is not None and len(log) > self._seen:
            fresh = sum(issubclass(w.category, RuntimeWarning) for w in log[self._seen:])
            self.spans[self._stack[-1]][WARNINGS] += fresh
            self._seen = len(log)

    def _open(self, op, name):
        rec = [op, name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, None, 0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[START] = time.perf_counter()
        return rec

    def _wrap(self, name, fn, wants_info):
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            self._flush_warnings()
            rec = self._open(self.spans[stack[0]][OP], name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                self._flush_warnings()
                stack.pop()
            if wants_info and hasattr(result, "iterations"):
                rec[INFO] = (result.iterations, bool(result.converged))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def op_span(self, op, log=None, name="op"):
        """Root span of one benchmark operation; ``log`` is its warnings list."""
        self._log, self._seen = log, 0
        rec = self._open(op, name)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._flush_warnings()
            self._stack.pop()
            self._log = None

    # -- installation -----------------------------------------------------------

    def install(self):
        package = importlib.import_module("toepcov")
        self.missing = []
        replacements = {}
        for module_name, attr, span_name in TARGETS:
            try:
                module = importlib.import_module(f"toepcov.{module_name}")
            except ImportError:
                self.missing.append(span_name)
                continue
            wants_info = module_name == "estimators"
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name, None)
                raw = vars(cls).get(member) if cls is not None else None
                if raw is None:
                    self.missing.append(span_name)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span_name, raw.__func__, wants_info))
                else:
                    wrapped = self._wrap(span_name, raw, wants_info)
                setattr(cls, member, wrapped)
                self._undo.append((cls, member, raw))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(span_name)
                continue
            replacements[id(fn)] = (fn, self._wrap(span_name, fn, wants_info))
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package.__name__ or k.startswith("toepcov."))]
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self._undo.append((module, key, value))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


# -- analysis -------------------------------------------------------------------


def summarize(spans):
    """Per span name: calls, busy seconds (outermost spans only), self seconds,
    warnings, errors by class, and summed estimator iterations/non-convergence.

    Also returns the per-span self times, indexed like ``spans``.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    self_times = [rec[END] - rec[START] - c for rec, c in zip(spans, child)]
    stats: dict = {}
    for i, rec in enumerate(spans):
        s = stats.setdefault(rec[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                         "warnings": 0, "errors": {},
                                         "iterations": 0, "nonconverged": 0})
        s["calls"] += 1
        s["self_s"] += self_times[i]
        s["warnings"] += rec[WARNINGS]
        if rec[ERROR]:
            s["errors"][rec[ERROR]] = s["errors"].get(rec[ERROR], 0) + 1
        if rec[INFO]:
            s["iterations"] += rec[INFO][0]
            s["nonconverged"] += not rec[INFO][1]
        if not _has_ancestor_named(spans, i, rec[NAME]):
            s["busy_s"] += rec[END] - rec[START]
    return stats, self_times


def _has_ancestor_named(spans, i, name):
    j = spans[i][PARENT]
    while j >= 0:
        if spans[j][NAME] == name:
            return True
        j = spans[j][PARENT]
    return False


def count_children(spans, parent_name, child_names):
    """Spans named in ``child_names`` whose nearest traced parent is ``parent_name``."""
    return sum(1 for rec in spans
               if rec[NAME] in child_names and rec[PARENT] >= 0
               and spans[rec[PARENT]][NAME] == parent_name)


def count_under(spans, name, ancestor):
    """Spans called ``name`` that run inside a span called ``ancestor``."""
    return sum(1 for i, rec in enumerate(spans)
               if rec[NAME] == name and _has_ancestor_named(spans, i, ancestor))


def layer_of(name):
    return name.split(".", 1)[0]
