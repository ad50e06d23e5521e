"""Per-layer tracing from outside the program.

Each traced function is replaced, in every solvdiag module that binds it
(and on its class, for methods), by a wrapper that records one span:
function, parent span, start and end.  Spans are kept in flat arrays and
reduced after the run: a span's self time is its duration minus the
durations of its direct children; an entry point's total time sums its
outermost spans only.  linalg.vec is counted, not timed.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# module -> traced functions; "Class.method" names a method
LAYERS = {
    "linalg": ("rref", "nullspace", "solve", "charpoly", "rational_roots"),
    "algebra": (
        "LieAlgebra.__init__",
        "LieAlgebra.bracket",
        "LieAlgebra.bracket_spans",
        "Subspace.__init__",
        "subalgebra_closure",
        "ideal_closure",
        "quotient",
        "common_eigenvector",
        "complete_solvability_certificate",
        "validate_algebra",
    ),
    "forms": ("radical", "kernel", "is_closed", "ce_differential", "closed_two_form_basis"),
    "flags": ("find_normal_flag", "validate_flag", "complete_flag_through"),
    "diagram": ("kernel_chain", "classify_vertices", "predicates"),
    "deformation": ("deform_to_simple", "step_audit"),
    "lagrangian": ("find_lagrangians", "verify_lagrangian"),
    "bilagrangian": ("connection", "audit_connection", "curvature_flatness"),
    "primitivity": ("primitive_test", "quasi_primitive_test", "degrees", "ideal_closure_audit"),
    "document": ("parse_document", "serialize_document"),
    "corpus": ("evaluate_expected",),
    "render": ("render_dot",),
    "cli": ("main",),
}
COUNTED = ("linalg.vec",)

# functions the benchmark calls directly; they also report total_s
ENTRY_POINTS = (
    "cli.main",
    "algebra.validate_algebra",
    "algebra.complete_solvability_certificate",
    "diagram.kernel_chain",
    "diagram.classify_vertices",
    "lagrangian.find_lagrangians",
    "primitivity.quasi_primitive_test",
    "deformation.deform_to_simple",
    "flags.find_normal_flag",
    "flags.complete_flag_through",
    "forms.closed_two_form_basis",
    "forms.kernel",
    "forms.radical",
    "forms.ce_differential",
    "document.parse_document",
)


# ratio -> (functions, predicate): the share of those functions' calls whose
# result satisfies the predicate, or, with None, that raised a SolvdiagError
RATIOS = {
    "deformation.refusal_share": ("deformation.deform_to_simple", None),
    "lagrangian.verify_yield": ("lagrangian.verify_lagrangian", lambda r: r.verified),
    "primitivity.unknown_share": (
        "primitivity.primitive_test primitivity.quasi_primitive_test",
        lambda r: r.status.value == "UNKNOWN",
    ),
}


def display_name(module: str, fn: str) -> str:
    return f"{module}.{fn.replace('.__init__', '.init')}"


def traced_names() -> list:
    return [display_name(m, f) for m, fns in LAYERS.items() for f in fns]


def metric_names() -> list:
    """Every per-layer metric, in report order, with its unit."""
    out = []
    for name in traced_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        if name in ENTRY_POINTS:
            out.append((f"{name}.total_s", "s"))
    out += [(f"{name}.calls", "count") for name in COUNTED]
    out += [(name, "share") for name in RATIOS]
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Installs the wrappers; collects spans while installed."""

    def __init__(self) -> None:
        self.names = traced_names()
        self.ids = {name: i for i, name in enumerate(self.names)}
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        self.fid = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")
        self.raised = [0] * len(self.names)
        self.hits = [0] * len(self.names)
        self.counts = {name: 0 for name in COUNTED}
        self._stack = [-1]
        self._depth = [0] * len(self.names)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        import solvdiag  # noqa: F401  (loads every module to patch)

        hooks = {}
        for fns, predicate in RATIOS.values():
            if predicate is not None:
                for fn in fns.split():
                    hooks[fn] = predicate
        for module, fns in LAYERS.items():
            mod = sys.modules[f"solvdiag.{module}"]
            for fn in fns:
                name = display_name(module, fn)
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._span(original, name, hooks.get(name)))
                else:
                    original = getattr(mod, fn)
                    self._rebind(original, self._span(original, name, hooks.get(name)))
        for name in COUNTED:
            module, fn = name.split(".")
            original = getattr(sys.modules[f"solvdiag.{module}"], fn)
            self._rebind(original, self._count(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _rebind(self, original, wrapper) -> None:
        """Replace every solvdiag module attribute bound to original."""
        for modname, mod in list(sys.modules.items()):
            if modname != "solvdiag" and not modname.startswith("solvdiag."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, wrapper)

    # -- wrappers ------------------------------------------------------

    def _span(self, fn, name, predicate):
        fid = self.ids[name]
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.start)
            tracer.fid.append(fid)
            tracer.parent.append(tracer._stack[-1])
            tracer.outermost.append(tracer._depth[fid] == 0)
            tracer.end.append(0.0)
            tracer._stack.append(index)
            tracer._depth[fid] += 1
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if isinstance(exc, sys.modules["solvdiag.algebra"].SolvdiagError):
                    tracer.raised[fid] += 1
                raise
            finally:
                tracer.end[index] = perf_counter()
                tracer._depth[fid] -= 1
                tracer._stack.pop()
            if predicate is not None and predicate(result):
                tracer.hits[fid] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reduction -----------------------------------------------------

    def summary(self) -> dict:
        """calls, self_s and total_s per function, counters and ratios."""
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        total_s = [0.0] * n
        child = [0.0] * len(self.start)
        durations = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += durations[i]
        for i, f in enumerate(self.fid):
            calls[f] += 1
            self_s[f] += durations[i] - child[i]
            if self.outermost[i]:
                total_s[f] += durations[i]
        out = {}
        for f, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[f]
            out[f"{name}.self_s"] = self_s[f]
            if name in ENTRY_POINTS:
                out[f"{name}.total_s"] = total_s[f]
        for name in COUNTED:
            out[f"{name}.calls"] = self.counts[name]
        for ratio, (fns, predicate) in RATIOS.items():
            ids = [self.ids[fn] for fn in fns.split()]
            num = sum(self.raised[f] if predicate is None else self.hits[f] for f in ids)
            den = sum(calls[f] for f in ids)
            out[ratio] = num / den if den else 0.0
        return out
