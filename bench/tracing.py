"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only from the benchmark's own code: ``install`` wraps
each layer's entry points where their callers see them -- every
``multiell`` module attribute bound to the entry point, and the closure
cells of the catalog rows' ``lhs``/``rhs`` that captured it -- and
``uninstall`` puts the originals back.  Nothing in the library is edited.

A span holds name, start, end and parent.  Spans are kept in parallel
arrays until the run ends; a layer's self time is its spans' duration
minus the time their direct child spans cover.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from array import array

# (module, attribute, span name): the layer entry points that get a span.
HOOKS = (
    ("multiell.elliptic", "ellipk_real_mp", "elliptic.k"),
    ("multiell.quadrature", "integrate", "quadrature.integrate"),
    ("multiell.series", "clausen_sum", "series.sum"),
    ("multiell.series", "clausen_sum_da", "series.sum"),
    ("multiell.series", "legendre_sum", "series.sum"),
    ("multiell.series", "ramanujan_sum", "series.sum"),
    ("multiell.elliptic", "ellipk_series", "series.sum"),
    ("multiell.gammafn", "gamma", "gammafn.gamma"),
    ("multiell.singular", "rhs_constant", "singular.rhs_constant"),
    ("multiell.singular", "singular_value_residual", "singular.residual"),
    ("multiell.legendre", "orthogonality_gram", "legendre.gram"),
    ("multiell.diffop", "ode_annihilator_residual", "diffop.ode_residual"),
    ("multiell.diffop", "laplace_residual", "diffop.laplace_residual"),
    ("multiell.diffop", "ode_annihilator_residual_closed_form", "diffop.closed_form"),
    ("multiell.fd", "richardson_derivative", "fd.richardson"),
    ("multiell.identities", "verify", "identities.verify"),
)
OP = "op"                  # one benchmark op; the root of its spans
INTEGRAND = "kernels.eval"  # one integrand evaluation inside the quadrature
RHS = "identities.rhs"      # a catalog row's right-hand side inside verify


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.errors: dict[int, str] = {}    # span -> exception type it raised
        self.levels: dict[int, int] = {}    # integrate span -> deepest level
        self.labels: dict[int, str] = {}    # op span -> op label
        self.k_keys: set = set()            # distinct (precision, m) given to K
        self.series_terms = 0
        self.gamma_args: dict = {}          # (x, digits) -> value
        self.missing: list[str] = []        # entry points the library no longer has
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, error: BaseException | None = None):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if error is not None:
            self.errors[i] = type(error).__name__

    def wrap(self, name: str, fn, note=None):
        """fn with a span around every call; note(span, args, result) after."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(i, exc)
                raise
            self.close(i)
            if note is not None:
                note(i, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, label: str, fn):
        i = self.open(self.name_id(OP))
        self.labels[i] = label
        try:
            result = fn()
        except BaseException as exc:
            self.close(i, exc)
            raise
        self.close(i)
        return result

    # ---------------------------------------------------------- notes

    def _note_k(self, i, args, kwargs, result):
        mp, m = args
        self.k_keys.add((mp.prec, m))

    def _note_series(self, i, args, kwargs, result):
        self.series_terms += int(args[1] if len(args) > 1 else kwargs["n_terms"])

    def _note_gamma(self, i, args, kwargs, result):
        x, ctx = args[0], args[1] if len(args) > 1 else kwargs["ctx"]
        self.gamma_args.setdefault((str(x), ctx.digits), result)

    def _note_integrate(self, i, args, kwargs, result):
        self.levels[i] = result.levels

    def notes(self):
        return {"elliptic.k": self._note_k, "series.sum": self._note_series,
                "gammafn.gamma": self._note_gamma,
                "quadrature.integrate": self._note_integrate}


def _multiell_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "multiell" or name.startswith("multiell."))]


def _counting_spec(tracer: Tracer, spec_cls):
    """IntegralSpec factory whose integrand records a span per evaluation."""
    def wrap_factory(factory):
        def traced_factory(mp, *params):
            return tracer.wrap(INTEGRAND, factory(mp, *params))
        return traced_factory

    def make_spec(*args, **kwargs):
        spec = spec_cls(*args, **kwargs)
        return dataclasses.replace(spec, factory=wrap_factory(spec.factory))
    return make_spec


def _traced_get_identity(tracer: Tracer, get_identity):
    def traced(identity_id):
        rec = get_identity(identity_id)
        return dataclasses.replace(rec, rhs=tracer.wrap(RHS, rec.rhs))
    return traced


def install(tracer: Tracer):
    """Wrap every entry point; returns the undo list for ``uninstall``."""
    notes = tracer.notes()
    table = {}  # id(original) -> (original, wrapper)
    for modname, attr, span in HOOKS:
        try:
            orig = getattr(importlib.import_module(modname), attr)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{modname}.{attr}")
            continue
        table[id(orig)] = (orig, tracer.wrap(span, orig, notes.get(span)))
    quadrature = importlib.import_module("multiell.quadrature")
    identities = importlib.import_module("multiell.identities")
    spec_cls = quadrature.IntegralSpec
    table[id(spec_cls)] = (spec_cls, _counting_spec(tracer, spec_cls))
    table[id(identities.get_identity)] = (
        identities.get_identity, _traced_get_identity(tracer, identities.get_identity))

    undo = []
    for mod in _multiell_modules():
        for attr, val in list(vars(mod).items()):
            hit = table.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, val))
    seen = set()
    for rec in identities.list_identities():
        for fn in (rec.lhs, rec.rhs):
            _patch_cells(fn, table, undo, seen)
    return undo


def _patch_cells(fn, table, undo, seen, depth=3):
    if depth == 0 or id(fn) in seen or not getattr(fn, "__closure__", None):
        return
    seen.add(id(fn))
    for cell in fn.__closure__:
        try:
            val = cell.cell_contents
        except ValueError:  # empty cell
            continue
        hit = table.get(id(val))
        if hit is not None and hit[0] is val:
            cell.cell_contents = hit[1]
            undo.append((cell, None, val))
        elif callable(val):
            _patch_cells(val, table, undo, seen, depth - 1)


def uninstall(undo):
    for target, attr, val in reversed(undo):
        if attr is None:
            target.cell_contents = val
        else:
            setattr(target, attr, val)


# ---------------------------------------------------------------- analysis

@dataclasses.dataclass
class LayerStats:
    count: int = 0
    total: float = 0.0   # seconds inside the spans
    own: float = 0.0     # self time: total minus direct children

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def layer_stats(tracer: Tracer) -> dict[str, LayerStats]:
    n = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    stats: dict[str, LayerStats] = {}
    for i in range(n):
        s = stats.setdefault(tracer.names[tracer.name[i]], LayerStats())
        s.count += 1
        s.total += dur[i]
        s.own += dur[i] - child[i]
    return stats


def spans_named(tracer: Tracer, name: str):
    nid = tracer._ids.get(name)
    return [i for i in range(len(tracer.start)) if tracer.name[i] == nid]


def descendants_named(tracer: Tracer, root: int, name: str) -> int:
    """Number of spans called name below span root."""
    nid = tracer._ids.get(name)
    count = 0
    for i in range(root + 1, len(tracer.start)):
        if tracer.start[i] > tracer.end[root]:
            break
        if tracer.name[i] == nid:
            count += 1
    return count
