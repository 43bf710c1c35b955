"""Out-of-program tracing: spans around the public functions of each layer.

``Tracer.install()`` replaces every public function of the layer modules at
every module binding it has (``poly_gcd`` is bound in both ``poly`` and
``spectral``), and wraps the listed ``Poly``, ``SurfaceModel`` and
``NSClass`` methods on their classes.  Each wrapper opens a span; a span's
self time is its duration minus the time its child spans cover, and it is
charged to the layer named by the span's module.  Aggregates are kept per
operation; the raw spans of the first traced round are kept in memory for
the trace file.  A name a later change removes is listed in ``absent``.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

LAYERS = ("cli", "spectral", "moduli", "geometry", "matrix", "poly")

# operation -> (module, attribute path) bindings; the metrics report these
OPS = {
    "cli.parse_config": [("cli", "parse_config")],
    "cli.machine_block": [("cli", "machine_block")],
    "poly.mul": [("poly", "Poly.__mul__"), ("poly", "Poly.__rmul__")],
    "poly.addsub": [("poly", f"Poly.{m}") for m in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")],
    "poly.exact_div": [("poly", "exact_div")],
    "poly.gcd": [("poly", "poly_gcd")],
    "poly.squarefree": [("poly", "squarefree_decompose"), ("poly", "is_squarefree")],
    "poly.parse": [("poly", "Poly.from_text"), ("poly", "Poly.from_tree")],
    "poly.emit": [("poly", "Poly.to_text"), ("poly", "Poly.to_tree")],
    "matrix.mat_mul": [("matrix", "mat_mul")],
    "matrix.det": [("matrix", "mat_det"), ("matrix", "charpoly"), ("matrix", "charpoly_cofactor")],
    "spectral.rank_test": [("spectral", "first_nonzero_minor")],
    "spectral.normalize_covector": [("spectral", "_normalize_covector")],
    "spectral.factor_rank_one": [("spectral", "factor_rank_one")],
    "spectral.base_check": [("spectral", "spectral_base_check")],
    "spectral.build_cover": [("spectral", "build_cover")],
    "spectral.is_normal": [("spectral", "is_normal")],
    "spectral.tower_enumerate": [("spectral", "tower_enumerate")],
    "spectral.hitchin_map": [("spectral", "hitchin_map")],
    "spectral.module_from_higgs": [("spectral", "module_from_higgs")],
    "moduli.hitchin_section": [("moduli", "hitchin_section")],
    "moduli.sl2r_enumerate": [("moduli", "sl2r_enumerate")],
    "moduli.milnor_wood_check": [("moduli", "milnor_wood_check")],
    "geometry.pair": [("geometry", "SurfaceModel.pair"), ("geometry", "CoverMap.cover_pair")],
    "geometry.class_arith": [("geometry", f"NSClass.{m}") for m in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "half")],
}

# methods that do polynomial work when other layers call them directly; they
# get spans of their own so that work is charged to the poly layer
EXTRA_METHODS = [("poly", f"Poly.{m}") for m in ("__pow__", "__eq__", "content", "primitive", "partial", "evaluate", "lift")]

COUNTS = ("poly.mul.term_pairs", "poly.exact_div.quotient_terms", "poly.peak_terms", "moduli.sl2r_enumerate.tuples")

_RETURNS_POLY = ("poly.mul", "poly.addsub", "poly.exact_div", "poly.gcd", "poly.__pow__")
RAW_SPAN_CAP = 200_000


def _nterms(p):
    terms = getattr(p, "terms", None)
    return len(terms) if terms is not None else 1


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self.calls = []
        self.total = []
        self.depth = []
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.absent = []
        self.stack = []
        self.recording = False
        self.raw = (array("i"), array("i"), array("d"), array("d"))
        self._undo = []

    # -- installation ----------------------------------------------------------

    def _sid(self, name):
        self.names.append(name)
        self.layer_of.append(name.split(".")[0])
        self.calls.append(0)
        self.total.append(0.0)
        self.depth.append(0)
        return len(self.names) - 1

    def install(self):
        mods = {layer: importlib.import_module(f"higgspec.{layer}") for layer in LAYERS}
        done = set()
        for name, bindings in OPS.items():
            sid = self._sid(name)
            for layer, path in bindings:
                if not self._bind(mods, layer, path, sid, done):
                    self.absent.append(f"{name}: {layer}.{path}")
        for layer, path in EXTRA_METHODS:
            self._bind(mods, layer, path, self._sid(f"{layer}.{path.split('.')[-1]}"), done)
        # every other public function, so each layer's self time is complete
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and id(fn) not in done
                ):
                    self._bind(mods, layer, attr, self._sid(f"{layer}.{attr}"), done)
        return self

    def _bind(self, mods, layer, path, sid, done):
        mod = mods[layer]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                done.add(id(raw.__func__))
                self._set(cls, meth, classmethod(self._wrap(raw.__func__, sid)))
            else:
                done.add(id(raw))
                self._set(cls, meth, self._wrap(raw, sid))
            return True
        fn = getattr(mod, path, None)
        if fn is None:
            return False
        done.add(id(fn))
        wrapper = self._wrap(fn, sid)
        for other in mods.values():
            for attr, value in list(vars(other).items()):
                if value is fn:
                    self._set(other, attr, wrapper)
        return True

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- spans -----------------------------------------------------------------

    def _wrap(self, fn, sid):
        name = self.names[sid]
        after = self._counter(name)
        layer_self = self.layer_self
        layer = self.layer_of[sid]
        calls, total, depth = self.calls, self.total, self.depth
        stack = self.stack
        raw_op, raw_parent, raw_start, raw_end = self.raw
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = -1
            if tracer.recording and len(raw_op) < RAW_SPAN_CAP:
                index = len(raw_op)
                raw_op.append(sid)
                raw_parent.append(stack[-1][3] if stack else -1)
                raw_start.append(0.0)
                raw_end.append(0.0)
            frame = [0.0, 0.0, sid, index]
            stack.append(frame)
            depth[sid] += 1
            t0 = frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[sid] -= 1
                d = t1 - t0
                calls[sid] += 1
                if not depth[sid]:
                    total[sid] += d
                layer_self[layer] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if index >= 0:
                    raw_start[index] = t0
                    raw_end[index] = t1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counter(self, name):
        counts = self.counts
        peak = name in _RETURNS_POLY

        def note_peak(result):
            n = _nterms(result)
            if n > counts["poly.peak_terms"]:
                counts["poly.peak_terms"] = n

        if name == "poly.mul":
            def after(args, result):
                a, b = args
                counts["poly.mul.term_pairs"] += _nterms(a) * _nterms(b)
                note_peak(result)
        elif name == "poly.exact_div":
            def after(args, result):
                counts["poly.exact_div.quotient_terms"] += _nterms(result)
                note_peak(result)
        elif name == "moduli.sl2r_enumerate":
            def after(args, result):
                tuples = 1
                for _, m in args[0]:
                    tuples *= int(m) + 1
                counts["moduli.sl2r_enumerate.tuples"] += tuples
        elif peak:
            def after(args, result):
                note_peak(result)
        else:
            after = None
        return after

    # -- readout ---------------------------------------------------------------

    def snapshot(self):
        """Cumulative aggregates; subtract two snapshots to get one stretch."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "total": dict(zip(self.names, self.total)),
            "self": dict(self.layer_self),
            "counts": dict(self.counts),
        }

    def raw_spans(self):
        op, parent, start, end = self.raw
        return [[op[i], parent[i], start[i], end[i]] for i in range(len(op))]
