"""Spans and counters around calls into tamewild's layers.

The tracer wraps public functions and methods of the program from outside:
a module-level function is replaced wherever a tamewild module has bound
it, a method on its class.  Span wrappers record name, start, end, parent
span and operation, all kept in memory and written out at the end; counter
wrappers only count, because their calls run in the millions.  Times are
taken on the process CPU clock, like the end-to-end metrics.  A layer's
self time is its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

clock = time.process_time_ns

# (layer metric, module, owner, attribute): owner None for module functions
SPANS = [
    ("localfield.felem_mul", "tamewild.localfield", "FElem", "__mul__"),
    ("localfield.felem_mul", "tamewild.localfield", "FElem", "__rmul__"),
    ("localfield.invert_unit", "tamewild.localfield", "FElem", "invert_unit"),
    ("localfield.div_pi_pow", "tamewild.localfield", "FElem", "div_pi_pow"),
    ("symbols.tame_symbol", "tamewild.symbols", None, "tame_symbol"),
    ("symbols.wild_symbol_zeta", "tamewild.symbols", None, "wild_symbol_zeta"),
    ("symbols.k1_decompose", "tamewild.symbols", None, "k1_decompose"),
    ("symbols.k2_transform", "tamewild.symbols", None, "k2_transform"),
    ("normoracle.class_key", "tamewild.normoracle", "NormResidueOracle",
     "class_key"),
    ("orders.estimate_m0", "tamewild.orders", None, "estimate_m0"),
    ("funcfield.factor", "tamewild.funcfield", None, "factor"),
    ("funcfield.ff_tame_symbol", "tamewild.funcfield", None, "ff_tame_symbol"),
    ("funcfield.residue_at", "tamewild.funcfield", None, "residue_at"),
    ("funcfield.fq_table", "tamewild.funcfield", "_GFq", "_build_tables"),
]

COUNTERS = [
    ("padic.o0_mul", "tamewild.padic", "O0Elem", "__mul__"),
    ("padic.o0_mul", "tamewild.padic", "O0Elem", "__rmul__"),
    ("padic.invert", "tamewild.padic", None, "invert"),
    ("localfield.valuation", "tamewild.localfield", None, "valuation"),
    ("funcfield.divmod", "tamewild.funcfield", "FqPoly", "divmod"),
] + [("padic.kappa_ops", "tamewild.padic", "ResidueField", op)
     for op in ("add", "sub", "neg", "scale", "mul", "pow", "inv", "dlog")] \
  + [("funcfield.fq_ops", "tamewild.funcfield", "_GFq", op)
     for op in ("add", "neg", "sub", "mul", "inv", "pow")]


class Tracer:
    """Installs wrappers, collects spans and counts, and removes them."""

    def __init__(self):
        self.counts = Counter()
        self.self_ns = Counter()
        self.names = []
        self._name_ids = {}
        self.spans = {k: array("q") for k in
                      ("id", "parent", "op", "name", "start", "end")}
        self.stack = []  # [span id, ns covered by child spans]
        self.next_id = 0
        self.op = -1
        self._patches = []

    # -- spans -----------------------------------------------------------

    def enter(self):
        self.next_id += 1
        frame = [self.next_id, 0]
        self.stack.append(frame)
        return frame, clock()

    def leave(self, name, frame, start):
        end = clock()
        self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][1] += dur
            parent = self.stack[-1][0]
        else:
            parent = 0
        self.counts[name] += 1
        self.self_ns[name] += dur - frame[1]
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        for key, val in (("id", frame[0]), ("parent", parent),
                         ("op", self.op), ("name", nid), ("start", start),
                         ("end", end)):
            self.spans[key].append(val)

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            frame, start = self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(name, frame, start)
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _trivial(self, fn):
        """NormResidueOracle.trivial, split into calls that met a class of y
        new to the oracle (a pivot build) and calls that found it cached."""
        def wrapper(oracle, x, y):
            before = len(oracle._pivot_cache)
            frame, start = self.enter()
            cold = False
            try:
                result = fn(oracle, x, y)
                built = len(oracle._pivot_cache) - before
                cold = built > 0
                self.counts["normoracle.pivot_builds"] += built
                return result
            finally:
                self.leave("normoracle.trivial_cold" if cold
                           else "normoracle.trivial_warm", frame, start)
        return wrapper

    def _oracle_factory(self, fn):
        """symbols.triviality_oracle: the callables it returns are the
        oracle that estimate_m0 queries; each call is counted."""
        counts = self.counts

        def factory(*args, **kwargs):
            oracle = fn(*args, **kwargs)

            def counted(x, y):
                counts["orders.oracle_queries"] += 1
                return oracle(x, y)
            return counted
        return factory

    # -- installing --------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, module, owner, attr, make):
        mod = sys.modules[module]
        if owner is not None:
            cls = getattr(mod, owner)
            self._replace(cls, attr, make(cls.__dict__[attr]))
            return
        orig = getattr(mod, attr)
        wrapper = make(orig)
        for name, other in list(sys.modules.items()):
            if name == "tamewild" or name.startswith("tamewild."):
                for key, val in list(vars(other).items()):
                    if val is orig:
                        self._replace(other, key, wrapper)

    def install(self):
        for name, module, owner, attr in SPANS:
            self._wrap(module, owner, attr,
                       lambda fn, name=name: self.span(name, fn))
        for name, module, owner, attr in COUNTERS:
            self._wrap(module, owner, attr,
                       lambda fn, name=name: self._counter(name, fn))
        self._wrap("tamewild.normoracle", "NormResidueOracle", "trivial",
                   self._trivial)
        self._wrap("tamewild.symbols", None, "triviality_oracle",
                   self._oracle_factory)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def span_rows(self):
        """Every recorded span as (id, parent, op, name, start_ns, end_ns)."""
        s = self.spans
        return [(s["id"][i], s["parent"][i], s["op"][i],
                 self.names[s["name"][i]], s["start"][i], s["end"][i])
                for i in range(len(s["id"]))]


def layer_metrics(counts, self_ns):
    """The per-layer metrics from summed counts and self times."""
    def ms(name):
        return self_ns.get(name, 0) / 1e6

    out = {
        "padic.o0_mul.calls": counts.get("padic.o0_mul", 0),
        "padic.invert.calls": counts.get("padic.invert", 0),
        "padic.kappa_ops.calls": counts.get("padic.kappa_ops", 0),
        "localfield.valuation.calls": counts.get("localfield.valuation", 0),
        "symbols.wild_symbol_zeta.self_ms": ms("symbols.wild_symbol_zeta"),
        "symbols.k1_decompose.self_ms": ms("symbols.k1_decompose"),
        "symbols.k2_transform.self_ms": ms("symbols.k2_transform"),
        "normoracle.pivot_builds": counts.get("normoracle.pivot_builds", 0),
        "normoracle.trivial_cold.self_ms": ms("normoracle.trivial_cold"),
        "normoracle.trivial_warm.self_ms": ms("normoracle.trivial_warm"),
        "normoracle.class_key.self_ms": ms("normoracle.class_key"),
        "orders.estimate_m0.self_ms": ms("orders.estimate_m0"),
        "orders.oracle_queries": counts.get("orders.oracle_queries", 0),
        "funcfield.fq_ops.calls": counts.get("funcfield.fq_ops", 0),
        "funcfield.fq_table_ms": ms("funcfield.fq_table"),
        "funcfield.factor.calls": counts.get("funcfield.factor", 0),
        "funcfield.factor.self_ms": ms("funcfield.factor"),
        "funcfield.divmod.calls": counts.get("funcfield.divmod", 0),
        "funcfield.ff_tame_symbol.self_ms": ms("funcfield.ff_tame_symbol"),
        "funcfield.residue_at.self_ms": ms("funcfield.residue_at"),
    }
    for name in ("localfield.felem_mul", "localfield.invert_unit",
                 "localfield.div_pi_pow", "symbols.tame_symbol"):
        out[f"{name}.calls"] = counts.get(name, 0)
        out[f"{name}.self_ms"] = ms(name)
    return out
