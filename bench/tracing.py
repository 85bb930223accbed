"""Spans around the layer-boundary calls of the drinfeld modules.

The library is not edited: `Tracer.install` rebinds each named function or
method to a wrapper, in its own module and in every loaded drinfeld module
that imported the same object with `from .x import f`, and
`Tracer.remove` puts every original object back.  Each wrapped call
records one span (name, start, end, parent span, item id) in a flat
in-memory array and adds to per-name call counts and self time (span time
minus the time covered by its child spans).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

SPAN_FIELDS = 5  # name id, start ns, end ns, parent span index, item id


def _matrix_key(args):
    return tuple(map(tuple, args[0]))


def _args_key(args):
    return tuple(args)


# (module, attribute, span name, key of the argument whose distinct values
# are counted).  The layers are the library modules.  Micro-helpers such as
# pval, matmul, vecmat and the recursive det_int are left unwrapped: a
# wrapper costs about as much as their body, so their time stays in the
# self time of the layer call that uses them.
WRAPPED = (
    ("padic", "FieldElem.__add__", "padic.add", None),
    ("padic", "FieldElem.__radd__", "padic.add", None),
    ("padic", "FieldElem.__mul__", "padic.mul", None),
    ("padic", "FieldElem.__rmul__", "padic.mul", None),
    ("padic", "FieldElem.__truediv__", "padic.div", None),
    ("padic", "FieldElem.__rtruediv__", "padic.div", None),
    ("padic", "FieldElem.valuation", "padic.valuation", None),
    ("padic", "linear_form", "padic.linear_form", None),
    ("padic", "normalize_unimodular", "padic.normalize_unimodular", None),
    ("intlinalg", "inv_scaled", "intlinalg.inv_scaled", _matrix_key),
    ("intlinalg", "hnf_rows", "intlinalg.hnf_rows", None),
    ("intlinalg", "snf_divisors", "intlinalg.snf_divisors", None),
    ("intlinalg", "rref_modp", "intlinalg.rref_modp", None),
    ("intlinalg", "complete_basis_modp", "intlinalg.complete_basis_modp", None),
    ("intlinalg", "matinv_mod", "intlinalg.matinv_mod", None),
    ("projpoints", "enumerate_points", "projpoints.enumerate_points", _args_key),
    ("building", "Lattice.from_rows", "building.Lattice.from_rows", None),
    ("building", "Lattice.contains", "building.Lattice.contains", None),
    ("building", "Lattice.neighbors", "building.Lattice.neighbors", None),
    ("building", "Lattice.adj_data", "building.Lattice.adj_data", None),
    ("building", "PointedSimplex.from_homothety_chain",
     "building.from_homothety_chain", None),
    ("building", "PointedSimplex.chain_mod_p", "building.PointedSimplex.chain_mod_p", None),
    ("building", "PointedSimplex.adapted_basis",
     "building.PointedSimplex.adapted_basis", None),
    ("building", "Ball.__init__", "building.Ball.__init__", None),
    ("building", "Ball.pointed_edges", "building.Ball.pointed_edges", None),
    ("covers", "SymmetricSpacePoint.__init__", "covers.SymmetricSpacePoint.__init__", None),
    ("covers", "SymmetricSpacePoint.section_valuation",
     "covers.SymmetricSpacePoint.section_valuation", None),
    ("covers", "SymmetricSpacePoint.section", "covers.SymmetricSpacePoint.section", None),
    ("covers", "SymmetricSpacePoint.apply_matrix",
     "covers.SymmetricSpacePoint.apply_matrix", None),
    ("covers", "t_profile", "covers.t_profile", None),
    ("covers", "member_open_cover", "covers.member_open_cover", None),
    ("covers", "reduce_to_building", "covers.reduce_to_building", None),
    ("covers", "tube_test_covectors", "covers.tube_test_covectors", None),
    ("covers", "member_tube", "covers.member_tube", None),
    ("covers", "tube_coordinates", "covers.tube_coordinates", None),
    ("covers", "point_in_tube", "covers.point_in_tube", None),
    ("distributions", "random_mass_zero", "distributions.random_mass_zero", None),
    ("distributions", "random_family", "distributions.random_family", None),
    ("distributions", "MassZeroVector.transport",
     "distributions.MassZeroVector.transport", None),
    ("residues", "slope", "residues.slope", None),
    ("residues", "oracle_slope_table", "residues.oracle_slope_table", None),
    ("residues", "edges_at_vertex", "residues.edges_at_vertex", None),
    ("products", "alpha_level", "products.alpha_level", None),
    ("products", "evaluate_product", "products.evaluate_product", None),
    ("products", "evaluate_ratio", "products.evaluate_ratio", None),
    ("certificates", "unit_margin", "certificates.unit_margin", None),
    ("certificates", "convergence_certificate",
     "certificates.convergence_certificate", None),
    ("certificates", "representative_swap_certificate",
     "certificates.representative_swap_certificate", None),
    ("certificates", "restriction_certificate",
     "certificates.restriction_certificate", None),
    ("certificates", "lift_congruence_certificate",
     "certificates.lift_congruence_certificate", None),
    ("certificates", "equivariance_certificate",
     "certificates.equivariance_certificate", None),
)


def _drinfeld_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "drinfeld" or name.startswith("drinfeld."))]


class Tracer:
    """Wraps the WRAPPED names while installed; a context manager."""

    def __init__(self):
        self.names = []
        self.calls = []
        self.self_ns = []
        self.keys = {}  # name id -> distinct argument keys seen
        self.children = {}  # (parent name id, child name id) -> calls
        self.precision_errors = 0
        self.spans = array("q")
        self.item = -1
        self._ids = {}
        self._stack = []  # indices of the open spans
        self._covered = []  # child time inside each open span, ns
        self._restore = []  # (owner, attribute, original object)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def install(self):
        self._precision_error = importlib.import_module("drinfeld.padic").PrecisionError
        for module, attr, name, key in WRAPPED:
            mod = importlib.import_module(f"drinfeld.{module}")
            nid = self._id(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, nid, key))
                else:
                    new = self._wrap(raw, nid, key)
                self._restore.append((owner, meth, raw))
                setattr(owner, meth, new)
            else:
                original = getattr(mod, attr)
                wrapper = self._wrap(original, nid, key)
                for m in _drinfeld_modules():
                    for bound, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, bound, original))
                            setattr(m, bound, wrapper)

    def remove(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, nid, key):
        tracer = self
        spans, stack, covered = self.spans, self._stack, self._covered
        calls, self_ns, children = self.calls, self.self_ns, self.children
        keys = self.keys.setdefault(nid, set()) if key is not None else None
        precision_error = self._precision_error
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(key(args))
            span = len(spans) // SPAN_FIELDS
            parent = stack[-1] if stack else -1
            stack.append(span)
            covered.append(0)
            start = clock()
            spans.extend((nid, start, 0, parent, tracer.item))
            try:
                return fn(*args, **kwargs)
            except precision_error as exc:
                tracer._count_precision_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span * SPAN_FIELDS + 2] = end
                elapsed = end - start
                self_ns[nid] += elapsed - covered.pop()
                calls[nid] += 1
                if covered:
                    covered[-1] += elapsed
                    pair = (spans[parent * SPAN_FIELDS], nid)
                    children[pair] = children.get(pair, 0) + 1

        return wrapper

    def _count_precision_error(self, exc):
        # one error crosses every open wrapper on its way out; count it once
        if not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            self.precision_errors += 1

    # -- aggregates ----------------------------------------------------------

    def count(self, name):
        return self.calls[self._ids[name]]

    def self_frac(self, name):
        """Self time of a name over the self time of all traced calls."""
        total = sum(self.self_ns)
        return self.self_ns[self._ids[name]] / total if total else 0.0

    def distinct_frac(self, name):
        nid = self._ids[name]
        return len(self.keys[nid]) / self.calls[nid] if self.calls[nid] else 0.0

    def child_calls_per_call(self, parent, child):
        calls = self.count(parent)
        pair = (self._ids[parent], self._ids[child])
        return self.children.get(pair, 0) / calls if calls else 0.0

    def table(self):
        """name -> (calls, self seconds) for every name called at least once."""
        return {
            name: (self.calls[i], self.self_ns[i] / 1e9)
            for i, name in enumerate(self.names) if self.calls[i]
        }

    def write_spans(self, path):
        """Tab-separated spans, one per line, in call order."""
        spans, names = self.spans, self.names
        with open(path, "w") as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\titem\n")
            for i in range(len(spans) // SPAN_FIELDS):
                nid, start, end, parent, item = spans[i * SPAN_FIELDS:(i + 1) * SPAN_FIELDS]
                out.write(f"{i}\t{names[nid]}\t{start}\t{end}\t{parent}\t{item}\n")
