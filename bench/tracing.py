"""Spans around rnlie's layers, recorded from outside the library.

`install` replaces rnlie's public functions, two methods, the dense
kernel of orbit steering and the scipy routines rnlie calls with
wrappers, at every module binding that holds them, so calls made inside
rnlie are seen too; `uninstall` puts the originals back.  A wrapper
records a span (name, parent, start, end) only while `Tracer.active` is
set, so the benchmark's own checks are never traced.  Spans stay in
memory until `write` stores them as gzipped JSON lines.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from time import perf_counter

# (layer name, module, attribute); a dotted attribute is a method
LAYERS = (
    ("certify.search_rn_metric", "rnlie.certify", "search_rn_metric"),
    ("certify.certify_srn_nice", "rnlie.certify", "certify_srn_nice"),
    ("certify.certify_srn_sampled", "rnlie.certify", "certify_srn_sampled"),
    ("curvature.is_ricci_negative", "rnlie.curvature", "is_ricci_negative"),
    ("curvature.transport_metric", "rnlie.curvature", "transport_metric"),
    ("curvature.extension_bracket", "rnlie.curvature", "extension_bracket"),
    ("curvature.koszul_oracle", "rnlie.curvature", "koszul_oracle"),
    ("brackets.act", "rnlie.brackets", "act"),
    ("brackets.Bracket.tensor", "rnlie.brackets", "Bracket.tensor"),
    ("moment.orbit_sample", "rnlie.moment", "orbit_sample"),
    ("moment.moment_map", "rnlie.moment", "moment_map"),
    ("moment.acted_moment_matrix", "rnlie.moment", "_acted_moment_matrix"),
    ("moment.OrbitSample.verify", "rnlie.moment", "OrbitSample.verify"),
    ("moment.nice_basis_check", "rnlie.moment", "nice_basis_check"),
    ("exactlp.solve_lp", "rnlie._exactlp", "solve_lp"),
    ("cone.cone_membership", "rnlie.cone", "cone_membership"),
    ("cone.cone_section", "rnlie.cone", "cone_section"),
    ("hull.hrep_vertices", "rnlie._hull", "hrep_vertices"),
    ("hull.exact_hull", "rnlie._hull", "exact_hull"),
    ("derivations.diagonal_torus", "rnlie.derivations", "diagonal_torus"),
    ("cli.main", "rnlie.cli", "main"),
    ("scipy.expm", "scipy.linalg", "expm"),
    ("scipy.logm", "scipy.linalg", "logm"),
    ("scipy.least_squares", "scipy.optimize", "least_squares"),
    ("scipy.linprog", "scipy.optimize", "linprog"),
)


def _lp_rows(args, kwargs, result):
    a_ub = kwargs.get("a_ub", args[1] if len(args) > 1 else None) or ()
    a_eq = kwargs.get("a_eq", args[3] if len(args) > 3 else None) or ()
    return len(a_ub) + len(a_eq)


def _halfspaces(args, kwargs, result):
    return len(result.halfspaces or ())


def _points(args, kwargs, result):
    return len(result.points)


# a number read off each call, kept with its span
NOTES = {
    "exactlp.solve_lp": _lp_rows,
    "cone.cone_section": _halfspaces,
    "moment.orbit_sample": _points,
}


def _traced_module(name, modname):
    return name == "rnlie" or name.startswith("rnlie.") or name == modname


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []   # [name, parent index, start, end, note]
        self._stack = []
        self._patched = []   # (owner, attribute, original)

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every layer at each binding in rnlie, scipy.linalg and
        scipy.optimize that holds the original object."""
        for name, modname, attr in LAYERS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owners = [(getattr(mod, cls_name), meth)]
                original = getattr(*owners[0])
            else:
                original = getattr(mod, attr)
                owners = [(other, key)
                          for other in list(sys.modules.values())
                          if _traced_module(getattr(other, "__name__", ""), modname)
                          for key, value in list(vars(other).items())
                          if value is original]
            wrapper = self.wrap(name, original)
            for owner, key in owners:
                self._patched.append((owner, key, original))
                setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for i, (name, parent, start, end, note) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end, note]) + "\n")

    def self_times(self):
        """Each span's duration minus its children's durations."""
        out = [end - start for _, _, start, end, _ in self.spans]
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_totals(self):
        """{name: (calls, total seconds, self seconds, sum of notes)}."""
        out = {}
        for (name, _, start, end, note), own in zip(self.spans, self.self_times()):
            calls, total, self_s, notes = out.get(name, (0, 0.0, 0.0, 0))
            out[name] = (calls + 1, total + end - start, self_s + own,
                         notes + (note or 0))
        return out

    def calls_under(self, name, ancestor):
        """Spans called `name` that have an `ancestor` span above them."""
        count = 0
        for rec in self.spans:
            if rec[0] != name:
                continue
            p = rec[1]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][1]
            count += p >= 0
        return count
