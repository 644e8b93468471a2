"""Spans around calls into focalcurves' public functions, and the per-layer
metrics read from them.

A span is (name, start, end, parent).  Spans stay in memory until the run
ends.  A layer's self time is the duration of its spans minus the time their
child spans cover; a call is a child when it starts inside another traced
call.  ``from .rootfind import find_roots`` binds the function in the
importing module too, so every focalcurves module that holds a traced
function gets the wrapper, not just the module that defines it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import focalcurves  # noqa: F401  (loads every module before patching)
from focalcurves import cli, equiclassical  # noqa: F401

#: public functions whose calls are spans, by module
TRACED = {
    "experiment": ("run_rank_trial",),
    "ratgen": ("generate_curve_with_census", "locate_singularities"),
    "resultants": ("bareiss_determinant", "float_determinant", "resultant_lists", "resultant",
                   "resultant_tripoly_lists", "resultant_bipoly_in_s", "discriminant_binary"),
    "rootfind": ("find_roots", "match_focal_pairs"),
    "dualize": ("dual_param", "implicitize", "smoothness_probe", "isotropic_focal_poly"),
    "equiclassical": ("equiclassical_conditions", "condition_matrix", "tangent_space_basis",
                      "focal_jacobian", "shifted_section_dim", "construct_min_class"),
    "focal": ("focal_divisor", "divisor_matching_distance", "confocal"),
    "serialize": ("tripoly_from_json", "param_from_json", "dumps", "tripoly_to_json",
                  "param_to_json", "focal_to_json"),
}

#: per-layer self-time metrics and the spans they add up
SELF_TIMES = {
    "ratgen.generate_s": ("ratgen.generate_curve_with_census", "ratgen.locate_singularities"),
    "resultants.bareiss_s": ("resultants.bareiss_determinant",),
    "rootfind.find_roots_s": ("rootfind.find_roots",),
    "dualize.implicitize_s": ("dualize.implicitize",),
    "dualize.smoothness_probe_s": ("dualize.smoothness_probe",),
    "dualize.isotropic_focal_poly_s": ("dualize.isotropic_focal_poly",),
    "dualize.dual_param_s": ("dualize.dual_param",),
    "equiclassical.conditions_s": ("equiclassical.equiclassical_conditions",
                                   "equiclassical.condition_matrix"),
    "equiclassical.tangent_basis_s": ("equiclassical.tangent_space_basis",),
    "equiclassical.focal_jacobian_s": ("equiclassical.focal_jacobian",),
    "equiclassical.construct_s": ("equiclassical.construct_min_class",
                                  "equiclassical.ConfocalFamily.with_prescribed_foci"),
    "focal.focal_divisor_s": ("focal.focal_divisor",),
    "focal.matching_distance_s": ("focal.divisor_matching_distance",),
    "serialize.parse_s": ("serialize.tripoly_from_json", "serialize.param_from_json"),
    "serialize.dumps_s": ("serialize.dumps", "serialize.tripoly_to_json",
                          "serialize.param_to_json", "serialize.focal_to_json"),
    "cli.self_s": ("cli.main",),
}

#: size of one call, recorded per span name: Bareiss order, solved degree
_SIZES = {
    "resultants.bareiss_determinant": lambda args, kwargs: len(args[0]),
    "rootfind.find_roots": lambda args, kwargs: args[0].formal_degree,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.raised = Counter()  # (span name, exception type) -> count
        self.size_sum = Counter()
        self.size_max = Counter()
        self._undo = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        size = _SIZES.get(name)
        if size is not None:
            n = size(args, kwargs)
            self.size_sum[name] += n
            self.size_max[name] = max(self.size_max[name], n)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.raised[name, type(exc).__name__] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Replace every traced function in every focalcurves namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "focalcurves" or n.startswith("focalcurves."))]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"focalcurves.{mod_name}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{mod_name}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))
        family = equiclassical.ConfocalFamily
        original = family.__dict__["with_prescribed_foci"]
        setattr(family, "with_prescribed_foci", classmethod(
            self.wrap("equiclassical.ConfocalFamily.with_prescribed_foci", original.__func__)))
        self._undo.append((family, "with_prescribed_foci", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self):
        """Self time summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def calls(self):
        return Counter(name for name, _, _, _ in self.spans)

    def layer_metrics(self):
        """Every per-layer metric except the import times."""
        own, calls = self.self_times(), self.calls()
        metrics = {name: (sum(own[s] for s in names), "s") for name, names in SELF_TIMES.items()}
        census = calls["ratgen.locate_singularities"]
        raised = Counter()
        for (name, _), n in self.raised.items():
            raised[name] += n
        curves = calls["ratgen.generate_curve_with_census"] - raised[
            "ratgen.generate_curve_with_census"]
        bareiss, roots = "resultants.bareiss_determinant", "rootfind.find_roots"
        metrics.update({
            "ratgen.census_calls": (census, "count"),
            "ratgen.census_rejects": (raised["ratgen.locate_singularities"], "count"),
            "ratgen.draws_per_curve": (census / curves if curves else 0.0, "ratio"),
            "resultants.bareiss_calls": (calls[bareiss], "count"),
            "resultants.bareiss_max_order": (self.size_max[bareiss], "count"),
            "rootfind.calls": (calls[roots], "count"),
            "rootfind.degree_sum": (self.size_sum[roots], "count"),
            "rootfind.nonconvergence": (self.raised[roots, "NonConvergence"], "count"),
            "dualize.implicitize_calls": (calls["dualize.implicitize"], "count"),
        })
        return metrics

    def write(self, path):
        """All spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
