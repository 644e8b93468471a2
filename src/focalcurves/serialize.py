"""JSON serialization for polynomials, parameterizations, and reports.

Exact coefficients travel as "p/q" strings, floating ones as decimal strings;
outputs are key-sorted so identical inputs always serialize byte-for-byte
identically.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .poly import TriPoly, UniPoly
from .scalars import QQi, exact_re_im, is_exact, to_complex


def _format_part(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return repr(float(x))


def scalar_to_json(c) -> dict:
    if is_exact(c):
        re, im = exact_re_im(c)
        return {"re": _format_part(re), "im": _format_part(im)}
    z = to_complex(c)
    return {"re": _format_part(z.real), "im": _format_part(z.imag)}


def _parse_part(s):
    s = str(s).strip()
    if "/" in s or ("." not in s and "e" not in s.lower() and "inf" not in s.lower()):
        return Fraction(s)
    return float(s)


def scalar_from_json(obj):
    if isinstance(obj, (int, float)):
        return obj
    if not isinstance(obj, dict):
        raise ValueError(f'coefficient {obj!r} must be a number or an object '
                         '{"re": "p/q", "im": "p/q"}')
    re = _parse_part(obj.get("re", "0"))
    im = _parse_part(obj.get("im", "0"))
    if isinstance(re, Fraction) and isinstance(im, Fraction):
        return re if im == 0 else QQi(re, im)
    return complex(float(re), float(im))


def tripoly_to_json(g: TriPoly) -> dict:
    terms = [{"exp": list(e), "coef": scalar_to_json(c)}
             for e, c in sorted(g.terms.items(), reverse=True)]
    return {"vars": ["u", "v", "w"], "degree": g.degree, "terms": terms}


def tripoly_from_json(obj) -> TriPoly:
    terms = {}
    for t in obj["terms"]:
        exp = tuple(int(x) for x in t["exp"])
        if len(exp) != 3:
            raise ValueError(f"expected an exponent triple, got {exp}")
        terms[exp] = scalar_from_json(t["coef"])
    g = TriPoly(terms)
    declared = obj.get("degree")
    if declared is not None and not g.is_zero():
        if not g.is_homogeneous or g.degree != declared:
            raise ValueError("terms do not form a homogeneous polynomial of the "
                             f"declared degree {declared}")
    return g


def unipoly_to_json(p: UniPoly, var="t") -> dict:
    return {"var": var, "degree": p.formal_degree,
            "coeffs": [scalar_to_json(c) for c in p.coeffs]}


def unipoly_from_json(obj) -> UniPoly:
    return UniPoly([scalar_from_json(c) for c in obj["coeffs"]])


def param_to_json(param) -> dict:
    return {"var": "t",
            "components": [unipoly_to_json(c) for c in param.components()]}


def param_from_json(obj):
    from .dualize import RationalCurveParam

    comps = [unipoly_from_json(c) for c in obj["components"]]
    if len(comps) != 3:
        raise ValueError("a parameterization needs exactly three components")
    return RationalCurveParam(*comps)


def focal_to_json(divisor, diagnostics) -> dict:
    return {
        "focal_divisor": [
            {"re": e.root.real, "im": e.root.imag, "mult": e.multiplicity,
             "singular": e.singular}
            for e in divisor.entries
        ],
        "real_foci": [[e.root.real, e.root.imag, e.multiplicity]
                      for e in divisor.entries],
        "degree_drop": divisor.degree_drop,
        "diagnostics": {
            "tangent_at_infinity": diagnostics.tangent_at_infinity,
            "passes_circular_points": diagnostics.passes_circular_points,
            "multiple_focal_roots": [[r.real, r.imag, m]
                                     for r, m in diagnostics.multiple_focal_roots],
            "notes": list(diagnostics.notes),
        },
    }


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
