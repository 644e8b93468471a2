"""References computed apart from focalcurves, and the verdict on one output.

Nothing here imports focalcurves: the foci of a parameterization come from
sympy's dual parameterization, those of a smooth curve from sympy's
resultant, those of a constructed curve from numpy's roots of its isotropic
restriction, and the rest are known by construction.  sympy is imported on
first use, after the timed phase, so it does not count in peak RSS.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

EPS = float(np.finfo(float).eps)
OK, FAILED, WRONG = "ok", "failed", "wrong"
#: operation kinds whose reference is computed with sympy
NEEDS_SYMPY = ("foci-param", "foci-primal")


def root_tols(want):
    """How far each computed focus of ``want`` = [(root, mult)] may sit from it.

    A simple focus must agree to 1e-9 (relative beyond |z| = 1), or to 1000
    times eps times its condition number in the polynomial with these roots
    when that is larger, as it is for foci in a tight cluster.  An m-fold
    focus computed in floating point is only determined to about eps^(1/m).
    """
    roots = np.array([z for z, m in want for _ in range(m)], dtype=complex)
    magnitudes = np.abs(np.poly(roots))
    tols = []
    for z, mult in want:
        scale = max(1.0, abs(z))
        if mult > 1:
            tols.append(100.0 * EPS ** (1.0 / mult) * scale)
            continue
        slope = abs(np.prod(z - roots[roots != z]))
        cond = np.polyval(magnitudes, abs(z)) / slope if slope > 0 else np.inf
        tols.append(max(1e-9 * scale, 1e3 * EPS * cond))
    return tols


def same_divisor(got, want):
    """Do two lists of (root, multiplicity) agree?

    The multiplicities must be equal as multisets, and within each
    multiplicity an optimal matching must pair every root with a wanted one
    inside its tolerance from ``root_tols``.
    """
    if sorted(m for _, m in got) != sorted(m for _, m in want):
        return False
    tols = root_tols(want)
    for mult in {m for _, m in want}:
        g = np.array([z for z, m in got if m == mult], dtype=complex)
        w = [(z, tol) for (z, m), tol in zip(want, tols) if m == mult]
        cost = np.abs(g[:, None] - np.array([z for z, _ in w])[None, :])
        rows, cols = linear_sum_assignment(cost)
        if any(cost[i, j] > w[j][1] for i, j in zip(rows, cols)):
            return False
    return True


def simple(roots):
    return [(complex(z), 1) for z in roots]


def expanded(divisor):
    """Each root repeated by its multiplicity, as simple roots."""
    return [(z, 1) for z, m in divisor for _ in range(m)]


def _complex_desc(poly, degree):
    """Descending complex coefficients of a sympy Poly, padded to ``degree``."""
    cs = [complex(c) for c in poly.all_coeffs()]
    return np.array([0j] * (degree + 1 - len(cs)) + cs)


def param_foci(components):
    """Foci of (a, b, c)(t) by the direct route.

    (u, v, w) = phi x phi' reduced by its gcd parameterizes the dual curve;
    it meets the isotropic line u + i v = 0 at the roots s of u + i v, in the
    point (-1 : -i : r) with r = -w(s)/u(s).  A common root of u and v is a
    tangent through (0 : 0 : 1), the line at infinity: a focus at infinity,
    left out like the program's degree drop.
    """
    import sympy

    t = sympy.Symbol("t")
    a, b, c = (sympy.Poly([sympy.Rational(x.numerator, x.denominator) for x in reversed(comp)],
                          t, domain="QQ") for comp in components)
    u = b * c.diff(t) - c * b.diff(t)
    v = c * a.diff(t) - a * c.diff(t)
    w = a * b.diff(t) - b * a.diff(t)
    g = sympy.gcd(sympy.gcd(u, v), w)
    u, v, w = (p.exquo(g) for p in (u, v, w))
    at_infinity = sympy.gcd(u, v)
    n = max(p.degree() for p in (u, v, w))
    uc, vc, wc = (_complex_desc(p, n) for p in (u, v, w))
    ur, vr = (_complex_desc(p.exquo(at_infinity), n) for p in (u, v))
    ts = np.roots(ur + 1j * vr)
    return simple(-np.polyval(wc, s) / np.polyval(uc, s) for s in ts)


def primal_foci(terms):
    """Finite foci of a smooth curve f: the r where b(y) = f(r - i y, y, 1)
    has a double root, i.e. the roots of Res_y(b, db/dy)."""
    import sympy

    x, y, r = sympy.symbols("x y r")
    f = sum(sympy.Rational(c.numerator, c.denominator) * x ** i * y ** j
            for (i, j, _), c in terms.items())
    b = sympy.Poly(sympy.expand(f.subs(x, r - sympy.I * y)), y)
    res = sympy.Poly(sympy.resultant(b, b.diff(y)), r)
    return simple(np.roots(_complex_desc(res, res.degree())))


def restriction_roots(terms):
    """Roots of g(-1, -i, w) for a dual curve given as [((i, j, k), coef)]."""
    degree = max(sum(e) for e, _ in terms)
    coeffs = np.zeros(degree + 1, dtype=complex)
    for (i, j, k), c in terms:
        coeffs[k] += c * (-1) ** i * (-1j) ** j
    return simple(np.roots(coeffs[::-1]))


def rank_trial_ok(c, kappa, rec):
    """The rank law at a dual curve of degree c with kappa cusps."""
    d = 2 * (c - 1) - kappa
    return (rec["d"] == d
            and rec["tangent_dim"] == c + d + 1
            and rec["rank"] == min(2 * c, c + d + 1)
            and rec["kernel_dim"] == max(0, d - c + 1)
            and rec["shifted_dim"] == rec["kernel_dim"]
            and rec["max_factor_residual"] < 1e-8
            and rec["max_shifted_residual"] < 1e-8)


def _right(op, out):
    if op.kind == "row":
        return all(rank_trial_ok(t["c"], t["kappa"], t) for t in out["trials"])
    # numpy's roots cannot tell a double focus from two close ones, so the
    # numerical references are compared with multiplicities expanded
    if op.kind == "foci-param":
        return same_divisor(expanded(out["foci"]), param_foci(op.expect))
    if op.kind == "foci-primal":
        return same_divisor(expanded(out["foci"]), primal_foci(op.expect))
    if op.kind == "foci-dual":
        return same_divisor(out["foci"], simple(op.expect))
    if op.kind == "construct":
        c = len(op.expect)
        return (same_divisor(out["foci"], simple(op.expect))
                and same_divisor(restriction_roots(out["curve"]), simple(op.expect))
                and out["dimension"] == out["basis"] == c * (c - 1) // 2)
    if op.kind == "siebeck":
        return same_divisor(out["foci"], op.expect)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def judge(op, out):
    """OK, FAILED (the program reported failure, or a gate probe missed) or WRONG."""
    if out.get("code", 0) != 0 or any(t["status"] != "clean" for t in out.get("trials", ())):
        return FAILED
    if _right(op, out):
        return OK
    return FAILED if op.gate_probe else WRONG
