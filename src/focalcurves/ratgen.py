"""Random rational plane curves with a prescribed cusp count, and the
numerical census of their nodes and cusps.

Cusps are planted by construction: both affine derivative components carry
the factor m(t) = prod (t - t_i), so the parameterization degenerates exactly
at the chosen parameters.  Nodes are then read off one univariate
polynomial, the resultant in s of the divided-difference system (two exact
Bezout grids from ``poly.divided_difference_pair``): its roots away from the
cusps come in pairs with a common image point, one pair per node, and each
pair is Newton-polished on the grids taken as complex arrays.  Draws whose
census disagrees with the genus-zero count delta + kappa = (c-1)(c-2)/2
are rejected.  The census record, ``SingularityData``, is also the
equiclassical scheme that the tangent-space conditions are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval2d

from .dualize import RationalCurveParam, dual_param
from .errors import (
    CensusMismatch,
    ClusterAmbiguity,
    GenerationExhausted,
    ZeroPolynomial,
)
from .poly import UniPoly, divided_difference_pair, unipoly_gcd, unipoly_gcd_many
from .resultants import resultant_bipoly_in_s
from .rootfind import find_roots
from .scalars import to_complex

_MAX_TRIES = 50
_ISO_MARGIN = 1e-2  # generation-time margin keeping singular points off u^2+v^2=0


@dataclass(frozen=True)
class Node:
    """An ordinary double point: two parameters mapping to the same point."""

    params: tuple  # (s, t), canonically ordered
    point: np.ndarray
    residual: float = 0.0


@dataclass(frozen=True)
class Cusp:
    """A parameter where the tangent map degenerates, with its image point
    and the second derivative of the parameterization there, both divided by
    the same scalar."""

    param: complex
    point: np.ndarray
    tangent: np.ndarray
    residual: float = 0.0


@dataclass(frozen=True)
class SingularityData:
    nodes: tuple
    cusps: tuple
    degree: int

    @property
    def delta(self):
        return len(self.nodes)

    @property
    def kappa(self):
        return len(self.cusps)

    def points(self):
        return [n.point for n in self.nodes] + [c.point for c in self.cusps]


def _normalize_point(p):
    p = np.asarray(p, dtype=complex)
    idx = int(np.argmax(np.abs(p)))
    return p / p[idx]


def projective_distance(p, q):
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    return float(np.linalg.norm(np.cross(p, q)) / (np.linalg.norm(p) * np.linalg.norm(q)))


def _canonical_pair(s, t):
    # the parameters of an acnode are conjugates, whose real parts agree only
    # up to rounding: order such a pair by imaginary part alone
    if abs(s.real - t.real) <= 1e-12 * (1.0 + abs(s) + abs(t)):
        return (s, t) if s.imag <= t.imag else (t, s)
    return (s, t) if s.real < t.real else (t, s)


_NEWTON_STEPS = 25
_NEWTON_TOL = 1e-14


def _newton_refine_pair(P, Q, s, t):
    """Newton on the pair of complex coefficient grids P, Q at (s, t)."""
    Ps, Pt = polyder(P, axis=0), polyder(P, axis=1)
    Qs, Qt = polyder(Q, axis=0), polyder(Q, axis=1)
    for _ in range(_NEWTON_STEPS):
        f1, f2 = polyval2d(s, t, P), polyval2d(s, t, Q)
        j11, j12 = polyval2d(s, t, Ps), polyval2d(s, t, Pt)
        j21, j22 = polyval2d(s, t, Qs), polyval2d(s, t, Qt)
        det = j11 * j22 - j12 * j21
        if abs(det) == 0.0:
            break
        ds = (f1 * j22 - f2 * j12) / det
        dt = (j11 * f2 - j21 * f1) / det
        s, t = s - ds, t - dt
        if abs(ds) + abs(dt) <= _NEWTON_TOL * (1.0 + abs(s) + abs(t)):
            break
    return complex(s), complex(t)


def _locate_cusps(param: RationalCurveParam, tol):
    w1, w2, w3 = param.wedge()
    nonzero = [w for w in (w1, w2, w3) if not w.is_zero()]
    if not nonzero:
        raise CensusMismatch("tangent map degenerates identically (a line?)")
    g = unipoly_gcd_many(nonzero)
    if g.effective_degree() == 0:
        return []
    roots = find_roots(g.as_float(), tol=tol)
    if any(m > 1 for _, m in roots.roots):
        raise CensusMismatch("non-simple cusp factor in the tangent degeneration")
    cusps = []
    wfloats = [w.as_float() for w in (w1, w2, w3)]
    wscale = max(max((abs(c) for c in w.coeffs), default=0.0) for w in wfloats)
    second = param.derivative().derivative()
    for r, _ in roots.roots:
        resid = max(abs(to_complex(w.evaluate(r))) for w in wfloats)
        if resid > 1e-7 * max(wscale, 1.0):
            raise CensusMismatch(f"no cusp at parameter {r}")
        raw = param.evaluate(r)
        scale = raw[np.argmax(np.abs(raw))]
        cusps.append(Cusp(complex(r), raw / scale, second.evaluate(r) / scale, resid))
    return cusps


def locate_singularities(param: RationalCurveParam, tol=1e-9) -> SingularityData:
    """Locate all nodes and cusps of a rational parameterization.

    Cusps are the common roots of the wedge components.  Nodes are the
    off-diagonal common zeros of the divided-difference pair (P, Q): the
    eliminant Res_s(P, Q) has both parameters of every node as roots (and
    each cusp parameter as a double root) once the power of c(t) it carries
    is divided out, so its roots away from the cusps are paired by their
    image points, each pair is Newton-polished on (P, Q) and must then map
    to one point to 1e-7.  A node with a parameter at a root of c(t) or at
    t = oo is therefore not found, and fails the count.  Raises CensusMismatch
    when a root is left unpaired, a pair does not meet, a cusp residual is
    too large, or the count differs from (c-1)(c-2)/2.
    """
    param = param.rationalized().validate()
    c = param.degree
    expected_total = (c - 1) * (c - 2) // 2

    cusps = _locate_cusps(param, tol)
    cusp_params = [cu.param for cu in cusps]

    P, Q = divided_difference_pair(param.a, param.b, param.c)
    nodes = []
    if (any(map(any, P)) or any(map(any, Q))) and expected_total - len(cusps) != 0:
        try:
            elim = resultant_bipoly_in_s(P, Q)
        except ZeroPolynomial as exc:
            raise CensusMismatch("divided-difference system is degenerate") from exc
        # any two roots of c(t) zero both grids, so the eliminant carries a
        # power of c(t) that belongs to no node
        if param.c.effective_degree() > 0 and not elim.is_zero():
            g = unipoly_gcd(elim, param.c)
            while g.effective_degree() > 0:
                elim = elim.exact_div(g)
                g = unipoly_gcd(elim, param.c)
        elim_f = elim.as_float()
        if elim_f.effective_degree(rel_tol=1e-12) < 1:
            troots = []
        else:
            troots = [r for r, _ in find_roots(elim_f, tol=tol).roots]
        # both parameters of a node are roots of the eliminant; a cusp
        # parameter is a double root and belongs to no node
        left = [(t, param.evaluate(t)) for t in troots
                if all(abs(t - cp) >= 1e-6 * (1 + abs(cp)) for cp in cusp_params)]
        Pf, Qf = np.array(P, dtype=complex), np.array(Q, dtype=complex)
        pscale, qscale = np.abs(Pf).max(), np.abs(Qf).max()
        while left:
            t0, image = left.pop()
            if not left:
                raise CensusMismatch(f"eliminant root {t0:.6g} has no partner")
            j = min(range(len(left)), key=lambda i: projective_distance(left[i][1], image))
            s0, _ = left.pop(j)
            s_r, t_r = _newton_refine_pair(Pf, Qf, s0, t0)
            if projective_distance(param.evaluate(s_r), param.evaluate(t_r)) > 1e-7:
                raise CensusMismatch(f"eliminant roots {s0:.6g}, {t0:.6g} do not meet")
            pair = _canonical_pair(s_r, t_r)
            point = _normalize_point(param.evaluate(pair[0]))
            resid = max(abs(polyval2d(*pair, Pf)) / max(pscale, 1.0),
                        abs(polyval2d(*pair, Qf)) / max(qscale, 1.0))
            nodes.append(Node(pair, point, resid))

    found = len(nodes) + len(cusps)
    if found != expected_total:
        raise CensusMismatch(
            f"found {len(nodes)} nodes + {len(cusps)} cusps, expected total "
            f"{expected_total} for degree {c}")

    pts = [n.point for n in nodes] + [cu.point for cu in cusps]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if projective_distance(pts[i], pts[j]) < max(tol, 1e-7):
                raise ClusterAmbiguity(
                    "two singular points coincide projectively; degenerate draw")
    nodes.sort(key=lambda n: (n.params[0].real, n.params[0].imag))
    cusps = sorted(cusps, key=lambda cu: (cu.param.real, cu.param.imag))
    return SingularityData(tuple(nodes), tuple(cusps), c)


def _draw_fraction(rng):
    val = int(rng.integers(-1000, 1001))
    if val == 0:
        val = 1
    return Fraction(val, 1000)


def _draw_unipoly(rng, degree):
    return UniPoly([_draw_fraction(rng) for _ in range(degree + 1)])


def _draw_cusp_params(rng, kappa):
    params = []
    guard = 0
    while len(params) < kappa:
        cand = Fraction(int(rng.integers(-64, 65)), 64)
        if all(abs(cand - p) >= Fraction(1, 4) for p in params):
            params.append(cand)
        guard += 1
        if guard > 500:
            params = []
            guard = 0
    return params


# margins defining "general position" operationally: singular parameters and
# singular points that almost collide make the condition system ill-conditioned
_PARAM_SEPARATION = 0.05
_POINT_SEPARATION = 1e-2


def _well_separated(census: SingularityData):
    params = [cu.param for cu in census.cusps]
    for n in census.nodes:
        params.extend(n.params)
    for i in range(len(params)):
        for j in range(i + 1, len(params)):
            if abs(params[i] - params[j]) < _PARAM_SEPARATION:
                return False
    pts = census.points()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if projective_distance(pts[i], pts[j]) < _POINT_SEPARATION:
                return False
    return True


def _integrate(p: UniPoly, constant):
    coeffs = [constant] + [p.coeffs[k] / (k + 1) for k in range(len(p.coeffs))]
    return UniPoly(coeffs)


def isotropic_margin(points):
    """Smallest |u^2 + v^2| / |p|^2 over the points: how far they keep off the
    isotropic conic u^2 + v^2 = 0 (inf for no points)."""
    margins = [abs(p[0] ** 2 + p[1] ** 2) / float(np.linalg.norm(p) ** 2)
               for p in (np.asarray(pt, dtype=complex) for pt in points)]
    return min(margins, default=float("inf"))


def generate_curve_with_census(c, kappa, seed, tol=1e-9):
    """Draw a random rational curve of degree c with kappa cusps, plus its census.

    Rejection criteria (redrawn): wrong singularity census, non-simple
    singularities, a singular point too close to u^2 + v^2 = 0, the curve
    through (0:0:1) (vanishing w^c coefficient of its equation), or a
    reduced dual degree different from 2(c-1) - kappa.
    """
    if c < 2:
        raise GenerationExhausted("need degree >= 2")
    if kappa < 0 or kappa > (c - 1) * (c - 2) // 2:
        raise GenerationExhausted(f"kappa={kappa} is inadmissible for degree {c}")
    if c - 1 - kappa < 0:
        raise GenerationExhausted(
            f"the planted-cusp generator cannot reach kappa={kappa} at degree {c}")
    rng = np.random.default_rng(np.random.Philox(np.random.SeedSequence(int(seed))))
    expected_class = 2 * (c - 1) - kappa
    for _ in range(_MAX_TRIES):
        cusp_params = _draw_cusp_params(rng, kappa)
        m = UniPoly([Fraction(1)])
        for tcusp in cusp_params:
            m = m * UniPoly([-tcusp, Fraction(1)])
        p = _draw_unipoly(rng, c - 1 - kappa)
        q = _draw_unipoly(rng, c - 1 - kappa)
        x = _integrate(m * p, _draw_fraction(rng))
        y = _integrate(m * q, _draw_fraction(rng))
        param = RationalCurveParam(x, y, UniPoly([Fraction(1)]))
        if param.passes_through_origin():
            continue  # the w^c coefficient would vanish
        try:
            census = locate_singularities(param, tol)
        except (CensusMismatch, ClusterAmbiguity, ZeroPolynomial):
            continue
        if census.kappa != kappa:
            continue
        if not _well_separated(census):
            continue
        if isotropic_margin(census.points()) < _ISO_MARGIN:
            continue
        if dual_param(param).degree != expected_class:
            continue
        return param, census
    raise GenerationExhausted(
        f"no admissible curve after {_MAX_TRIES} draws for (c, kappa, seed) = "
        f"{(c, kappa, seed)}")


def random_rational_curve(c, kappa, seed, tol=1e-9):
    """Random rational curve of degree c with exactly kappa cusps (see census twin)."""
    param, _ = generate_curve_with_census(c, kappa, seed, tol=tol)
    return param
