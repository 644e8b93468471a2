"""Dual curves: tangent-line parameterizations, implicitization, and the
direct isotropic-tangent focal polynomial for smooth implicit curves.

Two routes into the focal machinery are supported.  Rational curves go
through the tangent parameterization alone: it meets the isotropic line at the
roots of one univariate polynomial (``focal.param_focal_divisor``), so no
variable is eliminated.  Smooth implicit curves go through the binary
discriminant of the isotropic pencil.  Exact resultant implicitization of a
parameterization is kept for the implicit equation itself.
Implicit-to-implicit dualization by elimination ideals is deliberately out of
scope.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import (
    DegenerateCurve,
    NonBirationalWarning,
    SingularInputRejected,
    ZeroPolynomial,
)
from .poly import TriPoly, UniPoly, divided_difference_pair, unipoly_gcd, unipoly_gcd_many
from .resultants import resultant_lists, resultant_tripoly_lists
from .scalars import QQi, exact_re_im, fraction_content, to_complex


@dataclass(frozen=True)
class RationalCurveParam:
    """Projective parameterization t -> (a(t) : b(t) : c(t)) of a plane curve."""

    a: UniPoly
    b: UniPoly
    c: UniPoly

    @property
    def degree(self):
        return max(self.a.effective_degree(), self.b.effective_degree(),
                   self.c.effective_degree())

    @property
    def is_exact(self):
        return self.a.is_exact and self.b.is_exact and self.c.is_exact

    def components(self):
        return (self.a, self.b, self.c)

    def evaluate(self, t):
        return np.array([to_complex(self.a.evaluate(t)),
                         to_complex(self.b.evaluate(t)),
                         to_complex(self.c.evaluate(t))])

    def derivative(self):
        return RationalCurveParam(self.a.derivative(), self.b.derivative(),
                                  self.c.derivative())

    def wedge(self):
        """Cross product of the parameterization with its derivative."""
        a, b, c = self.a, self.b, self.c
        da, db, dc = a.derivative(), b.derivative(), c.derivative()
        return (b * dc - c * db, c * da - a * dc, a * db - b * da)

    def rationalized(self):
        if self.is_exact:
            return self
        return RationalCurveParam(self.a.as_exact(), self.b.as_exact(), self.c.as_exact())

    def passes_through_origin(self):
        """Does the image pass through (0 : 0 : 1)?

        At a finite parameter that is a common root of a and b; at t = oo it
        means that a and b both have lower degree than the parameterization.
        """
        p = self.rationalized()
        a, b = p.a.trimmed(), p.b.trimmed()
        return (unipoly_gcd(a, b).effective_degree() > 0
                or max(a.effective_degree(), b.effective_degree()) < p.degree)

    def validate(self):
        """Reject exact parameterizations with a common factor or a point image."""
        comps = [p.trimmed() for p in self.components()]
        if all(p.is_zero() for p in comps):
            raise DegenerateCurve("all components vanish")
        g = unipoly_gcd_many([p for p in comps if not p.is_zero()])
        if g.effective_degree() > 0:
            raise DegenerateCurve(f"components share the factor {g!r}")
        if all(w.is_zero() for w in self.wedge()):
            raise DegenerateCurve("parameterization image is a point or a line")
        return self


def dual_param(p: RationalCurveParam) -> RationalCurveParam:
    """Tangent-line parameterization phi x phi', reduced by content.

    The reduced degree equals the class of the image curve.  Floating input
    is rationalized first so the gcd reduction is exact.
    """
    p = p.rationalized()
    w1, w2, w3 = p.wedge()
    if w1.is_zero() and w2.is_zero() and w3.is_zero():
        raise DegenerateCurve("the image is a point; it has no dual curve")
    g = unipoly_gcd_many([w for w in (w1, w2, w3) if not w.is_zero()])
    if g.effective_degree() > 0:
        w1, w2, w3 = (w.exact_div(g) if not w.is_zero() else w.trimmed()
                      for w in (w1, w2, w3))
    out = RationalCurveParam(w1.trimmed(), w2.trimmed(), w3.trimmed())
    if out.degree == 0:
        # constant tangent vector: the input parameterizes a line
        raise DegenerateCurve("the input parameterizes a line; it has no dual curve")
    scal = _scalar_content(out)
    if scal not in (0, 1):
        out = RationalCurveParam(out.a * (1 / scal), out.b * (1 / scal),
                                 out.c * (1 / scal))
    return out


def _scalar_content(p: RationalCurveParam):
    parts = []
    for comp in p.components():
        for c in comp.coeffs:
            if c:
                r, i = exact_re_im(c)
                parts.extend(x for x in (r, i) if x != 0)
    return fraction_content(parts)


def covering_suspected(p: RationalCurveParam) -> bool:
    """Fiber test: a multiple cover gives every generic point extra preimages.

    Specializing the divided-difference pair at a random rational parameter
    leaves a common factor exactly when the point has other preimages; two
    independent specializations rule out coincidences with nodes.
    """
    dP, dQ = divided_difference_pair(p.a, p.b, p.c)
    if not any(map(any, dP)) or not any(map(any, dQ)):
        # one affine coordinate is constant along the curve: a line, which a
        # parameterization of degree > 1 necessarily covers multiple times
        return p.degree > 1
    decided = False
    for t0 in (Fraction(5, 7), Fraction(-3, 11)):
        ps = UniPoly([UniPoly(row).evaluate(t0) for row in dP]).trimmed()
        qs = UniPoly([UniPoly(row).evaluate(t0) for row in dQ]).trimmed()
        if ps.is_zero() or qs.is_zero():
            continue
        if unipoly_gcd(ps, qs).effective_degree() == 0:
            return False
        decided = True
    return decided


def implicitize(p: RationalCurveParam) -> TriPoly:
    """Implicit equation of the image curve via the Sylvester resultant.

    Eliminates t from (x c(t) - z a(t), y c(t) - z b(t)); the extraneous z
    power and rational content are removed, and the result is scaled so its
    w^degree coefficient (or else its leading coefficient) is 1.  When the
    elimination pattern or a fiber test indicates the parameterization covers
    its image multiple times, a NonBirationalWarning is issued and the (power
    of the) reduced equation is returned as computed.
    """
    p = p.rationalized().validate()
    n = p.degree
    pa, pb, pc = (comp.padded(n) if comp.formal_degree < n else comp
                  for comp in (p.a.trimmed(), p.b.trimmed(), p.c.trimmed()))
    pcoeffs = []
    qcoeffs = []
    for k in range(n + 1):
        ck = pc.coeffs[k] if k <= pc.formal_degree else Fraction(0)
        ak = pa.coeffs[k] if k <= pa.formal_degree else Fraction(0)
        bk = pb.coeffs[k] if k <= pb.formal_degree else Fraction(0)
        pcoeffs.append(TriPoly({(1, 0, 0): ck, (0, 0, 1): -ak}))
        qcoeffs.append(TriPoly({(0, 1, 0): ck, (0, 0, 1): -bk}))
    res = resultant_tripoly_lists(pcoeffs, qcoeffs)
    if res.is_zero():
        raise DegenerateCurve("resultant vanished identically")

    zmin = min(e[2] for e in res.terms)
    if zmin:
        res = TriPoly({(e[0], e[1], e[2] - zmin): c for e, c in res.terms.items()})
    res = res.primitive()
    if res.degree != n or covering_suspected(p):
        warnings.warn(
            f"implicit equation of degree {res.degree} from a degree-{n} "
            "parameterization fails the birationality pattern; the "
            "parameterization is likely a multiple cover",
            NonBirationalWarning,
            stacklevel=2,
        )
    top = res.coefficient((0, 0, res.degree))
    if top:
        return res * (1 / top)
    lead = min(res.terms, key=lambda e: (-e[2], -e[1]))
    return res * (1 / res.terms[lead])


def _random_rational_matrix(rng):
    while True:
        m = [[Fraction(int(rng.integers(-4, 5))) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det != 0:
            return m


def _z_coefficient_forms(g: TriPoly):
    """Split g = sum_k z^k * g_k(x, y); returns the list of xy-only TriPolys."""
    kmax = max((e[2] for e in g.terms), default=0)
    layers = [dict() for _ in range(kmax + 1)]
    for (i, j, k), c in g.terms.items():
        layers[k][(i, j, 0)] = c
    return [TriPoly(layer) for layer in layers]


def _binary_gcd_degree(forms):
    """Degree of the common factor of xy-forms, counting a shared root at y=0."""
    polys = []
    at_infinity = True
    for f in forms:
        if f.is_zero():
            return 1  # identically zero form shares everything
        deg = f.degree
        coeffs = [Fraction(0)] * (deg + 1)
        for (i, _, _), c in f.terms.items():
            coeffs[i] = c
        if coeffs[deg]:
            at_infinity = False
        polys.append(UniPoly(coeffs))
    g = unipoly_gcd_many(polys)
    return g.effective_degree() + (1 if at_infinity else 0)


def smoothness_probe(f: TriPoly):
    """Monte Carlo smoothness test via eliminants of the partial derivatives.

    In random coordinates a singular point forces the three pairwise z-
    eliminants of the gradient to share a root; a clean trial certifies
    smoothness (up to the probabilistic miss chance of the random frames,
    which is measure zero and documented).  Five seeded frames are tried.
    """
    f = f.as_exact()
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = _random_rational_matrix(rng)
        ft = f.substitute_linear(m)
        parts = [ft.diff(axis) for axis in range(3)]
        if any(pp.is_zero() for pp in parts):
            continue
        lists = [_z_coefficient_forms(pp) for pp in parts]
        if any(len(ls) < 2 for ls in lists):
            continue  # projection degenerate for this frame; inconclusive
        try:
            b1 = resultant_tripoly_lists(lists[0], lists[1])
            b2 = resultant_tripoly_lists(lists[0], lists[2])
            b3 = resultant_tripoly_lists(lists[1], lists[2])
        except ZeroPolynomial:
            continue
        if any(b.is_zero() for b in (b1, b2, b3)):
            continue
        if _binary_gcd_degree([b1, b2, b3]) == 0:
            return True
    return False


def isotropic_focal_poly(f: TriPoly):
    """Focal polynomial of a smooth implicit curve by the discriminant route.

    Substituting the isotropic pencil x = r z - i y into f gives a binary
    form in (y : z); the values of r where it acquires a repeated root are
    the isotropic tangents, i.e. the roots of the focal polynomial of the
    dual curve, up to scale.  Returned as a UniPoly in r of formal degree
    d(d-1).
    """
    if not f.is_homogeneous or f.degree < 2:
        raise ValueError("need a homogeneous curve of degree >= 2")
    f = f.as_exact()
    if not smoothness_probe(f):
        raise SingularInputRejected(
            "smoothness probe failed; singular points would contaminate the "
            "discriminant with extraneous factors")
    d = f.degree
    iy = QQi(0, -1)

    # phi_r(y, z) = f(r z + iy * y, y, z): coefficient of y^j z^(d-j)
    # is a polynomial in r; build the whole grid exactly.
    yz = [[Fraction(0)] * (d + 1) for _ in range(d + 1)]  # yz[j][rpow]
    for (a, b, e), coef in f.terms.items():
        for k in range(a + 1):
            c = coef * comb(a, k) * iy ** (a - k)
            j = (a - k) + b
            yz[j][k] = yz[j][k] + c

    fy = [UniPoly(yz[j + 1]) * (j + 1) for j in range(d)]
    fz = [UniPoly(yz[j]) * (d - j) for j in range(d)]
    if all(u.is_zero() for u in fy) or all(u.is_zero() for u in fz):
        raise SingularInputRejected("isotropic pencil degenerated; curve is singular")
    # formal degrees must be kept: a vanishing top coefficient encodes the
    # repeated-root-at-infinity case, so no trimming before the determinant
    disc = resultant_lists(fy, fz, UniPoly.zero(), UniPoly([Fraction(1)]))
    if not isinstance(disc, UniPoly):
        disc = UniPoly([disc])
    out = [to_complex(c) for c in disc.coeffs]
    target = d * (d - 1)
    out = out + [0j] * (target + 1 - len(out))
    return UniPoly(out[:target + 1])
