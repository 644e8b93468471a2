"""Focal divisors, real foci, and confocality of dual curves.

The dual curve {g = 0} meets the isotropic line u + iv = 0 in the points
(-1 : -i : r) where r runs over the roots of the restriction g(-1, -i, w);
for a real curve each root a + ib is the real focus (a : b : 1), with the
root multiplicity as focal multiplicity.  For a rational curve the same points
come from the roots of u + iv along its tangent-line parameterization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dualize import covering_suspected, dual_param
from .errors import DegenerateFocalPolynomial, NonBirationalWarning, NormalizationFailure
from .poly import TriPoly, unipoly_gcd
from .rootfind import find_roots
from .scalars import QQi, to_complex

#: default absolute tolerance on imaginary parts when testing realness of floats
REAL_TOL = 1e-10


@dataclass(frozen=True)
class FocalEntry:
    root: complex
    multiplicity: int
    singular: bool = False


@dataclass(frozen=True)
class FocalDivisor:
    """Multiset of focal-polynomial roots, canonically ordered by (Re, Im)."""

    entries: tuple
    degree_drop: int
    curve_degree: int

    def __post_init__(self):
        total = sum(e.multiplicity for e in self.entries) + self.degree_drop
        if total != self.curve_degree:
            raise ValueError(
                f"multiplicities {total} do not account for degree {self.curve_degree}")

    def values(self):
        out = []
        for e in self.entries:
            out.extend([e.root] * e.multiplicity)
        return out


@dataclass(frozen=True)
class FocalDiagnostics:
    tangent_at_infinity: bool
    passes_circular_points: dict
    multiple_focal_roots: tuple = ()
    notes: tuple = ()


@dataclass(frozen=True)
class ConfocalResult:
    confocal: bool
    coefficient_distance: float
    divisor_distance: float


def _point_on_dual(root):
    return (-1.0 + 0j, -1j, complex(root))


def _gradient_norm(g: TriPoly, point):
    vals = [abs(to_complex(g.diff(axis).evaluate(*point))) for axis in range(3)]
    return max(vals)


def _focal_data(found, degree_drop, degree):
    """Divisor and diagnostics from (root, multiplicity, singular) triples.

    ``singular`` is None for a multiple root whose ordinary/singular
    classification is not asserted; such a root gets a note instead of a flag.
    """
    entries = []
    notes = []
    for r, m, singular in found:
        if singular is None:
            notes.append(
                f"multiple focal root {r:.6g} sits at a singular point of the "
                "dual curve; ordinary/singular classification not asserted")
        entries.append(FocalEntry(complex(r), m, bool(singular)))
    entries.sort(key=lambda e: (e.root.real, e.root.imag))
    any_singular = any(e.singular for e in entries)
    divisor = FocalDivisor(tuple(entries), degree_drop, degree)
    diagnostics = FocalDiagnostics(
        tangent_at_infinity=degree_drop > 0,
        # conjugation swaps the two isotropic lines of a real curve, so it is
        # tangent to one of them exactly when it is tangent to the other
        passes_circular_points={"plus": any_singular, "minus": any_singular},
        multiple_focal_roots=tuple((r, m) for r, m, _ in found if m >= 2),
        notes=tuple(notes),
    )
    return divisor, diagnostics


def focal_divisor(g: TriPoly, tol=1e-9):
    """Focal divisor and degeneracy diagnostics of a real dual curve.

    Multiple roots are flagged as singular foci when the corresponding point
    of {g = 0} is smooth there (the isotropic line is genuinely tangent, the
    dual-side picture of the curve passing through a circular point).  A
    multiple root at a singular point of {g = 0} is reported with its
    multiplicity but left unflagged; see the diagnostics notes.
    """
    if not g.is_homogeneous or g.degree < 1:
        raise ValueError("focal divisor needs a homogeneous curve of degree >= 1")
    if not g.is_real(REAL_TOL):
        raise ValueError("focal divisor is defined for real curves")
    gplus = g.restrict_isotropic("+")
    if gplus.is_zero() or (
            not gplus.is_exact and gplus.effective_degree(rel_tol=1e-13) < 0):
        raise DegenerateFocalPolynomial(
            "isotropic restriction vanishes identically; the curve contains "
            "the isotropic line u + iv = 0")
    roots = find_roots(gplus, tol=tol)

    gscale = max(1.0, g.max_abs())
    found = []
    for r, m in roots.roots:
        singular = False
        if m >= 2:
            grad_scale = gscale * max(1.0, abs(r)) ** max(g.degree - 1, 0)
            singular = _gradient_norm(g, _point_on_dual(r)) > 1e-8 * grad_scale or None
        found.append((r, m, singular))
    return _focal_data(found, roots.degree_drop, g.degree)


def param_focal_divisor(p, tol=1e-9):
    """Focal divisor of a real rational curve, read off its tangent lines.

    The tangent lines (u : v : w)(s) = dual_param(p) meet the isotropic line
    u + iv = 0 at the roots s of u + iv, in the point (-1 : -i : r) with
    r = -w(s)/u(s).  A common root of u and v is the line at infinity, whose
    focus is at infinity: it is divided out and counted in ``degree_drop``.
    Roots s that give the same r within ``tol`` make one focus (a node of the
    dual curve on the isotropic line, or a multiple cover).  A multiple focus
    is singular when one s alone gives it and the dual curve is immersed
    there, q(s) x q'(s) != 0; otherwise it is left unflagged with a note, as
    in :func:`focal_divisor`.
    """
    p = p.rationalized().validate()
    if not all(isinstance(c, Fraction) for comp in p.components() for c in comp.coeffs):
        raise ValueError("foci are defined for real curves")
    q = dual_param(p)
    if covering_suspected(q):
        warnings.warn(
            f"the degree-{q.degree} dual parameterization fails the fiber test; "
            "the parameterization is likely a multiple cover",
            NonBirationalWarning,
            stacklevel=2,
        )
    u, v, w = q.components()
    h = unipoly_gcd(u, v)
    roots = find_roots(u.exact_div(h) + v.exact_div(h) * QQi(0, 1), tol=tol)

    found = []  # [r, multiplicity, singular]
    for s, m in roots.roots:
        r = complex(-w.evaluate(s) / u.evaluate(s))
        same = next((f for f in found if abs(f[0] - r) <= tol * max(1.0, abs(r))), None)
        if same is None:
            found.append([r, m, m >= 2 and (_immersed(q, s) or None)])
        else:
            same[1] += m
            same[2] = None
    return _focal_data(found, q.degree - roots.total_multiplicity, q.degree)


def _immersed(q, s):
    """Is q(s) x q'(s) nonzero, on the scale that focal_divisor's gradient test
    uses: the largest coefficient times max(1, |s|)^degree?"""
    wedge = [w.as_float() for w in q.wedge()]
    value = max(abs(w.evaluate(s)) for w in wedge)
    scale = max(abs(c) for w in wedge for c in w.coeffs) * max(1.0, abs(s)) ** max(
        w.formal_degree for w in wedge)
    return value > 1e-8 * scale


def real_foci(fd: FocalDivisor):
    """Real foci ((a, b), multiplicity) read off the focal divisor."""
    return [((e.root.real, e.root.imag), e.multiplicity) for e in fd.entries]


def divisor_matching_distance(values_a, values_b):
    """Largest gap under the minimum-sum assignment of two root multisets.

    The assignment minimizes the sum of distances, so the largest gap in it
    is an upper bound on the bottleneck distance, not the distance itself.
    """
    if len(values_a) != len(values_b):
        return float("inf")
    if not values_a:
        return 0.0
    a = np.asarray(values_a, dtype=complex)
    b = np.asarray(values_b, dtype=complex)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def confocal(g1: TriPoly, g2: TriPoly, tol=1e-9):
    """Do two real dual curves have the same focal divisor?

    Decided at the level of the isotropic-restriction coefficients after
    normalizing both w^c coefficients to 1; the optimal-assignment distance
    between the two focal divisors is reported alongside.
    """
    if g1.degree != g2.degree:
        raise ValueError("confocality comparison needs curves of equal degree")
    normalized = []
    for g in (g1, g2):
        top = g.coefficient((0, 0, g.degree))
        if not top or abs(to_complex(top)) < 1e-14 * max(1.0, g.max_abs()):
            raise NormalizationFailure("w^degree coefficient vanishes")
        normalized.append(g * (1 / top))
    r1 = np.asarray(normalized[0].restrict_isotropic("+").complex_coeffs())
    r2 = np.asarray(normalized[1].restrict_isotropic("+").complex_coeffs())
    coeff_distance = float(np.abs(r1 - r2).max())

    fd1, _ = focal_divisor(normalized[0], tol=tol)
    fd2, _ = focal_divisor(normalized[1], tol=tol)
    if fd1.degree_drop == fd2.degree_drop:
        divisor_distance = divisor_matching_distance(fd1.values(), fd2.values())
    else:
        divisor_distance = float("inf")
    return ConfocalResult(coeff_distance <= tol, coeff_distance, divisor_distance)
