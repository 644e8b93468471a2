"""Equiclassical tangent spaces, the focal-map differential, and
minimal-class confocal constructions.

A first-order deformation of a dual curve of degree c, in the chart where the
w^c coefficient is 1, is a degree-c polynomial H with zero w^c coefficient
satisfying one linear condition per node (vanishing at the point) and two per
cusp (vanishing at the point, and vanishing of its derivative along the cusp
tangent tau = phi''(t0), which forces contact order three there).  At a cusp
phi'(t0) = lambda * phi(t0), so by Euler's relation the second derivative of
the pullback H(phi(t)) is grad H(p) . tau + lambda^2 c (c-1) H(p): with the
point condition, the gradient row spans the same conditions, and the rows
need the scheme alone, not the parameterization.  The differential of the
focal map sends H to the coefficients of its isotropic restriction; its
kernel consists of multiples of u^2 + v^2 whose quotients satisfy the same
conditions in degree c - 2.  The nodes and cusps come from the census record
``ratgen.SingularityData``, which serves as the equiclassical scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CensusMismatch,
    SchemeOnIsotropicConic,
    ToleranceAmbiguity,
    TooFewFoci,
)
from .poly import TriPoly, monomials_of_degree
from .ratgen import SingularityData, isotropic_margin, projective_distance
from .scalars import to_complex

_REAL_POINT_TOL = 1e-8
#: singular values above RANK_TOL times the largest one count toward a rank
RANK_TOL = 1e-8
#: the focal jacobian refuses to decide a rank when a singular value lies
#: within this factor of the threshold
_AMBIGUITY_FACTOR = 10.0


def numerical_rank(sv):
    """Singular values above RANK_TOL * sv[0]; 0 for empty or zero input."""
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def _monomial_values(point, monomials):
    p = np.asarray(point, dtype=complex)
    return np.array([p[0] ** i * p[1] ** j * p[2] ** k for (i, j, k) in monomials])


def _gradient_along(point, direction, monomials):
    """Derivative of each monomial at ``point`` in the direction ``direction``."""
    p = np.asarray(point, dtype=complex)
    exps = np.array(monomials, dtype=int).reshape(-1, 3)
    out = np.zeros(len(exps), dtype=complex)
    for axis in range(3):
        lowered = exps.copy()
        lowered[:, axis] = np.maximum(exps[:, axis] - 1, 0)
        out += exps[:, axis] * np.prod(p ** lowered, axis=1) * direction[axis]
    return out


def _conjugate_split(items, key, distance, real_tol, what):
    """Real items, and one representative of each conjugate pair.

    ``key`` gives an item's point or parameter and ``distance`` compares two
    of them; partners lie within 1e-7, and an item without one breaks
    conjugation stability.
    """
    reals, complexes = [], []
    for it in items:
        real = np.max(np.abs(np.asarray(key(it), dtype=complex).imag)) <= real_tol
        (reals if real else complexes).append(it)
    pairs = []
    used = [False] * len(complexes)
    for i, it in enumerate(complexes):
        if used[i]:
            continue
        partner = next((j for j in range(i + 1, len(complexes)) if not used[j]
                        and distance(np.conj(key(it)), key(complexes[j])) < 1e-7), None)
        if partner is None:
            raise CensusMismatch(f"{what} set is not conjugation-stable")
        used[i] = used[partner] = True
        pairs.append(it)
    return reals, pairs


@dataclass(frozen=True)
class ConditionMatrix:
    """Real linear conditions cutting the equiclassical tangent space."""

    rows: np.ndarray
    monomials: tuple
    complex_rank: int

    @property
    def n_conditions(self):
        return self.rows.shape[0]

    @property
    def n_columns(self):
        return self.rows.shape[1]

    def rank(self):
        if self.rows.size == 0:
            return 0
        return numerical_rank(np.linalg.svd(self.rows, compute_uv=False))

    def null_space(self):
        """Orthonormal basis of the solution space, as rows."""
        if self.rows.size == 0:
            return np.eye(self.n_columns)
        _, sv, vh = np.linalg.svd(self.rows, full_matrices=True)
        return vh[numerical_rank(sv):]


def condition_matrix(scheme: SingularityData, degree, chart,
                     iso_tol=1e-9) -> ConditionMatrix:
    """Linear node/cusp conditions on degree-``degree`` polynomials.

    One real row per real node, two per conjugate node pair; two per real
    cusp (point value and gradient along the cusp tangent), four per conjugate
    cusp pair.  With ``chart`` the w^degree coefficient slot is removed,
    matching the affine chart where it is pinned to 1.
    """
    margin = isotropic_margin(scheme.points())
    if margin < iso_tol:
        raise SchemeOnIsotropicConic(
            f"a scheme point lies on u^2+v^2=0 within tolerance (margin {margin:.3e})")
    monos = tuple(monomials_of_degree(degree, drop_top_w=chart))
    rows = []
    complex_rows = []

    real_nodes, pair_nodes = _conjugate_split(
        scheme.nodes, lambda n: n.point, projective_distance, _REAL_POINT_TOL, "node")
    for n in real_nodes:
        vals = _monomial_values(n.point, monos)
        rows.append(vals.real)
        complex_rows.append(vals)
    for n in pair_nodes:
        vals = _monomial_values(n.point, monos)
        rows.append(vals.real)
        rows.append(vals.imag)
        complex_rows.append(vals)
        complex_rows.append(np.conj(vals))

    real_cusps, pair_cusps = _conjugate_split(
        scheme.cusps, lambda cu: cu.param, lambda s, t: abs(s - t), 1e-7, "cusp")
    for cu in real_cusps:
        vals = _monomial_values(cu.point, monos)
        svals = _gradient_along(cu.point, cu.tangent, monos)
        rows.append(vals.real)
        rows.append(svals.real)
        complex_rows.append(vals)
        complex_rows.append(svals)
    for cu in pair_cusps:
        vals = _monomial_values(cu.point, monos)
        svals = _gradient_along(cu.point, cu.tangent, monos)
        rows.extend([vals.real, vals.imag, svals.real, svals.imag])
        complex_rows.extend([vals, svals, np.conj(vals), np.conj(svals)])

    n_cols = len(monos)
    mat = np.zeros((len(rows), n_cols))
    for i, r in enumerate(rows):
        norm = np.linalg.norm(r)
        mat[i] = r / norm if norm > 0 else r
    crank = (numerical_rank(np.linalg.svd(np.array(complex_rows), compute_uv=False))
             if complex_rows else 0)
    return ConditionMatrix(mat, monos, crank)


def equiclassical_conditions(z: SingularityData, iso_tol=1e-9) -> ConditionMatrix:
    """Tangent-space conditions at a nodal-cuspidal dual curve (chart rows)."""
    expected = z.delta + 2 * z.kappa
    cm = condition_matrix(z, z.degree, chart=True, iso_tol=iso_tol)
    if cm.n_conditions != expected:
        raise CensusMismatch(
            f"built {cm.n_conditions} condition rows, expected {expected}")
    return cm


def tangent_space_basis(cm: ConditionMatrix):
    """Tangent directions as TriPolys with zero w^degree coefficient.

    With no conditions the basis is the chart monomials themselves (so the
    coordinates match the alpha parameters of the naive expansion); otherwise
    it is an orthonormal null-space basis of the condition matrix.
    """
    null = cm.null_space()
    basis = []
    for vec in null:
        basis.append(TriPoly({m: complex(v) for m, v in zip(cm.monomials, vec)
                              if v != 0}))
    return basis


def restriction_matrix(degree, basis):
    """Real 2c x m matrix of the isotropic restriction on a tangent basis."""
    c = degree
    cols = []
    for b in basis:
        r = b.restrict_isotropic("+")
        coeffs = r.complex_coeffs()
        coeffs = coeffs + [0j] * (c + 1 - len(coeffs))
        col = np.concatenate([np.real(coeffs[:c]), np.imag(coeffs[:c])])
        cols.append(col)
    return np.column_stack(cols) if cols else np.zeros((2 * c, 0))


@dataclass(frozen=True)
class FocalJacobianReport:
    """Rank/kernel analysis of the focal-map differential at a dual curve."""

    tangent_dim: int
    singular_values: np.ndarray
    rank: int
    kernel_dim: int
    kernel_basis: tuple
    factor_residuals: tuple
    shifted_residuals: tuple
    shifted_dim: int | None
    sv_gap: float


def focal_jacobian(c, tangent_basis, *, scheme=None) -> FocalJacobianReport:
    """Differential of the focal map at a dual curve of degree ``c``, on a
    tangent basis of the chart where its w^c coefficient is 1, with kernel
    analysis.

    That chart needs the curve to miss (0 : 0 : 1), which the caller checks.
    Each kernel element is divided by u^2 + v^2 and the quotient is checked
    against the degree-(c-2) condition system when the scheme is supplied.
    Raises ToleranceAmbiguity when a singular value falls within a factor 10
    of the rank threshold.
    """
    jac = restriction_matrix(c, tangent_basis)
    m = jac.shape[1]
    if m == 0:
        raise ValueError("empty tangent basis")
    _, sv, vh = np.linalg.svd(jac)
    threshold = RANK_TOL * sv[0]
    band = [s for s in sv
            if threshold / _AMBIGUITY_FACTOR < s < threshold * _AMBIGUITY_FACTOR]
    if band:
        lo = int(np.sum(sv >= threshold * _AMBIGUITY_FACTOR))
        hi = int(np.sum(sv > threshold / _AMBIGUITY_FACTOR))
        raise ToleranceAmbiguity(
            f"singular values {band} sit within a factor {_AMBIGUITY_FACTOR} "
            f"of the threshold {threshold:.3e}",
            rank_candidates=(lo, hi), singular_values=sv)
    rank = numerical_rank(sv)
    kernel_dim = m - rank
    if rank < len(sv) and rank > 0:
        sv_gap = float(sv[rank - 1] / sv[rank]) if sv[rank] > 0 else float("inf")
    else:
        sv_gap = float("inf")

    kernel_vectors = vh[rank:]
    kernel_basis = []
    factor_residuals = []
    quotients = []
    for vec in kernel_vectors:
        k = TriPoly.zero(c)
        for coeff, b in zip(vec, tangent_basis):
            k = k + b * complex(coeff)
        quot, rem = k.divide_isotropic()
        kn = max(k.max_abs(), 1e-300)
        factor_residuals.append(rem.max_abs() / kn)
        kernel_basis.append(k)
        quotients.append(quot)

    shifted_residuals = []
    shifted_dim = None
    if scheme is not None:
        cm_shift = condition_matrix(scheme, c - 2, chart=False)
        shifted_dim = cm_shift.n_columns - cm_shift.rank()
        for q in quotients:
            vec = np.array([to_complex(x) for x in
                            q.coefficient_vector(cm_shift.monomials)])
            norm = np.linalg.norm(vec)
            if norm == 0 or cm_shift.rows.size == 0:
                shifted_residuals.append(0.0)
                continue
            resid = np.abs(cm_shift.rows @ vec.real / norm) + \
                np.abs(cm_shift.rows @ vec.imag / norm)
            shifted_residuals.append(float(np.max(resid)))

    return FocalJacobianReport(
        tangent_dim=m,
        singular_values=sv,
        rank=rank,
        kernel_dim=kernel_dim,
        kernel_basis=tuple(kernel_basis),
        factor_residuals=tuple(factor_residuals),
        shifted_residuals=tuple(shifted_residuals),
        shifted_dim=shifted_dim,
        sv_gap=sv_gap,
    )


def shifted_section_dim(z: SingularityData) -> int:
    """Dimension of degree-(c-2) forms through the equiclassical scheme.

    Must agree with the focal-jacobian kernel dimension; the agreement is the
    numerical content of the kernel identification.
    """
    cm = condition_matrix(z, z.degree - 2, chart=False)
    return cm.n_columns - cm.rank()


def construct_min_class(foci, q: TriPoly | None = None) -> TriPoly:
    """Real curve of minimal class with prescribed real foci.

    The product of the dual lines of the foci already has the right focal
    divisor; adding (u^2 + v^2) * q for any real q of degree c - 2 leaves the
    isotropic restriction unchanged, which is exactly the confocal family.
    """
    c = len(foci)
    if c < 2:
        raise TooFewFoci("need at least two prescribed foci")
    pts = [(x, y) for x, y in foci]
    for i in range(c):
        for j in range(i + 1, c):
            if abs(complex(pts[i][0] - pts[j][0], 0)) < 1e-12 and \
               abs(complex(pts[i][1] - pts[j][1], 0)) < 1e-12:
                raise ValueError("prescribed foci must be distinct")
    g = TriPoly({(0, 0, 0): 1})
    for x, y in pts:
        g = g * TriPoly.linear_form(x, y, 1)
    if q is not None and not q.is_zero():
        if q.degree != c - 2 or not q.is_homogeneous:
            raise ValueError(f"q must be homogeneous of degree {c - 2}")
        if not q.is_real(1e-10):
            raise ValueError("q must be real")
        g = g + TriPoly.isotropic_conic() * q
    return g


@dataclass(frozen=True)
class ConfocalFamily:
    """Affine family base + (u^2+v^2) * (degree c-2 monomials)."""

    base: TriPoly
    basis: tuple
    dimension: int

    @classmethod
    def with_prescribed_foci(cls, foci, q: TriPoly | None = None):
        base = construct_min_class(foci, q)
        c = len(foci)
        iso = TriPoly.isotropic_conic()
        basis = tuple(iso * TriPoly.monomial(m)
                      for m in monomials_of_degree(c - 2))
        family = cls(base, basis, c * (c - 1) // 2)
        assert len(basis) == family.dimension
        return family
