"""Complex root finding with multiplicity clustering.

Simultaneous Aberth-Ehrlich iteration from perturbed-circle starting points,
followed by a Newton polish and single-linkage clustering of near-coincident
roots into multiplicity groups.  Chosen over companion-matrix eigenvalues to
keep the focal pipeline free of an eigensolver dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, ZeroPolynomial
from .poly import UniPoly

_MAX_ITER = 200
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicities plus solve diagnostics.

    ``degree_drop`` counts stripped (near-)zero leading coefficients, which
    downstream focal code reports as foci lost to infinity.
    """

    roots: tuple
    residual: float
    degree_drop: int
    reconstruction_error: float = 0.0

    @property
    def total_multiplicity(self):
        return sum(m for _, m in self.roots)

    def values(self):
        """Roots expanded with multiplicity, canonically ordered."""
        out = []
        for r, m in self.roots:
            out.extend([r] * m)
        return out


def _aberth(coeffs_asc, tol):
    """All roots of a monic-normalizable complex polynomial, unclustered."""
    n = len(coeffs_asc) - 1
    lead = coeffs_asc[-1]
    monic = np.asarray(coeffs_asc, dtype=complex) / lead
    desc = monic[::-1]
    ddesc = np.polyder(desc)

    radius = 1.0 + max(abs(monic[:-1]).max(initial=0.0), 0.0)
    k = np.arange(n)
    angles = 2.0 * np.pi * k / n + 0.3731
    x = radius * (1.0 + 0.04 * k / max(n, 1)) * np.exp(1j * angles)

    bound_coeffs = np.abs(desc)
    converged = False
    for _ in range(_MAX_ITER):
        p = np.polyval(desc, x)
        dp = np.polyval(ddesc, x)
        dp = np.where(dp == 0, _EPS, dp)
        w = p / dp
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        s = inv.sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, _EPS, denom)
        corr = w / denom
        x = x - corr
        small_step = np.abs(corr) <= tol * (1.0 + np.abs(x))
        # backward-error acceptance handles multiple roots, where steps stall
        backward = np.abs(p) <= 64.0 * _EPS * np.polyval(bound_coeffs, np.abs(x))
        if np.all(small_step | backward):
            converged = True
            break
    return x, converged


def _newton_polish(desc, ddesc, roots, steps=3):
    x = roots.copy()
    for _ in range(steps):
        p = np.polyval(desc, x)
        dp = np.polyval(ddesc, x)
        safe = np.abs(dp) > 0
        step = np.where(safe, p / np.where(safe, dp, 1.0), 0.0)
        x_new = x - step
        better = np.abs(np.polyval(desc, x_new)) <= np.abs(p)
        x = np.where(better, x_new, x)
    return x


def _merge_pass(clusters, radius, min_mult=0, gate=None):
    """Single-linkage pass over (center, mult) clusters at the given radius.

    When ``min_mult``/``gate`` are set, a merge is kept only if the merged
    multiplicity reaches ``min_mult`` and the gate accepts the merged cluster;
    this lets wider radii capture higher multiplicities without gluing
    well-separated simple roots together.
    """
    n = len(clusters)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(clusters[i][0] - clusters[j][0]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = []
    for members in groups.values():
        total = sum(clusters[i][1] for i in members)
        if len(members) > 1 and total >= min_mult:
            center = sum(clusters[i][0] * clusters[i][1] for i in members) / total
            center = complex(center)
            if gate is None or gate(center, total):
                out.append((center, total))
            else:
                out.extend(clusters[i] for i in members)
        else:
            out.extend(clusters[i] for i in members)
    return out


def _multiplicity_gate(desc):
    """Accept (z, m) only when p and its first m-1 derivatives nearly vanish at z.

    A genuine m-fold root perturbed at machine precision scatters by
    eps^(1/m), leaving |p^(k)(z)| of order eps^((m-k)/m) relative to a
    coefficient bound; anything bigger means the cluster is a mirage of
    separated simple roots.  The bound is taken at max(|z|, 1), so it does
    not shrink below the coefficient scale for clusters near 0.
    """
    derivs = [np.asarray(desc)]
    mags = [np.abs(desc)]

    def gate(z, m):
        while len(derivs) < m:
            derivs.append(np.polyder(derivs[-1]))
            mags.append(np.abs(derivs[-1]))
        az = max(abs(z), 1.0)
        for k in range(m):
            bound = float(np.polyval(mags[k], az))
            tau = 256.0 * _EPS ** ((m - k) / m)
            if abs(np.polyval(derivs[k], z)) > tau * max(bound, 1e-300):
                return False
        return True

    return gate


def _cluster(roots, tol, scale, desc):
    """Group near-coincident roots into multiplicity clusters.

    A fixed base radius merges the sqrt(eps)-wide clusters that double roots
    produce; wider radii of order eps^(1/m) then pick up higher
    multiplicities, gated on the derivative test above.
    """
    base = max(tol, 1e-6 * scale)
    clusters = _merge_pass([(complex(r), 1) for r in roots], base)
    gate = _multiplicity_gate(desc)
    for m in range(3, len(roots) + 1):
        radius = 16.0 * scale * _EPS ** (1.0 / m)
        if radius <= base:
            continue
        clusters = _merge_pass(clusters, radius, min_mult=m, gate=gate)
    clusters.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return clusters


def find_roots(p: UniPoly, tol=1e-10):
    """All complex roots of ``p`` with multiplicities.

    Leading (near-)zero coefficients are stripped first and surfaced as
    ``degree_drop``.  Roots closer than max(tol, 1e-6 * scale) are merged into
    a multiplicity group, which catches the clusters that double roots produce
    at machine precision.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot solve the zero polynomial")
    coeffs = np.asarray(p.complex_coeffs(), dtype=complex)
    scale = np.abs(coeffs).max()
    if p.is_exact:
        eff = p.effective_degree()
    else:
        eff = p.effective_degree(rel_tol=1e-13)
        if eff < 0:
            raise ZeroPolynomial("all coefficients are numerically zero")
    drop = p.formal_degree - eff
    coeffs = coeffs[:eff + 1]
    if eff == 0:
        return RootSet((), 0.0, drop, 0.0)

    raw, converged = _aberth(list(coeffs), tol)
    desc = (coeffs / coeffs[-1])[::-1]
    ddesc = np.polyder(desc)
    raw = _newton_polish(desc, ddesc, raw)

    root_scale = max(1.0, float(np.abs(raw).max()))
    clustered = _cluster(list(raw), tol, root_scale, desc)

    simple = [r for r, m in clustered if m == 1]
    residual = float(max((abs(np.polyval(desc, r)) for r in simple), default=0.0))

    recon = np.poly(np.concatenate([[r] * m for r, m in clustered]))[::-1] * coeffs[-1]
    recon_err = float(np.abs(recon - coeffs).max() / max(scale, _EPS))

    result = RootSet(tuple(clustered), residual, drop, recon_err)
    if not converged:
        raise NonConvergence(
            f"Aberth iteration did not converge in {_MAX_ITER} steps", partial=result)
    return result


@dataclass(frozen=True)
class Focus:
    """Intersection of one isotropic tangent from each circular point."""

    x: complex
    y: complex
    is_real: bool


def match_focal_pairs(plus: RootSet, minus: RootSet, tol=1e-9):
    """All pairings of tangents from the two circular points as foci.

    Every root r+ of the one restriction is crossed with every root r- of the
    other, giving x = (r+ + r-)/2, y = -i (r+ - r-)/2; the pair is flagged real
    when r- is the complex conjugate of r+ within tolerance.  Multiplicities
    are expanded, so a real input of class c yields c real flags among c^2
    candidates generically.
    """
    if not plus.roots or not minus.roots:
        raise ZeroPolynomial("both root sets must be nonempty")
    out = []
    for rp in plus.values():
        for rm in minus.values():
            x = (rp + rm) / 2.0
            y = -0.5j * (rp - rm)
            real = abs(rm - rp.conjugate()) <= tol * (1.0 + abs(rp))
            out.append(Focus(x, y, real))
    return out
