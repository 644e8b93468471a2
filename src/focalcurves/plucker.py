"""Closed-form invariant and dimension calculators.

Everything here is integer arithmetic on the classical relations between
degree, class, genus, and node/cusp counts of a plane curve, plus the
expected-dimension bookkeeping for confocal loci.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Inadmissible


@dataclass(frozen=True)
class PluckerInvariants:
    d: int
    g: int
    c: int
    delta: int
    kappa: int

    def __post_init__(self):
        if min(self.d, self.g, self.c, self.delta, self.kappa) < 0:
            raise Inadmissible("all invariants must be non-negative")
        if self.c != self.d * (self.d - 1) - 2 * self.delta - 3 * self.kappa:
            raise Inadmissible("class does not match degree and singularity counts")
        if self.g != (self.d - 1) * (self.d - 2) // 2 - self.delta - self.kappa:
            raise Inadmissible("genus does not match degree and singularity counts")


def class_of(d: int, delta: int, kappa: int) -> int:
    """Class c = d(d-1) - 2*delta - 3*kappa of a nodal-cuspidal curve."""
    c = d * (d - 1) - 2 * delta - 3 * kappa
    if c < 0:
        raise Inadmissible(f"negative class for (d, delta, kappa) = {(d, delta, kappa)}")
    return c


def genus_of(d: int, delta: int, kappa: int) -> int:
    """Geometric genus g = (d-1)(d-2)/2 - delta - kappa."""
    g = (d - 1) * (d - 2) // 2 - delta - kappa
    if g < 0:
        raise Inadmissible(f"negative genus for (d, delta, kappa) = {(d, delta, kappa)}")
    return g


def invariants(d: int, delta: int, kappa: int) -> PluckerInvariants:
    return PluckerInvariants(d, genus_of(d, delta, kappa), class_of(d, delta, kappa),
                             delta, kappa)


def expected_confocal_dim(d: int, g: int, c: int) -> int:
    """Expected dimension d - g - c + 1 of the confocal locus.

    Negative values are returned verbatim (read: expected empty); use
    :func:`expected_confocal_dim_clamped` for the clamped form.
    """
    return d - g - c + 1


def expected_confocal_dim_clamped(d: int, g: int, c: int) -> int:
    return max(0, expected_confocal_dim(d, g, c))


def expected_tangent_dim(d: int, g: int, c: int) -> int:
    """Expected dimension c + d - g + 1 of the equiclassical family."""
    return c + d - g + 1


def smooth_confocal_dim(d: int) -> int:
    """Expected confocal dimension -d(3d-7)/2 among smooth degree-d curves."""
    if d < 2:
        raise Inadmissible("need degree >= 2")
    return -d * (3 * d - 7) // 2


def maximal_class_rational_dim(d: int) -> int:
    """Expected dimension 3 - d of rational degree-d curves with 2(d-1) fixed foci."""
    if d < 2:
        raise Inadmissible("need degree >= 2")
    return 3 - d


def rational_confocal_dim(d: int, kappa: int) -> int:
    """Expected confocal dimension 3 - d + kappa for rational nodal-cuspidal curves.

    Positive exactly when kappa >= d - 2: each cusp buys one dimension back.
    """
    return 3 - d + kappa


def rational_node_count(c: int, kappa: int) -> int:
    """Node count forced by genus zero: (c-1)(c-2)/2 - kappa."""
    delta = (c - 1) * (c - 2) // 2 - kappa
    if delta < 0:
        raise Inadmissible(f"kappa={kappa} exceeds the genus budget for degree {c}")
    return delta


def focal_rank_law(c: int, d: int) -> tuple:
    """Rank min(2c, c+d+1) and kernel dimension max(0, d-c+1) of the focal
    map at a rational nodal-cuspidal dual curve of degree c and class d."""
    return min(2 * c, c + d + 1), max(0, d - c + 1)


@dataclass(frozen=True)
class RiemannRochAlternative:
    expected_h0: int
    which_vanishing: str  # "H0" or "H1"
    automatic: bool


def riemann_roch_alternative(b: int, g: int) -> RiemannRochAlternative:
    """Brill-Noether style alternative for a degree-b line bundle on genus g.

    expected_h0 = max(0, b - g + 1); the side that must vanish is H0 when
    b <= g - 1 and H1 otherwise.  Vanishing is automatic for b < 0 (no
    sections of negative degree) and for b >= 2g - 1 (Serre duality kills H1).
    """
    expected_h0 = max(0, b - g + 1)
    side = "H0" if b <= g - 1 else "H1"
    automatic = (b < 0) or (b >= 2 * g - 1)
    return RiemannRochAlternative(expected_h0, side, automatic)
