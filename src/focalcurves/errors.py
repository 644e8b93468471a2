"""Exception and warning types shared across the package."""


class FocalCurvesError(Exception):
    """Base class for all library errors."""


class ZeroPolynomial(FocalCurvesError):
    """An operation received an identically zero polynomial."""


class DegreeTooLow(FocalCurvesError):
    """The input degree is below the minimum the operation supports."""


class NotDivisible(FocalCurvesError):
    """An exact polynomial division left a nonzero remainder.

    Divisions performed by fraction-free elimination and divided differences
    are exact by construction, so this signals an arithmetic bug rather than
    bad user input.
    """


class NonConvergence(FocalCurvesError):
    """The root finder's eigenvalue solve did not converge."""


class DegenerateFocalPolynomial(FocalCurvesError):
    """The isotropic restriction is identically zero (curve contains the isotropic line)."""


class NormalizationFailure(FocalCurvesError):
    """A required normalizing coefficient vanishes."""


class DegenerateCurve(FocalCurvesError):
    """The input does not define a genuine curve for this operation (e.g. a line)."""


class SingularInputRejected(FocalCurvesError):
    """A smooth curve was required but the smoothness probe failed."""


class SchemeOnIsotropicConic(FocalCurvesError):
    """A singular-scheme point lies on u^2 + v^2 = 0, violating the kernel hypothesis."""


class ToleranceAmbiguity(FocalCurvesError):
    """A singular value sits too close to the rank threshold to decide the rank."""

    def __init__(self, message, rank_candidates=(), singular_values=None):
        super().__init__(message)
        self.rank_candidates = tuple(rank_candidates)
        self.singular_values = singular_values


class CensusMismatch(FocalCurvesError):
    """The located singularities do not match the expected node/cusp counts."""


class ClusterAmbiguity(FocalCurvesError):
    """Two singularities (or roots) are too close to separate at the working tolerance."""


class GenerationExhausted(FocalCurvesError):
    """Random curve generation hit the rejection cap; reseed or relax the request."""


class TooFewFoci(FocalCurvesError):
    """The minimal-class construction needs at least two foci."""


class Inadmissible(FocalCurvesError):
    """The requested invariants are inconsistent (negative class, genus, or counts)."""


class NonBirationalWarning(UserWarning):
    """Implicitization detected a parameterization that is likely a multiple cover."""


class EliminationGrowthWarning(UserWarning):
    """Floating-point elimination saw large entry growth; results may be inaccurate."""
