"""Monte Carlo harness for the focal-map rank law on random rational dual curves.

Each trial draws a rational nodal-cuspidal curve of degree c with kappa cusps,
builds its equiclassical tangent space, and checks that the focal differential
has rank min(2c, c+d+1) and kernel max(0, d-c+1) with d = 2(c-1) - kappa, that
every kernel element factors through u^2 + v^2, and that the kernel dimension
equals the dimension of degree-(c-2) forms through the singular scheme.

Trials whose draw violates the genericity hypotheses (census failures,
conjugation instability, rank-threshold ambiguity, unexpected tangent
dimension) are reported as degenerate, and trials where the root finder does
not converge as errors; neither counts as a violation.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import asdict, dataclass

import numpy as np

from .equiclassical import equiclassical_conditions, focal_jacobian, tangent_space_basis
from .errors import (
    CensusMismatch,
    ClusterAmbiguity,
    FocalCurvesError,
    GenerationExhausted,
    NonConvergence,
    SchemeOnIsotropicConic,
    ToleranceAmbiguity,
)
from .plucker import focal_rank_law
from .ratgen import generate_curve_with_census

_DEGENERATE = (CensusMismatch, ClusterAmbiguity, GenerationExhausted,
               SchemeOnIsotropicConic, ToleranceAmbiguity)


@dataclass(frozen=True)
class TrialRecord:
    c: int
    kappa: int
    d: int
    seed: int
    status: str  # "clean" | "degenerate" | "error" | "fail"
    reason: str | None
    tangent_dim: int | None = None
    rank: int | None = None
    kernel_dim: int | None = None
    expected_rank: int | None = None
    expected_kernel: int | None = None
    sv_gap: float | None = None
    max_factor_residual: float | None = None
    max_shifted_residual: float | None = None
    shifted_dim: int | None = None

    def as_dict(self):
        out = asdict(self)
        if out["sv_gap"] is not None and not np.isfinite(out["sv_gap"]):
            out["sv_gap"] = "inf"
        return out


def trial_seed(base_seed: int, index: int) -> int:
    """Deterministic per-trial seed from a counter-based splittable sequence."""
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_rank_trial(c: int, kappa: int, seed: int, tol: float = 1e-9) -> TrialRecord:
    d = 2 * (c - 1) - kappa
    expected_rank, expected_kernel = focal_rank_law(c, d)
    try:
        _, scheme = generate_curve_with_census(c, kappa, seed, tol=tol)
        cm = equiclassical_conditions(scheme, iso_tol=tol)
        if cm.rank() != cm.complex_rank:
            return TrialRecord(c, kappa, d, seed, "degenerate",
                               "real and complexified condition ranks differ")
        basis = tangent_space_basis(cm)
        if len(basis) != c + d + 1:
            return TrialRecord(
                c, kappa, d, seed, "degenerate",
                f"tangent dimension {len(basis)} != expected {c + d + 1}")
        report = focal_jacobian(c, basis, scheme=scheme)
    except _DEGENERATE as exc:
        return TrialRecord(c, kappa, d, seed, "degenerate",
                           f"{type(exc).__name__}: {exc}")
    except NonConvergence as exc:
        return TrialRecord(c, kappa, d, seed, "error", f"NonConvergence: {exc}")
    except FocalCurvesError as exc:
        return TrialRecord(c, kappa, d, seed, "fail",
                           f"{type(exc).__name__}: {exc}")

    ok = (report.rank == expected_rank and report.kernel_dim == expected_kernel)
    max_factor = max(report.factor_residuals, default=0.0)
    max_shifted = max(report.shifted_residuals, default=0.0)
    if ok and report.shifted_dim is not None and report.shifted_dim != report.kernel_dim:
        ok = False
    if ok and (max_factor > 1e-8 or max_shifted > 1e-8):
        ok = False
    return TrialRecord(
        c, kappa, d, seed,
        "clean" if ok else "fail",
        None if ok else "rank/kernel/factorization mismatch",
        tangent_dim=report.tangent_dim,
        rank=report.rank,
        kernel_dim=report.kernel_dim,
        expected_rank=expected_rank,
        expected_kernel=expected_kernel,
        sv_gap=report.sv_gap,
        max_factor_residual=max_factor,
        max_shifted_residual=max_shifted,
        shifted_dim=report.shifted_dim,
    )


def _trial_worker(args):
    c, kappa, seed, tol = args
    return run_rank_trial(c, kappa, seed, tol)


@dataclass(frozen=True)
class ExperimentReport:
    c: int
    kappa: int
    d: int
    base_seed: int
    records: tuple

    @property
    def clean(self):
        return sum(1 for r in self.records if r.status == "clean")

    @property
    def degenerate(self):
        return sum(1 for r in self.records if r.status == "degenerate")

    @property
    def errors(self):
        return sum(1 for r in self.records if r.status == "error")

    @property
    def violations(self):
        return sum(1 for r in self.records if r.status == "fail")

    @property
    def clean_fraction(self):
        return self.clean / len(self.records) if self.records else 0.0

    def as_dict(self):
        return {
            "c": self.c,
            "kappa": self.kappa,
            "d": self.d,
            "seed": self.base_seed,
            "trials": [r.as_dict() for r in self.records],
            "summary": {
                "clean": self.clean,
                "degenerate": self.degenerate,
                "errors": self.errors,
                "violations": self.violations,
                "clean_fraction": self.clean_fraction,
            },
        }


def run_rank_experiment(c: int, kappa: int, trials: int, seed: int,
                        tol: float = 1e-9, jobs: int = 1) -> ExperimentReport:
    """Run ``trials`` independent rank-law trials; deterministic given the seed."""
    args = [(c, kappa, trial_seed(seed, i), tol) for i in range(trials)]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_trial_worker, args))
    else:
        records = [_trial_worker(a) for a in args]
    d = 2 * (c - 1) - kappa
    return ExperimentReport(c, kappa, d, seed, tuple(records))
