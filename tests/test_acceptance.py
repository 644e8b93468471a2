"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is desk-scale (well under five minutes).
"""

from fractions import Fraction as F

import numpy as np
import pytest

from focalcurves import plucker
from focalcurves.dualize import RationalCurveParam, dual_param, implicitize
from focalcurves.equiclassical import (
    ConditionMatrix,
    ConfocalFamily,
    restriction_matrix,
    tangent_space_basis,
)
from focalcurves.errors import DegenerateCurve
from focalcurves.experiment import run_rank_experiment
from focalcurves.focal import divisor_matching_distance, focal_divisor
from focalcurves.poly import TriPoly, UniPoly, monomials_of_degree
from focalcurves.ratgen import generate_curve_with_census
from focalcurves.rootfind import find_roots

RANK_GRID = [(2, 0), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2), (5, 0)]
GRID_SEED = 20240809
TRIALS = 25


def report(criterion, ok, detail):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def rank_grid():
    return {key: run_rank_experiment(key[0], key[1], TRIALS, GRID_SEED)
            for key in RANK_GRID}


def chart_system(degree, foci):
    """Focal linear system A alpha = b on the chart monomials."""
    monos = tuple(monomials_of_degree(degree, drop_top_w=True))
    cm = ConditionMatrix(np.zeros((0, len(monos))), monos, 0)
    basis = tangent_space_basis(cm)
    a = restriction_matrix(degree, basis)
    target = UniPoly.from_roots([complex(x, y) for x, y in foci])
    coeffs = target.complex_coeffs()[:degree]
    b = np.concatenate([np.real(coeffs), np.imag(coeffs)])
    return a, b, monos


def test_criterion_1_classical_foci():
    ellipse = TriPoly({(2, 0, 0): 2, (0, 2, 0): 1, (0, 0, 2): -1})
    fd, _ = focal_divisor(ellipse)
    foci = sorted(e.root.real for e in fd.entries)
    ok = (np.allclose(foci, [-1.0, 1.0], atol=1e-10)
          and max(abs(e.root.imag) for e in fd.entries) < 1e-10)
    circle = TriPoly({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
    fdc, _ = focal_divisor(circle)
    ok = ok and len(fdc.entries) == 1 and fdc.entries[0].multiplicity == 2 \
        and abs(fdc.entries[0].root) < 1e-10
    report(1, ok, "ellipse foci (+-1, 0) and circle double focus at the origin")


def test_criterion_2_conic_confocal_dimension():
    x1, y1, x2, y2 = 1.0, 0.0, -1.0, 0.0
    a, b, _ = chart_system(2, [(x1, y1), (x2, y2)])
    sv = np.linalg.svd(a, compute_uv=False)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    alpha, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = np.linalg.norm(a @ alpha - b)
    # determined values: alpha1 = y1+y2, alpha2 = x1+x2, alpha4 = x1 y2 + x2 y1,
    # alpha3 = alpha5 - x1 x2 + y1 y2
    checks = [
        abs(alpha[0] - (y1 + y2)) < 1e-10,
        abs(alpha[1] - (x1 + x2)) < 1e-10,
        abs(alpha[3] - (x1 * y2 + x2 * y1)) < 1e-10,
        abs((alpha[2] - alpha[4]) - (y1 * y2 - x1 * x2)) < 1e-10,
        residual < 1e-10,
    ]
    # the determined functionals must vanish on the kernel
    _, svf, vh = np.linalg.svd(a)
    kernel = vh[rank:]
    for functional in (np.eye(5)[0], np.eye(5)[1], np.eye(5)[3],
                       np.eye(5)[2] - np.eye(5)[4]):
        checks.append(max(abs(kernel @ functional)) < 1e-10)
    ok = rank == 4 and all(checks)
    report(2, ok, f"4x5 focal system has rank {rank} and the relations of the "
                  "two-focus conic family hold to 1e-10")


def test_criterion_3_class_three_example():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(5):
        foci = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        zs = [complex(x, y) for x, y in foci]
        e1 = sum(zs)
        e2 = zs[0] * zs[1] + zs[0] * zs[2] + zs[1] * zs[2]
        e3 = zs[0] * zs[1] * zs[2]
        a, b, _ = chart_system(3, foci)
        sv = np.linalg.svd(a, compute_uv=False)
        rank = int(np.sum(sv > 1e-9 * sv[0]))
        alpha, *_ = np.linalg.lstsq(a, b, rcond=None)
        vals = {
            "alpha1=sum y": (alpha[0], e1.imag),
            "alpha2=sum x": (alpha[1], e1.real),
            "alpha4": (alpha[3], e2.imag),
            "alpha3-alpha5": (alpha[2] - alpha[4], -e2.real),
            "alpha6-alpha8": (alpha[5] - alpha[7], -e3.imag),
            "alpha7-alpha9": (alpha[6] - alpha[8], -e3.real),
        }
        ok = ok and rank == 6 and (9 - rank) == 3
        ok = ok and all(abs(got - want) < 1e-9 for got, want in vals.values())
        _, _, vh = np.linalg.svd(a)
        kernel = vh[rank:]
        eye = np.eye(9)
        for functional in (eye[0], eye[1], eye[3], eye[2] - eye[4],
                           eye[5] - eye[7], eye[6] - eye[8]):
            ok = ok and max(abs(kernel @ functional)) < 1e-9
    report(3, ok, "class-3 system has rank 6, kernel 3, and the determined "
                  "combinations match the symmetric functions to 1e-9")


def test_criterion_4_rank_theorem_monte_carlo(rank_grid):
    ok = True
    details = []
    for (c, kappa), rep in rank_grid.items():
        d = 2 * (c - 1) - kappa
        ok = ok and rep.violations == 0
        ok = ok and rep.clean >= int(np.ceil(0.95 * TRIALS))
        for r in rep.records:
            if r.status != "clean":
                continue
            ok = ok and r.rank == min(2 * c, c + d + 1)
            ok = ok and r.kernel_dim == max(0, d - c + 1)
            ok = ok and (r.sv_gap is None or r.sv_gap >= 1e3)
        details.append(f"({c},{kappa}):{rep.clean}/{TRIALS}")
    report(4, ok, "rank = min(2c, c+d+1), kernel = max(0, d-c+1) on clean "
                  f"trials with sv-gap >= 1e3; clean counts {' '.join(details)}")


def test_criterion_5_kernel_structure(rank_grid):
    ok = True
    worst_factor = worst_shifted = 0.0
    for rep in rank_grid.values():
        for r in rep.records:
            if r.status != "clean":
                continue
            worst_factor = max(worst_factor, r.max_factor_residual or 0.0)
            worst_shifted = max(worst_shifted, r.max_shifted_residual or 0.0)
            ok = ok and (r.max_factor_residual or 0.0) < 1e-8
            ok = ok and (r.max_shifted_residual or 0.0) < 1e-8
            ok = ok and r.shifted_dim == r.kernel_dim
    report(5, ok, "kernel elements factor through u^2+v^2 "
                  f"(worst residual {worst_factor:.1e}) with quotients in the "
                  f"degree-(c-2) system (worst {worst_shifted:.1e}); kernel dim "
                  "= shifted section dim on all trials")


def test_criterion_6_minimal_class_construction():
    rng = np.random.default_rng(606)
    ok = True
    worst = 0.0
    for c in range(2, 7):
        for _ in range(20):
            foci = []
            while len(foci) < c:
                cand = (rng.uniform(-1, 1), rng.uniform(-1, 1))
                if all(abs(cand[0] - f[0]) + abs(cand[1] - f[1]) > 0.1 for f in foci):
                    foci.append(cand)
            q = TriPoly({m: rng.uniform(-1, 1) for m in monomials_of_degree(c - 2)})
            fam = ConfocalFamily.with_prescribed_foci(foci, q)
            ok = ok and fam.dimension == c * (c - 1) // 2
            fd, _ = focal_divisor(fam.base)
            dist = divisor_matching_distance(
                fd.values(), [complex(x, y) for x, y in foci])
            worst = max(worst, dist)
            ok = ok and dist < 1e-8
    report(6, ok, f"round-trip focal extraction over c=2..6 (worst matching "
                  f"distance {worst:.1e}); family dimension = c(c-1)/2")


def test_criterion_7_siebeck_linfield():
    rng = np.random.default_rng(707)
    ok = True
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        roots = []
        while len(roots) < n:
            cand = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if all(abs(cand - r) > 0.15 for r in roots):
                roots.append(cand)
        h = TriPoly({(0, 0, 0): 1})
        for z in roots:
            h = h * TriPoly.linear_form(z.real, z.imag, 1.0)
        polar = h.diff(2)
        fd, _ = focal_divisor(polar.as_real_float())
        fprime = find_roots(UniPoly.from_roots(roots).derivative())
        dist = divisor_matching_distance(fd.values(), fprime.values())
        worst = max(worst, dist)
        ok = ok and dist < 1e-9
    # equilateral triangle: double focus at the centroid
    eq = [complex(np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3))
          for k in range(3)]
    heq = TriPoly({(0, 0, 0): 1})
    for z in eq:
        heq = heq * TriPoly.linear_form(z.real, z.imag, 1.0)
    fd_eq, _ = focal_divisor(heq.diff(2).as_real_float())
    ok = ok and len(fd_eq.entries) == 1 and fd_eq.entries[0].multiplicity == 2 \
        and abs(fd_eq.entries[0].root) < 1e-9
    report(7, ok, f"polar foci = roots of f' for 50 random f of degree <= 8 "
                  f"(worst distance {worst:.1e}); equilateral case gives the "
                  "double focus at the centroid")


def test_criterion_8_plucker_tables():
    ok = (plucker.class_of(6, 0, 9) == 3 and plucker.genus_of(6, 0, 9) == 1
          and plucker.expected_confocal_dim(6, 1, 3) == 3
          and plucker.expected_confocal_dim(4, 0, 3) == 2
          and plucker.expected_confocal_dim(3, 0, 3) == 1
          and [plucker.maximal_class_rational_dim(d) for d in (2, 3, 4)] == [1, 0, -1])
    report(8, ok, "class_of(6,0,9)=3 with g=1; confocal dims (3,2,1); "
                  "maximal-class rational dims (1,0,-1)")


def test_criterion_9_biduality_and_class_law():
    rng = np.random.default_rng(909)

    def proportional(g, h):
        if set(g.terms) != set(h.terms):
            return False
        e = next(iter(g.terms))
        ratio = h.terms[e] / g.terms[e]
        return all(h.terms[k] == g.terms[k] * ratio for k in g.terms)

    ok = True
    conics = 0
    while conics < 10:
        comps = [UniPoly([F(int(rng.integers(-9, 10)), 8) for _ in range(3)])
                 for _ in range(3)]
        p = RationalCurveParam(*comps)
        try:
            p.validate()
            g = implicitize(p)
        except DegenerateCurve:
            continue
        if g.degree != 2:
            continue
        ok = ok and proportional(implicitize(dual_param(dual_param(p))), g)
        conics += 1
    for seed in range(10):
        param, census = generate_curve_with_census(3, 0, seed=3000 + seed)
        ok = ok and proportional(
            implicitize(dual_param(dual_param(param))), implicitize(param))
        ok = ok and dual_param(param).degree == 2 * (3 - 1) - census.kappa
    for (c, kappa, seed) in [(4, 1, 40), (4, 2, 41), (5, 0, 42)]:
        param, census = generate_curve_with_census(c, kappa, seed)
        ok = ok and dual_param(param).degree == 2 * (c - 1) - kappa
    report(9, ok, "dual-of-dual implicitization is a scalar multiple of the "
                  "original on 10 conics and 10 nodal cubics; reduced dual "
                  "degree = 2(c-1) - kappa on generated curves")
