"""Companion-matrix root finding, multiplicity clustering, and focal pairing."""

from fractions import Fraction as F

import numpy as np
import pytest

from focalcurves.errors import NonConvergence, ZeroPolynomial
from focalcurves.poly import TriPoly, UniPoly, monomials_of_degree
from focalcurves.rootfind import find_roots, match_focal_pairs


def sorted_values(rs):
    return sorted(rs.values(), key=lambda z: (z.real, z.imag))


def matching_distance(a, b):
    a = sorted(a, key=lambda z: (z.real, z.imag))
    b = sorted(b, key=lambda z: (z.real, z.imag))
    return max(abs(x - y) for x, y in zip(a, b))


def test_quadratic():
    rs = find_roots(UniPoly([F(3), F(0), F(-1)]))
    assert matching_distance(rs.values(), [-np.sqrt(3), np.sqrt(3)]) < 1e-12


def test_double_root_at_origin():
    rs = find_roots(UniPoly([F(0), F(0), F(-1)]))
    assert rs.roots == ((pytest.approx(0, abs=1e-8), 2),) or \
        (len(rs.roots) == 1 and rs.roots[0][1] == 2 and abs(rs.roots[0][0]) < 1e-8)


@pytest.mark.parametrize("root", [1, 1j])
def test_double_root_centre_is_polished(root):
    rs = find_roots(UniPoly.from_roots([root, root]))
    ((centre, mult),) = rs.roots
    assert mult == 2 and abs(centre - root) < 1e-14


def test_planted_degree_eight():
    rng = np.random.default_rng(7)
    roots = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
    p = UniPoly.from_roots(list(roots))
    rs = find_roots(p)
    assert rs.total_multiplicity == 8
    assert matching_distance(rs.values(), list(roots)) < 1e-9


def test_reconstruction_error():
    rng = np.random.default_rng(8)
    for _ in range(10):
        coeffs = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
        rs = find_roots(UniPoly(list(coeffs)))
        assert rs.reconstruction_error < 1e-8


def test_conjugation_equivariance():
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = UniPoly(list(rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)))
        a = find_roots(p)
        b = find_roots(p.conjugate())
        conj = [z.conjugate() for z in b.values()]
        assert matching_distance(a.values(), conj) < 1e-9


def test_degree_drop_counted():
    rs = find_roots(UniPoly([F(2), F(-2), F(0), F(0)]))
    assert rs.degree_drop == 2
    assert rs.total_multiplicity == 1


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        find_roots(UniPoly([F(0), F(0)]))


def test_eigenvalue_failure_is_nonconvergence(monkeypatch):
    def no_convergence(coeffs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np, "roots", no_convergence)
    with pytest.raises(NonConvergence):
        find_roots(UniPoly([F(3), F(0), F(-1)]))


def test_high_multiplicity_clusters():
    rs = find_roots(UniPoly.from_roots([0.5 + 0.5j] * 3 + [-0.25]))
    mults = sorted(m for _, m in rs.roots)
    assert mults == [1, 3]


def test_simple_roots_never_merged():
    p = UniPoly.from_roots(list(np.linspace(-1, 1, 12)))
    rs = find_roots(p)
    assert all(m == 1 for _, m in rs.roots)
    assert rs.total_multiplicity == 12


class TestMatchFocalPairs:
    def test_ellipse_grid(self):
        plus = find_roots(UniPoly([-1.0, 0.0, 1.0]))  # roots +-1
        foci = match_focal_pairs(plus, plus)
        real = [f for f in foci if f.is_real]
        imag = [f for f in foci if not f.is_real]
        assert len(foci) == 4 and len(real) == 2 and len(imag) == 2
        xs = sorted(f.x.real for f in real)
        assert xs == pytest.approx([-1.0, 1.0])
        ys = sorted(f.y.imag for f in imag)
        assert ys == pytest.approx([-1.0, 1.0])

    def test_single_conjugate_pair(self):
        z = 0.4 + 0.7j
        plus = find_roots(UniPoly([-z, 1.0]))
        minus = find_roots(UniPoly([-z.conjugate(), 1.0]))
        (focus,) = match_focal_pairs(plus, minus)
        assert focus.is_real
        assert focus.x == pytest.approx(0.4) and focus.y == pytest.approx(0.7)

    def test_real_focus_count_generic(self):
        # a real curve of class c has c real foci among the c^2 pairings
        rng = np.random.default_rng(12)
        for c in (2, 3, 4):
            for _ in range(5):
                g = TriPoly({m: rng.uniform(-1, 1)
                             for m in monomials_of_degree(c)})
                if abs(complex(g.coefficient((0, 0, c)))) < 0.05:
                    continue
                plus = find_roots(g.restrict_isotropic("+"))
                minus = find_roots(g.restrict_isotropic("-"))
                if any(m > 1 for _, m in plus.roots):
                    continue
                foci = match_focal_pairs(plus, minus)
                assert len(foci) == c * c
                assert sum(1 for f in foci if f.is_real) == c
