"""Polynomial core: arithmetic, isotropic restriction, divided differences."""

from fractions import Fraction as F

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval2d

from focalcurves.errors import NotDivisible
from focalcurves.poly import (
    TriPoly,
    UniPoly,
    divided_difference_pair,
    monomials_of_degree,
    unipoly_gcd,
)
from focalcurves.scalars import QQi


def random_exact_tripoly(rng, degree):
    return TriPoly({m: F(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                    for m in monomials_of_degree(degree)})


class TestTriPoly:
    def test_constructor_validates_declared_degree(self):
        with pytest.raises(ValueError):
            TriPoly({(1, 0, 0): 1, (0, 0, 2): 1}, degree=2)
        g = TriPoly({(2, 0, 0): 1, (0, 1, 1): -3}, degree=2)
        assert g.degree == 2 and g.is_homogeneous

    def test_zero_coefficients_dropped(self):
        g = TriPoly({(1, 0, 0): F(0), (0, 1, 0): 2})
        assert (1, 0, 0) not in g.terms
        assert g.coefficient((0, 1, 0)) == 2

    def test_mixed_float_promotes(self):
        g = TriPoly({(1, 0, 0): F(1, 2), (0, 1, 0): 0.5})
        assert not g.is_exact
        assert g.coefficient((1, 0, 0)) == 0.5 + 0j

    def test_homogeneity_scaling(self):
        rng = np.random.default_rng(0)
        for degree in (2, 3, 5):
            g = random_exact_tripoly(rng, degree)
            for _ in range(20):
                pt = [F(int(rng.integers(-5, 6)), 3) for _ in range(3)]
                lam = F(int(rng.integers(1, 7)), 2)
                lhs = g.evaluate(lam * pt[0], lam * pt[1], lam * pt[2])
                assert lhs == lam**degree * g.evaluate(*pt)

    def test_euler_identity(self):
        rng = np.random.default_rng(1)
        for degree in (2, 3, 4):
            g = random_exact_tripoly(rng, degree)
            u, v, w = (TriPoly.monomial((1, 0, 0)), TriPoly.monomial((0, 1, 0)),
                       TriPoly.monomial((0, 0, 1)))
            euler = u * g.diff(0) + v * g.diff(1) + w * g.diff(2)
            assert euler == g * degree

    def test_restrict_isotropic_ellipse(self):
        g = TriPoly({(2, 0, 0): 2, (0, 2, 0): 1, (0, 0, 2): -1})
        assert g.restrict_isotropic("+") == UniPoly([F(1), F(0), F(-1)])

    def test_restrict_isotropic_circle(self):
        g = TriPoly({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
        assert g.restrict_isotropic("+") == UniPoly([F(0), F(0), F(-1)])

    def test_restrict_isotropic_product_of_lines(self):
        # lines dual to the points 1+2i and -3+i: restriction is prod (w - z_j)
        g = TriPoly.linear_form(1, 2, 1) * TriPoly.linear_form(-3, 1, 1)
        expected = UniPoly([-QQi(1, 2), F(1)]) * UniPoly([-QQi(-3, 1), F(1)])
        assert g.restrict_isotropic("+") == expected

    def test_restrict_linearity(self):
        rng = np.random.default_rng(2)
        g = random_exact_tripoly(rng, 3)
        h = random_exact_tripoly(rng, 3)
        lhs = (g + h).restrict_isotropic("+")
        rhs = g.restrict_isotropic("+") + h.restrict_isotropic("+")
        assert lhs == rhs

    def test_restrict_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        g = random_exact_tripoly(rng, 4)
        assert g.is_real()
        plus = g.restrict_isotropic("+")
        minus = g.restrict_isotropic("-")
        assert minus == plus.conjugate()

    def test_leading_coefficient_is_top_w(self):
        g = TriPoly({(0, 0, 3): F(7, 2), (1, 1, 1): 1, (3, 0, 0): -2})
        r = g.restrict_isotropic("+")
        assert r.formal_degree == 3
        assert r.coeffs[3] == F(7, 2)

    def test_divide_isotropic_roundtrip(self):
        rng = np.random.default_rng(4)
        q = random_exact_tripoly(rng, 3)
        k = TriPoly.isotropic_conic() * q
        quot, rem = k.divide_isotropic()
        assert rem.is_zero()
        assert quot == q

    def test_divide_isotropic_remainder(self):
        g = TriPoly({(1, 0, 1): 1, (0, 2, 0): 1})
        quot, rem = g.divide_isotropic()
        assert TriPoly.isotropic_conic() * quot + rem == g

    def test_exact_div(self):
        rng = np.random.default_rng(5)
        a = random_exact_tripoly(rng, 2)
        b = random_exact_tripoly(rng, 3)
        assert (a * b).exact_div(a) == b
        with pytest.raises(NotDivisible):
            (a * b + TriPoly.monomial((0, 0, 5))).exact_div(a)

    def test_is_real_tolerance(self):
        g = TriPoly({(1, 0, 0): 1.0 + 1e-12j})
        assert g.is_real()
        assert not g.is_real(tol=1e-13)


class TestUniPoly:
    def test_formal_degree_preserved(self):
        p = UniPoly([F(1), F(2), F(0)])
        assert p.formal_degree == 2
        assert p.effective_degree() == 1

    def test_divmod(self):
        p = UniPoly([F(-1), F(0), F(1)])  # t^2 - 1
        q, r = p.divmod_field(UniPoly([F(1), F(1)]))  # t + 1
        assert q == UniPoly([F(-1), F(1)]) and r.is_zero()

    def test_gcd(self):
        a = UniPoly([F(-1), F(0), F(1)])            # (t-1)(t+1)
        b = UniPoly([F(-1), F(1)]) * UniPoly([F(2), F(1)])
        assert unipoly_gcd(a, b) == UniPoly([F(-1), F(1)])

    def test_evaluate_horner(self):
        p = UniPoly([F(1), F(-3), F(2)])
        assert p.evaluate(F(2)) == 1 - 6 + 8

    def test_from_roots(self):
        p = UniPoly.from_roots([1.0, -2.0])
        assert np.allclose(p.complex_coeffs(), [-2, 1, 1])


def grid_value(grid, s, t):
    """Value of sum grid[i][j] s^i t^j."""
    return sum(c * s**i * t**j for i, row in enumerate(grid) for j, c in enumerate(row))


class TestDividedDifferences:
    def test_parabola(self):
        a, b, c = UniPoly([F(0), F(1)]), UniPoly([F(0), F(0), F(1)]), UniPoly([F(1)])
        p, q = divided_difference_pair(a, b, c)
        assert p == ((F(1),),)                            # constant 1
        assert q == ((F(0), F(1)), (F(1), F(0)))          # s + t
        assert grid_value(q, F(2), F(3)) == 5

    def test_nodal_cubic_node_parameters(self):
        a = UniPoly([F(-1), F(0), F(1)])
        b = UniPoly([F(0), F(-1), F(0), F(1)])
        c = UniPoly([F(1)])
        p, q = divided_difference_pair(a, b, c)
        assert grid_value(p, F(1), F(-1)) == 0
        assert grid_value(q, F(1), F(-1)) == 0
        # the diagonal carries the cusp condition; no cusp here
        assert grid_value(p, F(1), F(1)) != 0 or grid_value(q, F(1), F(1)) != 0

    def test_circle_has_no_real_common_zeros(self):
        a = UniPoly([F(1), F(0), F(-1)])
        b = UniPoly([F(0), F(2)])
        c = UniPoly([F(1), F(0), F(1)])
        p, q = divided_difference_pair(a, b, c)
        # p = -2(s+t), q = 2(1-st): only common zeros are s=-t, st=1 (imaginary)
        pf, qf = np.array(p, dtype=float), np.array(q, dtype=float)
        grid = np.linspace(-3, 3, 41)
        for s in grid:
            for t in grid:
                if abs(s - t) < 1e-9:
                    continue
                vals = abs(polyval2d(s, t, pf)) + abs(polyval2d(s, t, qf))
                assert vals > 1e-3

    def test_matches_sympy_quotient(self):
        # seeded components with unequal degrees, zero and constant ones
        sympy = pytest.importorskip("sympy")
        s, t = sympy.symbols("s t")

        def at(u, x):
            return sum(sympy.Rational(k.numerator, k.denominator) * x**i
                       for i, k in enumerate(u.coeffs))

        rng = np.random.default_rng(7)
        for trial in range(60):
            comps = []
            for _ in range(3):
                degree = int(rng.integers(0, 6))
                cs = [F(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
                      for _ in range(degree + 1)]
                if rng.random() < 0.15:
                    cs = [F(0)] * len(cs)
                comps.append(UniPoly(cs))
            if trial % 10 == 0:
                comps[2] = UniPoly([F(1)])
            a, b, c = comps
            for comp, grid in zip((a, b), divided_difference_pair(a, b, c)):
                numerator = at(comp, s) * at(c, t) - at(comp, t) * at(c, s)
                expected = sympy.Poly(sympy.cancel(numerator / (s - t)), s, t)
                got = sympy.Poly(grid_value(grid, s, t), s, t)
                assert got == expected


def test_monomial_order_matches_alpha_convention():
    # descending w power then descending v power; chart drops w^c
    assert monomials_of_degree(2, drop_top_w=True) == [
        (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)]
    assert monomials_of_degree(3, drop_top_w=True)[:2] == [(0, 1, 2), (1, 0, 2)]
    assert len(monomials_of_degree(5)) == 21
