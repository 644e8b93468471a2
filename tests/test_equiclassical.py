"""Tangent spaces, the focal jacobian, and minimal-class constructions."""

from fractions import Fraction as F

import numpy as np
import pytest

from focalcurves.dualize import RationalCurveParam
from focalcurves.equiclassical import (
    ConditionMatrix,
    ConfocalFamily,
    condition_matrix,
    construct_min_class,
    equiclassical_conditions,
    focal_jacobian,
    shifted_section_dim,
    tangent_space_basis,
)
from focalcurves.errors import SchemeOnIsotropicConic, TooFewFoci
from focalcurves.experiment import trial_seed
from focalcurves.focal import confocal, divisor_matching_distance, focal_divisor
from focalcurves.plucker import focal_rank_law
from focalcurves.poly import TriPoly, UniPoly, monomials_of_degree
from focalcurves.ratgen import (
    Cusp,
    SingularityData,
    generate_curve_with_census,
    locate_singularities,
)


def chart_matrix(degree):
    monos = tuple(monomials_of_degree(degree, drop_top_w=True))
    return ConditionMatrix(np.zeros((0, len(monos))), monos, 0)


def translated_nodal_cubic():
    # node at (1/2, 1/3, 1), safely off u^2 + v^2 = 0
    return RationalCurveParam(UniPoly([F(1, 2) - 1, F(0), F(1)]),
                              UniPoly([F(1, 3), F(-1), F(0), F(1)]),
                              UniPoly([F(1)]))


def translated_cuspidal_cubic():
    return RationalCurveParam(UniPoly([F(1, 2), F(0), F(1)]),
                              UniPoly([F(1, 3), F(0), F(0), F(1)]),
                              UniPoly([F(1)]))


def mobius(param):
    """The same curve under t = (2s + 1)/(s + 3), cleared of denominators:
    its third component (s + 3)^degree is no longer constant."""
    n = param.degree
    num, den = UniPoly([F(1), F(2)]), UniPoly([F(3), F(1)])

    def compose(comp):
        out = UniPoly([F(0)])
        for k, a in enumerate(comp.coeffs):
            term = UniPoly([a])
            for i in range(n):
                term = term * (num if i < k else den)
            out = out + term
        return out

    return RationalCurveParam(compose(param.a), compose(param.b), compose(param.c))


class TestConditionMatrix:
    def test_smooth_conic_no_conditions(self):
        cm = chart_matrix(2)
        assert cm.rows.shape == (0, 5)
        assert len(tangent_space_basis(cm)) == 5

    def test_nodal_cubic_one_row(self):
        p = translated_nodal_cubic()
        scheme = locate_singularities(p)
        cm = equiclassical_conditions(scheme)
        assert cm.rows.shape == (1, 9)
        assert len(tangent_space_basis(cm)) == 8  # c + d + 1 with d = 4

    def test_cuspidal_cubic_two_rows(self):
        p = translated_cuspidal_cubic()
        scheme = locate_singularities(p)
        cm = equiclassical_conditions(scheme)
        assert cm.rows.shape == (2, 9)
        assert len(tangent_space_basis(cm)) == 7  # 3 + 3 + 1

    def test_scheme_on_isotropic_conic_rejected(self):
        # the standard nodal cubic has its node at (0:0:1), on u^2+v^2=0
        p = RationalCurveParam(UniPoly([F(-1), F(0), F(1)]),
                               UniPoly([F(0), F(-1), F(0), F(1)]), UniPoly([F(1)]))
        scheme = locate_singularities(p)
        with pytest.raises(SchemeOnIsotropicConic):
            equiclassical_conditions(scheme)

    def test_real_complex_rank_agreement(self):
        for seed in (3, 4, 5):
            _, census = generate_curve_with_census(4, 0, seed=seed)
            cm = equiclassical_conditions(census)
            assert cm.rank() == cm.complex_rank

    def test_row_count_is_delta_plus_two_kappa(self):
        for (c, kappa, seed) in [(4, 1, 8), (4, 2, 9), (5, 0, 10)]:
            _, census = generate_curve_with_census(c, kappa, seed)
            cm = equiclassical_conditions(census)
            assert cm.n_conditions == census.delta + 2 * kappa

    def test_dimension_consistency(self):
        # tangent dim (c+1)(c+2)/2 - 1 - (delta + 2 kappa) equals c + d + 1
        for (c, kappa, seed) in [(3, 1, 11), (4, 1, 12), (5, 0, 13)]:
            _, census = generate_curve_with_census(c, kappa, seed)
            cm = equiclassical_conditions(census)
            m = len(tangent_space_basis(cm))
            d = 2 * (c - 1) - kappa
            assert m == (c + 1) * (c + 2) // 2 - 1 - (census.delta + 2 * kappa)
            assert m == c + d + 1


class TestCuspRows:
    def test_rows_match_sympy_pullback_with_moving_third_component(self):
        # at the cusp of the reparameterized cuspidal cubic phi'(s0) is a
        # nonzero multiple of phi(s0), so the gradient row along the cusp
        # tangent differs from the second pullback derivative by a multiple
        # of the point row; both pairs must cut the same null space
        sympy = pytest.importorskip("sympy")
        s = sympy.symbols("s")
        phi = [sum(sympy.Rational(k.numerator, k.denominator) * s ** i
                   for i, k in enumerate(comp.coeffs))
               for comp in mobius(translated_cuspidal_cubic()).components()]
        s0 = sympy.Rational(-1, 2)  # t = 0
        p = [f.subs(s, s0) for f in phi]
        dp = [sympy.diff(f, s).subs(s, s0) for f in phi]
        lam = dp[2] / p[2]
        assert lam != 0 and all(sympy.simplify(x - lam * y) == 0 for x, y in zip(dp, p))
        scale = complex(p[2])
        point = np.array([complex(x) for x in p]) / scale
        tangent = np.array([complex(sympy.diff(f, s, 2).subs(s, s0)) for f in phi]) / scale
        scheme = SingularityData((), (Cusp(-0.5, point, tangent),), 3)
        u, v, w = sympy.symbols("u v w")
        for degree, chart in ((3, True), (2, False), (1, False)):
            cm = condition_matrix(scheme, degree, chart)
            monos = cm.monomials
            h = sympy.symbols(f"h0:{len(monos)}")
            big_h = sum(hk * u ** i * v ** j * w ** k for hk, (i, j, k) in zip(h, monos))
            pullback = big_h.subs({u: phi[0], v: phi[1], w: phi[2]})
            conds = [big_h.subs({u: p[0], v: p[1], w: p[2]}),
                     sympy.diff(pullback, s, 2).subs(s, s0)]
            exact = sympy.Matrix([[sympy.expand(cnd).coeff(hk) for hk in h]
                                  for cnd in conds]).nullspace()
            expected = np.array([[complex(x) for x in vec] for vec in exact]).real
            null = cm.null_space()
            assert null.shape == expected.shape
            # every exact solution lies in the numerical null space
            residual = expected - (expected @ null.T) @ null
            assert np.max(np.abs(residual)) < 1e-10 * np.max(np.abs(expected))


class TestFocalJacobian:
    def test_conic_rank_four_kernel_one(self):
        g = construct_min_class([(F(1), F(0)), (F(-1), F(0))],
                                TriPoly({(0, 0, 0): F(-1)}))
        rep = focal_jacobian(g.degree, tangent_space_basis(chart_matrix(2)))
        assert (rep.tangent_dim, rep.rank, rep.kernel_dim) == (5, 4, 1)
        # the kernel direction is u^2 + v^2 itself
        (k,) = rep.kernel_basis
        assert rep.factor_residuals[0] < 1e-12
        quot, _ = k.divide_isotropic()
        assert quot.degree == 0

    def test_nodal_cubic_rank_six_kernel_two(self):
        p = translated_nodal_cubic()
        scheme = locate_singularities(p)
        basis = tangent_space_basis(equiclassical_conditions(scheme))
        rep = focal_jacobian(p.degree, basis, scheme=scheme)
        assert (rep.rank, rep.kernel_dim) == (6, 2)
        assert max(rep.factor_residuals) < 1e-8
        assert max(rep.shifted_residuals) < 1e-8
        assert rep.shifted_dim == 2

    def test_smooth_cubic_kernel_three(self):
        g = construct_min_class([(0.3, 0.1), (-0.5, 0.4), (0.2, -0.7)])
        rep = focal_jacobian(g.degree, tangent_space_basis(chart_matrix(3)))
        assert (rep.tangent_dim, rep.rank, rep.kernel_dim) == (9, 6, 3)

    def test_conjugate_cusp_pair_and_acnode(self):
        # x' = (t^2+1)(t+2), y' = (t^2+1)(t-1): cusps at +-i (a conjugate
        # pair, 4 rows) and one acnode with conjugate parameters (1 row)
        def integrated(u, c0):
            return UniPoly([c0] + [u.coeffs[k] / (k + 1)
                                   for k in range(len(u.coeffs))])

        m = UniPoly([F(1), F(0), F(1)])
        x = integrated(m * UniPoly([F(2), F(1)]), F(1, 3))
        y = integrated(m * UniPoly([F(-1), F(1)]), F(1, 5))
        p = RationalCurveParam(x, y, UniPoly([F(1)]))
        census = locate_singularities(p)
        assert census.delta == 1 and census.kappa == 2
        assert sorted(c.param.imag for c in census.cusps) == pytest.approx([-1, 1])
        cm = equiclassical_conditions(census)
        assert cm.rows.shape == (5, 14)
        basis = tangent_space_basis(cm)
        assert len(basis) == 9  # c + d + 1 with c = d = 4
        rep = focal_jacobian(p.degree, basis, scheme=census)
        assert (rep.rank, rep.kernel_dim) == (8, 1)
        assert max(rep.factor_residuals) < 1e-10
        assert rep.shifted_dim == 1


    @pytest.mark.parametrize("c,kappa,index", [(3, 1, 0), (4, 0, 1), (4, 2, 2), (5, 1, 3)])
    def test_rank_law_under_mobius_reparameterization(self, c, kappa, index):
        param, census = generate_curve_with_census(c, kappa, trial_seed(20240809, index))
        scheme = locate_singularities(mobius(param))
        assert (scheme.delta, scheme.kappa) == (census.delta, census.kappa)
        basis = tangent_space_basis(equiclassical_conditions(scheme))
        rep = focal_jacobian(c, basis, scheme=scheme)
        assert (rep.rank, rep.kernel_dim) == focal_rank_law(c, 2 * (c - 1) - kappa)
        assert rep.shifted_dim == rep.kernel_dim
        assert max(rep.factor_residuals + rep.shifted_residuals, default=0.0) < 1e-8


class TestShiftedSectionDim:
    def test_one_node_pencil_of_lines(self):
        p = translated_nodal_cubic()
        scheme = locate_singularities(p)
        assert shifted_section_dim(scheme) == 2

    def test_one_cusp_unique_line(self):
        p = translated_cuspidal_cubic()
        scheme = locate_singularities(p)
        assert shifted_section_dim(scheme) == 1
        # the unique section is the cuspidal tangent line: it passes through
        # the cusp and contains the cusp tangent direction phi''(t0)
        cm = condition_matrix(scheme, 1, chart=False)
        null = cm.null_space()
        assert null.shape[0] == 1

    def test_empty_scheme_constants(self):
        assert shifted_section_dim(SingularityData((), (), 2)) == 1


class TestConstructMinClass:
    def test_emch_instance(self):
        g = construct_min_class([(F(1), F(0)), (F(-1), F(0))],
                                TriPoly({(0, 0, 0): F(-1)}))
        assert g == TriPoly({(0, 0, 2): 1, (2, 0, 0): -2, (0, 2, 0): -1})
        fd, _ = focal_divisor(g.as_real_float())
        assert sorted(e.root.real for e in fd.entries) == pytest.approx([-1, 1])

    def test_isotropic_perturbation_preserves_restriction(self):
        g0 = construct_min_class([(F(0), F(0)), (F(0), F(1))])
        # G0 = w (v + w); restriction is w(w - i)
        assert g0 == TriPoly({(0, 0, 2): 1, (0, 1, 1): 1})
        r = g0.restrict_isotropic("+")
        assert [complex(c) for c in r.coeffs] == [0j, -1j, 1 + 0j]

    def test_cubic_roundtrip(self):
        rng = np.random.default_rng(41)
        foci = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        q = TriPoly({m: rng.uniform(-1, 1) for m in monomials_of_degree(1)})
        g = construct_min_class(foci, q)
        fd, _ = focal_divisor(g)
        target = [complex(x, y) for x, y in foci]
        assert divisor_matching_distance(fd.values(), target) < 1e-9

    def test_too_few_foci(self):
        with pytest.raises(TooFewFoci):
            construct_min_class([(0.0, 0.0)])

    def test_duplicate_foci_rejected(self):
        with pytest.raises(ValueError):
            construct_min_class([(F(1), F(1)), (F(1), F(1))])

    def test_wrong_q_degree_rejected(self):
        with pytest.raises(ValueError):
            construct_min_class([(F(1), F(0)), (F(-1), F(0))],
                                TriPoly({(1, 0, 0): 1}))


class TestConfocalFamily:
    def test_dimension(self):
        for c in (2, 3, 4, 5):
            foci = [(float(np.cos(k)), float(np.sin(k) + 0.1 * k)) for k in range(c)]
            fam = ConfocalFamily.with_prescribed_foci(foci)
            assert fam.dimension == c * (c - 1) // 2
            assert len(fam.basis) == fam.dimension

    def test_members_pairwise_confocal(self):
        rng = np.random.default_rng(42)
        foci = [(0.5, 0.0), (-0.5, 0.2), (0.1, -0.8)]
        fam = ConfocalFamily.with_prescribed_foci(foci)
        members = []
        for _ in range(5):
            g = fam.base
            for coeff, b in zip(rng.uniform(-1, 1, fam.dimension), fam.basis):
                g = g + b * coeff
            members.append(g)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                res = confocal(members[i], members[j])
                assert res.confocal and res.coefficient_distance < 1e-10
