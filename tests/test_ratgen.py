"""Random curve generation and the singularity census."""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from focalcurves import ratgen
from focalcurves.dualize import RationalCurveParam, dual_param
from focalcurves.errors import CensusMismatch, GenerationExhausted
from focalcurves.plucker import class_of, genus_of, rational_node_count
from focalcurves.poly import UniPoly
from focalcurves.ratgen import generate_curve_with_census, locate_singularities
from focalcurves.serialize import dumps, param_to_json


def test_nodal_cubic_node():
    p = RationalCurveParam(UniPoly([F(-1), F(0), F(1)]),
                           UniPoly([F(0), F(-1), F(0), F(1)]), UniPoly([F(1)]))
    sd = locate_singularities(p)
    assert sd.delta == 1 and sd.kappa == 0
    (node,) = sd.nodes
    s, t = node.params
    assert sorted([s.real, t.real]) == pytest.approx([-1.0, 1.0], abs=1e-10)
    assert np.allclose(node.point, [0, 0, 1], atol=1e-10)


def test_acnode_counted_once():
    # a draw of the generator at (3, 0), seed 20240809: its node is an acnode
    # whose parameters are a conjugate pair
    p = RationalCurveParam(
        UniPoly([F(-7, 8), F(-313, 500), F(89, 500), F(139, 3000)]),
        UniPoly([F(361, 500), F(397, 500), F(97, 400), F(277, 1000)]),
        UniPoly([F(1)]))
    sd = locate_singularities(p)
    assert sd.delta == 1 and sd.kappa == 0
    (node,) = sd.nodes
    s, t = node.params
    assert s == pytest.approx(2.7606 - 5.5283j, abs=1e-4)
    assert t == pytest.approx(s.conjugate(), abs=1e-10)
    assert np.max(np.abs(node.point.imag)) < 1e-10


def test_conjugate_pair_ordered_by_imaginary_part():
    # conjugate parameters whose real parts differ in the last bit only
    x, y = 2.7606, 5.5283
    s, t = complex(x, y), complex(x * (1 + 2**-52), -y)
    assert s.real < t.real
    assert ratgen._canonical_pair(s, t) == (t, s)
    assert ratgen._canonical_pair(t, s) == (t, s)


def test_cusp_residual_checked(monkeypatch):
    find_roots = ratgen.find_roots

    def shifted(poly, tol):
        rs = find_roots(poly, tol=tol)
        return replace(rs, roots=tuple((r + 1e-3, m) for r, m in rs.roots))

    monkeypatch.setattr(ratgen, "find_roots", shifted)
    p = RationalCurveParam(UniPoly([F(0), F(0), F(1)]),
                           UniPoly([F(0), F(0), F(0), F(1)]), UniPoly([F(1)]))
    with pytest.raises(CensusMismatch, match="no cusp"):
        locate_singularities(p)


def test_cuspidal_cubic_cusp():
    p = RationalCurveParam(UniPoly([F(0), F(0), F(1)]),
                           UniPoly([F(0), F(0), F(0), F(1)]), UniPoly([F(1)]))
    sd = locate_singularities(p)
    assert sd.delta == 0 and sd.kappa == 1
    assert abs(sd.cusps[0].param) < 1e-12


def test_smooth_conic_empty_census():
    p = RationalCurveParam(UniPoly([F(1), F(0), F(-1)]), UniPoly([F(0), F(2)]),
                           UniPoly([F(1), F(0), F(1)]))
    sd = locate_singularities(p)
    assert sd.delta == 0 and sd.kappa == 0


@pytest.mark.parametrize("c,kappa", [(3, 0), (3, 1), (4, 0), (4, 2), (5, 0)])
def test_generated_census(c, kappa):
    param, census = generate_curve_with_census(c, kappa, seed=2024)
    assert census.kappa == kappa
    assert census.delta == rational_node_count(c, kappa)
    assert census.delta + census.kappa == (c - 1) * (c - 2) // 2


def test_class_consistency():
    for (c, kappa, seed) in [(3, 0, 1), (4, 1, 2), (4, 2, 3)]:
        param, census = generate_curve_with_census(c, kappa, seed)
        assert dual_param(param).degree == 2 * (c - 1) - kappa
        assert dual_param(param).degree == class_of(c, census.delta, kappa)
        assert genus_of(c, census.delta, kappa) == 0


def test_determinism_byte_for_byte():
    p1, c1 = generate_curve_with_census(4, 1, seed=99)
    p2, c2 = generate_curve_with_census(4, 1, seed=99)
    assert dumps(param_to_json(p1)) == dumps(param_to_json(p2))
    assert [n.params for n in c1.nodes] == [n.params for n in c2.nodes]


def test_different_seeds_differ():
    p1, _ = generate_curve_with_census(3, 0, seed=1)
    p2, _ = generate_curve_with_census(3, 0, seed=2)
    assert dumps(param_to_json(p1)) != dumps(param_to_json(p2))


def test_infeasible_kappa_rejected():
    with pytest.raises(GenerationExhausted):
        generate_curve_with_census(3, 5, seed=0)
    with pytest.raises(GenerationExhausted):
        # beyond the planted-cusp generator's reach: kappa > c - 1
        generate_curve_with_census(5, 5, seed=0)


def test_complex_nodes_allowed():
    # scan some seeds for a draw with a conjugate node pair and check stability
    for seed in range(30):
        _, census = generate_curve_with_census(4, 0, seed=seed)
        complex_nodes = [n for n in census.nodes
                         if np.max(np.abs(np.asarray(n.point).imag)) > 1e-8]
        if complex_nodes:
            pts = [n.point for n in census.nodes]
            for n in complex_nodes:
                conj = np.conj(n.point)
                assert any(
                    np.linalg.norm(np.cross(conj, q)) < 1e-6 for q in pts)
            return
    pytest.skip("no draw with complex nodes in the scanned seeds")
