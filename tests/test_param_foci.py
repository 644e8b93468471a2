"""The foci of a parameterized curve read off its tangent lines, against the
implicit route: focal_divisor of the implicitized dual curve."""

import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from focalcurves.dualize import RationalCurveParam, dual_param, implicitize
from focalcurves.errors import DegenerateCurve, NonBirationalWarning
from focalcurves.focal import focal_divisor, param_focal_divisor
from focalcurves.poly import UniPoly

EPS = float(np.finfo(float).eps)


def param(*components):
    return RationalCurveParam(*(UniPoly([F(c) for c in comp]) for comp in components))


NAMED = {
    "circle": param([1, 0, -1], [0, 2], [1, 0, 1]),  # double singular focus at 0
    "parabola": param([0, 0, 1], [0, 1], [1]),  # focus 1/4, one tangent at infinity
    "nodal cubic": param([-1, 0, 1], [0, -1, 0, 1], [1]),
    "double cover": param([0, 0, 1], [0, 0, 0, 0, 1], [1]),
    "triple focus": param([0, 0, 1, 0, -1], [0, 0, 0, 2], [1, 0, 2, 0, 1]),
    # the dual of a curve with cusps at s = +-i, the one at i on u + iv = 0:
    # a double focus at a singular point of the dual curve, left unflagged
    "dual cusp": dual_param(param([F(-5, 12), 2, F(1, 2), F(2, 3), F(1, 4)],
                                  [F(-13, 12), -1, F(1, 2), F(-1, 3), F(1, 4)], [1])),
}


def seeded_params(count=10, seed=4):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        degree = int(rng.integers(2, 5))
        comps = [[F(int(rng.integers(-8, 9)), 4) for _ in range(degree + 1)]
                 for _ in range(3)]
        p = param(*comps)
        try:
            p.validate()
            dual_param(p)
        except DegenerateCurve:
            continue
        out.append(p)
    return out


CASES = list(NAMED.items()) + [(f"seeded {i}", p) for i, p in enumerate(seeded_params())]


def with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, sorted({w.category.__name__ for w in caught})


def reference(p):
    return focal_divisor(implicitize(dual_param(p)).as_real_float())


@pytest.mark.parametrize("name,p", CASES, ids=[name for name, _ in CASES])
def test_tangent_route_matches_implicit_route(name, p):
    (fd, diag), warned = with_warnings(param_focal_divisor, p)
    (ref, ref_diag), ref_warned = with_warnings(reference, p)
    assert warned == ref_warned
    assert fd.degree_drop == ref.degree_drop
    assert diag.tangent_at_infinity == ref_diag.tangent_at_infinity
    assert diag.passes_circular_points == ref_diag.passes_circular_points
    assert sorted(e.multiplicity for e in fd.entries) == \
        sorted(e.multiplicity for e in ref.entries)
    unmatched = list(fd.entries)
    for want in ref.entries:
        m = want.multiplicity
        tol = (1e-9 if m == 1 else 100 * EPS ** (1 / m)) * max(1.0, abs(want.root))
        got = min((e for e in unmatched if e.multiplicity == m),
                  key=lambda e: abs(e.root - want.root))
        assert abs(got.root - want.root) <= tol
        assert got.singular == want.singular
        unmatched.remove(got)


def test_named_cases():
    fd, diag = param_focal_divisor(NAMED["circle"])
    (entry,) = fd.entries
    assert entry.multiplicity == 2 and entry.singular and abs(entry.root) < 1e-8
    assert diag.passes_circular_points == {"plus": True, "minus": True}

    fd, diag = param_focal_divisor(NAMED["parabola"])
    assert [(e.root, e.multiplicity) for e in fd.entries] == [(pytest.approx(0.25), 1)]
    assert fd.degree_drop == 1 and diag.tangent_at_infinity

    with pytest.warns(NonBirationalWarning):
        fd, diag = param_focal_divisor(NAMED["double cover"])
    (entry,) = fd.entries
    assert entry.multiplicity == 2 and not entry.singular
    assert entry.root == pytest.approx(0.25j)
    assert diag.notes

    fd, _ = param_focal_divisor(NAMED["triple focus"])
    assert [(e.multiplicity, e.singular) for e in fd.entries] == [(3, True)]

    fd, diag = param_focal_divisor(NAMED["dual cusp"])
    (entry,) = [e for e in fd.entries if e.multiplicity > 1]
    assert entry.multiplicity == 2 and not entry.singular
    assert entry.root == pytest.approx(0.3 + 0.6j) and diag.notes


def test_input_is_checked():
    with pytest.raises(DegenerateCurve):
        param_focal_divisor(param([0, 0, 1], [0, 0, 0, 1], [0, 1]))  # shared factor t
    with pytest.raises(ValueError):
        param_focal_divisor(RationalCurveParam(
            UniPoly([F(1), F(0), F(-1)]), UniPoly([0, 2j]), UniPoly([F(1), F(0), F(1)])))
