"""The benchmark's checks accept right outputs and reject deliberately wrong ones,
and its tracer sees calls made through names imported into other modules."""

import math
from fractions import Fraction

import numpy as np

from perfbench import checks, workloads
from perfbench.workloads import Op

SQRT3 = math.sqrt(3.0)
ELLIPSE_PARAM = [[Fraction(2), Fraction(0), Fraction(-2)],   # x = 2(1 - t^2)
                 [Fraction(0), Fraction(2)],                 # y = 2t
                 [Fraction(1), Fraction(0), Fraction(1)]]    # z = 1 + t^2
ELLIPSE = {(2, 0, 0): Fraction(1, 4), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(-1)}


def moved(divisor, index=0, by=1e-6):
    out = list(divisor)
    z, m = out[index]
    out[index] = (z + by, m)
    return out


def test_same_divisor_rejects_a_focus_moved_by_1e_6():
    want = checks.simple([1 + 2j, -0.5j, 3.0])
    assert checks.same_divisor(list(reversed(want)), want)
    assert not checks.same_divisor(moved(want), want)


def test_same_divisor_rejects_a_split_multiplicity():
    want = [(0.3 + 0.1j, 3), (1.0, 1)]
    assert checks.same_divisor([(0.3 + 0.1j + 1e-7, 3), (1.0, 1)], want)
    split = [(0.3 + 0.1j, 2), (0.3 + 0.1j, 1), (1.0, 1)]
    assert not checks.same_divisor(split, want)


def test_same_divisor_rejects_a_missing_focus():
    want = checks.simple([1.0, 2.0])
    assert not checks.same_divisor(want[:1], want)


def test_rank_trial_check_rejects_a_rank_off_by_one():
    # c = 4, kappa = 1: class d = 5, rank min(8, 10) = 8, kernel 2, tangent 10
    good = {"d": 5, "tangent_dim": 10, "rank": 8, "kernel_dim": 2, "shifted_dim": 2,
            "max_factor_residual": 1e-13, "max_shifted_residual": 1e-12}
    assert checks.rank_trial_ok(4, 1, good)
    assert not checks.rank_trial_ok(4, 1, dict(good, rank=7))
    assert not checks.rank_trial_ok(4, 1, dict(good, kernel_dim=3, shifted_dim=3))
    assert not checks.rank_trial_ok(4, 1, dict(good, shifted_dim=1))
    assert not checks.rank_trial_ok(4, 1, dict(good, max_factor_residual=1e-6))


def test_param_reference_gives_the_ellipse_foci():
    want = checks.simple([SQRT3, -SQRT3])
    op = Op("foci-param", (), ELLIPSE_PARAM)
    assert checks.same_divisor(checks.param_foci(ELLIPSE_PARAM), want)
    assert checks.judge(op, {"code": 0, "foci": want}) == checks.OK
    assert checks.judge(op, {"code": 0, "foci": moved(want)}) == checks.WRONG
    assert checks.judge(op, {"code": 0, "foci": [(SQRT3, 2)]}) == checks.WRONG


def test_param_reference_leaves_out_a_focus_at_infinity():
    # the parabola (t, t^2, 1) has its focus at (0, 1/4) and one at infinity
    parabola = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0), Fraction(1)], [Fraction(1)]]
    assert checks.same_divisor(checks.param_foci(parabola), checks.simple([0.25j]))


def test_primal_reference_gives_the_ellipse_foci():
    want = checks.simple([SQRT3, -SQRT3])
    op = Op("foci-primal", (), ELLIPSE)
    assert checks.judge(op, {"code": 0, "foci": want}) == checks.OK
    assert checks.judge(op, {"code": 0, "foci": moved(want, 1)}) == checks.WRONG


def test_construct_check_reads_the_curve_as_well_as_the_reported_foci():
    foci = [1 + 0j, -1 + 0.5j, 0.25 - 2j]
    g = {(0, 0, 0): Fraction(1)}
    for z in foci:
        x, y = Fraction(z.real), Fraction(z.imag)
        g = workloads._tmul(g, {(1, 0, 0): x, (0, 1, 0): y, (0, 0, 1): Fraction(1)})
    curve = [(e, complex(c)) for e, c in g.items()]
    out = {"code": 0, "foci": checks.simple(foci), "curve": curve, "dimension": 3, "basis": 3}
    op = Op("construct", (), foci)
    assert checks.judge(op, out) == checks.OK
    assert checks.judge(op, dict(out, foci=moved(checks.simple(foci)))) == checks.WRONG
    bent = [(e, c + 1e-4) if e == (0, 0, 3) else (e, c) for e, c in curve]
    assert checks.judge(op, dict(out, curve=bent)) == checks.WRONG
    assert checks.judge(op, dict(out, dimension=2)) == checks.WRONG


def test_gate_probe_mismatch_is_a_failure_and_elsewhere_a_wrong_answer():
    want = [(0j, 4)]
    split = checks.simple([1e-4, -1e-4, 1e-4j, -1e-4j])
    assert checks.judge(Op("siebeck", (), want, gate_probe=True), {"code": 0, "foci": split}) \
        == checks.FAILED
    assert checks.judge(Op("siebeck", (), want), {"code": 0, "foci": split}) == checks.WRONG
    assert checks.judge(Op("siebeck", (), want), {"code": 2, "text": ""}) == checks.FAILED
    row = Op("row", (1, ((2, 0), (4, 1))))
    good = {"c": 4, "kappa": 1, "status": "clean", "d": 5, "tangent_dim": 10, "rank": 8,
            "kernel_dim": 2, "shifted_dim": 2, "max_factor_residual": 0.0,
            "max_shifted_residual": 0.0}
    conic = dict(good, c=2, kappa=0, d=2, tangent_dim=5, rank=4, kernel_dim=1, shifted_dim=1)
    assert checks.judge(row, {"trials": [conic, good]}) == checks.OK
    assert checks.judge(row, {"trials": [conic, dict(good, rank=7)]}) == checks.WRONG
    assert checks.judge(row, {"trials": [conic, dict(good, status="degenerate")]}) \
        == checks.FAILED


def test_inputs_depend_only_on_the_seed_and_carry_their_true_foci():
    for make in (workloads.foci_routes_round, workloads.prescribed_foci_round):
        assert make(7, 3) == make(7, 3)
        assert make(7, 3) != make(8, 3)
    rng = workloads._rng("test", 0, 0)
    g, foci = workloads.dual_with_foci(rng, 5)
    want = checks.simple(complex(x, y) for x, y in foci)
    assert checks.same_divisor(checks.restriction_roots([(e, complex(c)) for e, c in g.items()]),
                               want)
    roots, zetas = workloads.designed_siebeck_roots(rng, 9)
    fprime = np.polyder(np.poly(roots))
    assert checks.same_divisor(checks.simple(np.roots(fprime)), checks.simple(zetas))


def test_planted_cusps_make_the_tangent_degenerate():
    rng = workloads._rng("test", 0, 1)
    comps = workloads.cuspidal_param(rng, 5, 2)
    assert all(len(c) == 6 and c[-1] != 0 for c in comps)

    def value(coeffs, t, derivative=False):
        if derivative:
            return sum(k * c * t ** (k - 1) for k, c in enumerate(coeffs) if k)
        return sum(c * t ** k for k, c in enumerate(coeffs))

    cusps = [t for t in (Fraction(k, 2) for k in (-3, -1, 1, 3))
             if all(value(c, t) != 0 for c in comps)
             and len({value(c, t, True) / value(c, t) for c in comps}) == 1]
    assert len(cusps) == 2


def test_tracer_sees_calls_through_names_imported_elsewhere():
    from focalcurves import focal, rootfind
    from focalcurves.poly import TriPoly

    from perfbench.spans import Tracer

    original = focal.find_roots
    tracer = Tracer()
    tracer.install()
    try:
        focal.focal_divisor(TriPoly({(2, 0, 0): 2, (0, 2, 0): 1, (0, 0, 2): -1}))
    finally:
        tracer.uninstall()
    assert focal.find_roots is original and rootfind.find_roots is original
    names = [span[0] for span in tracer.spans]
    assert names == ["focal.focal_divisor", "rootfind.find_roots"]
    (_, s0, e0, p0), (_, s1, e1, p1) = tracer.spans
    assert p0 == -1 and p1 == 0
    own = tracer.self_times()
    assert abs(own["focal.focal_divisor"] - ((e0 - s0) - (e1 - s1))) < 1e-12
    assert tracer.layer_metrics()["rootfind.degree_sum"] == (2, "count")
