"""CLI surface: subcommands, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from focalcurves.cli import main

EMCH_DUAL = ('{"vars":["u","v","w"],"degree":2,"terms":['
             '{"exp":[0,0,2],"coef":{"re":"1","im":"0"}},'
             '{"exp":[0,2,0],"coef":{"re":"-1","im":"0"}},'
             '{"exp":[2,0,0],"coef":{"re":"-2","im":"0"}}]}')
CIRCLE_PRIMAL = ('{"vars":["u","v","w"],"degree":2,"terms":['
                 '{"exp":[2,0,0],"coef":{"re":"1","im":"0"}},'
                 '{"exp":[0,2,0],"coef":{"re":"1","im":"0"}},'
                 '{"exp":[0,0,2],"coef":{"re":"-1","im":"0"}}]}')
NODAL_CUBIC_PARAM = ('{"var":"t","components":['
                     '{"degree":2,"coeffs":[{"re":"-1","im":"0"},{"re":"0","im":"0"},'
                     '{"re":"1","im":"0"}]},'
                     '{"degree":3,"coeffs":[{"re":"0","im":"0"},{"re":"-1","im":"0"},'
                     '{"re":"0","im":"0"},{"re":"1","im":"0"}]},'
                     '{"degree":0,"coeffs":[{"re":"1","im":"0"}]}]}')


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_foci_dual(capsys):
    code, out = run_cli(capsys, "foci", "--dual", EMCH_DUAL)
    assert code == 0
    xs = sorted(f[0] for f in out["real_foci"])
    assert xs == pytest.approx([-1.0, 1.0])


def test_foci_primal_circle(capsys):
    code, out = run_cli(capsys, "foci", "--primal", CIRCLE_PRIMAL)
    assert code == 0
    assert out["focal_divisor"][0]["mult"] == 2
    assert abs(out["focal_divisor"][0]["re"]) < 1e-8


def test_foci_param_nodal_cubic(capsys):
    code, out = run_cli(capsys, "foci", "--param", NODAL_CUBIC_PARAM)
    assert code == 0
    total = sum(e["mult"] for e in out["focal_divisor"]) + out["degree_drop"]
    assert total == 4  # class of a nodal cubic


def test_foci_requires_exactly_one_input(capsys):
    code, out = run_cli(capsys, "foci", "--dual", EMCH_DUAL, "--primal", CIRCLE_PRIMAL)
    assert code == 2 and "error" in out


def test_construct_family_dimensions(capsys):
    code, out = run_cli(capsys, "construct", "--foci", "[[1,0],[-1,0]]", "--family")
    assert code == 0
    assert out["family"]["dimension"] == 1
    assert out["verification"]["matching_distance"] < 1e-10

    code, out = run_cli(capsys, "construct", "--foci",
                        "[[1,0],[-1,0],[0,1],[0.3,-0.4]]", "--family")
    assert out["family"]["dimension"] == 6


def test_construct_random_q_needs_seed(capsys):
    code, out = run_cli(capsys, "construct", "--foci", "[[1,0],[-1,0]]", "--random-q")
    assert code == 2

    code, out = run_cli(capsys, "construct", "--foci", "[[1,0],[-1,0]]",
                        "--random-q", "--seed", "5")
    assert code == 0
    assert out["verification"]["matching_distance"] < 1e-9


def test_siebeck_equilateral(capsys):
    roots = [[math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)]
             for k in range(3)]
    code, out = run_cli(capsys, "siebeck", "--roots", json.dumps(roots))
    assert code == 0
    assert out["foci"][0][2] == 2  # double focus at the centroid
    assert abs(out["foci"][0][0]) < 1e-9 and abs(out["foci"][0][1]) < 1e-9
    assert out["matching_distance"] < 1e-9


@pytest.mark.parametrize("centre", [0, 0.3 + 0.1j])
@pytest.mark.parametrize("n", range(4, 13))
def test_siebeck_regular_polygon(capsys, n, centre):
    # f = (z - centre)^n - 1 from float vertices: f' has one (n-1)-fold root
    roots = [[math.cos(2 * math.pi * k / n) + centre.real,
              math.sin(2 * math.pi * k / n) + centre.imag] for k in range(n)]
    code, out = run_cli(capsys, "siebeck", "--roots", json.dumps(roots))
    assert code == 0
    tol = 100 * np.finfo(float).eps ** (1 / (n - 1))
    ((x, y, m),) = out["foci"]
    assert m == n - 1 and abs(complex(x, y) - centre) < tol
    ((x, y, m),) = out["derivative_roots"]
    assert m == n - 1 and abs(complex(x, y) - centre) < tol
    assert out["matching_distance"] < tol


def test_rank_experiment_exit_and_summary(capsys):
    code, out = run_cli(capsys, "rank-experiment", "-c", "2", "--kappa", "0",
                        "--trials", "3", "--seed", "123")
    assert code == 0
    assert out["summary"]["violations"] == 0
    assert out["summary"]["clean"] == 3
    assert all(t["rank"] == 4 and t["kernel_dim"] == 1 for t in out["trials"])


def test_rank_experiment_needs_seed(capsys):
    code, out = run_cli(capsys, "rank-experiment", "-c", "2")
    assert code == 2


def test_plucker_single(capsys):
    code, out = run_cli(capsys, "plucker", "--d", "4", "--kappa", "3")
    assert code == 0
    assert out["c"] == 3 and out["g"] == 0 and out["expected_confocal_dim"] == 2


def test_plucker_table(capsys):
    code, out = run_cli(capsys, "plucker", "--table", "2:4")
    assert code == 0
    assert [r["maximal_class_rational_dim"] for r in out["rows"]] == [1, 0, -1]


def test_dualize_and_implicitize(capsys):
    code, out = run_cli(capsys, "dualize", "--param", NODAL_CUBIC_PARAM)
    assert code == 0
    assert max(c["degree"] for c in out["components"]) == 4

    code, out = run_cli(capsys, "implicitize", "--param", NODAL_CUBIC_PARAM)
    assert code == 0
    assert out["degree"] == 3


def test_kernel_command(capsys):
    param = ('{"var":"t","components":['
             '{"degree":2,"coeffs":[{"re":"-1/2","im":"0"},{"re":"0","im":"0"},'
             '{"re":"1","im":"0"}]},'
             '{"degree":3,"coeffs":[{"re":"1/3","im":"0"},{"re":"-1","im":"0"},'
             '{"re":"0","im":"0"},{"re":"1","im":"0"}]},'
             '{"degree":0,"coeffs":[{"re":"1","im":"0"}]}]}')
    code, out = run_cli(capsys, "kernel", "--param", param)
    assert code == 0
    assert out["rank"] == 6 and out["kernel_dim"] == 2
    assert out["kernel_dim"] == out["shifted_section_dim"]


def test_kernel_command_on_moving_third_component(capsys):
    # the nodal cubic above under t = (2s + 1)/(s + 3): the eliminant carries
    # the factor c(s)^2 = (s + 3)^6, whose root -3 belongs to no node
    param = ('{"var":"t","components":['
             '{"coeffs":[{"re":"-21/2","im":"0"},{"re":"-1/2","im":"0"},'
             '{"re":"23/2","im":"0"},{"re":"7/2","im":"0"}]},'
             '{"coeffs":[{"re":"1","im":"0"},{"re":"-9","im":"0"},'
             '{"re":"2","im":"0"},{"re":"19/3","im":"0"}]},'
             '{"coeffs":[{"re":"27","im":"0"},{"re":"27","im":"0"},'
             '{"re":"9","im":"0"},{"re":"1","im":"0"}]}]}')
    code, out = run_cli(capsys, "kernel", "--param", param)
    assert code == 0
    assert (out["delta"], out["kappa"]) == (1, 0)
    assert out["rank"] == out["expected_rank"] == 6
    assert out["kernel_dim"] == out["expected_kernel"] == 2
    assert out["shifted_section_dim"] == 2


def test_validation_error_is_machine_readable(capsys):
    code, out = run_cli(capsys, "foci", "--dual", '{"bad": true}')
    assert code == 2
    assert "error" in out and "type" in out["error"]


def test_determinism(capsys):
    code1 = main(["rank-experiment", "-c", "3", "--kappa", "0", "--trials", "2",
                  "--seed", "77"])
    out1 = capsys.readouterr().out
    code2 = main(["rank-experiment", "-c", "3", "--kappa", "0", "--trials", "2",
                  "--seed", "77"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_kernel_rejects_curve_through_origin(capsys):
    # (t, t^2, 1) passes through (0:0:1): the chart w^c = 1 does not exist
    param = ('{"var":"t","components":['
             '{"coeffs":[{"re":"0","im":"0"},{"re":"1","im":"0"}]},'
             '{"coeffs":[{"re":"0","im":"0"},{"re":"0","im":"0"},{"re":"1","im":"0"}]},'
             '{"coeffs":[{"re":"1","im":"0"}]}]}')
    code, out = run_cli(capsys, "kernel", "--param", param)
    assert code == 2
    assert out["error"]["type"] == "NormalizationFailure"


def test_bare_string_coefficient_is_a_validation_error(capsys):
    param = ('{"var":"t","components":[{"coeffs":["1/2","1"]},'
             '{"coeffs":["0","0","1"]},{"coeffs":["1"]}]}')
    code, out = run_cli(capsys, "foci", "--param", param)
    assert code == 2
    assert out["error"]["type"] == "ValueError"
    assert '"re"' in out["error"]["message"]


def test_solver_failure_is_an_error_not_a_violation(capsys, monkeypatch):
    from focalcurves import ratgen
    from focalcurves.errors import NonConvergence

    def no_convergence(*args, **kwargs):
        raise NonConvergence("forced")

    monkeypatch.setattr(ratgen, "find_roots", no_convergence)
    code, out = run_cli(capsys, "rank-experiment", "-c", "3", "--trials", "2",
                        "--seed", "5")
    assert code == 0
    assert out["summary"]["errors"] == 2 and out["summary"]["violations"] == 0
    assert all(t["status"] == "error" for t in out["trials"])
