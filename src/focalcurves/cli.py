"""Command-line interface: JSON in, JSON out, diagnostics on stderr.

Exit codes: 0 success, 1 rank-law violation in an experiment, 2 validation
failure (with a machine-readable error object on stdout), 3 undecidable
numerical rank.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import plucker
from .dualize import dual_param, implicitize, isotropic_focal_poly
from .equiclassical import (
    ConfocalFamily,
    equiclassical_conditions,
    focal_jacobian,
    tangent_space_basis,
)
from .errors import FocalCurvesError, NormalizationFailure, ToleranceAmbiguity
from .experiment import run_rank_experiment
from .focal import divisor_matching_distance, focal_divisor, param_focal_divisor
from .poly import TriPoly, UniPoly, monomials_of_degree
from .ratgen import locate_singularities
from .rootfind import find_roots
from .scalars import rationalize
from .serialize import (
    dumps,
    focal_to_json,
    param_from_json,
    param_to_json,
    tripoly_from_json,
    tripoly_to_json,
)


def _log(msg):
    print(msg, file=sys.stderr)


def _load_json(spec: str):
    """Accept inline JSON, '-' for stdin, or a file path."""
    s = spec.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    if s == "-":
        return json.load(sys.stdin)
    with open(spec) as fh:
        return json.load(fh)


def _emit(payload, args):
    text = dumps(payload)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _sample_implicit(g: TriPoly, count):
    """Real affine sample points of {g = 0} along vertical scanlines."""
    gf = g.as_float()
    pts = []
    for x in np.linspace(-3.0, 3.0, count):
        coeffs = {}
        for (i, j, k), c in gf.terms.items():
            coeffs[j] = coeffs.get(j, 0j) + c * (x ** i)
        poly = UniPoly([coeffs.get(j, 0j) for j in range(max(coeffs) + 1)])
        if poly.effective_degree(rel_tol=1e-12) < 1:
            continue
        for r, _ in find_roots(poly, tol=1e-10).roots:
            if abs(r.imag) < 1e-9:
                pts.append([float(x), float(r.real)])
    return pts


def cmd_foci(args):
    given = [name for name in ("dual", "primal", "param") if getattr(args, name)]
    if len(given) != 1:
        raise ValueError("provide exactly one of --dual, --primal, --param")
    source = given[0]
    if source == "dual":
        sample_curve = tripoly_from_json(_load_json(args.dual))
        payload = focal_to_json(*focal_divisor(sample_curve, tol=args.tol))
    elif source == "param":
        sample_curve = param_from_json(_load_json(args.param))
        payload = focal_to_json(*param_focal_divisor(sample_curve, tol=args.tol))
    else:
        sample_curve = tripoly_from_json(_load_json(args.primal))
        focal_poly = isotropic_focal_poly(sample_curve)
        roots = find_roots(focal_poly, tol=args.tol)
        payload = {
            "focal_divisor": [{"re": r.real, "im": r.imag, "mult": m,
                               "singular": False} for r, m in roots.roots],
            "real_foci": [[r.real, r.imag, m] for r, m in roots.roots],
            "degree_drop": roots.degree_drop,
            "diagnostics": {"route": "isotropic-discriminant"},
        }
    if args.emit_points:
        if source == "param":
            ts = np.linspace(-4, 4, args.emit_points)
            pts = []
            for t in ts:
                x, y, z = sample_curve.evaluate(float(t))
                if abs(z) > 1e-9:
                    pts.append([float((x / z).real), float((y / z).real)])
            payload["points"] = pts
        else:
            payload["points"] = _sample_implicit(sample_curve, args.emit_points)
    _emit(payload, args)
    return 0


def _parse_foci(spec):
    def exact(v):
        return Fraction(v) if isinstance(v, str) else rationalize(v)

    return [(exact(x), exact(y)) for x, y in _load_json(spec)]


def cmd_construct(args):
    foci = _parse_foci(args.foci)
    c = len(foci)
    q = None
    if args.q and args.random_q:
        raise ValueError("--q and --random-q are mutually exclusive")
    if args.q:
        q = tripoly_from_json(_load_json(args.q))
    elif args.random_q:
        if args.seed is None:
            raise ValueError("--random-q needs --seed")
        rng = np.random.default_rng(np.random.Philox(np.random.SeedSequence(args.seed)))
        q = TriPoly({m: Fraction(int(rng.integers(-1000, 1001)), 1000)
                     for m in monomials_of_degree(c - 2)})
    family = ConfocalFamily.with_prescribed_foci(foci, q)
    g = family.base
    fd, _ = focal_divisor(g.as_real_float(), tol=args.tol)
    prescribed = [complex(float(x), float(y)) for x, y in foci]
    dist = divisor_matching_distance(fd.values(), prescribed)
    payload = {
        "curve": tripoly_to_json(g),
        "verification": {
            "prescribed_foci": [[float(x), float(y)] for x, y in foci],
            "recovered_foci": [[e.root.real, e.root.imag, e.multiplicity]
                               for e in fd.entries],
            "matching_distance": dist,
        },
    }
    if args.family:
        payload["family"] = {
            "dimension": family.dimension,
            "basis": [tripoly_to_json(b) for b in family.basis],
        }
    _emit(payload, args)
    return 0


def cmd_siebeck(args):
    roots = [complex(x, y) for x, y in _load_json(args.roots)]
    if len(roots) < 2:
        raise ValueError("need at least two roots")
    h = TriPoly({(0, 0, 0): 1})
    for z in roots:
        h = h * TriPoly.linear_form(z.real, z.imag, 1.0)
    polar = h.diff(2)
    fd, _ = focal_divisor(polar.as_real_float(), tol=args.tol)
    f = UniPoly.from_roots(roots)
    fprime_roots = find_roots(f.derivative(), tol=args.tol)
    dist = divisor_matching_distance(fd.values(), fprime_roots.values())
    payload = {
        "polar_curve": tripoly_to_json(polar),
        "foci": [[e.root.real, e.root.imag, e.multiplicity] for e in fd.entries],
        "derivative_roots": [[r.real, r.imag, m] for r, m in fprime_roots.roots],
        "matching_distance": dist,
    }
    _emit(payload, args)
    return 0


def cmd_rank_experiment(args):
    if args.seed is None:
        raise ValueError("rank-experiment needs --seed")
    report = run_rank_experiment(args.degree, args.kappa, args.trials, args.seed,
                                 tol=args.tol, jobs=args.jobs)
    payload = report.as_dict()
    if args.format == "table":
        s = payload["summary"]
        _log(f"c={args.degree} kappa={args.kappa}: clean {s['clean']}, "
             f"degenerate {s['degenerate']}, errors {s['errors']}, "
             f"violations {s['violations']}")
    _emit(payload, args)
    return 1 if report.violations else 0


def cmd_plucker(args):
    if args.table:
        lo, hi = (int(x) for x in args.table.split(":"))
        rows = []
        for d in range(lo, hi + 1):
            rows.append({
                "d": d,
                "smooth_class": d * (d - 1),
                "smooth_confocal_dim": plucker.smooth_confocal_dim(d),
                "maximal_class_rational_dim": plucker.maximal_class_rational_dim(d),
            })
        payload = {"rows": rows}
        if args.format == "table":
            for r in rows:
                _log("  ".join(f"{k}={v}" for k, v in r.items()))
    else:
        d, delta, kappa = args.d, args.delta, args.kappa
        inv = plucker.invariants(d, delta, kappa)
        rr = plucker.riemann_roch_alternative(inv.d - inv.c, inv.g)
        payload = {
            "d": inv.d, "delta": inv.delta, "kappa": inv.kappa,
            "c": inv.c, "g": inv.g,
            "expected_confocal_dim": plucker.expected_confocal_dim(inv.d, inv.g, inv.c),
            "expected_tangent_dim": plucker.expected_tangent_dim(inv.d, inv.g, inv.c),
            "riemann_roch": {"expected_h0": rr.expected_h0,
                             "which_vanishing": rr.which_vanishing,
                             "automatic": rr.automatic},
        }
        if args.format == "table":
            _log("  ".join(f"{k}={v}" for k, v in payload.items()
                           if not isinstance(v, dict)))
    _emit(payload, args)
    return 0


def cmd_dualize(args):
    param = param_from_json(_load_json(args.param))
    _emit(param_to_json(dual_param(param)), args)
    return 0


def cmd_implicitize(args):
    param = param_from_json(_load_json(args.param))
    _emit(tripoly_to_json(implicitize(param)), args)
    return 0


def cmd_kernel(args):
    param = param_from_json(_load_json(args.param))
    if param.passes_through_origin():
        raise NormalizationFailure(
            "the curve passes through (0:0:1), so its w^degree coefficient vanishes")
    scheme = locate_singularities(param, tol=args.tol)
    basis = tangent_space_basis(equiclassical_conditions(scheme, iso_tol=args.tol))
    c = param.degree
    d = 2 * (c - 1) - scheme.kappa
    report = focal_jacobian(c, basis, scheme=scheme)
    expected_rank, expected_kernel = plucker.focal_rank_law(c, d)
    payload = {
        "degree": c,
        "delta": scheme.delta,
        "kappa": scheme.kappa,
        "class": d,
        "tangent_dim": report.tangent_dim,
        "rank": report.rank,
        "kernel_dim": report.kernel_dim,
        "expected_rank": expected_rank,
        "expected_kernel": expected_kernel,
        "shifted_section_dim": report.shifted_dim,
        "factor_residuals": list(report.factor_residuals),
        "shifted_residuals": list(report.shifted_residuals),
        "kernel_basis": [tripoly_to_json(k) for k in report.kernel_basis],
        "singular_values": [float(s) for s in report.singular_values],
    }
    _emit(payload, args)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="focalcurves",
        description="Foci, focal divisors, and confocal families of real "
                    "plane algebraic curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("foci", help="focal divisor and real foci of a curve")
    p.add_argument("--dual", help="dual curve JSON (file, -, or inline)")
    p.add_argument("--primal", help="smooth primal curve JSON")
    p.add_argument("--param", help="primal parameterization JSON")
    p.add_argument("--emit-points", type=int, default=0,
                   help="also emit curve sample points for plotting")
    common(p)
    p.set_defaults(func=cmd_foci)

    p = sub.add_parser("construct", help="minimal-class curve with prescribed foci")
    p.add_argument("--foci", required=True, help="JSON list of [x, y] points")
    p.add_argument("--q", help="degree c-2 perturbation polynomial JSON")
    p.add_argument("--random-q", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--family", action="store_true",
                   help="emit the whole confocal family basis")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("siebeck", help="polar curve whose foci are the roots of f'")
    p.add_argument("--roots", required=True, help="JSON list of [re, im] roots of f")
    common(p)
    p.set_defaults(func=cmd_siebeck)

    p = sub.add_parser("rank-experiment", help="Monte Carlo focal rank law")
    p.add_argument("--degree", "-c", dest="degree", type=int, required=True)
    p.add_argument("--kappa", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_rank_experiment)

    p = sub.add_parser("plucker", help="invariant and dimension calculators")
    p.add_argument("--d", type=int)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--kappa", type=int, default=0)
    p.add_argument("--table", help="degree range lo:hi")
    common(p)
    p.set_defaults(func=cmd_plucker)

    p = sub.add_parser("dualize", help="tangent-line parameterization of the dual")
    p.add_argument("--param", required=True)
    common(p)
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("implicitize", help="implicit equation of a parameterized curve")
    p.add_argument("--param", required=True)
    common(p)
    p.set_defaults(func=cmd_implicitize)

    p = sub.add_parser("kernel", help="focal jacobian rank/kernel of a dual curve")
    p.add_argument("--param", required=True,
                   help="dual-plane rational parameterization JSON")
    common(p)
    p.set_defaults(func=cmd_kernel)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToleranceAmbiguity as exc:
        print(dumps({"error": {"type": type(exc).__name__, "message": str(exc),
                               "rank_candidates": list(exc.rank_candidates)}}))
        return 3
    except (FocalCurvesError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
