"""The three workloads: their inputs, drawn from the seed, and one operation's
call into focalcurves.

Inputs are built here from small-denominator rationals with no help from
focalcurves (``ratgen`` in particular), so a change to the program cannot
change them; only ``rank-grid`` hands the program a trial seed, since drawing
curves is the work it measures.  Every round of a workload holds the same
kinds of operation in the same order, so a run that attempts whole rounds
always has the same share of each kind.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from focalcurves import cli, experiment
from focalcurves.experiment import trial_seed

#: the acceptance grid of the rank law without (5, 0): at (5, 0) about one
#: trial in 1600 ends in GenerationExhausted, a failure that depends on the seed
RANK_CELLS = ((2, 0), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2))
# A foci-routes round holds 20 calls, chosen so that the median falls among
# the primal cubics and the 90th percentile among the three heaviest --param
# calls rather than on the boundary between two kinds, where it would jump
# from seed to seed.
#: (degree, planted cusps) of the --param inputs
PARAM_SLOTS = ((3, 0), (3, 1), (4, 0), (4, 0), (4, 1), (4, 2), (5, 2))
#: quintics are left out: about one in 100 ends in NonConvergence
PRIMAL_DEGREES = (3, 3, 3, 3, 4)
DUAL_CLASSES = tuple(range(3, 11))
CONSTRUCT_CLASSES = tuple(range(2, 9))
SIEBECK_DEGREES = tuple(range(2, 13))
#: offset of the translated copies of the fixed siebeck polygons
POLYGON_SHIFT = complex(0.3, 0.1)


@dataclass(frozen=True)
class Op:
    """One call into the program and what its check needs.

    ``gate_probe`` marks the fixed regular-polygon ``siebeck`` inputs: a
    mismatch on them is the known fault of rootfind's multiplicity gate and
    counts as a failed operation rather than a wrong answer.
    """

    kind: str
    args: tuple
    expect: object = None
    gate_probe: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object  # (seed, round index) -> list[Op]
    traced_rounds: int
    warm_up: Op


# --- exact helpers -----------------------------------------------------------

def _rng(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


def _rational(rng, bound=2, den=4):
    """Nonzero k/den with |k/den| <= bound."""
    k = 0
    while k == 0:
        k = rng.randint(-bound * den, bound * den)
    return Fraction(k, den)


def _points(rng, count, sep=Fraction(1, 2), bound=2, den=4):
    """``count`` Gaussian rationals with pairwise distance at least ``sep``."""
    out = []
    while len(out) < count:
        z = (Fraction(rng.randint(-bound * den, bound * den), den),
             Fraction(rng.randint(-bound * den, bound * den), den))
        if all((z[0] - w[0]) ** 2 + (z[1] - w[1]) ** 2 >= sep * sep for w in out):
            out.append(z)
    return out


def _text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _coef(x: Fraction) -> dict:
    return {"re": _text(x), "im": "0"}


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _padd(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _hermite(ts, values, slopes):
    """Coefficients of the polynomial of degree < 2k with the given values and
    slopes at k nodes, by exact Gauss-Jordan elimination."""
    n = 2 * len(ts)
    rows = []
    for t, v, s in zip(ts, values, slopes):
        rows.append([t ** j for j in range(n)] + [v])
        rows.append([j * t ** (j - 1) if j else Fraction(0) for j in range(n)] + [s])
    for k in range(n):
        piv = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k] != 0:
                f = rows[i][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [row[n] for row in rows]


def _tmul(p, q):
    out = {}
    for e, a in p.items():
        for f, b in q.items():
            key = (e[0] + f[0], e[1] + f[1], e[2] + f[2])
            out[key] = out.get(key, 0) + a * b
    return {e: c for e, c in out.items() if c}


def _monomials(degree):
    return [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]


def _tripoly_json(terms, degree):
    return {"vars": ["u", "v", "w"], "degree": degree,
            "terms": [{"exp": list(e), "coef": _coef(c)} for e, c in sorted(terms.items())]}


# --- rank-grid ---------------------------------------------------------------

def rank_grid_round(seed, index):
    """One operation: trial ``index`` of every cell, so rounds 0..24 are the
    acceptance grid.  A single trial takes 5 ms at (2, 0) and 110 ms at (4, 0),
    so percentiles over single trials would sit in the gaps between cells and
    jump from run to run; a row of the grid has one smooth distribution."""
    return [Op("row", (trial_seed(seed, index), RANK_CELLS))]


# --- foci-routes -------------------------------------------------------------

def cuspidal_param(rng, degree, kappa):
    """(a, b, c)(t) of the given degree with cusps at ``kappa`` parameters.

    phi = H + M^2 psi, where M vanishes at the cusp parameters t_i and the
    Hermite part H gives phi'(t_i) = lambda_i phi(t_i), so the tangent map
    degenerates there; psi is random.  The t_i lie at least 1 apart, which
    keeps H small beside M^2 psi.  A draw is redrawn when it passes through a
    circular point or covers its image more than once (at (4, 2) about one
    draw in 150 is a double cover of a conic), since its foci are then
    degenerate.
    """
    while True:
        nodes = [Fraction(k, 2) for k in sorted(rng.sample((-3, -1, 1, 3), kappa))]
        m = [Fraction(1)]
        for t in nodes:
            m = _pmul(m, [-t, Fraction(1)])
        m2 = _pmul(m, m)
        lambdas = [_rational(rng) for _ in nodes]
        comps = []
        for _ in range(3):
            values = [_rational(rng) for _ in nodes]
            h = _hermite(nodes, values, [lam * v for lam, v in zip(lambdas, values)])
            psi = [_rational(rng) for _ in range(degree - 2 * kappa + 1)]
            comps.append(_padd(h, _pmul(m2, psi)))
        if _general(comps):
            return comps


def _general(comps):
    """Misses (1 : +-i : 0), i.e. c and a^2 + b^2 share no root, and the fiber
    of a point of the curve is a single parameter (s = t0 only)."""
    a, b, c = comps
    if _gcd_degree(c, _padd(_pmul(a, a), _pmul(b, b))) > 0:
        return False
    t0 = Fraction(5, 7)
    at, bt, ct = (sum(x * t0 ** k for k, x in enumerate(p)) for p in comps)
    minors = [_padd([x * bt for x in a], [-x * at for x in b]),
              _padd([x * ct for x in a], [-x * at for x in c]),
              _padd([x * ct for x in b], [-x * bt for x in c])]
    return _gcd_degree(_gcd_poly(minors[0], minors[1]), minors[2]) == 1


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _gcd_poly(p, q):
    """Monic gcd over the rationals by Euclid (ascending coefficients)."""
    p, q = _trim(p), _trim(q)
    while q:
        r = p
        while len(r) >= len(q):
            f = r[-1] / q[-1]
            shift = len(r) - len(q)
            r = _trim([x - f * q[i - shift] if i >= shift else x for i, x in enumerate(r)])
        p, q = q, r
    return [x / p[-1] for x in p] if p else p


def _gcd_degree(p, q):
    return len(_gcd_poly(p, q)) - 1


def dense_curve(rng, degree):
    return {e: _rational(rng) for e in _monomials(degree)}


def dense_smooth_curve(rng, degree):
    """A dense curve that misses the circular points (1 : +-i : 0), redrawn
    until its top form is nonzero at (-i, 1).  Coarse coefficients make about
    one quartic in 300 pass through them, and the focal data of such a curve
    is degenerate."""
    while True:
        f = dense_curve(rng, degree)
        top = [sum(c * (-1) ** ((i + part) // 2) for (i, _, k), c in f.items()
                   if k == 0 and i % 2 == part) for part in (0, 1)]
        if any(top):
            return f


def dual_with_foci(rng, c):
    """prod (x_k u + y_k v + w) + (u^2 + v^2) q: a dense real dual curve whose
    foci are the points (x_k, y_k)."""
    foci = _points(rng, c)
    g = {(0, 0, 0): Fraction(1)}
    for x, y in foci:
        g = _tmul(g, {(1, 0, 0): x, (0, 1, 0): y, (0, 0, 1): Fraction(1)})
    iso_q = _tmul({(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1)}, dense_curve(rng, c - 2))
    for e, v in iso_q.items():
        g[e] = g.get(e, 0) + v
    return {e: v for e, v in g.items() if v}, foci


def foci_routes_round(seed, index):
    rng = _rng("foci-routes", seed, index)
    ops = []
    for degree, kappa in PARAM_SLOTS:
        comps = cuspidal_param(rng, degree, kappa)
        doc = {"var": "t", "components": [{"coeffs": [_coef(x) for x in comp]} for comp in comps]}
        ops.append(Op("foci-param", ("foci", "--param", json.dumps(doc)), comps))
    for degree in PRIMAL_DEGREES:
        f = dense_smooth_curve(rng, degree)
        ops.append(Op("foci-primal", ("foci", "--primal", json.dumps(_tripoly_json(f, degree))), f))
    for c in DUAL_CLASSES:
        g, foci = dual_with_foci(rng, c)
        ops.append(Op("foci-dual", ("foci", "--dual", json.dumps(_tripoly_json(g, c))),
                      [complex(x, y) for x, y in foci]))
    return ops


# --- prescribed-foci ---------------------------------------------------------

def _polygon(n, center=0j, radius=1.0, turn=0.0):
    return [center + radius * cmath.exp(1j * (turn + 2 * math.pi * k / n)) for k in range(n)]


def _float_pairs(zs):
    return json.dumps([[z.real, z.imag] for z in zs])


def designed_siebeck_roots(rng, n):
    """Roots of f = integral of n prod (z - zeta_k) + C, and the zeta_k.

    The foci of the polar curve of f are the roots of f', which are the
    zeta_k by construction.
    """
    zetas = [complex(x, y) for x, y in _points(rng, n - 1)]
    f = np.polyint(n * np.poly(zetas), k=complex(_rational(rng), _rational(rng)))
    return list(np.roots(f)), zetas


def _construct(foci_json, prescribed, rng):
    argv = ("construct", "--foci", foci_json, "--random-q",
            "--seed", str(rng.randrange(2 ** 31)), "--family")
    return Op("construct", argv, prescribed)


def prescribed_foci_round(seed, index):
    rng = _rng("prescribed-foci", seed, index)
    ops = []
    for c in CONSTRUCT_CLASSES:
        pts = _points(rng, c)
        ops.append(_construct(json.dumps([[_text(x), _text(y)] for x, y in pts]),
                              [complex(x, y) for x, y in pts], rng))
    for c in CONSTRUCT_CLASSES:
        radius, turn = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * math.pi)
        shift = complex(*(float(v) for v in _points(rng, 1)[0]))
        for center in (0j, shift):
            verts = _polygon(c, center, radius, turn)
            ops.append(_construct(_float_pairs(verts), verts, rng))
    # fixed inputs: the centred polygons (and the translated 12-gon) expose the
    # multiplicity-gate fault on every seed, so they count as failures every run
    for n in SIEBECK_DEGREES:
        for center in (0j, POLYGON_SHIFT):
            expect = [(center, n - 1)]
            ops.append(Op("siebeck", ("siebeck", "--roots", _float_pairs(_polygon(n, center))),
                          expect, gate_probe=True))
    for n in SIEBECK_DEGREES:
        roots, zetas = designed_siebeck_roots(rng, n)
        ops.append(Op("siebeck", ("siebeck", "--roots", _float_pairs(roots)),
                      [(z, 1) for z in zetas]))
    return ops


WORKLOADS = {
    "rank-grid": Workload(
        "rank-grid", rank_grid_round, traced_rounds=25, warm_up=Op("row", (1, ((2, 0),)))),
    "foci-routes": Workload(
        "foci-routes", foci_routes_round, traced_rounds=4,
        warm_up=Op("foci-dual", ("foci", "--dual", json.dumps(_tripoly_json(
            {(2, 0, 0): Fraction(-2), (0, 2, 0): Fraction(-1), (0, 0, 2): Fraction(1)}, 2))))),
    "prescribed-foci": Workload(
        "prescribed-foci", prescribed_foci_round, traced_rounds=20,
        warm_up=Op("siebeck", ("siebeck", "--roots", "[[1,0],[-0.5,1],[0,-1]]"))),
}


# --- running one operation ---------------------------------------------------

def execute(op):
    """Call the program; the only part of an operation that is timed."""
    if op.kind == "row":
        seed, cells = op.args
        return [experiment.run_rank_trial(c, kappa, seed) for c, kappa in cells]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(op.args))
    return code, out.getvalue()


def _divisor(entries):
    return [(complex(re, im), int(m)) for re, im, m in entries]


def summarize(op, raw):
    """Reduce a raw result to the few fields its check reads."""
    if op.kind == "row":
        return {"trials": [{k: getattr(rec, k) for k in (
            "c", "kappa", "status", "d", "tangent_dim", "rank", "kernel_dim", "shifted_dim",
            "max_factor_residual", "max_shifted_residual")} for rec in raw]}
    code, text = raw
    if code != 0:
        return {"code": code, "text": text[:500]}
    doc = json.loads(text)
    if op.kind.startswith("foci-"):
        return {"code": 0, "foci": _divisor(doc["real_foci"])}
    if op.kind == "construct":
        terms = [(tuple(t["exp"]), complex(Fraction(t["coef"]["re"]), Fraction(t["coef"]["im"])))
                 for t in doc["curve"]["terms"]]
        return {"code": 0, "foci": _divisor(doc["verification"]["recovered_foci"]),
                "curve": terms, "dimension": doc["family"]["dimension"],
                "basis": len(doc["family"]["basis"])}
    return {"code": 0, "foci": _divisor(doc["foci"])}
