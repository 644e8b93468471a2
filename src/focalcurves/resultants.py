"""Sylvester resultants and binary discriminants.

The exact path runs fraction-free Bareiss elimination, which works over any
of the coefficient rings used here (Fraction, QQi, UniPoly, TriPoly) because
every intermediate division is exact.  Scalar floating inputs take a
partially pivoted elimination with growth monitoring instead; polynomial
entries with floating coefficients are rejected (callers rationalize first).
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .errors import DegreeTooLow, EliminationGrowthWarning, ZeroPolynomial
from .poly import TriPoly, UniPoly
from .scalars import is_exact, to_complex

_GROWTH_LIMIT = 1e13


def _entry_is_zero(x):
    if isinstance(x, (UniPoly, TriPoly)):
        return x.is_zero()
    return not x


def _entry_div(a, b):
    if isinstance(a, (UniPoly, TriPoly)):
        return a.exact_div(b)
    return a / b


def _entry_is_exact(x):
    if isinstance(x, (UniPoly, TriPoly)):
        return x.is_exact
    return is_exact(x)


def bareiss_determinant(matrix, zero):
    """Fraction-free determinant of a square matrix over an exact ring."""
    n = len(matrix)
    if n == 0:
        return None
    m = [list(row) for row in matrix]
    sign = 1
    prev = None
    for k in range(n - 1):
        if _entry_is_zero(m[k][k]):
            for r in range(k + 1, n):
                if not _entry_is_zero(m[r][k]):
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num if prev is None else _entry_div(num, prev)
            m[i][k] = zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def float_determinant(matrix):
    """Partially pivoted determinant over complex floats, with growth monitoring."""
    n = len(matrix)
    m = [[to_complex(c) for c in row] for row in matrix]
    start_max = max((abs(c) for row in m for c in row), default=0.0)
    det = 1.0 + 0j
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(m[r][k]))
        if abs(m[piv][k]) == 0.0:
            return 0j
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    end_max = max((abs(c) for row in m for c in row), default=0.0)
    if start_max > 0 and end_max / start_max > _GROWTH_LIMIT:
        warnings.warn(
            f"elimination entry growth {end_max / start_max:.2e}",
            EliminationGrowthWarning,
            stacklevel=2,
        )
    return det


def sylvester_matrix(p_coeffs, q_coeffs, zero):
    """Sylvester matrix from ascending coefficient lists of formal degrees n, m."""
    n = len(p_coeffs) - 1
    m = len(q_coeffs) - 1
    size = n + m
    p_desc = list(reversed(p_coeffs))
    q_desc = list(reversed(q_coeffs))
    rows = []
    for r in range(m):
        rows.append([zero] * r + p_desc + [zero] * (m - 1 - r))
    for r in range(n):
        rows.append([zero] * r + q_desc + [zero] * (n - 1 - r))
    assert all(len(row) == size for row in rows)
    return rows


def resultant_lists(p_coeffs, q_coeffs, zero, one):
    """Resultant of two ascending coefficient lists over a common ring.

    The lists are taken at their formal degrees (vanishing leading entries
    are legitimate and handled by the determinant itself).
    """
    n = len(p_coeffs) - 1
    m = len(q_coeffs) - 1
    if n == 0 and m == 0:
        return one
    if n == 0:
        acc = one
        for _ in range(m):
            acc = acc * p_coeffs[0]
        return acc
    if m == 0:
        acc = one
        for _ in range(n):
            acc = acc * q_coeffs[0]
        return acc
    rows = sylvester_matrix(p_coeffs, q_coeffs, zero)
    entries = p_coeffs + q_coeffs
    if all(_entry_is_exact(e) for e in entries):
        return bareiss_determinant(rows, zero)
    if any(isinstance(e, (UniPoly, TriPoly)) for e in entries):
        raise TypeError("polynomial-entry resultants require exact coefficients")
    return float_determinant(rows)


def resultant(p: UniPoly, q: UniPoly):
    """Sylvester resultant of two univariate polynomials (scalar result)."""
    pt, qt = p.trimmed(), q.trimmed()
    if pt.is_zero() or qt.is_zero():
        raise ZeroPolynomial("resultant of the zero polynomial is undefined")
    exact = pt.is_exact and qt.is_exact
    zero = Fraction(0) if exact else 0j
    one = Fraction(1) if exact else 1.0 + 0j
    return resultant_lists(list(pt.coeffs), list(qt.coeffs), zero, one)


def resultant_tripoly_lists(p_coeffs, q_coeffs):
    """Resultant of two polynomials whose coefficients are exact TriPolys."""

    def trim(cs):
        while len(cs) > 1 and cs[-1].is_zero():
            cs = cs[:-1]
        return cs

    pc = trim(list(p_coeffs))
    qc = trim(list(q_coeffs))
    if (len(pc) == 1 and pc[0].is_zero()) or (len(qc) == 1 and qc[0].is_zero()):
        raise ZeroPolynomial("resultant of the zero polynomial is undefined")
    zero = TriPoly.zero()
    one = TriPoly({(0, 0, 0): 1})
    return resultant_lists(pc, qc, zero, one)


def resultant_bipoly_in_s(p, q):
    """Eliminate s from two exact coefficient grids; returns a UniPoly in t.

    grid[i][j] multiplies s^i t^j, as ``poly.divided_difference_pair``
    returns them.
    """
    pc = [UniPoly(row).trimmed() for row in p]
    qc = [UniPoly(row).trimmed() for row in q]
    while len(pc) > 1 and pc[-1].is_zero():
        pc.pop()
    while len(qc) > 1 and qc[-1].is_zero():
        qc.pop()
    if (len(pc) == 1 and pc[0].is_zero()) or (len(qc) == 1 and qc[0].is_zero()):
        raise ZeroPolynomial("resultant of the zero polynomial is undefined")
    res = resultant_lists(pc, qc, UniPoly.zero(), UniPoly([Fraction(1)]))
    return res if isinstance(res, UniPoly) else UniPoly([res])


def discriminant_binary(form: UniPoly):
    """Discriminant of a binary form (zero iff it has a repeated root in P^1).

    The form of degree d in (y : z) is given by its ascending y-coefficient
    list with formal degree d (so the y^i coefficient multiplies y^i z^(d-i)).
    Normalization: the Sylvester resultant of the two partial derivatives,
    which vanishes exactly when the form has a repeated projective root,
    including roots at z = 0.
    """
    d = form.formal_degree
    if d < 2:
        raise DegreeTooLow(f"binary discriminant needs degree >= 2, got {d}")
    c = list(form.coeffs)
    fy = [c[i + 1] * (i + 1) for i in range(d)]
    fz = [c[i] * (d - i) for i in range(d)]
    exact = form.is_exact
    zero = Fraction(0) if exact else 0j
    one = Fraction(1) if exact else 1.0 + 0j
    return resultant_lists(fy, fz, zero, one)
