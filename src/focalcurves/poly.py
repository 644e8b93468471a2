"""Exact and floating polynomial arithmetic.

Two shapes of polynomial live here:

* :class:`TriPoly` — homogeneous trivariate polynomials (dense exponent map),
  the carrier for dual-curve equations and deformation directions.
* :class:`UniPoly` — univariate polynomials with an explicit formal degree,
  so a vanishing top coefficient is visible to degree-drop diagnostics.

Coefficients are Fraction / QQi (exact) or complex (floating); a polynomial
never mixes the two.  All values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite

from .errors import NotDivisible, ZeroPolynomial
from .scalars import (
    POW_MINUS_I,
    POW_PLUS_I,
    QQi,
    conjugate_scalar,
    exact_re_im,
    fraction_content,
    is_exact,
    rationalize_scalar,
    to_complex,
)


def _normalize_coefficient(c):
    if isinstance(c, bool):
        raise TypeError("bool is not a polynomial coefficient")
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, Fraction):
        return c
    if isinstance(c, QQi):
        return c.re if c.im == 0 else c
    if isinstance(c, (float, complex)):
        z = complex(c)
        if not (isfinite(z.real) and isfinite(z.imag)):
            raise ValueError("polynomial coefficients must be finite")
        return z
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


def _unify(coeffs):
    """Normalize a coefficient list; cast everything to complex if any float entered."""
    out = [_normalize_coefficient(c) for c in coeffs]
    if any(isinstance(c, complex) for c in out):
        out = [to_complex(c) for c in out]
    return out


def monomials_of_degree(degree, drop_top_w=False):
    """Exponent triples (i, j, k) with i+j+k = degree, w-power descending then v-power.

    This is the canonical coefficient ordering used for condition matrices and
    focal jacobians; with ``drop_top_w`` the chart slot (0, 0, degree) is omitted.
    """
    monos = []
    for k in range(degree, -1, -1):
        for j in range(degree - k, -1, -1):
            monos.append((degree - k - j, j, k))
    if drop_top_w:
        monos = monos[1:]
    return monos


class TriPoly:
    """Sparse polynomial in three variables (u, v, w).

    Curve equations are homogeneous; declaring ``degree=`` at construction
    validates that every exponent triple sums to it.  Plumbing (elimination
    intermediates) may hold mixed-degree terms, and the operations that need
    homogeneity check :attr:`is_homogeneous` themselves.
    """

    __slots__ = ("terms", "degree")

    def __init__(self, terms, degree=None):
        coeffs = _unify(terms.values()) if terms else []
        clean = {}
        for exp, coef in zip(terms.keys(), coeffs):
            if coef:
                e = (int(exp[0]), int(exp[1]), int(exp[2]))
                if min(e) < 0:
                    raise ValueError(f"negative exponent in {e}")
                clean[e] = coef
        if clean:
            degrees = {sum(e) for e in clean}
            if degree is not None and degrees != {degree}:
                raise ValueError(
                    f"declared degree {degree} != term degrees {sorted(degrees)}")
            degree = max(degrees)
        elif degree is None:
            degree = 0
        self.terms = clean
        self.degree = degree

    @property
    def is_homogeneous(self):
        return len({sum(e) for e in self.terms}) <= 1

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, degree=0):
        return cls({}, degree=degree)

    @classmethod
    def monomial(cls, exp, coef=1):
        return cls({tuple(exp): coef})

    @classmethod
    def linear_form(cls, cu, cv, cw):
        return cls({(1, 0, 0): cu, (0, 1, 0): cv, (0, 0, 1): cw})

    @classmethod
    def isotropic_conic(cls):
        """u^2 + v^2, the union of the two isotropic lines."""
        return cls({(2, 0, 0): 1, (0, 2, 0): 1})

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def is_exact(self):
        return all(is_exact(c) for c in self.terms.values())

    def is_real(self, tol=1e-10):
        """True when every coefficient has (near-)zero imaginary part.

        Exact coefficients are tested exactly; floating ones against ``tol``.
        """
        for c in self.terms.values():
            if is_exact(c):
                if isinstance(c, QQi) and c.im != 0:
                    return False
            elif abs(c.imag) > tol:
                return False
        return True

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TriPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return TriPoly(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TriPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, TriPoly):
            if self.is_zero() or other.is_zero():
                return TriPoly.zero(self.degree + other.degree)
            terms = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    terms[e] = terms.get(e, 0) + c1 * c2
            return TriPoly(terms)
        return TriPoly({e: c * other for e, c in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), Fraction(0) if self.is_exact else 0j)

    def coefficient_vector(self, monomials):
        return [self.terms.get(m, 0) for m in monomials]

    def diff(self, axis):
        """Partial derivative with respect to variable ``axis`` (0=u, 1=v, 2=w)."""
        terms = {}
        for e, c in self.terms.items():
            if e[axis] > 0:
                ne = list(e)
                ne[axis] -= 1
                terms[tuple(ne)] = c * e[axis]
        return TriPoly(terms) if terms else TriPoly.zero(max(self.degree - 1, 0))

    def evaluate(self, u, v, w):
        total = 0
        for (i, j, k), c in self.terms.items():
            total = total + c * u**i * v**j * w**k
        return total

    def conjugate(self):
        if not self.terms:
            return self
        return TriPoly({e: conjugate_scalar(c) for e, c in self.terms.items()})

    # -- isotropic structure --------------------------------------------

    def restrict_isotropic(self, sign="+"):
        """Restrict to the isotropic line: substitute (u, v) = (-1, -i) or (-1, +i).

        Returns a :class:`UniPoly` in w of formal degree equal to this degree;
        its top coefficient is the coefficient of w^degree here.
        """
        if sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        c = self.degree
        if self.is_exact:
            table = POW_MINUS_I if sign == "+" else POW_PLUS_I
            out = [Fraction(0)] * (c + 1)
            for (i, j, k), coef in self.terms.items():
                val = coef * table[j % 4]
                if i % 2:
                    val = -val
                out[k] = out[k] + val
        else:
            iv = -1j if sign == "+" else 1j
            out = [0j] * (c + 1)
            for (i, j, k), coef in self.terms.items():
                out[k] = out[k] + coef * (-1.0) ** (i % 2) * iv ** (j % 4)
        return UniPoly(out)

    def divide_isotropic(self):
        """Divide by u^2 + v^2; returns (quotient, remainder).

        The remainder collects all terms of u-degree <= 1 left after the
        division, so ``self == (u^2+v^2) * quotient + remainder`` exactly.
        """
        work = dict(self.terms)
        quot = {}
        max_u = max((e[0] for e in work), default=0)
        for a in range(max_u, 1, -1):
            layer = [e for e in work if e[0] == a]
            for e in layer:
                coef = work.pop(e)
                qe = (a - 2, e[1], e[2])
                quot[qe] = quot.get(qe, 0) + coef
                se = (a - 2, e[1] + 2, e[2])
                work[se] = work.get(se, 0) - coef
                if not work[se]:
                    del work[se]
        quotient = TriPoly(quot) if quot else TriPoly.zero(max(self.degree - 2, 0))
        remainder = TriPoly(work) if work else TriPoly.zero(self.degree)
        return quotient, remainder

    # -- exact-domain helpers -------------------------------------------

    def exact_div(self, other):
        """Exact division by another homogeneous polynomial (exact coefficients).

        Raises NotDivisible if the division leaves a remainder; callers use
        this inside fraction-free elimination where divisibility is known.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return TriPoly.zero(max(self.degree - other.degree, 0))
        rem = dict(self.terms)
        quot = {}
        lead = max(other.terms)
        lead_c = other.terms[lead]
        while rem:
            lr = max(rem)
            de = (lr[0] - lead[0], lr[1] - lead[1], lr[2] - lead[2])
            if min(de) < 0:
                raise NotDivisible("leading term not divisible")
            qc = rem[lr] / lead_c
            quot[de] = quot.get(de, 0) + qc
            for e, c in other.terms.items():
                te = (e[0] + de[0], e[1] + de[1], e[2] + de[2])
                val = rem.get(te, 0) - qc * c
                if val:
                    rem[te] = val
                elif te in rem:
                    del rem[te]
        return TriPoly(quot)

    def content(self):
        """Rational content of an exact polynomial (over all re/im parts)."""
        parts = []
        for c in self.terms.values():
            r, i = exact_re_im(c)
            parts.append(r)
            parts.append(i)
        return fraction_content(p for p in parts if p != 0)

    def primitive(self):
        c = self.content()
        if c in (0, 1):
            return self
        return self * (1 / c)

    # -- coordinate changes --------------------------------------------------

    def substitute_linear(self, rows):
        """Substitute each variable by a linear form (rows of a 3x3 matrix)."""
        forms = [TriPoly.linear_form(*r) for r in rows]
        pows = _power_tables(forms, self.degree)
        acc = TriPoly.zero(self.degree)
        for (i, j, k), coef in self.terms.items():
            acc = acc + pows[0][i] * pows[1][j] * pows[2][k] * coef
        return acc

    # -- conversions ------------------------------------------------------

    def as_float(self):
        if not self.terms:
            return TriPoly.zero(self.degree)
        return TriPoly({e: to_complex(c) for e, c in self.terms.items()})

    def as_real_float(self):
        if not self.terms:
            return TriPoly.zero(self.degree)
        return TriPoly({e: complex(to_complex(c).real) for e, c in self.terms.items()})

    def as_exact(self):
        if not self.terms:
            return TriPoly.zero(self.degree)
        return TriPoly({e: rationalize_scalar(c) for e, c in self.terms.items()})

    def max_abs(self):
        return max((abs(to_complex(c)) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        if self.is_zero():
            return f"TriPoly(0, degree={self.degree})"
        bits = []
        for e in sorted(self.terms, reverse=True):
            bits.append(f"{self.terms[e]}*u^{e[0]}v^{e[1]}w^{e[2]}")
        return "TriPoly(" + " + ".join(bits) + ")"


def _power_tables(polys, degree):
    tables = []
    for p in polys:
        t = [TriPoly({(0, 0, 0): 1}), p]
        while len(t) <= degree:
            t.append(t[-1] * p)
        tables.append(t)
    return tables


class UniPoly:
    """Univariate polynomial, coefficients ascending, with explicit formal degree.

    The coefficient list always has length ``formal_degree + 1``; the top
    coefficient may be zero, which is how degree drops stay observable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = _unify(list(coeffs))
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls([Fraction(0)])

    @classmethod
    def from_roots(cls, roots):
        acc = cls([1 if all(is_exact(_normalize_coefficient(r)) for r in roots) else 1.0 + 0j])
        for r in roots:
            acc = acc * cls([-r, 1])
        return acc

    @property
    def formal_degree(self):
        return len(self.coeffs) - 1

    @property
    def is_exact(self):
        return all(is_exact(c) for c in self.coeffs)

    def effective_degree(self, rel_tol=0.0):
        """Largest index with a (relatively) nonzero coefficient; -1 for zero."""
        if rel_tol and not self.is_exact:
            scale = max((abs(c) for c in self.coeffs), default=0.0)
            if scale == 0.0:
                return -1
            for i in range(len(self.coeffs) - 1, -1, -1):
                if abs(self.coeffs[i]) > rel_tol * scale:
                    return i
            return -1
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def trimmed(self):
        d = self.effective_degree()
        return UniPoly(self.coeffs[:d + 1]) if d >= 0 else UniPoly.zero()

    def padded(self, formal_degree):
        if formal_degree < self.formal_degree:
            raise ValueError("cannot pad below current formal degree")
        zero = Fraction(0) if self.is_exact else 0j
        return UniPoly(list(self.coeffs) + [zero] * (formal_degree - self.formal_degree))

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else 0
            b = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(a + b)
        return UniPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
            return UniPoly(out)
        return UniPoly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.trimmed().coeffs == other.trimmed().coeffs

    def __hash__(self):
        return hash(self.trimmed().coeffs)

    def derivative(self):
        if len(self.coeffs) == 1:
            return UniPoly([self.coeffs[0] * 0])
        return UniPoly([self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def evaluate(self, x):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def conjugate(self):
        return UniPoly([conjugate_scalar(c) for c in self.coeffs])

    def divmod_field(self, other):
        """Long division over a coefficient field; returns (quotient, remainder)."""
        dn = other.effective_degree()
        if dn < 0:
            raise ZeroDivisionError("division by zero polynomial")
        lead = other.coeffs[dn]
        rem = list(self.trimmed().coeffs)
        quot = [Fraction(0)] * max(len(rem) - dn, 1)
        while len(rem) - 1 >= dn and any(bool(c) for c in rem):
            dr = len(rem) - 1
            if not rem[dr]:
                rem.pop()
                continue
            q = rem[dr] / lead
            quot[dr - dn] = q
            for i in range(dn + 1):
                rem[dr - dn + i] = rem[dr - dn + i] - q * other.coeffs[i]
            rem.pop()
        return UniPoly(quot), UniPoly(rem if rem else [Fraction(0)])

    def exact_div(self, other):
        q, r = self.divmod_field(other)
        if not r.is_zero():
            raise NotDivisible("univariate division left a remainder")
        return q

    def content(self):
        parts = []
        for c in self.coeffs:
            r, i = exact_re_im(c)
            parts.append(r)
            parts.append(i)
        return fraction_content(p for p in parts if p != 0)

    def primitive(self):
        c = self.content()
        if c in (0, 1):
            return self
        return self * (1 / c)

    def monic(self):
        d = self.effective_degree()
        if d < 0:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return self * (1 / self.coeffs[d])

    def as_float(self):
        return UniPoly([to_complex(c) for c in self.coeffs])

    def as_exact(self):
        return UniPoly([rationalize_scalar(c) for c in self.coeffs])

    def complex_coeffs(self):
        return [to_complex(c) for c in self.coeffs]

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"


def unipoly_gcd(p, q):
    """Monic gcd over the coefficient field (Fraction or QQi); exact inputs only."""
    a, b = p.trimmed(), q.trimmed()
    if a.is_zero():
        return b.monic() if not b.is_zero() else UniPoly.zero()
    if b.is_zero():
        return a.monic()
    while not b.is_zero():
        _, r = a.divmod_field(b)
        a, b = b, r.trimmed()
    return a.monic()


def unipoly_gcd_many(polys):
    acc = UniPoly.zero()
    for p in polys:
        acc = unipoly_gcd(acc, p)
        if acc.effective_degree() == 0:
            break
    return acc


def _bezout_grid(a, c):
    """Coefficient grid of (A(s)C(t) - A(t)C(s))/(s - t): the Bezout matrix of A, C.

    grid[i][j] multiplies s^i t^j.  Since (s^i t^j - s^j t^i)/(s - t) is the
    sum of s^p t^(i+j-1-p) over j <= p < i, each pair i > j of coefficient
    indices adds a_i c_j - a_j c_i along one antidiagonal.
    """
    n = max(len(a), len(c))
    a = list(a) + [Fraction(0)] * (n - len(a))
    c = list(c) + [Fraction(0)] * (n - len(c))
    size = max(n - 1, 1)
    grid = [[Fraction(0)] * size for _ in range(size)]
    for i in range(n):
        for j in range(i):
            d = a[i] * c[j] - a[j] * c[i]
            if d:
                for p in range(j, i):
                    grid[p][i + j - 1 - p] += d
    return tuple(tuple(row) for row in grid)


def divided_difference_pair(a, b, c):
    """Node system of an exact parameterization (a, b, c).

    Returns the coefficient grids of (A(s)C(t) - A(t)C(s))/(s-t) and
    (B(s)C(t) - B(t)C(s))/(s-t), where grid[i][j] multiplies s^i t^j.
    Off-diagonal common zeros, validated projectively, are the node parameter
    pairs; the diagonal carries the cusp condition.
    """
    return _bezout_grid(a.coeffs, c.coeffs), _bezout_grid(b.coeffs, c.coeffs)
