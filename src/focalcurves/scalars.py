"""Coefficient domains: exact rationals, Gaussian rationals, and complex floats.

Exact coefficients are `fractions.Fraction` (real) or :class:`QQi` (complex
with Fraction real and imaginary parts).  Floating coefficients are Python
`complex`.  Polynomial constructors normalise ints to Fraction and floats to
complex, so a polynomial is either fully exact or fully floating.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class QQi:
    """Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def conjugate(self):
        return QQi(self.re, -self.im)

    def _coerce(self, other):
        if isinstance(other, QQi):
            return other
        if isinstance(other, (int, Fraction)):
            return QQi(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) + other
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) - other
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return other - complex(self)
        return QQi(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) * other
        return QQi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) / other
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi((self.re * o.re + self.im * o.im) / n,
                   (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return other / complex(self)
        return o / self

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("QQi powers must be non-negative integers")
        acc = QQi(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, QQi):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"


EXACT_TYPES = (int, Fraction, QQi)

# powers of -i and +i, used by the isotropic substitution
POW_MINUS_I = (QQi(1), QQi(0, -1), QQi(-1), QQi(0, 1))
POW_PLUS_I = (QQi(1), QQi(0, 1), QQi(-1), QQi(0, -1))


def is_exact(x) -> bool:
    return isinstance(x, EXACT_TYPES)


def to_complex(x) -> complex:
    return complex(x)


def conjugate_scalar(x):
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, QQi):
        return x.conjugate()
    return x.conjugate() if isinstance(x, complex) else complex(x).conjugate()


def exact_re_im(x):
    """Real and imaginary parts of an exact scalar, as Fractions."""
    if isinstance(x, QQi):
        return x.re, x.im
    if isinstance(x, int):
        return Fraction(x), Fraction(0)
    if isinstance(x, Fraction):
        return x, Fraction(0)
    raise TypeError(f"not an exact scalar: {x!r}")


#: continued-fraction snap applied to float input before exact arithmetic
MAX_DENOMINATOR = 10**12


def rationalize(x) -> Fraction:
    """Snap a float to a nearby rational via continued fractions."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x).limit_denominator(MAX_DENOMINATOR)


def rationalize_scalar(x):
    """Snap any scalar to the exact domain (Fraction or QQi)."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, QQi):
        return x
    z = complex(x)
    re = rationalize(z.real)
    if z.imag == 0.0:
        return re
    return QQi(re, rationalize(z.imag))


def fraction_content(fractions) -> Fraction:
    """gcd of numerators over lcm of denominators; 0 for an empty input."""
    num = 0
    den = 1
    for f in fractions:
        num = gcd(num, abs(f.numerator))
        den = den * f.denominator // gcd(den, f.denominator)
    if num == 0:
        return Fraction(0)
    return Fraction(num, den)
