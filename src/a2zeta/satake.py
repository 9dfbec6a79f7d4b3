"""Symmetric-function verification of the spherical transform computations.

SymPoly models the ring of Laurent polynomials in z1, z2, z3 modulo
z1 z2 z3 = 1: a monomial z1^a z2^b z3^c is stored under the exponent key
(a - c, b - c).  The transform identities under test are finite families of
coefficient equalities at a concrete integer q.  Every coefficient they
produce is an integer, so they are decided exactly over Python ints.  The
generating series are polyint.Series, the one truncated power series type,
here with SymPoly coefficients.

One display in the source derivation carries a sign slip: the constant side
of the degree-aggregation identity must be -(q-1)(q^2-1) u^3/(1-u^3) for
the chain to match its own logarithmic-derivative form (the check here
recomputes both sides independently, which is how the slip shows up).
"""

import functools
from fractions import Fraction

from .polyint import Series


class SymPoly:
    """Finite combination of monomial classes; exact coefficients as given."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, val in terms.items():
                if val:
                    self.terms[key] = val

    @classmethod
    def monomial(cls, e1, e2, e3, coeff=1):
        return cls({(e1 - e3, e2 - e3): coeff})

    @classmethod
    def scalar(cls, c):
        return cls({(0, 0): c})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return SymPoly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return SymPoly(out)

    def __neg__(self):
        return SymPoly({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SymPoly({k: v * other for k, v in self.terms.items()})
        out = {}
        for (i1, j1), v1 in self.terms.items():
            for (i2, j2), v2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + v1 * v2
        return SymPoly(out)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        """other / self for a scalar other and a unit c z^k; int when exact."""
        if len(self.terms) != 1:
            raise ZeroDivisionError(f"{self!r} is not a unit")
        ((i, j), v), = self.terms.items()
        c = Fraction(other) / v
        return SymPoly({(-i, -j): c.numerator if c.denominator == 1 else c})

    def __eq__(self, other):
        return isinstance(other, SymPoly) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "SymPoly(0)"
        parts = [f"{v}*z^{k}" for k, v in sorted(self.terms.items())]
        return "SymPoly(" + " + ".join(parts) + ")"


ZERO = SymPoly()
ONE = SymPoly.scalar(1)


@functools.cache
def sigma(k, kind):
    """The three symmetric degree-k sums.

    kind 1: z1^k + z2^k + z3^k
    kind 2: sum over 1 <= a <= k-1 of z1^a z2^(k-a) + z2^a z3^(k-a) + z3^a z1^(k-a)
    kind 3: sum over a, b, c >= 1, a+b+c = k of z1^a z2^b z3^c

    Each value is made once per process and shared: no SymPoly operation
    changes its operands.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    out = ZERO
    if kind == 1:
        for e in ((k, 0, 0), (0, k, 0), (0, 0, k)):
            out = out + SymPoly.monomial(*e)
    elif kind == 2:
        for a in range(1, k):
            for e in ((a, k - a, 0), (0, a, k - a), (k - a, 0, a)):
                out = out + SymPoly.monomial(*e)
    elif kind == 3:
        for a in range(1, k - 1):
            for b in range(1, k - a):
                c = k - a - b
                if c >= 1:
                    out = out + SymPoly.monomial(a, b, c)
    else:
        raise ValueError("kind must be 1, 2 or 3")
    return out


def transform_Tk(q, k):
    """Image of the degree-k aggregate: q^k (s_k1 + s_k2 + (q^3-1)/q^3 s_k3)."""
    # s_k3 is empty for k < 3, where q^(k-3) would not be an integer
    s3 = (q ** max(k - 3, 0) * (q**3 - 1)) * sigma(k, 3)
    return (q**k) * (sigma(k, 1) + sigma(k, 2)) + s3


def transform_Tk0(q, k):
    """Image of the degree-k type-1 operator.

    q^k (s_k1 + (q-1)/q s_k2 + (q-1)^2/q^2 s_k3), over the integers; s_k3
    is empty for k < 3.
    """
    return (
        (q**k) * sigma(k, 1)
        + (q ** (k - 1) * (q - 1)) * sigma(k, 2)
        + (q ** max(k - 2, 0) * (q - 1) ** 2) * sigma(k, 3)
    )


def verify_sigma3_identity(order):
    """sum s_k3 u^k == u^3/(1-u^3) (1 + sum_{k>=1}(s_k1 + s_k2) u^k), to order."""
    residuals = []
    for K in range(order + 1):
        lhs = sigma(K, 3) if K >= 1 else ZERO
        rhs = ZERO
        j = 3
        while j <= K:
            i = K - j
            if i == 0:
                rhs = rhs + ONE
            else:
                rhs = rhs + sigma(i, 1) + sigma(i, 2)
            j += 3
        residuals.append(lhs - rhs)
    return all(r.is_zero() for r in residuals), residuals


def verify_recursion_42(q, order):
    """The degree-aggregation recursion at a concrete q, checked three ways.

    A:  q sum_k Tk0 u^k  -  (q-1) (sum_k Tk u^k)(1-q^2 u^3)/(1-u^3)
    B:  sum_k s_k1 (qu)^k  -  (q+1)(q-1)^2 u^3/(1-u^3)
    C:  u d/du log[(1-u^3)^r / prod_i (1 - q z_i u)],  3r = (q+1)(q-1)^2

    A == B == C termwise to the given order; returns (passed, residuals)
    with residuals the termwise A-C differences.
    """
    n = order

    def series(coeffs):
        return Series(coeffs, n)

    tk0 = series([ZERO] + [transform_Tk0(q, k) for k in range(1, n + 1)])
    tk = series([ZERO] + [transform_Tk(q, k) for k in range(1, n + 1)])
    u3 = series([ZERO, ZERO, ZERO, ONE])
    one_over_1_minus_u3 = (series([ONE]) - u3).inverse()
    a = q * tk0 - (q - 1) * tk * (series([ONE]) - q * q * u3) * one_over_1_minus_u3

    three_r = (q + 1) * (q - 1) ** 2
    cube_term = three_r * u3 * one_over_1_minus_u3
    b = series([ZERO] + [(q**k) * sigma(k, 1) for k in range(1, n + 1)]) - cube_term

    # C: prod (1 - q z_i u) = 1 - qA1-image u + q^2 e2 u^2 - q^3 u^3
    p = series([ONE, -q * sigma(1, 1), (q * q) * sigma(2, 2), SymPoly.scalar(-(q**3))])
    c = -1 * (p.log_derivative() + cube_term)

    res_ac = a - c
    passed = (a - b).is_zero() and res_ac.is_zero()
    return passed, res_ac.coeffs
