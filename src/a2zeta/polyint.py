"""Exact polynomial linear algebra over the integers.

IntPoly is a tuple of arbitrary-precision integer coefficients indexed by
degree, with no trailing zeros (canonical form; () is zero).  Every
polynomial determinant is det(I - B1 u - ... - Bd u^d) of integer matrices,
computed by det_i_minus_pencil as a reversed characteristic polynomial
modulo primes and rebuilt by CRT from a proven coefficient bound.  Series
carry exact Fraction coefficients to a recorded truncation order.
"""

from fractions import Fraction
from math import comb, isqrt

import numpy as np

from .errors import A2ZetaError


class IntPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    # -- constructors

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def monomial(cls, degree, c=1):
        return cls((0,) * degree + (c,))

    # -- basic structure

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring operations

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return IntPoly(out)

    def __neg__(self):
        return IntPoly([-x for x in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([x * other for x in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = IntPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divexact(self, other):
        """Exact polynomial division; raises if the remainder is nonzero."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        if self.is_zero():
            return IntPoly()
        if self.degree < d:
            raise A2ZetaError("inexact polynomial division")
        q = [0] * (self.degree - d + 1)
        for i in range(self.degree - d, -1, -1):
            c = rem[i + d]
            if c % lead:
                raise A2ZetaError("inexact polynomial division")
            q[i] = c // lead
            if q[i]:
                for j in range(d + 1):
                    rem[i + j] -= q[i] * other.coeffs[j]
        if any(rem):
            raise A2ZetaError("inexact polynomial division")
        return IntPoly(q)

    def divides(self, other):
        """True if self divides other exactly (over Q, checked over Z)."""
        try:
            other.divexact(self)
            return True
        except A2ZetaError:
            return False

    # -- calculus and substitution

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval_int(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def substitute_power(self, k):
        """p(u) -> p(u^k)."""
        if self.is_zero():
            return IntPoly()
        out = [0] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return IntPoly(out)

    def substitute_neg(self):
        """p(u) -> p(-u)."""
        return IntPoly([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    # -- gcd over Z (primitive PRS)

    def content(self):
        from math import gcd

        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self):
        g = self.content()
        if g in (0, 1):
            return self
        return IntPoly([c // g for c in self.coeffs])

    def gcd(self, other):
        a, b = self.primitive(), other.primitive()
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        while not b.is_zero():
            # pseudo-remainder, then strip content
            lead = b.coeffs[-1]
            shift = a.degree - b.degree
            if shift < 0:
                a, b = b, a
                continue
            r = a * (lead ** (shift + 1))
            q_deg = r.degree - b.degree
            rem = list(r.coeffs)
            for i in range(q_deg, -1, -1):
                c = rem[i + b.degree]
                if c == 0:
                    continue
                f = c // lead
                assert f * lead == c
                for j in range(b.degree + 1):
                    rem[i + j] -= f * b.coeffs[j]
            a, b = b, IntPoly(rem).primitive()
        if a.coeffs and a.coeffs[-1] < 0:
            a = -a
        return a

    def squarefree_decomposition(self):
        """Yun's algorithm: [(factor, multiplicity)] with factors squarefree.

        Factors are primitive and only determined up to sign, which is all
        root finding needs.  Exact integer arithmetic throughout.
        """
        p = self.primitive()
        if p.degree < 1:
            return []
        g = p.gcd(p.derivative())
        if g.degree < 1:
            return [(p, 1)]
        c = p.divexact(g)
        d = p.derivative().divexact(g) - c.derivative()
        out = []
        i = 1
        while c.degree > 0:
            a = c.gcd(d)
            if a.degree > 0:
                out.append((a, i))
            c = c.divexact(a) if not a.is_zero() else c
            d = d.divexact(a) - c.derivative()
            i += 1
        return out

    # -- formatting

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def format(self):
        """The line format 'poly <deg>: c0 c1 ... cdeg'."""
        if self.is_zero():
            return "poly -1:"
        body = " ".join(str(c) for c in self.coeffs)
        return f"poly {self.degree}: {body}"


def parse_poly_line(text):
    head, _, body = text.partition(":")
    if not head.startswith("poly"):
        raise A2ZetaError(f"not a poly line: {text!r}")
    coeffs = [int(tok) for tok in body.split()]
    return IntPoly(coeffs)


ZERO = IntPoly()
ONE = IntPoly.const(1)
U = IntPoly.monomial(1)


# ----------------------------------------------------------------------
# integer and polynomial determinants


def bareiss_det_int(rows):
    """Exact determinant of a square integer matrix (fraction-free)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (pkk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def det_i_minus_pencil(blocks):
    """det(I - B1 u - ... - Bd u^d) for square integer matrices B1..Bd, exactly.

    With C the block companion matrix of the pencil, det(I - u C) equals
    the pencil determinant, and it is the reversed characteristic
    polynomial of C: its u^k coefficient is (-1)^k e_k(eigenvalues of C).
    That polynomial is computed modulo primes p with N p^2 < 2^63
    (N = dim C) and rebuilt by CRT to symmetric residues.  Every eigenvalue
    has modulus at most rho, the largest absolute row sum of C, so
    |e_k| <= C(N, k) rho^k, and primes are taken until their product
    exceeds twice that bound: the result is exact by proof.  Entries must
    fit in int64.
    """
    c = _block_companion(blocks)
    n = len(c)
    if n == 0:
        return ONE
    rho = max(sum(abs(x) for x in row) for row in c.tolist())
    bound = max(comb(n, k) * rho**k for k in range(n + 1))
    coeffs, modulus = [0] * (n + 1), 1
    for p in _primes_descending(isqrt((2**63 - 1) // (n + 1))):
        residues = _charpoly_mod(c, p)[::-1].tolist()
        inv = pow(modulus, -1, p)
        coeffs = [x + modulus * ((r - x) * inv % p) for x, r in zip(coeffs, residues)]
        modulus *= p
        if modulus > 2 * bound:
            break
    half = modulus // 2
    return IntPoly([x - modulus if x > half else x for x in coeffs])


def _block_companion(blocks):
    """The dn x dn matrix [[B1 ... Bd], [I 0 ... 0], ..., [0 ... I 0]]; B1 when d = 1."""
    if not len(blocks[0]):
        return np.zeros((0, 0), dtype=np.int64)
    top = np.hstack([np.asarray(b, dtype=np.int64) for b in blocks])
    n, dn = top.shape
    c = np.zeros((dn, dn), dtype=np.int64)
    c[:n] = top
    c[n:, :-n] = np.eye(dn - n, dtype=np.int64)
    return c


def _charpoly_mod(c, p):
    """Coefficients of det(X I - C) mod p, lowest degree first.

    C is brought to upper Hessenberg form H by similarity transforms, then
    (Cohen, GTM 138, Algorithm 2.2.9) the leading minors' polynomials obey
        p_m = X p_{m-1} - sum_{k<m} H[k, m-1] H[k+1, k] ... H[m-1, m-2] p_k,
    evaluated with the coefficient rows of p_0..p_{m-1} as one array.  Each
    dot product sums at most N terms below p^2, which the caller keeps
    below 2^63.
    """
    h = c % p
    n = len(h)
    for m in range(n - 2):
        nz = np.flatnonzero(h[m + 1 :, m])
        if not nz.size:
            continue
        i = m + 1 + nz[0]
        if i != m + 1:
            h[[m + 1, i]] = h[[i, m + 1]]
            h[:, [m + 1, i]] = h[:, [i, m + 1]]
        u = h[m + 2 :, m] * pow(int(h[m + 1, m]), -1, p) % p
        h[m + 2 :] = (h[m + 2 :] - np.outer(u, h[m + 1])) % p
        h[:, m + 1] = (h[:, m + 1] + h[:, m + 2 :] @ u) % p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    t = np.zeros(n, dtype=np.int64)  # t[k] = H[k+1, k] ... H[m-1, m-2]
    for m in range(1, n + 1):
        t[m - 1] = 1
        w = h[:m, m - 1] * t[:m] % p
        polys[m, 1 : m + 1] = polys[m - 1, :m]
        polys[m, :m] = (polys[m, :m] - w @ polys[:m, :m]) % p
        if m < n:
            t[:m] = t[:m] * h[m, m - 1] % p
    return polys[n]


def _primes_descending(limit):
    """Primes p <= limit, largest first, for 61 < limit < 4759123141.

    Miller-Rabin with bases 2, 7, 61 is deterministic in that range.
    """
    for n in range((limit - 1) | 1, 61, -2):
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d, d odd
        d = (n - 1) >> s
        if all(
            pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s))
            for b in (2, 7, 61)
        ):
            yield n


# ----------------------------------------------------------------------
# rational functions and series


class RationalFunction:
    """A reduced quotient of integer polynomials with den(0) = 1."""

    def __init__(self, num, den=ONE):
        if isinstance(num, int):
            num = IntPoly.const(num)
        if isinstance(den, int):
            den = IntPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g != ONE:
            num = num.divexact(g)
            den = den.divexact(g)
        # also cancel integer content
        from math import gcd as igcd

        c = igcd(num.content(), den.content())
        if c > 1:
            num = IntPoly([x // c for x in num.coeffs])
            den = IntPoly([x // c for x in den.coeffs])
        if den[0] == -1:
            num, den = -num, -den
        if den[0] != 1:
            raise A2ZetaError(f"denominator constant term is {den[0]}, not 1")
        self.num = num
        self.den = den

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return RationalFunction(self.num * other.den, self.den * other.num)

    def substitute_power(self, k):
        return RationalFunction(
            self.num.substitute_power(k), self.den.substitute_power(k)
        )

    def substitute_neg(self):
        return RationalFunction(self.num.substitute_neg(), self.den.substitute_neg())

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


class Series:
    """Truncated power series with exact Fraction coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        c = [Fraction(x) for x in coeffs[: order + 1]]
        c += [Fraction(0)] * (order + 1 - len(c))
        self.coeffs = c
        self.order = order

    @classmethod
    def from_poly(cls, p, order):
        return cls([Fraction(c) for c in p.coeffs], order)

    def __eq__(self, other):
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __add__(self, other):
        n = min(self.order, other.order)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)], n)

    def __sub__(self, other):
        n = min(self.order, other.order)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)], n)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series([c * other for c in self.coeffs], self.order)
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a:
                for j, b in enumerate(other.coeffs[: n + 1 - i]):
                    if b:
                        out[i + j] += a * b
        return Series(out, n)

    __rmul__ = __mul__

    def inverse(self):
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series has no inverse: zero constant term")
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * self.order
        for k in range(1, self.order + 1):
            s = sum(self.coeffs[j] * out[k - j] for j in range(1, k + 1))
            out[k] = -inv0 * s
        return Series(out, self.order)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def integer_coeffs(self):
        """Coefficients as ints; raises if any is not integral."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise A2ZetaError(f"non-integer series coefficient {c}")
            out.append(int(c))
        return out

    def __repr__(self):
        return f"Series({self.coeffs}, order={self.order})"


def poly_log_derivative(p, order):
    """u d/du log p as a Series, requiring p(0) != 0."""
    if p[0] == 0:
        raise A2ZetaError("log derivative needs a nonzero constant term")
    ps = Series.from_poly(p, order)
    dp = Series.from_poly(p.derivative(), order)
    u = Series([0, 1], order)
    return u * dp * ps.inverse()


def series_log_derivative(rf, order):
    """u d/du log(num/den) as a Series with exact coefficients."""
    return poly_log_derivative(rf.num, order) - poly_log_derivative(rf.den, order)


def rational_series(rf, order):
    """Power series expansion of a rational function."""
    num = Series.from_poly(rf.num, order)
    den = Series.from_poly(rf.den, order)
    return num * den.inverse()


def newton_power_sums(p, order):
    """Power sums Tr X^n, 1 <= n <= order, from p = det(I - X u).

    The coefficient of u^n in -u p'/p is the n-th power sum; p must have
    constant term 1.
    """
    if p[0] != 1:
        raise A2ZetaError("newton_power_sums expects constant term 1")
    series = poly_log_derivative(p, order)
    return [-c for c in series.integer_coeffs()][1:]
