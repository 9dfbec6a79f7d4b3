"""Exact polynomial linear algebra over the integers.

IntPoly is a tuple of arbitrary-precision integer coefficients indexed by
degree, with no trailing zeros (canonical form; () is zero).  Every
polynomial determinant is det(I - B1 u - ... - Bd u^d) of integer matrices,
computed by det_i_minus_pencil as a reversed characteristic polynomial
modulo primes and rebuilt by CRT from a proven coefficient bound.  Given a
free permutation action of Z/n that the matrices commute with, the primes
are taken = 1 (mod n) and each residue is the product of n small
characteristic polynomials, one per character of Z/n: the discrete
Fourier transform is invertible mod such p, so the residue is the same
and exactness rests on the same bound and CRT.  Series
is the one truncated power series type: generic in its coefficient ring, it
carries exact Fraction coefficients for the zeta identities and SymPoly
coefficients for the Satake-side recursion checks.
"""

import functools
import itertools
from fractions import Fraction
from math import comb, isqrt, lcm

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

    # -- calculus and substitution

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

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


ZERO = IntPoly()
ONE = IntPoly.const(1)
U = IntPoly.monomial(1)


# ----------------------------------------------------------------------
# polynomial determinants


def det_i_minus_pencil(blocks, action=None):
    """det(I - B1 u - ... - Bd u^d) for square integer matrices B1..Bd, exactly.

    With C the block companion matrix of the pencil, det(I - u C) equals
    the pencil determinant, and it is the reversed characteristic
    polynomial of C: its u^k coefficient is (-1)^k e_k(eigenvalues of C).
    That polynomial is computed modulo primes p with N p^2 < 2^63
    (N = dim C) and rebuilt by CRT to symmetric residues.  e_k is the sum
    of the C(N, k) principal k x k minors of C, and by Hadamard's
    inequality each minor is at most the product of its rows' 2-norms,
    each at most sqrt(r) with r the largest squared row 2-norm of C.  So
    |e_k| <= C(N, k) r^(k/2), and primes are taken until their product m
    has m^2 > 4 C(N, k)^2 r^k for every k: m exceeds 2 |e_k|, and the result
    is exact by proof, with no square root taken.  Entries must fit in int64.

    action is an optional permutation sigma of range(dim Bi), given as its
    image list, that generates a free action of Z/n: every orbit has n
    elements and every Bi satisfies Bi[sigma][:, sigma] == Bi, checked
    here (A2ZetaError otherwise).  The default is the trivial group, n = 1.
    Acting on each companion block, sigma splits C's index set into k = N/n
    orbits rep_a, sigma rep_a, ..., and C is determined by the orbit blocks
    G_g[a, b] = C[rep_a, sigma^g rep_b].  For a prime p = 1 (mod n) with zeta a
    primitive n-th root of unity mod p, the discrete Fourier transform over
    Z/n, invertible mod p, makes C similar mod p to the block diagonal of
    the character blocks M_j = sum_g zeta^(jg) G_g, j = 0..n-1, so
        charpoly(C) = prod_j charpoly(M_j)  (mod p).
    The k-square characteristic polynomials of all n characters and of
    many primes at once come from one batched Hessenberg pass, and their
    product mod p is the same residue as above; the bound, the CRT and so
    the proof of exactness do not change.  Every sum of products of
    residues, in M_j, the Hessenberg pass or the product, has at most N + 1
    terms below p^2, so int64 holds it.  With n = 1 there is one block,
    M_0 = C.

    The primes are the largest p = 1 (mod n) with (N + 1) p^2 < 2^63, in
    descending order.  They come from a table kept for the life of the
    process per (bound on p, n), which grows as later calls need more, so
    each candidate is tested for primality once; the same goes for each
    root of unity mod p.
    """
    c = _block_companion(blocks)
    size = len(c)
    if size == 0:
        return ONE
    orbits = _orbit_table(c, action, len(blocks))
    k, n = orbits.shape
    # orbit blocks G[g, a, b] = C[rep_a, sigma^g rep_b], flattened over (a, b)
    g_blocks = c[orbits[None, :, 0, None], orbits.T[:, None, :]].reshape(n, k * k)
    r = _max_row_norm2(c)
    bound = max(comb(size, j) ** 2 * r**j for j in range(size + 1))
    primes, modulus = [], 1
    for p in _crt_primes(isqrt((2**63 - 1) // (size + 1)), n):
        primes.append(p)
        modulus *= p
        if modulus**2 > 4 * bound:
            break
    exponents = np.outer(np.arange(n), np.arange(n)) % n
    coeffs, crt_mod = [0] * (size + 1), 1
    # primes go through the batched pass together, a stack of at most
    # _BATCH_ENTRIES matrix entries at a time
    per_pass = max(1, _BATCH_ENTRIES // (n * k * k))
    for start in range(0, len(primes), per_pass):
        chunk = primes[start : start + per_pass]
        mods = np.array(chunk, dtype=np.int64)[:, None, None]
        powers = []
        for p in chunk:
            zeta = _root_of_unity(n, p)
            powers.append([pow(zeta, e, p) for e in range(n)])
        m = np.array(powers, dtype=np.int64)[:, exponents] @ (g_blocks % mods) % mods
        factors = _charpoly_mod(m.reshape(-1, k, k), np.repeat(mods, n, axis=0))
        for p, row in zip(chunk, factors.reshape(len(chunk), n, k + 1)):
            charpoly = row[0]
            for f in row[1:]:
                charpoly = np.convolve(charpoly, f) % p
            inv = pow(crt_mod, -1, p)
            coeffs = [
                x + crt_mod * ((y - x) * inv % p)
                for x, y in zip(coeffs, charpoly[::-1].tolist())
            ]
            crt_mod *= p
    half = modulus // 2
    return IntPoly([x - modulus if x > half else x for x in coeffs])


_BATCH_ENTRIES = 2**18


def _orbit_table(c, action, d):
    """The orbits of the action on the companion's index set, one row each.

    Row a is rep_a, sigma rep_a, ..., sigma^(n-1) rep_a; sigma acts alike on
    each of the d companion blocks.  Raises A2ZetaError unless sigma is a
    permutation, C[sigma][:, sigma] == C, and every orbit has n elements.
    """
    size = len(c)
    if action is None:
        return np.arange(size)[:, None]
    base = size // d
    sigma = np.asarray(action, dtype=np.int64)
    if not np.array_equal(np.sort(sigma), np.arange(base)):
        raise A2ZetaError("action is not a permutation of the index set")
    sigma = (sigma + base * np.arange(d)[:, None]).ravel()
    if not np.array_equal(c[sigma][:, sigma], c):
        raise A2ZetaError("matrix does not commute with the action")
    step, seen, orbits = sigma.tolist(), [False] * size, []
    for i in range(size):
        if not seen[i]:
            orbit = [i]
            while step[orbit[-1]] != i:
                orbit.append(step[orbit[-1]])
            for j in orbit:
                seen[j] = True
            orbits.append(orbit)
    n = lcm(*map(len, orbits))
    if any(len(orbit) < n for orbit in orbits):
        raise A2ZetaError(f"action is not free: an orbit is shorter than {n}")
    return np.array(orbits)


def _max_row_norm2(c):
    """The largest squared row 2-norm of an int64 matrix, exactly.

    One numpy reduction when every row sum fits in int64 (max|entry|^2 times
    the row length below 2^63), Python integers otherwise.
    """
    big = max(-int(c.min()), int(c.max()))
    if big * big * c.shape[1] < 2**63:
        return int((c * c).sum(axis=1).max())
    return max(sum(x * x for x in row) for row in c.tolist())


@functools.cache
def _root_of_unity(n, p):
    """A primitive n-th root of unity modulo a prime p = 1 (mod n)."""
    for x in range(2, p):
        z = pow(x, (p - 1) // n, p)
        if all(pow(z, n // e, p) != 1 for e in range(2, n + 1) if n % e == 0):
            return z


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


def _charpoly_mod(stack, mods):
    """Coefficients of det(X I - M) mod p, lowest degree first, for each M.

    stack is a (b, k, k) array of residues, overwritten here, and mods a
    (b, 1, 1) array of primes: stack[j] is reduced mod mods[j], and row j of
    the result belongs to it.  Each M is brought to upper Hessenberg form H
    by similarity transforms, all b at once, then (Cohen, GTM 138,
    Algorithm 2.2.9) the leading minors' polynomials obey
        p_m = X p_{m-1} - sum_{k<m} H[k, m-1] H[k+1, k] ... H[m-1, m-2] p_k,
    evaluated with the coefficient rows of p_0..p_{m-1} as one array.  Each
    dot product sums at most k terms below p^2, which the caller keeps
    below 2^63.
    """
    h = stack
    b, k, _ = h.shape
    primes, rows = mods.ravel().tolist(), mods[:, 0]
    for m in range(k - 2):
        pivots = h[:, m + 1, m].tolist()
        if 0 in pivots:
            # pivot row: the first with a nonzero entry below the diagonal
            i = m + 1 + np.argmax(h[:, m + 1 :, m] != 0, axis=1)
            s = np.flatnonzero(i != m + 1)
            i = i[s]
            h[s, m + 1], h[s, i] = h[s, i], h[s, m + 1]
            h[s, :, m + 1], h[s, :, i] = h[s, :, i], h[s, :, m + 1]
            pivots = h[:, m + 1, m].tolist()
        inv = np.array([[[pow(x, -1, p) if x else 0]] for x, p in zip(pivots, primes)])
        u = h[:, m + 2 :, m, None] * inv % mods
        # rows m+1 and below are already zero left of column m
        h[:, m + 2 :, m:] = (h[:, m + 2 :, m:] - u * h[:, m + 1, None, m:]) % mods
        h[:, :, m + 1] = (h[:, :, m + 1] + (h[:, :, m + 2 :] @ u)[:, :, 0]) % rows
    polys = np.zeros((b, k + 1, k + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    t = np.ones((b, 1, k), dtype=np.int64)  # t[:, 0, j] = H[j+1, j] ... H[m-1, m-2]
    for m in range(1, k + 1):
        w = h[:, None, :m, m - 1] * t[:, :, :m] % mods
        polys[:, m, 1 : m + 1] = polys[:, m - 1, :m]
        polys[:, m, :m] = (polys[:, m, :m] - (w @ polys[:, :m, :m])[:, 0]) % rows
        if m < k:
            t[:, :, :m] = t[:, :, :m] * h[:, m, None, m - 1, None] % mods
    return polys[:, k]


# (limit, n) -> (the primes of _primes_descending(limit, n) found so far,
# the generator that finds the rest)
_PRIME_TABLES = {}


def _crt_primes(limit, n):
    """The primes of _primes_descending(limit, n), in order, each tested once per process.

    The table for (limit, n) grows only as far as some caller has read.
    """
    found, more = _PRIME_TABLES.setdefault((limit, n), ([], _primes_descending(limit, n)))
    for i in itertools.count():
        if i == len(found):
            p = next(more, None)
            if p is None:
                return
            found.append(p)
        yield found[i]


def _primes_descending(limit, n=1):
    """Primes p = 1 (mod n), p <= limit, largest first, for 61 < limit < 4759123141.

    Only the candidates = 1 (mod 2n) are tested, by Miller-Rabin with bases
    2, 7, 61, which is deterministic in that range.
    """
    for x in range(limit - (limit - 1) % (2 * n), 61, -2 * n):
        s = ((x - 1) & (1 - x)).bit_length() - 1  # x - 1 = 2^s d, d odd
        d = (x - 1) >> s
        if all(
            pow(b, d, x) == 1 or any(pow(b, d << r, x) == x - 1 for r in range(s))
            for b in (2, 7, 61)
        ):
            yield x


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
    """Truncated power series over a commutative ring, to a recorded order.

    The ring is that of the coefficients: anything with +, -, *, == and
    1 / unit, such as Fraction or satake.SymPoly.  Python ints are lifted
    to Fraction, so integer input stays exact under inversion.  The zero
    of the ring is taken from the coefficients themselves.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        c = [Fraction(x) if isinstance(x, int) else x for x in coeffs[: order + 1]]
        zero = c[0] * 0 if c else Fraction(0)
        self.coeffs = c + [zero] * (order + 1 - len(c))
        self.order = order

    @classmethod
    def from_poly(cls, p, order):
        return cls(p.coeffs, order)

    @property
    def zero(self):
        return self.coeffs[0] * 0

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
        zero = self.zero
        out = [zero] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a != zero:
                for j, b in enumerate(other.coeffs[: n + 1 - i]):
                    if b != zero:
                        out[i + j] += a * b
        return Series(out, n)

    __rmul__ = __mul__

    def inverse(self):
        zero = self.zero
        if self.coeffs[0] == zero:
            raise ZeroDivisionError("series has no inverse: zero constant term")
        inv0 = 1 / self.coeffs[0]
        out = [inv0]
        for k in range(1, self.order + 1):
            s = sum((self.coeffs[j] * out[k - j] for j in range(1, k + 1)), zero)
            out.append(-inv0 * s)
        return Series(out, self.order)

    def log_derivative(self):
        """u d/du log of the series, for a unit constant term."""
        u_d = Series([k * c for k, c in enumerate(self.coeffs)], self.order)
        return u_d * self.inverse()

    def is_zero(self):
        zero = self.zero
        return all(c == zero for c in self.coeffs)

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
    return Series.from_poly(p, order).log_derivative()
