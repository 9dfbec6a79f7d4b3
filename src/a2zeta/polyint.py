"""Exact polynomial linear algebra over the integers.

IntPoly is a tuple of arbitrary-precision integer coefficients indexed by
degree, with no trailing zeros (canonical form; () is zero).  Every
polynomial determinant is det(I - B1 u - ... - Bd u^d) of integer matrices,
computed by det_i_minus_rows as a reversed characteristic polynomial
modulo primes and rebuilt by CRT from a proven coefficient bound.  Its
input is one row per orbit of a free action of Z/n that the matrix commutes
with (n = 1 and every row for det_i_minus_pencil); the primes are taken
= 1 (mod n) and each residue is the product of n small characteristic
polynomials, one per character of Z/n, each from power sums taken by
float64 matrix products and Newton's identities: the discrete Fourier
transform is invertible mod such p, so the residue is the same and
exactness rests on the same bound and CRT.  character_dets forms those
character blocks and their determinants, in passes of at most
_BATCH_ENTRIES block entries, for det_i_minus_rows and, with blocks of any
size and the trivial group too, for zeta's per-character proof of the
identity.  Series is the one truncated power series type: generic
in its coefficient ring, it carries exact Fraction coefficients for the
zeta identities and SymPoly coefficients for the Satake-side recursion
checks.
"""

import functools
import itertools
from fractions import Fraction
from math import comb, gcd, isqrt

import numpy as np

from .errors import A2ZetaError, ResourceLimit


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

    def __call__(self, x):
        """The value at x, by Horner's rule."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

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
        return gcd(*self.coeffs)

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
            if a.degree < b.degree:
                a, b = b, a
                continue
            a, b = b, a.pseudo_remainder(b).primitive()
        if a.coeffs and a.coeffs[-1] < 0:
            a = -a
        return a

    def pseudo_remainder(self, other):
        """The remainder of |lc|^(d+1) self by other, lc other's leading
        coefficient and d = deg self - deg other >= 0.

        The factor is positive, so the remainder has the sign that a Sturm
        sequence needs; a divisor with leading coefficient +-1 takes none.
        """
        lead = other.coeffs[-1]
        d, divisor = other.degree, other.coeffs
        scale = abs(lead) ** (self.degree - d + 1)
        rem = [c * scale for c in self.coeffs] if scale != 1 else list(self.coeffs)
        for i in range(self.degree - d, -1, -1):
            c = rem[i + d]
            if c == 0:
                continue
            f = c // lead
            assert f * lead == c
            for j in range(d + 1):
                rem[i + j] -= f * divisor[j]
        return IntPoly(rem)

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


def one_minus_power(k, m, c=1):
    """(1 - c u^k)^m for k >= 1 and m >= 0, as sum_i C(m, i) (-c)^i u^(k i).

    Each binomial term comes from the one before, C(m, i + 1) =
    C(m, i) (m - i) / (i + 1), exactly: m big-integer steps and no
    polynomial product.  A negative m raises ValueError.
    """
    if m < 0:
        raise ValueError(f"(1 - c u^k)^m needs m >= 0, got {m}")
    coeffs = [0] * (k * m + 1)
    term = 1
    for i in range(m + 1):
        coeffs[k * i] = term
        term = term * (m - i) // (i + 1) * -c
    return IntPoly(coeffs)


def times_one_minus_power(p, m):
    """p (1 - u)^m for m >= 0, by m differences over one object array.

    Each difference is one vectorized subtraction of big integers, so the
    cost is about m (deg p + m / 2) additions and no product of two big
    coefficients, as the binomial expansion would take.
    """
    if m < 0:
        raise ValueError(f"p (1 - u)^m needs m >= 0, got {m}")
    out = np.array(list(p.coeffs) + [0] * m, dtype=object)
    for top in range(len(p.coeffs), len(out)):
        out[1 : top + 1] -= out[:top].copy()
    return IntPoly(out.tolist())


def roots_on_unit_circle(p):
    """Whether every root of a nonzero integer polynomial p has |s| = 1, exactly.

    The factors s - 1 and s + 1 go first.  What is left has every root on
    the circle only if it is self-reciprocal up to sign, since the roots
    then come in pairs s, 1/conj(s) = conj(s) of the real polynomial; and
    with no root at 1 or -1 it cannot be anti-reciprocal or of odd degree,
    so it is self-reciprocal of even degree 2m and p(s) = s^m T(s + 1/s).
    A root s is on the circle exactly when x = s + 1/s is real in [-2, 2],
    and T(2) and T(-2) are nonzero, so the test is that the Sturm count of
    T on (-2, 2) equals the number of distinct roots of T (Basu, Pollack
    and Roy, Algorithms in Real Algebraic Geometry, ch. 2).
    """
    for root in (1, -1):
        while p.degree > 0 and p(root) == 0:
            p = p.divexact(IntPoly((-root, 1)))
    c = p.coeffs
    if c != c[::-1]:
        return False
    m = p.degree // 2
    # T = c_m + sum_k c_(m+k) D_k(x), D_k(s + 1/s) = s^k + s^-k,
    # D_0 = 2, D_1 = x, D_(k+1) = x D_k - D_(k-1)
    t, before, dk = IntPoly.const(c[m]), IntPoly.const(2), U
    for k in range(1, m + 1):
        t = t + dk * c[m + k]
        before, dk = dk, U * dk - before
    # the Sturm chain T, T', -rem, ... ends at gcd(T, T')
    chain = [t, t.derivative()]
    while not chain[-1].is_zero():
        chain.append(-chain[-2].pseudo_remainder(chain[-1]).primitive())
    chain.pop()

    at_minus_2, at_2 = (_sign_changes(f(x) for f in chain) for x in (-2, 2))
    return at_minus_2 - at_2 == t.degree - chain[-1].degree


def real_roots_above(p, a):
    """The number of roots y > a, with multiplicity, of a nonzero integer
    polynomial p whose roots are all real.

    By Descartes' rule of signs the sign changes of p(y + a)'s coefficients
    bound its positive roots, and equal their number when every root is
    real; a root at y = a is not counted.  p(y + a) is a Taylor shift by
    repeated synthetic division.
    """
    c = list(p.coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return _sign_changes(c)


def _sign_changes(values):
    """Sign changes along a sequence of integers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


# ----------------------------------------------------------------------
# polynomial determinants


def det_i_minus_pencil(blocks):
    """det(I - B1 u - ... - Bd u^d) for square integer matrices B1..Bd, exactly.

    With C the block companion matrix of the pencil, det(I - u C) equals
    the pencil determinant; det_i_minus_rows takes it from every row of C,
    each index its own orbit of the trivial group.
    """
    c = _block_companion(blocks)
    return det_i_minus_rows(c, np.arange(len(c))[:, None])


def det_i_minus_rows(rows, orbits):
    """det(I - u C) for an N x N integer matrix C given by its orbit rows, exactly.

    orbits is the k x n table of a free action of Z/n on C's index set that
    C commutes with, C[sigma i, sigma j] == C[i, j], as the caller
    guarantees: row a is rep_a, sigma rep_a, ..., sigma^(n-1) rep_a.  rows
    is the k x N int64 array of the C[rep_a].  Every row of C is then a
    permutation of its orbit's representative row, and C is determined by
    the orbit blocks G_g[a, b] = C[rep_a, sigma^g rep_b].  n = 1 with
    orbits = arange(N)[:, None] takes every row of C.

    det(I - u C) is computed modulo primes p until their product exceeds
    hadamard_bound(rows), and rebuilt exactly by crt_poly.

    For a prime p = 1 (mod n) with zeta a primitive n-th root of unity mod
    p, the discrete Fourier transform over Z/n, invertible mod p, makes C
    similar mod p to the block diagonal of the character blocks
    M_j = sum_g zeta^(jg) G_g, j = 0..n-1, so
        det(I - u C) = prod_j det(I - u M_j)  (mod p),
    the same residue for every n, so the bound and the CRT hold as they
    are.  The k-square determinants of all n characters and of many primes
    at once come from power sums by batched float64 matrix products and
    Newton's identities (_det_i_minus_v_mod), and their product over j from
    k shift-add steps per character over all primes at once.

    The primes are those of primes_past for k and n, in descending order.
    They come from a table kept for the life of the process per (bound on
    p, n), which grows as later calls need more, so each candidate is
    tested for primality once; the same goes for each root of unity mod p.
    """
    if rows.shape[1] == 0:
        return ONE
    k, n = orbits.shape
    primes, _ = primes_past(hadamard_bound(rows), k, n)
    dets, mods = character_dets(rows, orbits, primes)
    return crt_poly(_product_mod(dets, mods[:, 0]), primes)


def hadamard_bound(rows):
    """isqrt(4 max_k C(N, k)^2 r^k), for C given by its k x N orbit rows as
    det_i_minus_rows takes them: a product of primes past it rebuilds
    det(I - u C) exactly from its residues by crt_poly.

    The u^k coefficient of det(I - u C), the reversed characteristic
    polynomial, is (-1)^k e_k(eigenvalues of C), the sum of the C(N, k)
    principal k x k minors of C.  By Hadamard's inequality each minor is at
    most the product of its rows' 2-norms, each at most sqrt(r) with r the
    largest squared row 2-norm, read off the rows given.  So |e_k| <=
    C(N, k) r^(k/2), and an integer m past isqrt(4 C(N, k)^2 r^k) has
    m^2 > 4 C(N, k)^2 r^k: m exceeds 2 |e_k|.
    """
    size = rows.shape[1]
    r = _max_row_norm2(rows)
    return isqrt(4 * max(comb(size, j) ** 2 * r**j for j in range(size + 1)))


def crt_poly(residues, primes):
    """The IntPoly whose coefficients are the symmetric residues modulo the
    product of the primes with the rows residues[i] mod primes[i]."""
    coeffs, modulus = [0] * residues.shape[1], 1
    for p, residue in zip(primes, residues.tolist()):
        inv = pow(modulus, -1, p)
        coeffs = [x + modulus * ((y - x) * inv % p) for x, y in zip(coeffs, residue)]
        modulus *= p
    half = modulus // 2
    return IntPoly([x - modulus if x > half else x for x in coeffs])


def primes_past(bound, k, n, skip=()):
    """(primes, their product): primes p = 1 (mod n) for k x k character
    blocks, largest first and none of skip, until their product exceeds bound.

    Each p obeys the one prime rule of the determinants: k ((p - 1)/2)^2 <
    2^50, so that every product or sum of _det_i_minus_v_mod is exact in
    float64; p > k, so that 1..k are invertible mod p; and n p^2 and
    (k + 1) p^2 below 2^63, so that the int64 sums of character_dets and
    _product_mod hold.  Raises ResourceLimit if the primes under that limit
    (_prime_limit) run out first.
    """
    limit = _prime_limit(k, n)
    primes, modulus = [], 1
    for p in _crt_primes(limit, n):
        if p <= k:
            break
        if p in skip:
            continue
        primes.append(p)
        modulus *= p
        if modulus > bound:
            return primes, modulus
    raise ResourceLimit(
        f"the primes p = 1 (mod {n}) up to {limit} for {k} x {k} blocks cover "
        f"{modulus.bit_length() - 1} bits of the {bound.bit_length()} the bound needs"
    )


def _prime_limit(k, n):
    """The largest p the prime rule of primes_past admits for k x k blocks of Z/n."""
    return min(2 * isqrt((2**50 - 1) // k) + 1, isqrt((2**63 - 1) // max(n, k + 1)))


def character_dets(rows, orbits, primes):
    """det(I - v M_j) mod p for every prime p and character j of det_i_minus_rows.

    rows and orbits are as det_i_minus_rows takes them (k x N and k x n),
    and the primes are from primes_past for k and n.  With zeta =
    _root_of_unity(n, p) and M_j = sum_g zeta^(jg) G_g, returns the
    (len(primes), n, k + 1) int64 array of the coefficients of
    det(I - v M_j) mod p, lowest degree first, and the (len(primes), 1, 1)
    int64 array of the primes.  The primes go through in passes whose DFT
    matrices and blocks hold at most _BATCH_ENTRIES entries, or one prime's.
    """
    k, n = orbits.shape
    mods = np.array(primes, dtype=np.int64)[:, None, None]
    g = orbit_blocks(rows, orbits).reshape(n, k * k)
    exponents = np.outer(np.arange(n), np.arange(n)) % n
    dets = np.empty((len(primes), n, k + 1), dtype=np.int64)
    step = max(1, _BATCH_ENTRIES // (n * max(n, k * k)))
    for i in range(0, len(primes), step):
        # one product by the n x n DFT matrix mod each prime
        p = mods[i : i + step]
        powers = [[pow(_root_of_unity(n, x), e, x) for e in range(n)] for x in primes[i : i + step]]
        m = np.array(powers, dtype=np.int64)[:, exponents] @ (g % p) % p
        blocks = _det_i_minus_v_mod(m.reshape(-1, k, k), np.repeat(p, n, axis=0))
        dets[i : i + step] = blocks.reshape(len(p), n, k + 1)
    return dets, mods


def orbit_blocks(rows, orbits):
    """The (n, k, k) orbit blocks G[g, a, b] = C[rep_a, sigma^g rep_b] =
    rows[a, orbits[b, g]] of det_i_minus_rows's input."""
    return rows[:, orbits.T].transpose(1, 0, 2)


def _product_mod(factors, mods):
    """prod_j factors[:, j] mod each prime, lowest degree first, all primes at once.

    factors is a (primes, n, k + 1) array of n factors of degree k per
    prime, as character_dets gives, every one with constant term 1, and
    mods the (primes, 1) array of the primes.
    Each further factor takes k shift-add steps over all primes, a sum of
    at most k + 1 terms below p^2 before it is reduced; n = 1 takes none.
    """
    b, n, width = factors.shape
    k = width - 1
    if n == 1:
        return factors[:, 0]
    acc = np.zeros((b, n * k + 1), dtype=np.int64)
    acc[:, :width] = factors[:, 0]
    for j in range(1, n):
        # acc has degree j k; times factor j it has degree (j + 1) k
        old = acc[:, : j * k + 1].copy()
        for t in range(1, width):
            acc[:, t : j * k + 1 + t] += factors[:, j, t, None] * old
        acc[:, : (j + 1) * k + 1] %= mods
    return acc


_BATCH_ENTRIES = 2**16


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


def _det_i_minus_v_mod(stack, mods):
    """Coefficients of det(I - v M) mod p, in [0, p), lowest degree first, for each M.

    stack is a (b, k, k) int64 array of residues and mods a (b, 1, 1) array
    of primes from primes_past for k: row j of the result belongs to
    stack[j] mod mods[j].  The power sums tr(M^e), e = 1..k, come from
    _power_sums, a stack of at most _BATCH_ENTRIES stored entries at a
    time, and Newton's identities (Csanky, SIAM J. Comput. 1976)
        e c_e = -sum_(i=1..e) tr(M^i) c_(e-i),   c_0 = 1,
    give the coefficients c_e, as p > k makes 1..k invertible.  They run in
    int64 over the whole stack: each sum has at most k products of a
    symmetric residue and one in [0, p), below 2 k ((p - 1)/2)^2 < 2^51.
    """
    b, k, _ = stack.shape
    if k == 1:  # det(1 - v m) = 1 - v m, as for ME's blocks under the Singer action
        return np.stack([np.ones(b, dtype=np.int64), -stack[:, 0, 0] % mods.ravel()], axis=1)
    traces = np.empty((k, b), dtype=np.int64)  # traces[e - 1] = tr(M^e)
    step = max(1, _BATCH_ENTRIES // ((isqrt(k - 1) + 5) * k * k))
    for i in range(0, b, step):
        traces[:, i : i + step] = _power_sums(stack[i : i + step], mods[i : i + step]).T
    # -1/e mod p for e = 1..k, one table lookup per run of equal primes
    p = mods.ravel()
    starts = np.flatnonzero(np.diff(p, prepend=0))
    table = np.array([_minus_inverses(x, k) for x in p[starts].tolist()], dtype=np.int64)
    minus_inv = np.repeat(table, np.diff(starts, append=b), axis=0).T
    rev = np.zeros((k + 1, b), dtype=np.int64)  # rev[k - e] = c_e
    rev[k] = 1
    for e in range(1, k + 1):
        acc = np.einsum("ij,ij->j", traces[:e], rev[k - e + 1 :])
        rev[k - e] = acc % p * minus_inv[e - 1] % p
    return rev[::-1].T


@functools.cache
def _minus_inverses(p, k):
    """-1/e mod p for e = 1..k."""
    return [pow(-e, -1, p) for e in range(1, k + 1)]


def _power_sums(stack, mods):
    """tr(M^e) mod p as symmetric residues, e = 1..k, for each M of a stack.

    The arguments are as _det_i_minus_v_mod takes them.  With s = ceil(sqrt k),
    the baby steps are the powers of M up to s - 1 and the giant steps the
    powers of G^T, G = M^s, up to k // s.  Then tr(M^(i + s j)) =
    tr(M^i G^j) is the sum over the rows r of row r of M^i dotted with row r
    of (G^T)^j (Preparata and Sarwate, Inf. Process. Lett. 1978): about
    2 sqrt(k) matrix products for the k power sums.

    Everything is float64 on symmetric residues, |x| <= (p - 1)/2.  Each
    entry of a product and each row's dot product is a sum of k products,
    at most k ((p - 1)/2)^2 < 2^50 in magnitude by the prime rule, an
    integer that float64 holds exactly in any summation order; so is each
    sum over k residues.
    """
    b, k, _ = stack.shape
    s = isqrt(k - 1) + 1
    giants = k // s
    p = mods.astype(np.float64)
    inv = 1 / p
    # products go into buffers allocated once: fresh large temporaries
    # would cost more in page faults than the reductions themselves
    scratch = np.empty((b, k, k))
    m = _reduce(stack.astype(np.float64), p, inv, scratch)
    baby = np.empty((b, s, k, k))  # baby[:, i] = M^i
    baby[:, 0] = np.eye(k)
    for i in range(1, s):
        _reduce(np.matmul(baby[:, i - 1], m, out=baby[:, i]), p, inv, scratch)
    h = _reduce(baby[:, s - 1] @ m, p, inv, scratch).transpose(0, 2, 1).copy()  # G^T
    power, spare = h.copy(), m
    rows = np.empty((b, k, s, giants + 1))
    rows[:, :, :, 0] = baby.diagonal(axis1=2, axis2=3).transpose(0, 2, 1)
    by_row = baby.transpose(0, 2, 1, 3)  # by_row[:, r, i] = row r of M^i
    for j in range(1, giants + 1):
        if j > 1:
            power, spare = _reduce(np.matmul(power, h, out=spare), p, inv, scratch), power
        rows[:, :, :, j] = (by_row @ power[:, :, :, None])[:, :, :, 0]
    p, inv = p[:, :, :, None], inv[:, :, :, None]
    traces = _reduce(_reduce(rows, p, inv).sum(axis=1, keepdims=True), p, inv)
    traces = traces.reshape(b, s, giants + 1).transpose(0, 2, 1).reshape(b, -1)
    return traces[:, 1 : k + 1].astype(np.int64)


def _reduce(x, p, inv, scratch=None):
    """x less the multiple of p nearest to it, in place: its symmetric residue.

    x holds integers below 2^50 in magnitude and inv = fl(1 / p).  Then the
    rounded x inv differs from x / p by at most (2^-52 + 2^-106) |x| / p,
    under 1 / (2p), while x / p, a fraction with the odd denominator p, is
    at least 1 / (2p) from any half-integer; so rint(x inv) is the integer
    nearest x / p, and the product by p and the difference are exact.
    scratch, if given, is an array of x's shape for the intermediate.
    """
    t = np.multiply(x, inv, out=scratch)
    np.rint(t, out=t)
    t *= p
    x -= t
    return x


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
        if num[0] and den[0] in (1, -1):
            # reversed, den has leading coefficient +-1, so the gcd's first
            # remainder, of num by den, takes no power of it however large
            # num is; and as u divides neither, the reversed gcd is theirs
            g = IntPoly(num.coeffs[::-1]).gcd(IntPoly(den.coeffs[::-1]))
            g = IntPoly(g.coeffs[::-1])
        else:
            g = num.gcd(den)
        if not g.is_zero() and g != ONE:
            num = num.divexact(g)
            den = den.divexact(g)
        # also cancel integer content
        c = gcd(num.content(), den.content())
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
