"""Finite fields GF(q) and polynomials over them.

Field elements are the integers 0..q-1.  For q = p^k the integer i encodes
the polynomial over F_p whose coefficients are the little-endian base-p
digits of i, reduced modulo a monic degree-k polynomial: the first one, in
the order of its own little-endian base-p code, whose quotient ring is a
field.  For prime q that is x, so i is the residue class of i; for 4, 8 and
9 it is

    GF(4): x^2 + x + 1      GF(8): x^3 + x + 1      GF(9): x^2 + 1

This encoding doubles as the canonical element order, so every artifact
built on top of it (planes, presentations, complexes) is byte-reproducible.

Polynomials over GF(q) in the variable t are plain tuples of field elements
indexed by degree with no trailing zeros; () is the zero polynomial.  They
model the ring F_q[t] with t the uniformizer of F_q((t)).
"""

import re
from fractions import Fraction

from .errors import ParseError, UnsupportedOrder

MAX_ORDER = 1024
MAX_DEGREE = 1024  # largest exponent of t that parse_poly accepts


def _add_table(p, q):
    """Digitwise addition mod p of the base-p codes 0..q-1."""
    add = [list(range(q))]
    for a in range(1, q):
        high, low = add[a // p], a % p
        add.append([(low + b) % p + p * high[b // p] for b in range(q)])
    return add


def _mul_table(p, q, add, modulus):
    """Multiplication in F_p[x] / (x^k + m), q = p^k, m coded by modulus.

    Row a comes from row a - 1 plus the identity row when p does not divide
    a, and otherwise from row a // p times x.  None as soon as a nonzero row
    holds no 1, that is when the quotient ring is not a field.
    """
    top = q // p
    x_to_k = add[modulus].index(0)  # -m
    scaled = [0]
    for _ in range(p - 1):
        scaled.append(add[scaled[-1]][x_to_k])
    times_x = [add[v % top * p][scaled[v // top]] for v in range(q)]
    mul = [[0] * q, list(range(q))]
    for a in range(2, q):
        if a % p:
            row = [add[u][b] for b, u in enumerate(mul[a - 1])]
        else:
            row = [times_x[u] for u in mul[a // p]]
        if 1 not in row:
            return None
        mul.append(row)
    return mul


class GF:
    """GF(q) by table lookup, for every prime power q = p^k <= MAX_ORDER.

    The modulus is the first monic degree-k polynomial over F_p, in the
    order of its little-endian base-p code, whose multiplication table has
    a 1 in every nonzero row: x for primes, and x^2+x+1, x^3+x+1 and x^2+1
    for 4, 8 and 9.  Any other q raises UnsupportedOrder before it is
    factored or a table is allocated; past MAX_ORDER a table would hold
    over 2^20 entries.
    """

    def __init__(self, q):
        if not 2 <= q <= MAX_ORDER:
            raise UnsupportedOrder(f"q={q} is not a prime power up to {MAX_ORDER}")
        p = next(d for d in range(2, q + 1) if q % d == 0)
        r = q
        while r % p == 0:
            r //= p
        if r != 1:
            raise UnsupportedOrder(f"q={q} is not a prime power")
        self.q = q
        self._add = _add_table(p, q)
        self._neg = [row.index(0) for row in self._add]
        self._sub = [[row[b] for b in self._neg] for row in self._add]
        self._mul = next(
            filter(None, (_mul_table(p, q, self._add, m) for m in range(q)))
        )
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._sub[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return self._inv[a]

    def elements(self):
        return range(self.q)


# ----------------------------------------------------------------------
# polynomials over GF(q), tuples indexed by degree


def ptrim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def padd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = F.add(out[i], x)
    return ptrim(out)


def pneg(F, a):
    return tuple(F.neg(x) for x in a)


def psub(F, a, b):
    return padd(F, a, pneg(F, b))


def pmul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return ptrim(out)


def pshift(a, k):
    """Multiply by t^k."""
    if not a:
        return ()
    return (0,) * k + tuple(a)


def pval(a):
    """t-adic valuation; None for the zero polynomial."""
    for i, x in enumerate(a):
        if x:
            return i
    return None


def pfloordiv_tpow(a, k):
    """Coefficients of t^k and above, i.e. a div t^k."""
    return ptrim(a[k:])


_TERM = re.compile(r"(-?)(?:([0-9]*)t(?:\^?([0-9]+))?|([0-9]+))")


def parse_poly(F, text, line=1):
    """Parse a polynomial in t such as '1+t^2+2t' over GF(q).

    A malformed term, an over-long number and an exponent over MAX_DEGREE
    raise ParseError, reported at the given line and naming the term.
    """
    coeffs = {}
    # split before each sign, except a sign right after '^': 't^-1' stays whole
    for term in re.split(r"(?<!\^)(?=[+-])", text.replace(" ", "")):
        term = term.removeprefix("+")
        if not term:
            continue
        match = _TERM.fullmatch(term)
        if match is None:
            raise ParseError(line, f"bad polynomial term {term!r}")
        neg, head, tail, const = match.groups()
        try:
            c = int(const or head or 1)
            e = 0 if const is not None else int(tail or 1)
        except ValueError:  # past Python's limit on the digits of an int
            raise ParseError(line, f"number too long in term {term!r}") from None
        if e > MAX_DEGREE:
            raise ParseError(line, f"exponent over {MAX_DEGREE} in term {term!r}")
        c %= F.q  # literal coefficients are element ids
        if neg:
            c = F.neg(c)
        coeffs[e] = F.add(coeffs.get(e, 0), c)
    if not coeffs:
        return ()
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return ptrim(out)


def format_poly(a):
    if not a:
        return "0"
    terms = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}t" if c != 1 else "t")
        else:
            terms.append(f"{c}t^{i}" if c != 1 else f"t^{i}")
    return "+".join(terms)


def newton_slopes(vals):
    """Root valuations of a polynomial from the valuations of its coefficients.

    ``vals`` maps degree i to the valuation of coefficient a_i (degrees with
    zero coefficient omitted).  Returns the list of root valuations, smallest
    first, as Fractions: each lower-hull segment from (i1,v1) to (i2,v2)
    contributes i2-i1 roots of valuation (v1-v2)/(i2-i1).
    """
    pts = sorted(vals.items())
    hull = [pts[0]]
    for p in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes.extend([Fraction(y1 - y2, x2 - x1)] * (x2 - x1))
    return sorted(slopes)
