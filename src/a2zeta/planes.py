"""PG(2, q) from its Singer cycle, and the projective-plane check of a vertex link.

A point is a nonzero vector of F_q^3 up to scalars, numbered by the rank of
its normalized triple (first nonzero coordinate 1) in lexicographic order of
gf.GF's elements: (0,0,1) is 0, (0,1,c) is 1 + c, (1,b,c) is 1 + q + bq + c.
The line a x + b y + c z = 0 has the id of the point (a, b, c).  Everything
downstream keys off these ids, so the numbering must never change.

The Singer cycle sigma, multiplication by x in GF(q^3) = GF(q)[x]/(cubic)
on a + b x + c x^2 = (a, b, c), is linear and runs through all n = q^2+q+1
points, so the lines are the n translates of line 0, z = 0, and the orbit
positions on line 0 form a planar difference set mod n (Singer, Trans. AMS
1938), which is how build_plane checks its plane.
"""

from dataclasses import dataclass
from itertools import product

from .gf import GF


@dataclass
class ProjectivePlane:
    q: int
    points: list  # normalized coordinate triples
    lines: list  # frozensets of point ids
    orbit: list  # point id of sigma^i(e1), i = 0..n-1
    base: list  # the i with orbit[i] on line 0, a planar difference set mod n
    translates: list  # line id of {orbit[i + j] : i in base}, j = 0..n-1

    @property
    def n(self):
        return self.q * self.q + self.q + 1


def _point_id(F, v):
    """Id of the point spanned by the nonzero vector v of F^3."""
    a, b, c = v
    if a:
        return 1 + F.q + F.mul(F.inv(a), b) * F.q + F.mul(F.inv(a), c)
    return 1 + F.mul(F.inv(b), c) if b else 0


def _times_x(F, cubic, v):
    """v * x in F[x] / (x^3 + c2 x^2 + c1 x + c0), cubic = (c0, c1, c2).

    v = (a, b, c) stands for a + b x + c x^2; the map is multiplication by
    the companion matrix of the cubic.
    """
    a, b, c = v
    c0, c1, c2 = cubic
    return (F.neg(F.mul(c0, c)), F.sub(a, F.mul(c1, c)), F.sub(b, F.mul(c2, c)))


def _times(F, x3, u, v):
    """u * v in F[x] / (x^3 - x3[2] x^2 - x3[1] x - x3[0]).

    The product's x^4 and x^3 terms fold back by x^3 = x3[0] + x3[1] x +
    x3[2] x^2.  It reads GF's tables directly: this product is nearly all
    of _primitive_cubic's cost, three times that through GF's methods.
    """
    add, mul = F._add, F._mul
    (a0, a1, a2), (b0, b1, b2) = u, v
    r0, r1, r2 = x3
    p0 = mul[a0][b0]
    p1 = add[mul[a0][b1]][mul[a1][b0]]
    p2 = add[add[mul[a0][b2]][mul[a1][b1]]][mul[a2][b0]]
    p3 = add[mul[a1][b2]][mul[a2][b1]]
    p4 = mul[a2][b2]
    p1, p2, p3 = add[p1][mul[p4][r0]], add[p2][mul[p4][r1]], add[p3][mul[p4][r2]]
    return add[p0][mul[p3][r0]], add[p1][mul[p3][r1]], add[p2][mul[p3][r2]]


def _x_power(F, x3, e):
    """x^e in F[x] / (x^3 - x3[2] x^2 - x3[1] x - x3[0]), by square-and-multiply."""
    out, square = (1, 0, 0), (0, 1, 0)
    while e:
        if e & 1:
            out = _times(F, x3, out, square)
        square = _times(F, x3, square, square)
        e >>= 1
    return out


def _has_root(F, cubic):
    """Whether x^3 + c2 x^2 + c1 x + c0 vanishes at some t in F, cubic = (c0, c1, c2)."""
    add, mul = F._add, F._mul
    c0, c1, c2 = cubic
    # ((t + c2) t + c1) t + c0
    return any(add[mul[add[mul[add[t][c2]][t]][c1]][t]][c0] == 0 for t in F.elements())


def _prime_divisors(m):
    """The primes dividing m >= 1, by trial division."""
    found, d = [], 2
    while d * d <= m:
        if m % d == 0:
            found.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return found + ([m] if m > 1 else [])


def _primitive_cubic(F):
    """Coefficients (c0, c1, c2) of the first primitive monic cubic over F.

    The cubic is primitive exactly when x has order q^3 - 1 in the units of
    F[x]/(cubic).  A cubic with a root in F is reducible and leaves fewer
    than q^3 - 1 units.  One without a root is irreducible, F[x]/(cubic)
    is the field GF(q^3) and x^(q^3 - 1) = 1 there, so x has order
    q^3 - 1 exactly when x^((q^3 - 1)/r) != 1 for each prime r dividing
    q^3 - 1 = (q - 1)(q^2 + q + 1), tested by square-and-multiply, the
    smallest exponent first.
    """
    q = F.q
    order = q**3 - 1
    primes = set(_prime_divisors(q - 1) + _prime_divisors(q * q + q + 1))
    cofactors = sorted(order // r for r in primes)
    for c2, c1, c0 in product(range(q), range(q), range(1, q)):
        cubic = (c0, c1, c2)
        if _has_root(F, cubic):
            continue
        x3 = tuple(F.neg(c) for c in cubic)
        if all(_x_power(F, x3, e) != (1, 0, 0) for e in cofactors):
            return cubic


def singer_orbit(F):
    """Point ids of sigma^i(e1), i = 0..n-1, for the Singer cycle over F."""
    cubic = _primitive_cubic(F)
    orbit = []
    v = (1, 0, 0)
    for _ in range(F.q * F.q + F.q + 1):
        orbit.append(_point_id(F, v))
        v = _times_x(F, cubic, v)
    return orbit


def build_plane(q):
    """PG(2, q) for every prime power q <= gf.MAX_ORDER; UnsupportedOrder otherwise.

    Translate j of line 0 has the id of the cross product of two of its
    points.  The plane is checked as a difference set: the orbit numbers
    every point once, and every nonzero residue mod n is a - b for exactly
    one pair a, b of base, so any two translates meet in exactly one point.
    """
    F = GF(q)
    n = q * q + q + 1
    points = [(0, 0, 1)] + [(0, 1, c) for c in range(q)]
    points += [(1, b, c) for b in range(q) for c in range(q)]
    orbit = singer_orbit(F)
    base = [i for i in range(n) if points[orbit[i]][2] == 0]
    assert sorted(orbit) == list(range(n)), "the Singer orbit repeats a point"
    differences = sorted((a - b) % n for a in base for b in base if a != b)
    assert differences == list(range(1, n)), "line 0 is not a planar difference set"
    lines = [None] * n
    translates = []
    for j in range(n):
        line = [orbit[(i + j) % n] for i in base]
        (a, b, c), (x, y, z) = points[line[0]], points[line[1]]
        cross = (
            F.sub(F.mul(b, z), F.mul(c, y)),
            F.sub(F.mul(c, x), F.mul(a, z)),
            F.sub(F.mul(a, y), F.mul(b, x)),
        )
        k = _point_id(F, cross)
        assert lines[k] is None, f"two translates give line {k}"
        lines[k] = frozenset(line)
        translates.append(k)
    return ProjectivePlane(q, points, lines, orbit, base, translates)


def plane_defect(lines, points, q):
    """None if lines are the lines of a projective plane of order q on points, else why not.

    lines is a sequence of point collections, points a sequence of distinct
    points; a point repeated on a line counts against it.  There must be
    n = q^2+q+1 points and n lines, q+1 distinct points on every line and
    q+1 lines through every point, and no pair of points may lie on two
    lines.  The n lines then cover n q(q+1)/2 = n(n-1)/2 point pairs, so
    every pair lies on exactly one line.
    """
    n = q * q + q + 1
    index = {p: i for i, p in enumerate(points)}
    if len(index) != n or len(lines) != n:
        return f"{len(index)} points and {len(lines)} lines, expected {n} of each"
    through = [0] * n
    covered = bytearray(n * n)
    for j, line in enumerate(lines):
        pts = sorted({index.get(p, -1) for p in line})
        if len(pts) != q + 1 or len(line) != q + 1 or pts[0] < 0:
            return f"line {j} does not have {q + 1} distinct points"
        for k, a in enumerate(pts):
            through[a] += 1
            for b in pts[k + 1 :]:
                if covered[a * n + b]:
                    return f"points {points[a]},{points[b]} lie on two lines"
                covered[a * n + b] = 1
    bad = next((i for i in range(n) if through[i] != q + 1), None)
    if bad is not None:
        return f"point {points[bad]} lies on {through[bad]} lines"
    return None
