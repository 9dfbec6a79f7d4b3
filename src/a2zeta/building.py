"""Local model of the rank-2 affine building over F_q((t)).

Vertices are classes of rank-3 lattices over O = F_q[[t]], represented by
canonical upper-triangular polynomial matrices: column-Hermite form over
the valuation ring with diagonal t^a_i, entry (i, j) reduced mod t^a_i,
scaled so the minimal entry valuation is 0.

Neighbors need no triangularization.  Every coset representative of an
edge type is upper triangular with pivots 1 or t, so right-multiplying a
canonical vertex by it is a column step: scale some columns by t, add
constant multiples of earlier columns to later ones.  The result is already
triangular with pivots exactly t^(a_i + e_i), and one reduction helper
divides by the least valuation and reduces the entries above the diagonal.

Relative positions come from minor valuations: for M = g1^{-1} g2 the sums
e_1 + ... + e_i of the elementary-divisor exponents equal the minimal
valuation among i x i minors, and the position is (n, m) = (e3-e2, e2-e1).
One helper takes the least minor valuation on each row set of a matrix,
another turns those into (n, m) over a diagonal base diag(t^d): a generic
g1 is the base d = (val det g1,) * 3 with M = adj(g1) g2.  So g1 and g2
may be any nonsingular matrices, canonical or not.

The Hecke recursion checker exploits that the composed-operator kernel
K(x, base) is constant on relative-position classes: the group acts
transitively on ordered vertex pairs of fixed relative position (that is
what the double-coset decomposition says), so evaluating one vertex per
class verifies the identity everywhere.  Each class representative is
diagonal, so the row valuations and pivot exponents of the delta image,
taken once, give every class by integer arithmetic.  The geodesic criterion
tests each path endpoint for position (n, 0) on its canonical form and
counts the endpoints against the closed-form size of the (n, 0) sphere.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import BallTooSmall, ResourceLimit, SingularInput
from .gf import (
    GF,
    newton_slopes,
    padd,
    pfloordiv_tpow,
    pmul,
    pneg,
    pshift,
    psub,
    pval,
)
from .polyint import IntPoly


@dataclass(frozen=True)
class RelativePosition:
    n: int
    m: int

    @property
    def lA(self):
        return self.n + 2 * self.m

    @property
    def lG(self):
        return self.n + self.m

    def reversed(self):
        return RelativePosition(self.m, self.n)


class BuildingVertex:
    """Canonical-matrix wrapper; hashable, equality by matrix."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        self.mat = mat

    def __eq__(self, other):
        return isinstance(other, BuildingVertex) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        from .gf import format_poly

        rows = ["[" + ", ".join(format_poly(e) for e in row) + "]" for row in self.mat]
        return "BuildingVertex(" + "; ".join(rows) + ")"


ZERO = ()
ONE = (1,)


def _mat_mul(F, A, B):
    return tuple(
        tuple(
            padd(
                F,
                padd(F, pmul(F, A[i][0], B[0][j]), pmul(F, A[i][1], B[1][j])),
                pmul(F, A[i][2], B[2][j]),
            )
            for j in range(3)
        )
        for i in range(3)
    )


def _det2(F, a, b, c, d):
    return psub(F, pmul(F, a, d), pmul(F, b, c))


def _det3(F, A):
    out = ZERO
    for j, sign in ((0, 1), (1, -1), (2, 1)):
        cols = [c for c in range(3) if c != j]
        minor = _det2(
            F, A[1][cols[0]], A[1][cols[1]], A[2][cols[0]], A[2][cols[1]]
        )
        term = pmul(F, A[0][j], minor)
        out = padd(F, out, term if sign > 0 else pneg(F, term))
    return out


def _adjugate(F, A):
    adj = [[ZERO] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            minor = _det2(
                F,
                A[rows[0]][cols[0]],
                A[rows[0]][cols[1]],
                A[rows[1]][cols[0]],
                A[rows[1]][cols[1]],
            )
            adj[j][i] = minor if (i + j) % 2 == 0 else pneg(F, minor)
    return tuple(tuple(row) for row in adj)


def _column_steps(q, edge_type):
    """Coset representatives of the type-1 or type-2 edges, as column steps.

    With pi = t, each representative is upper triangular with diagonal
    t^scale_j (scale_j in {0, 1}) and constant entries c at (k, j), k < j.
    Right-multiplying a vertex matrix by it scales column j by t^scale_j and
    adds c times column k to it; the zero entries are left out of adds.
    """
    def step(scale, *adds):
        return scale, tuple((k, j, (c,)) for k, j, c in adds if c)

    if edge_type == 1:
        return (
            [step((1, 0, 0), (0, 1, a), (0, 2, b)) for a in range(q) for b in range(q)]
            + [step((0, 1, 0), (1, 2, c)) for c in range(q)]
            + [step((0, 0, 1))]
        )
    return (
        [step((1, 1, 0), (0, 2, b), (1, 2, c)) for b in range(q) for c in range(q)]
        + [step((1, 0, 1), (0, 1, a)) for a in range(q)]
        + [step((0, 1, 1))]
    )


def _hermite_reduce(F, cols, avals):
    """The canonical vertex of upper triangular columns with pivots t^avals.

    Divides by the least entry valuation, then reduces entry (i, j) modulo
    t^a_i by subtracting a multiple of column i, for i = j-1 down to 0.
    The column lists may be modified in place.
    """
    # a pivot t^0 already has valuation 0
    shift = min(avals) and min(pval(e) for col in cols for e in col if e)
    if shift:
        cols = [[pfloordiv_tpow(e, shift) for e in col] for col in cols]
        avals = [a - shift for a in avals]
    for j in (1, 2):
        col = cols[j]
        for k in range(j - 1, -1, -1):
            h = pfloordiv_tpow(col[k], avals[k])
            if h:
                for i in range(k + 1):
                    col[i] = psub(F, col[i], pmul(F, h, cols[k][i]))
    c0, c1, c2 = cols
    return BuildingVertex(((c0[0], c1[0], c2[0]), (c0[1], c1[1], c2[1]), (c0[2], c1[2], c2[2])))


def _pivot_exponent_sum(mat):
    """a_0 + a_1 + a_2 of a canonical vertex, whose pivots are exactly t^a_i."""
    return sum(len(mat[i][i]) - 1 for i in range(3))


def _at_n0(F, v, n):
    """Whether canonical v is at (n, 0) from the origin: e_3 = sum a_i = n and
    e_2 = 0, a nonzero 2 x 2 minor of the upper triangular v.mat mod t."""
    if _pivot_exponent_sum(v.mat) != n:
        return False
    rows = ([e[0] if e else 0 for e in row] for row in v.mat)
    (c00, c01, c02), (_, c11, c12), (_, _, c22) = rows
    return bool(
        c00 and (c11 or c12 or c22) or c22 and (c01 or c11) or F.mul(c01, c12) != F.mul(c02, c11)
    )


def _least_valuation(polys):
    return min((pval(e) for e in polys if e), default=None)


def _row_minor_valuations(F, M):
    """Least valuation of the minors of M on each row set.

    Maps each set R of 1, 2 or 3 row indices to the least t-adic valuation
    among the |R| x |R| minors of M with rows R, or None when all vanish.
    """
    out = {(r,): _least_valuation(M[r]) for r in range(3)}
    for r, s in ((0, 1), (0, 2), (1, 2)):
        out[(r, s)] = _least_valuation(
            _det2(F, M[r][c], M[r][d], M[s][c], M[s][d])
            for c, d in ((0, 1), (0, 2), (1, 2))
        )
    out[(0, 1, 2)] = pval(_det3(F, M))
    return out


def _position(minor_vals, d):
    """Relative position of the lattice of M from the base diag(t^d).

    minor_vals is _row_minor_valuations(F, M).  The minors of
    diag(t^-d) M on rows R are those of M divided by t^(sum of d over R),
    and the least valuation s_k over the k x k minors is e_1 + ... + e_k
    for the elementary-divisor exponents e_1 <= e_2 <= e_3.
    """
    s = {}
    for rows, v in minor_vals.items():
        if v is not None:
            k, w = len(rows), v - sum(d[i] for i in rows)
            s[k] = min(s.get(k, w), w)
    if 2 not in s or 3 not in s:
        raise SingularInput("relative position of singular pair")
    e1, e2, e3 = s[1], s[2] - s[1], s[3] - s[2]
    assert e1 <= e2 <= e3
    return RelativePosition(n=e3 - e2, m=e2 - e1)


class LocalBuilding:
    """Arithmetic context for one residue field size q."""

    def __init__(self, q):
        self.q = q
        self.F = GF(q)
        self._steps = {1: _column_steps(q, 1), 2: _column_steps(q, 2)}
        self._nbr_cache = {}

    def origin(self):
        return BuildingVertex(((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)))

    # -- neighbors

    def neighbors(self, v, edge_type):
        key = (v, edge_type)
        hit = self._nbr_cache.get(key)
        if hit is not None:
            return hit
        F, mat = self.F, v.mat
        cols = [[mat[0][j], mat[1][j], mat[2][j]] for j in range(3)]
        avals = [len(mat[j][j]) - 1 for j in range(3)]  # pivots are exactly t^a_j
        out = []
        for scale, adds in self._steps[edge_type]:
            new = [
                [pshift(e, 1) for e in col] if s else list(col)
                for col, s in zip(cols, scale)
            ]
            for k, j, c in adds:
                for i in range(k + 1):
                    new[j][i] = padd(F, new[j][i], pmul(F, c, cols[k][i]))
            out.append(_hermite_reduce(F, new, [a + s for a, s in zip(avals, scale)]))
        if len(set(out)) != self.q**2 + self.q + 1:
            raise SingularInput("coset representatives collapsed")
        self._nbr_cache[key] = out
        return out

    # -- relative position

    def relative_position(self, g1, g2):
        """The relative position of two vertices, or of any two nonsingular
        matrices wrapped as BuildingVertex: it is read off adj(g1) g2, so
        neither needs to be canonical."""
        F = self.F
        d1 = pval(_det3(F, g1.mat))
        if d1 is None or pval(_det3(F, g2.mat)) is None:
            raise SingularInput("matrix is singular")
        M = _mat_mul(F, _adjugate(F, g1.mat), g2.mat)
        return _position(_row_minor_valuations(F, M), (d1, d1, d1))

    def class_representative(self, n, m):
        """The vertex diag(1, t^m, t^(m+n)) at relative position (n, m)."""
        return BuildingVertex(
            (
                (ONE, ZERO, ZERO),
                (ZERO, pshift(ONE, m), ZERO),
                (ZERO, ZERO, pshift(ONE, m + n)),
            )
        )


@dataclass
class Ball:
    """Closed ball in the 1-skeleton: vertices with adjacency records.

    nbr1/nbr2 hold neighbor indices for every vertex of sphere < r; frontier
    vertices carry None.  Vertex order is the deterministic BFS order.
    """

    q: int
    radius: int
    vertices: list
    index: dict
    sphere: list
    nbr1: list
    nbr2: list

    def sphere_sizes(self):
        out = [0] * (self.radius + 1)
        for s in self.sphere:
            out[s] += 1
        return out


DEFAULT_VERTEX_CAP = 2_000_000


def ball(B, r, cap=DEFAULT_VERTEX_CAP):
    """Breadth-first closure of the origin of B under both neighbor maps."""
    base = B.origin()
    vertices = [base]
    index = {base: 0}
    sphere = [0]
    nbr1, nbr2 = [None], [None]
    frontier = [0]
    for depth in range(r):
        next_frontier = []
        for i in frontier:
            v = vertices[i]
            ids = []
            for edge_type, store in ((1, nbr1), (2, nbr2)):
                row = []
                for w in B.neighbors(v, edge_type):
                    j = index.get(w)
                    if j is None:
                        j = len(vertices)
                        if j >= cap:
                            raise ResourceLimit(
                                f"ball exceeded the vertex cap of {cap}"
                            )
                        vertices.append(w)
                        index[w] = j
                        sphere.append(depth + 1)
                        nbr1.append(None)
                        nbr2.append(None)
                        next_frontier.append(j)
                    row.append(j)
                ids.append(row)
            nbr1[i], nbr2[i] = ids
        frontier = next_frontier
    return Ball(
        q=B.q, radius=r, vertices=vertices, index=index, sphere=sphere, nbr1=nbr1, nbr2=nbr2
    )


# ----------------------------------------------------------------------
# Hecke recursion on the building


def _delta_image(B, base):
    """(I - A1 u + q A2 u^2 - q^3 u^3 I) applied to the delta at base.

    Supported on the closed 1-ball: A1(delta) is the indicator of the
    (0,1)-sphere and A2(delta) of the (1,0)-sphere, because y sees base as
    a type-i neighbor exactly when base sits at position (i mod 3, ...)
    reversed.  Values are IntPoly in u.
    """
    q = B.q
    vals = {base: IntPoly((1, 0, 0, -(q**3)))}
    for y in B.neighbors(base, 2):
        vals[y] = IntPoly((0, -1))  # relpos(y, base) = (1, 0)
    for y in B.neighbors(base, 1):
        vals[y] = vals.get(y, IntPoly()) + IntPoly((0, 0, q))
    return vals


def _lA_over_diagonal(rho, a_sum, d):
    """lA = s_3 - 3 s_1 of diag(t^-d) g from g's least row valuations rho."""
    return a_sum - sum(d) - 3 * min(v - di for v, di in zip(rho, d))


def verify_tamagawa(q, degree, r):
    """Check the Hecke inversion identity coefficientwise up to the degree.

    The composed kernel vanishes beyond geodesic distance degree + 1, and on
    each class it is a single polynomial, so checking one representative per
    class (n0, m0), n0 + m0 <= degree + 1, verifies the identity on the whole
    ball of radius r >= degree + 1 (r is only checked against that bound).
    The representative is class_representative(n0, m0) = diag(t^d) with
    d = (0, m0, m0 + n0).  For a delta-image vertex g, s_k = e_1 + ... + e_k
    of diag(t^-d) g is the least k x k minor valuation (at d = 0: e_1 = 0,
    s_2 the least 2 x 2 one, s_3 = sum a_i).  Each row of g holds a pivot,
    so s_1 = min_i (rho_i - d_i) for its least row valuations rho_i,
    s_3 = sum a_i - sum d_i, and lA = e_2 + e_3 - 2 e_1 = s_3 - 3 s_1.
    """
    if r < degree + 1:
        raise BallTooSmall(f"need r >= degree+1 = {degree + 1}, got {r}")
    B = LocalBuilding(q)
    image = [
        ([_least_valuation(row) for row in y.mat], _pivot_exponent_sum(y.mat), val.coeffs)
        for y, val in _delta_image(B, B.origin()).items()
    ]
    for n0 in range(degree + 2):
        for m0 in range(degree + 2 - n0):
            d = (0, m0, m0 + n0)
            got = [0] * (degree + 1)
            for rho, a_sum, coeffs in image:
                lA = _lA_over_diagonal(rho, a_sum, d)
                for k, c in enumerate(coeffs[: max(degree + 1 - lA, 0)]):
                    got[lA + k] += c
            want = (1, 0, 0, -1)[: degree + 1] if (n0, m0) == (0, 0) else ()  # 1 - u^3
            if IntPoly(got) != IntPoly(want):
                return False
    return True


# ----------------------------------------------------------------------
# geodesic criterion


def verify_geodesic_criterion(q, n, r):
    """Non-chamber type-1 paths of length n are exactly the (n, 0) geodesics.

    Enumerates every length-n type-1 path from the origin whose consecutive
    edges avoid completing a chamber: the new endpoint, of type t(prev) + 2,
    must not be a type-2 neighbor of the previous vertex.  Asserts that the
    endpoints are distinct, that there are |S(n, 0)| = (q^2+q+1) q^(2(n-1))
    of them (Cartwright-Mantero-Steger-Zappa, Geom. Dedicata 1993), and that
    each is at (n, 0): e_1 = 0, so a 2 x 2 minor has valuation e_1 + e_2 = 0,
    and the pivot exponents sum to e_1 + e_2 + e_3 = n.  Then the endpoints
    are all of S(n, 0).  r is only checked to be at least n.  Every endpoint
    is held at once, so |S(n, 0)| over DEFAULT_VERTEX_CAP raises ResourceLimit.
    """
    if r < n:
        raise BallTooSmall(f"need r >= n = {n}, got {r}")
    B = LocalBuilding(q)
    size = (q * q + q + 1) * q ** (2 * n - 2) if n else 1
    if size > DEFAULT_VERTEX_CAP:
        raise ResourceLimit(f"|S({n}, 0)| = {size} exceeds the cap {DEFAULT_VERTEX_CAP}")
    base = B.origin()
    endpoints = []
    stack = [(base, base, 0)]
    while stack:
        prev, cur, length = stack.pop()
        if length == n:
            endpoints.append(cur)
            continue
        blocked = set(B.neighbors(prev, 2)) if length >= 1 else ()
        for w in B.neighbors(cur, 1):
            if w not in blocked:
                stack.append((cur, w, length + 1))
    distinct = set(endpoints)
    return len(distinct) == len(endpoints) == size and all(_at_n0(B.F, v, n) for v in distinct)


# ----------------------------------------------------------------------
# canonical algebraic length


def canonical_algebraic_length(F_or_q, mat):
    """Limit of the algebraic length of powers, from the Newton polygon.

    mat is a 3x3 matrix of polynomials over GF(q); the eigenvalue
    valuations v1 <= v2 <= v3 are the negated lower-hull slopes of the
    characteristic polynomial, and the result is (v1+v2+v3) - 3 v1, which
    is invariant under rescaling the matrix.
    """
    F = GF(F_or_q) if isinstance(F_or_q, int) else F_or_q
    det = _det3(F, mat)
    if pval(det) is None:
        raise SingularInput("matrix has zero determinant")
    trace = padd(F, padd(F, mat[0][0], mat[1][1]), mat[2][2])
    c1 = ZERO
    for i in range(3):
        for j in range(i + 1, 3):
            c1 = padd(F, c1, _det2(F, mat[i][i], mat[i][j], mat[j][i], mat[j][j]))
    # char(x) = x^3 - trace x^2 + c1 x - det; only valuations matter
    vals = {3: 0}
    for deg, coeff in ((2, trace), (1, c1), (0, det)):
        v = pval(coeff)
        if v is not None:
            vals[deg] = v
    slopes = newton_slopes(vals)
    return sum(slopes, Fraction(0)) - 3 * min(slopes)
