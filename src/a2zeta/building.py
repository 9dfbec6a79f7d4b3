"""Local model of the rank-2 affine building over F_q((t)).

Vertices are classes of rank-3 lattices over O = F_q[[t]], represented by
canonical upper-triangular polynomial matrices: column-Hermite form over
the valuation ring with diagonal t^a_i, entry (i, j) reduced mod t^a_i,
scaled so the minimal entry valuation is 0.  Canonicalization uses exact
polynomial column operations; the single power-series inversion (the unit
part of each pivot) is truncated strictly beyond the reduction horizon, so
the output is exact.

Relative positions come from minor valuations: for M = g1^{-1} g2 the sums
e_1 + ... + e_i of the elementary-divisor exponents equal the minimal
valuation among i x i minors, and the position is (n, m) = (e3-e2, e2-e1).

The Hecke recursion checker exploits that the composed-operator kernel
K(x, base) is constant on relative-position classes: the group acts
transitively on ordered vertex pairs of fixed relative position (that is
what the double-coset decomposition says), so evaluating one vertex per
class verifies the identity everywhere.  The geodesic criterion reads the
(n, 0) sphere off one breadth-first ball on the same LocalBuilding that
its path search uses.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import BallTooSmall, ResourceLimit, SingularInput
from .gf import (
    GF,
    newton_slopes,
    padd,
    pconst,
    pdiv_tpow,
    pfloordiv_tpow,
    pmod_tpow,
    pmul,
    pneg,
    pshift,
    psub,
    punit_inverse,
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
T = (0, 1)


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


class LocalBuilding:
    """Arithmetic context for one residue field size q."""

    def __init__(self, q):
        self.q = q
        self.F = GF(q)
        self._nbr_cache = {}

    # -- coset representatives (pi = t)

    def type1_reps(self):
        F, q = self.F, self.q
        reps = []
        for a in range(q):
            for b in range(q):
                reps.append(
                    ((T, pconst(a), pconst(b)), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))
                )
        for c in range(q):
            reps.append(((ONE, ZERO, ZERO), (ZERO, T, pconst(c)), (ZERO, ZERO, ONE)))
        reps.append(((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, T)))
        return reps

    def type2_reps(self):
        F, q = self.F, self.q
        reps = []
        for b in range(q):
            for c in range(q):
                reps.append(
                    ((T, ZERO, pconst(b)), (ZERO, T, pconst(c)), (ZERO, ZERO, ONE))
                )
        for a in range(q):
            reps.append(((T, pconst(a), ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, T)))
        reps.append(((ONE, ZERO, ZERO), (ZERO, T, ZERO), (ZERO, ZERO, T)))
        return reps

    def origin(self):
        return BuildingVertex(((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)))

    # -- canonical form

    def canonicalize(self, mat):
        """Canonical coset representative of the lattice spanned by the columns."""
        F = self.F
        cols = [[mat[0][j], mat[1][j], mat[2][j]] for j in range(3)]
        # overall scale: minimal entry valuation becomes 0
        vals = [pval(e) for col in cols for e in col]
        if all(v is None for v in vals):
            raise SingularInput("zero matrix")
        shift = min(v for v in vals if v is not None)
        if shift:
            cols = [[pfloordiv_tpow(e, shift) for e in col] for col in cols]
        # triangularize bottom-up with exact unimodular column operations
        for row in (2, 1, 0):
            cand = [(pval(cols[j][row]), j) for j in range(row + 1)]
            cand = [(v, j) for v, j in cand if v is not None]
            if not cand:
                raise SingularInput("matrix is singular")
            _, piv = min(cand, key=lambda t: (t[0], -t[1]))
            cols[piv], cols[row] = cols[row], cols[piv]
            v = pval(cols[row][row])
            unit = pfloordiv_tpow(cols[row][row], v)
            for j in range(row):
                if pval(cols[j][row]) is None:
                    continue
                w = pdiv_tpow(cols[j][row], v)
                cols[j] = [
                    psub(F, pmul(F, unit, cols[j][i]), pmul(F, w, cols[row][i]))
                    for i in range(3)
                ]
                cols[j][row] = ZERO
        avals = [pval(cols[j][j]) for j in range(3)]
        amax = max(avals)
        prec = 2 * amax + 4
        # normalize each pivot to exactly t^a_j, then reduce entry (i, j)
        # modulo t^a_i; truncation error sits beyond t^(prec - amax) and is
        # stripped by the final reductions, so the output is exact.
        for j in range(3):
            a = avals[j]
            unit_inv = punit_inverse(F, pfloordiv_tpow(cols[j][j], a), prec)
            cols[j] = [pmod_tpow(pmul(F, cols[j][i], unit_inv), prec) for i in range(3)]
            cols[j][j] = pshift(ONE, a)
            for k in range(j - 1, -1, -1):
                h = pfloordiv_tpow(cols[j][k], avals[k])
                if h:
                    for i in range(k + 1):
                        cols[j][i] = psub(F, cols[j][i], pmul(F, h, cols[k][i]))
            for i in range(j):
                cols[j][i] = pmod_tpow(cols[j][i], avals[i])
        return BuildingVertex(
            tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
        )

    # -- neighbors

    def neighbors(self, v, edge_type):
        key = (v, edge_type)
        hit = self._nbr_cache.get(key)
        if hit is not None:
            return hit
        reps = self.type1_reps() if edge_type == 1 else self.type2_reps()
        out = [self.canonicalize(_mat_mul(self.F, v.mat, rep)) for rep in reps]
        if len(set(out)) != self.q**2 + self.q + 1:
            raise SingularInput("coset representatives collapsed")
        self._nbr_cache[key] = out
        return out

    def adjacent_set(self, v):
        return set(self.neighbors(v, 1)) | set(self.neighbors(v, 2))

    # -- relative position

    def relative_position(self, g1, g2):
        F = self.F
        d1 = _det3(F, g1.mat)
        d2 = _det3(F, g2.mat)
        if pval(d1) is None or pval(d2) is None:
            raise SingularInput("singular vertex matrix")
        M = _mat_mul(F, _adjugate(F, g1.mat), g2.mat)
        v1 = min(pval(e) for row in M for e in row if pval(e) is not None)
        minors2 = []
        for r in range(3):
            for s in range(r + 1, 3):
                for c in range(3):
                    for d in range(c + 1, 3):
                        minors2.append(
                            _det2(F, M[r][c], M[r][d], M[s][c], M[s][d])
                        )
        v2 = min((pval(e) for e in minors2 if pval(e) is not None), default=None)
        v3 = pval(_det3(F, M))
        if v2 is None or v3 is None:
            raise SingularInput("relative position of singular pair")
        dv = pval(d1)
        s1, s2, s3 = v1 - dv, v2 - 2 * dv, v3 - 3 * dv
        e1, e2, e3 = s1, s2 - s1, s3 - s2
        assert e1 <= e2 <= e3
        return RelativePosition(n=e3 - e2, m=e2 - e1)

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


def tamagawa_kernel(q, n0, m0, degree):
    """Coefficients (deg <= degree) of the composed operator at class (n0, m0).

    Applies sum_{n+2m<=degree} u^{n+2m} T_{n,m} to the delta image at a
    representative of the class; the result is the kernel value K(x, base)
    for every x at relative position (n0, m0) from base.
    """
    B = LocalBuilding(q)
    return _kernel(B, _delta_image(B, B.origin()), n0, m0, degree)


def _kernel(B, h, n0, m0, degree):
    """tamagawa_kernel on the building B with the delta image h at its origin."""
    x0 = B.class_representative(n0, m0)
    total = IntPoly()
    for y, val in h.items():
        pos = B.relative_position(x0, y)
        if pos.lA <= degree:
            total = total + IntPoly.monomial(pos.lA) * val
    return IntPoly(total.coeffs[: degree + 1])


def verify_tamagawa(q, degree, r):
    """Check the Hecke inversion identity coefficientwise up to the degree.

    The composed kernel vanishes beyond geodesic distance degree + 1, and on
    each class it is a single polynomial, so checking one representative per
    class (n0, m0), n0 + m0 <= degree + 1, verifies the identity on the whole
    ball of radius r >= degree + 1.
    """
    if r < degree + 1:
        raise BallTooSmall(f"need r >= degree+1 = {degree + 1}, got {r}")
    expected_base = IntPoly((1, 0, 0, -1))  # 1 - u^3
    B = LocalBuilding(q)
    h = _delta_image(B, B.origin())
    for n0 in range(degree + 2):
        for m0 in range(degree + 2 - n0):
            got = _kernel(B, h, n0, m0, degree)
            want = (
                IntPoly(expected_base.coeffs[: degree + 1])
                if (n0, m0) == (0, 0)
                else IntPoly()
            )
            if got != want:
                return False
    return True


# ----------------------------------------------------------------------
# geodesic criterion


def verify_geodesic_criterion(q, n, r):
    """Non-chamber type-1 paths of length n are exactly the (n, 0) geodesics.

    Enumerates every length-n type-1 path from the origin whose consecutive
    edges avoid completing a chamber (the new endpoint must not be adjacent
    to the previous vertex), and asserts that the endpoints are exactly the
    vertices at relative position (n, 0), given by sphere_n0 on the same
    building, each reached by exactly one path.
    """
    if r < n:
        raise BallTooSmall(f"need r >= n = {n}, got {r}")
    B = LocalBuilding(q)
    base = B.origin()
    endpoint_count = {}
    stack = [(base, base, 0)]
    while stack:
        prev, cur, length = stack.pop()
        if length == n:
            endpoint_count[cur] = endpoint_count.get(cur, 0) + 1
            continue
        blocked = B.adjacent_set(prev) if length >= 1 else set()
        for w in B.neighbors(cur, 1):
            if length == 0 or w not in blocked:
                stack.append((cur, w, length + 1))
    endpoints = sphere_n0(B, n)
    return sorted(endpoint_count.values()) == [1] * len(endpoints) and set(
        endpoint_count
    ) == endpoints


def sphere_n0(B, n):
    """The set of vertices at relative position (n, 0) from the origin of B.

    A type-1 step from position (k - 1, 0) lands at (k, 0) exactly when it
    moves one step away from the origin, so sphere (k, 0) is the set of
    type-1 neighbors of sphere (k - 1, 0) at distance k.  One BFS of radius
    n - 1 gives the distances; a neighbor outside that ball is at distance n.
    """
    bl = ball(B, n - 1)

    def distance(w):
        j = bl.index.get(w)
        return n if j is None else bl.sphere[j]

    sphere = {B.origin()}
    for k in range(1, n + 1):
        sphere = {w for v in sphere for w in B.neighbors(v, 1) if distance(w) == k}
    return sphere


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
