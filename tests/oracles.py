"""Independent oracles the tests check the program against.

None of these is on a production path: each one recomputes, by a plainer
or slower route, something the program computes another way.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np

from a2zeta.building import (
    DEFAULT_VERTEX_CAP,
    ONE,
    ZERO,
    LocalBuilding,
    RelativePosition,
    _delta_image,
    _hermite_reduce,
    ball,
)
from a2zeta.complexes import Check
from a2zeta.errors import A2ZetaError, BallTooSmall, SingularInput
from a2zeta.gf import GF, pfloordiv_tpow, pmul, pshift, psub, ptrim, pval
from a2zeta.operators import Successors
from a2zeta.polyint import IntPoly, Series, one_minus_power, poly_log_derivative
from a2zeta.satake import sigma


# ----------------------------------------------------------------------
# integer polynomials


def eval_int(p, x):
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def divides(p, other):
    """True if p divides other exactly (over Q, checked over Z)."""
    try:
        other.divexact(p)
        return True
    except A2ZetaError:
        return False


def parse_poly_line(text):
    head, _, body = text.partition(":")
    if not head.startswith("poly"):
        raise A2ZetaError(f"not a poly line: {text!r}")
    coeffs = [int(tok) for tok in body.split()]
    return IntPoly(coeffs)


def power_by_multiplication(p, m):
    """p^m as m successive products by p, for m >= 0."""
    out = IntPoly.const(1)
    for _ in range(m):
        out = out * p
    return out


def _divmod_over_q(a, b):
    """(quotient, remainder) of Fraction coefficient lists, lowest degree first."""
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        f = rem[-1] / b[-1]
        quot[len(rem) - len(b)] = f
        for i, x in enumerate(b):
            rem[len(rem) - len(b) + i] -= f * x
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def gcd_over_q(x, y):
    """The monic gcd of two integer polynomials, not both zero, as a
    Fraction coefficient list: Euclid's algorithm over the rationals."""
    a, b = [Fraction(c) for c in x.coeffs], [Fraction(c) for c in y.coeffs]
    while b:
        a, b = b, _divmod_over_q(a, b)[1]
    return [c / a[-1] for c in a]


def reduced_by_euclid(num, den):
    """num / den in lowest terms over Q, scaled to den(0) = 1, as Fraction
    coefficient lists."""
    g = gcd_over_q(num, den)
    top, bottom = (
        _divmod_over_q([Fraction(c) for c in p.coeffs], g)[0] for p in (num, den)
    )
    return [c / bottom[0] for c in top], [c / bottom[0] for c in bottom]


def product_identity_residual(b):
    """(1-u^3)^chi PE PE2 - Dvertex PB of a zeta bundle, by the two products."""
    return one_minus_power(3, b.chi) * b.pe * b.pe2 - b.dvertex * b.pb


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


def squarefree_decomposition(p):
    """Yun's algorithm: [(factor, multiplicity)] with factors squarefree.

    Factors are primitive and only determined up to sign, which is all
    root finding needs.  Exact integer arithmetic throughout.
    """
    p = p.primitive()
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


def approx_roots(p):
    """Double-precision roots of an IntPoly, each with its relative residual.

    The residual is |p(r)| / sum |c_i| |r|^i with p scaled to unit maximum
    coefficient; it is infinite where that denominator is 0 or not finite.
    """
    scale = max(abs(c) for c in p.coeffs)
    coeffs = [c / scale for c in p.coeffs]
    out = []
    for r in np.roots(list(reversed(coeffs))):
        val = 0.0
        mag = 0.0
        for c in reversed(coeffs):
            val = val * r + c
            mag = mag * abs(r) + abs(c)
        ok = np.isfinite(mag) and mag != 0
        out.append((complex(r), abs(val) / mag if ok else float("inf")))
    return out


def eigvalsh_graph_check(graph, tol=1e-9):
    """(verdict, outside) of the spectral expander test in double precision.

    One eigenvalue within tol of k, the valency, and one within tol of -k
    are trivial; every other one with |x| > 2 sqrt(k - 1) + tol is outside.
    """
    k = graph.degrees()[0]
    eig = list(np.linalg.eigvalsh(graph.adjacency()))
    for target in (k, -k):
        hits = [x for x in eig if abs(x - target) <= tol]
        if hits:
            eig.remove(min(hits, key=lambda x: abs(x - target)))
    outside = sum(abs(x) > 2 * np.sqrt(k - 1) + tol for x in eig)
    return ("NOT-RAMANUJAN" if outside else "RAMANUJAN"), int(outside)


# ----------------------------------------------------------------------
# series


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


# ----------------------------------------------------------------------
# building


T = (0, 1)


def pdiv_tpow(a, k):
    """Exact division by t^k; caller guarantees val(a) >= k."""
    if not a:
        return ()
    assert all(x == 0 for x in a[:k])
    return ptrim(a[k:])


def pmod_tpow(a, k):
    return ptrim(a[:k])


def punit_inverse(F, u, n):
    """Inverse of a unit u (u[0] != 0) in F_q[[t]] modulo t^n."""
    inv0 = F.inv(u[0])
    if len(u) == 1:
        return (inv0,)
    out = [inv0] + [0] * (n - 1)
    for i in range(1, n):
        s = 0
        for j in range(1, min(i, len(u) - 1) + 1):
            s = F.add(s, F.mul(u[j], out[i - j]))
        out[i] = F.neg(F.mul(inv0, s))
    return ptrim(out)


def canonicalize(B, mat):
    """The canonical vertex of the lattice spanned by mat's columns, by
    triangularizing any nonsingular matrix: the reference for the column
    steps of LocalBuilding.neighbors.

    Exact unimodular column operations triangularize bottom-up; the one
    power-series inversion (the unit part of each pivot) is truncated
    strictly beyond the reduction horizon, so the output is exact.
    """
    F = B.F
    cols = [[mat[0][j], mat[1][j], mat[2][j]] for j in range(3)]
    if not any(e for col in cols for e in col):
        raise SingularInput("zero matrix")
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
    prec = 2 * max(avals) + 4
    # normalize each pivot to exactly t^a_j; the truncation error sits
    # beyond t^(prec - max a) and is stripped by the reduction mod t^a_i
    for j in range(3):
        a = avals[j]
        unit_inv = punit_inverse(F, pfloordiv_tpow(cols[j][j], a), prec)
        cols[j] = [pmod_tpow(pmul(F, cols[j][i], unit_inv), prec) for i in range(3)]
        cols[j][j] = pshift(ONE, a)
    return _hermite_reduce(F, cols, avals)


def pconst(c):
    """The constant c as a polynomial over GF(q)."""
    return (c,) if c else ()


def type1_reps(q):
    """Upper triangular representatives of the type-1 edge cosets (pi = t),
    in the order LocalBuilding.neighbors lists the neighbors."""
    reps = []
    for a in range(q):
        for b in range(q):
            reps.append(((T, pconst(a), pconst(b)), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)))
    for c in range(q):
        reps.append(((ONE, ZERO, ZERO), (ZERO, T, pconst(c)), (ZERO, ZERO, ONE)))
    reps.append(((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, T)))
    return reps


def type2_reps(q):
    """Upper triangular representatives of the type-2 edge cosets (pi = t)."""
    reps = []
    for b in range(q):
        for c in range(q):
            reps.append(((T, ZERO, pconst(b)), (ZERO, T, pconst(c)), (ZERO, ZERO, ONE)))
    for a in range(q):
        reps.append(((T, pconst(a), ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, T)))
    reps.append(((ONE, ZERO, ZERO), (ZERO, T, ZERO), (ZERO, ZERO, T)))
    return reps


def _kernel_at(B, h, x, degree):
    """Coefficients (deg <= degree) of the composed operator applied to the
    delta image h, evaluated at x: one relative_position per vertex of h."""
    total = IntPoly()
    for y, val in h.items():
        pos = B.relative_position(x, y)
        if pos.lA <= degree:
            total = total + IntPoly.monomial(pos.lA) * val
    return IntPoly(total.coeffs[: degree + 1])


def tamagawa_kernel(q, n0, m0, degree):
    """The kernel K(x, base) for every x at relative position (n0, m0) from
    base: sum_{n+2m<=degree} u^{n+2m} T_{n,m} applied to the delta image at
    base, evaluated at class_representative(n0, m0)."""
    B = LocalBuilding(q)
    h = _delta_image(B, B.origin())
    return _kernel_at(B, h, B.class_representative(n0, m0), degree)


def verify_tamagawa_full(q, degree, r, cap=DEFAULT_VERTEX_CAP):
    """Same identity evaluated at every vertex of the ball (cross-check path)."""
    if r < degree + 1:
        raise BallTooSmall(f"need r >= degree+1 = {degree + 1}, got {r}")
    B = LocalBuilding(q)
    bl = ball(B, r, cap=cap)
    base = bl.vertices[0]
    h = _delta_image(B, base)
    for x in bl.vertices:
        want = IntPoly((1, 0, 0, -1)[: degree + 1]) if x == base else IntPoly()
        if _kernel_at(B, h, x, degree) != want:
            return False
    return True


def sphere_n0_by_relative_position(B, n):
    """Sphere n of a full ball, filtered to relative position (n, 0)."""
    bl = ball(B, n)
    base = bl.vertices[0]
    return {
        v
        for v, s in zip(bl.vertices, bl.sphere)
        if s == n and B.relative_position(base, v) == RelativePosition(n, 0)
    }


# ----------------------------------------------------------------------
# sparse operators and Satake transforms


def trace_power_by_multiplication(op, n):
    """Tr A^n for a SparseOperator A, by n - 1 products over Python ints."""
    a = [[op.entries.get((r, c), 0) for c in range(op.dim)] for r in range(op.dim)]
    power = [[int(r == c) for c in range(op.dim)] for r in range(op.dim)]
    for _ in range(n):
        power = [
            [sum(row[k] * a[k][c] for k in range(op.dim)) for c in range(op.dim)]
            for row in power
        ]
    return sum(power[i][i] for i in range(op.dim))


def successors_of(op):
    """A SparseOperator's rows as operators.Successors arrays, by sorting
    its entries: what a test hands type0_orbit_rows, or injects in place of
    edge_successors or chamber_successors."""
    keys = sorted(op.entries)
    indptr = np.searchsorted(np.array([r for r, _ in keys], dtype=np.int64), np.arange(op.dim + 1))
    indices = np.array([c for _, c in keys], dtype=np.int64)
    return Successors(indptr, indices, np.array([op.entries[k] for k in keys], dtype=np.int64))


def transform_a1(q):
    """Image of the degree-1 vertex operator: q(z1 + z2 + z3)."""
    return q * sigma(1, 1)


def transform_a2(q):
    """Image of the degree-2 vertex operator: q(z1 z2 + z2 z3 + z3 z1)."""
    return q * sigma(2, 2)


def is_symmetric(p):
    """Invariance of a SymPoly under all permutations of (z1, z2, z3)."""
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        moved = {}
        for (i, j), v in p.terms.items():
            e = (i, j, 0)
            x = (e[perm[0]], e[perm[1]], e[perm[2]])
            k = (x[0] - x[2], x[1] - x[2])
            moved[k] = moved.get(k, 0) + v
        if {k: v for k, v in moved.items() if v} != p.terms:
            return False
    return True


def transform_Tk_fraction(q, k):
    """q^k (s_k1 + s_k2 + (q^3-1)/q^3 s_k3) with Fraction coefficients."""
    return (q**k) * (
        sigma(k, 1) + sigma(k, 2) + Fraction(q**3 - 1, q**3) * sigma(k, 3)
    )


def transform_Tk0_fraction(q, k):
    """q^k (s_k1 + (q-1)/q s_k2 + (q-1)^2/q^2 s_k3) with Fraction coefficients."""
    return (q**k) * (
        sigma(k, 1)
        + Fraction(q - 1, q) * sigma(k, 2)
        + Fraction((q - 1) ** 2, q * q) * sigma(k, 3)
    )


# ----------------------------------------------------------------------
# successor walks


def walk_tree_size(succ, length):
    """Nodes of the DFS tree of all walks of 1..length vertices from every
    start, repeated successor entries counted with their multiplicity."""

    def nodes(v, left):
        return 1 + (sum(nodes(w, left - 1) for w in succ[v]) if left > 1 else 0)

    return sum(nodes(s, length) for s in range(len(succ)))


def shift_equivalence_classes(galleries):
    """Partition based galleries into cyclic-shift classes.

    Returns a list of (representative, class size); class sizes divide the
    length, smaller sizes flagging non-primitive galleries.
    """
    seen = set()
    classes = []
    for g in galleries:
        if g in seen:
            continue
        L = len(g)
        shifts = {tuple(g[(i + k) % L] for i in range(L)) for k in range(L)}
        seen.update(shifts)
        classes.append((min(shifts), len(shifts)))
    return classes


def closed_walk_count(succ, length):
    """Based closed walks of the given length by plain recursion: each step
    counts with its multiplicity in succ, the closing step once."""

    def walks(start, v, left):
        if left == 1:
            return 1 if start in succ[v] else 0
        return sum(walks(start, w, left - 1) for w in succ[v])

    return sum(walks(s, s, length) for s in range(len(succ)))


# ----------------------------------------------------------------------
# vertex links


def link_condition_pairwise(cx):
    """The link condition by intersecting the neighbor sets of every pair of
    link edges, on both sides, after biregularity and repeated-pairing tests."""
    q = cx.q
    m = q * q + q + 1
    out_edges = [[] for _ in range(cx.n_vertices)]
    in_edges = [[] for _ in range(cx.n_vertices)]
    for e, (s, d) in enumerate(cx.edges):
        out_edges[s].append(e)
        in_edges[d].append(e)
    # one link edge per chamber containing v, pairing the chamber's
    # out-edge at v with its in-edge at v
    link_pairs = [[] for _ in range(cx.n_vertices)]
    for tri in cx.chambers:
        for slot, e in enumerate(tri):
            link_pairs[cx.edge_src(e)].append((e, tri[(slot + 2) % 3]))
    for v in range(cx.n_vertices):
        outs, ins, pairs = out_edges[v], in_edges[v], link_pairs[v]
        if any(cx.edge_dst(b) != v for _, b in pairs):
            return Check("link_condition", False, f"vertex {v}: chamber not chained")
        if len(pairs) != len(set(pairs)):
            return Check("link_condition", False, f"vertex {v}: repeated pairing")
        deg_out = Counter(p[0] for p in pairs)
        deg_in = Counter(p[1] for p in pairs)
        if any(deg_out[e] != q + 1 for e in outs) or any(
            deg_in[e] != q + 1 for e in ins
        ):
            return Check("link_condition", False, f"vertex {v}: not (q+1)-biregular")
        nbrs_of_out = {e: set() for e in outs}
        nbrs_of_in = {e: set() for e in ins}
        for a, b in pairs:
            nbrs_of_out[a].add(b)
            nbrs_of_in[b].add(a)
        for coll, side in ((nbrs_of_out, "out"), (nbrs_of_in, "in")):
            keys = sorted(coll)
            for i, a in enumerate(keys):
                for b in keys[i + 1 :]:
                    if len(coll[a] & coll[b]) != 1:
                        return Check(
                            "link_condition",
                            False,
                            f"vertex {v}: {side}-edges {a},{b} share "
                            f"{len(coll[a] & coll[b])} neighbors",
                        )
        if len(outs) != m or len(ins) != m:
            return Check("link_condition", False, f"vertex {v}: wrong link size")
    return Check("link_condition", True)


# ----------------------------------------------------------------------
# projective planes


def plane_by_dot_product(q):
    """Points and lines of PG(2, q) as planes numbers them, by dot products.

    The points are the nonzero triples over GF(q) whose first nonzero
    coordinate is 1, sorted; line j holds every point p with
    points[j] . p = 0, n^2 dot products in all.
    """
    F = GF(q)
    triples = product(range(q), repeat=3)
    points = sorted(v for v in triples if any(v) and next(x for x in v if x) == 1)

    def dot(u, v):
        s = 0
        for x, y in zip(u, v):
            s = F.add(s, F.mul(x, y))
        return s

    lines = [
        frozenset(i for i, p in enumerate(points) if dot(ell, p) == 0) for ell in points
    ]
    return points, lines
