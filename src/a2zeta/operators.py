"""The four operators of the determinant identity as exact sparse matrices.

All matrices are multiplicity-aware integer matrices over deterministic
index orders: vertices and type-1 edges by their ids, directed chambers in
(chamber, slot) order, i.e. index 3*chamber + slot.  Their dense views are
int64 numpy arrays, which hold any multiplicity; matrix powers are taken in
float64, through BLAS, while a proven bound keeps every entry and partial
sum below 2^53, and in object dtype, over Python ints, above it.

Neighbor rules on a validated complex:

  A1[u][w]   number of type-1 edges u -> w; A2 is its transpose.
  LE[e][f]   1 when dst(e) = src(f) and no chamber contains both e and f.
             The exclusion is existential: a pair lying in several common
             chambers is still excluded once.
  LB[(C,e)][(C',e')]  1 when C' != C shares the edge following e in C's
             cycle, and e' is the edge following that shared edge in C'.

edge_operator and chamber_operator count LE's and LB's entries from the
edge and chamber arrays with numpy, for the operator export and the test
oracles.  The identity never forms them: edge_step and chamber_step take
a batch of rows through LE or LB from the incidences alone, at O(E + 3C)
work a row, and zeta's type0_orbit_rows takes the rows of their cubes
from three steps.  SparseOperator.step is the same map for any operator
given by its entries.
"""

import numpy as np

from .errors import A2ZetaError


class SparseOperator:
    """Integer matrix with a tagged index space."""

    def __init__(self, space, dim, entries):
        self.space = space
        self.dim = dim
        self.entries = dict(entries)
        for (r, c), v in self.entries.items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise A2ZetaError(f"entry ({r},{c}) outside dimension {dim}")
            if v < 0:
                raise A2ZetaError("negative multiplicity")

    def row_sums(self):
        sums = [0] * self.dim
        for (r, _), v in self.entries.items():
            sums[r] += v
        return sums

    def transpose(self):
        return SparseOperator(
            self.space, self.dim, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def to_dense(self):
        m = np.zeros((self.dim, self.dim), dtype=np.int64)
        for (r, c), v in self.entries.items():
            m[r, c] = v
        return m

    def trace_power(self, n):
        """Tr A^n for n >= 0, exactly.

        Multiplicities are nonnegative, so with rho the largest row sum,
        taken at least 1, every entry of A^j is at most rho^j, and every
        partial sum in a product A^i A^j that matrix_power forms is a
        nonnegative integer at most rho^(i+j) <= rho^n.  So when rho^n < 2^53
        float64 holds each one exactly, in any summation order, and the
        powers go through BLAS; otherwise they are taken over Python ints.
        The diagonal is summed over Python ints.
        """
        if n < 0:
            raise ValueError(f"trace_power needs n >= 0, got {n}")
        rho = max([1] + self.row_sums())
        dtype = np.float64 if rho**n < 2**53 else object
        power = np.linalg.matrix_power(self.to_dense().astype(dtype), n)
        return sum(int(x) for x in power.diagonal())

    def step(self):
        """x -> x A on a batch x of nonnegative int64 rows, from the entries:
        what type0_orbit_rows takes for an operator given entry by entry.

        With A >= 0 every partial sum in a row of x A is at most that row's
        total, x times A's row sums; A2ZetaError is raised unless every
        total, taken over Python ints, is below 2^63.
        """
        dense = self.to_dense()
        sums = np.array(self.row_sums(), dtype=object)

        def step(x):
            if max((x.astype(object) @ sums).tolist(), default=0) >= 2**63:
                raise A2ZetaError(f"a step of {self.space} does not fit in int64")
            return x @ dense

        return step

    def __eq__(self, other):
        return (
            isinstance(other, SparseOperator)
            and self.space == other.space
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def export(self):
        """Line-oriented triplet text with a 'sparse' header."""
        lines = [f"sparse {self.dim} {self.dim} {len(self.entries)}"]
        for (r, c) in sorted(self.entries):
            lines.append(f"{r} {c} {self.entries[(r, c)]}")
        return "\n".join(lines) + "\n"


def vertex_hecke(cx):
    """The vertex operators (A1, A2); A2 is exactly A1 transposed."""
    a1 = {}
    for s, d in cx.edges:
        a1[(s, d)] = a1.get((s, d), 0) + 1
    A1 = SparseOperator("vertices", cx.n_vertices, a1)
    return A1, A1.transpose()


def edge_operator(cx):
    """Adjacency of type-1 edges under the chamber-exclusion rule."""
    n, edges, tri = cx.n_edges, cx.edge_array, cx.chamber_array
    e, f = _matches(edges[:, 1], edges[:, 0], cx.n_vertices)
    shared = (tri[:, :, None] * n + tri[:, None, :]).ravel()  # e * n + f in one chamber
    keep = ~np.isin(e * n + f, shared)
    return _counted("edges1", n, e[keep], f[keep])


def chamber_operator(cx):
    """Adjacency of directed chambers."""
    tri = cx.chamber_array
    # other: each directed chamber 3 C' + slot whose edge tri[C', slot] is e2
    row, other = _matches(tri[:, [1, 2, 0]].ravel(), tri.ravel(), cx.n_edges)
    keep = other // 3 != row // 3
    row, other = row[keep], other[keep]
    return _counted("directedChambers", 3 * len(tri), row, other - other % 3 + (other + 1) % 3)


def _matches(wanted, values, size):
    """(i, j) for every pair with wanted[i] == values[j], all in range(size)."""
    by_value = np.argsort(values, kind="stable")
    starts = np.searchsorted(values[by_value], np.arange(size + 1))
    counts = starts[wanted + 1] - starts[wanted]
    ends = np.cumsum(counts)
    j = np.repeat(starts[wanted] - ends + counts, counts) + np.arange(counts.sum())
    return np.repeat(np.arange(len(wanted)), counts), by_value[j]


def _counted(space, dim, rows, cols):
    """The operator whose (r, c) entry counts the i with (rows[i], cols[i]) = (r, c)."""
    keys, counts = np.unique(rows * dim + cols, return_counts=True)
    pairs = zip((keys // dim).tolist(), (keys % dim).tolist())
    return SparseOperator(space, dim, zip(pairs, counts.tolist()))


def edge_step(cx):
    """x -> x LE on a batch x of nonnegative int64 rows, from the incidences:

        (x LE)[f] = sum of x[e] over dst(e) = src(f)
                    - sum of x[e] over the chambers in which f follows e,

    the first sum one scatter onto the vertices and one gather back.  It is
    LE only if no pair (e, f) lies in two chambers, repeating f on the line
    e of the link at dst(e): validate's link_condition refuses that, as
    plane_defect counts a point repeated on a line against it.
    """
    src, dst = cx.edge_array.T
    tri = cx.chamber_array
    e, f = tri.ravel(), tri[:, [1, 2, 0]].ravel()  # f follows e in a chamber

    def step(x):
        _check_totals(x, cx.q**2)
        return _scatter(x, dst, cx.n_vertices)[:, src] - _scatter(x[:, e], f, cx.n_edges)

    return step


def chamber_step(cx):
    """x -> x LB on a batch x of nonnegative int64 rows, from the incidences:

        (x LB)[3C' + t] = T[tri[C', t - 1]] - x[3C' + t - 2],  slots mod 3,
        T[e] = sum of x[3C + s] over the (C, s) with tri[C, s + 1] = e,

    the subtraction taking out C' itself.  That is one term only if the three
    edges of C' are distinct: validate's type_increment and chamber_chaining
    give them three different source types.
    """
    tri = cx.chamber_array
    follows, before = tri[:, [1, 2, 0]].ravel(), tri[:, [2, 0, 1]].ravel()

    def step(x):
        _check_totals(x, cx.q)
        y = _scatter(x, follows, cx.n_edges)[:, before]
        for t in range(3):
            y[:, t::3] -= x[:, (t + 1) % 3 :: 3]  # x[3C' + t - 2]
        return y

    return step


def _check_totals(x, rho):
    """Raise A2ZetaError unless rho times x's largest row sum is below 2^63.

    rho is the operator's row sum on a valid complex, q^2 for LE and q for
    LB.  With x >= 0 every total a step forms is at most x's row sum, and
    the result's rows, the next step's input, sum to rho times x's.
    """
    if rho * int(x.sum(axis=1).max(initial=0)) >= 2**63:
        raise A2ZetaError("a step of LE or LB does not fit in int64")


def _scatter(x, index, size):
    """out[:, i] = the sum of x[:, j] over the j with index[j] = i."""
    out = np.zeros((len(x), size), dtype=np.int64)
    for row, values in zip(out, x):
        np.add.at(row, index, values)
    return out
