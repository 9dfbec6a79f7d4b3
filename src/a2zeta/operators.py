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

LE and LB are built once, by edge_successors and chamber_successors, as
Successors: int64 CSR arrays taken from the edge and chamber arrays with
numpy.  edge_operator and chamber_operator are SparseOperator views of
them, and zeta's type0_orbit_rows steps through them directly.
"""

from typing import NamedTuple

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

    @classmethod
    def view(cls, space, successors):
        """The operator whose rows are the given Successors."""
        indptr, indices, weights = successors
        rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        entries = zip(zip(rows.tolist(), indices.tolist()), weights.tolist())
        return cls(space, len(indptr) - 1, entries)

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
    return SparseOperator.view("edges1", edge_successors(cx))


def chamber_operator(cx):
    """Adjacency of directed chambers."""
    return SparseOperator.view("directedChambers", chamber_successors(cx))


class Successors(NamedTuple):
    """An operator's rows as int64 CSR arrays: the successors of index r
    are indices[indptr[r] : indptr[r + 1]], ascending, with their weights."""

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray


def edge_successors(cx):
    """LE's Successors: f follows e when dst(e) = src(f) and no chamber
    contains both."""
    n, edges, tri = cx.n_edges, cx.edge_array, cx.chamber_array
    e, f = _matches(edges[:, 1], edges[:, 0], cx.n_vertices)
    shared = (tri[:, :, None] * n + tri[:, None, :]).ravel()  # e * n + f in one chamber
    keep = ~np.isin(e * n + f, shared)
    return _successors(n, e[keep], f[keep])


def chamber_successors(cx):
    """LB's Successors: for (C, e) with edge cycle e = e1, e2, e3, the
    (C', e') with C' one of the q chambers other than C containing e2, and
    e' the edge following e2 in C'.
    """
    tri = cx.chamber_array
    # other: each directed chamber 3 C' + slot whose edge tri[C', slot] is e2
    row, other = _matches(tri[:, [1, 2, 0]].ravel(), tri.ravel(), cx.n_edges)
    keep = other // 3 != row // 3
    other = other[keep]
    return _successors(len(tri) * 3, row[keep], other - other % 3 + (other + 1) % 3)


def _matches(wanted, values, size):
    """(i, j) for every pair with wanted[i] == values[j], all in range(size)."""
    by_value = np.argsort(values, kind="stable")
    starts = np.searchsorted(values[by_value], np.arange(size + 1))
    counts = starts[wanted + 1] - starts[wanted]
    ends = np.cumsum(counts)
    j = np.repeat(starts[wanted] - ends + counts, counts) + np.arange(counts.sum())
    return np.repeat(np.arange(len(wanted)), counts), by_value[j]


def _successors(dim, rows, cols):
    """The Successors of the pairs (rows[i], cols[i]); a pair's weight is
    the number of times it occurs."""
    keys, weights = np.unique(rows * dim + cols, return_counts=True)
    return Successors(np.searchsorted(keys, np.arange(dim + 1) * dim), keys % dim, weights)
