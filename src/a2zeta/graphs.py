"""Graph baseline: the one-dimensional case of the zeta machinery.

Finite undirected multigraphs with the non-backtracking edge operator, the
Ihara-Bass identity between the two determinant forms of the graph zeta
function checked as an exact polynomial equation, a brute-force cycle
counter, and the spectral expander test, an exact count in integers of the
nontrivial adjacency eigenvalues past 2 sqrt(q) by Descartes' rule of
signs."""

import random
from dataclasses import dataclass

import numpy as np

from .complexes import reachable_count
from .enumeration import DEFAULT_BUDGET, count_walks
from .errors import A2ZetaError, DegreeTooLow, NotRegular
from .operators import SparseOperator
from .polyint import IntPoly, det_i_minus_pencil, one_minus_power, real_roots_above


@dataclass(frozen=True)
class Graph:
    """Undirected multigraph: vertex count plus an edge list (ordered pairs)."""

    n: int
    edges: tuple

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise A2ZetaError(f"edge ({u},{v}) out of range")

    @property
    def m(self):
        return len(self.edges)

    def degrees(self):
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self):
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] += 1
            a[v, u] += 1
        return a

    def is_connected(self):
        return self.n > 0 and reachable_count(self.n, self.edges) == self.n

    def require_edge_at_every_vertex(self):
        """DegreeTooLow if n > 2m, checked before anything of size n is built."""
        if self.n > 2 * self.m:
            raise DegreeTooLow(f"{self.n} vertices but {self.m} edges: some vertex has none")


def directed_edges(graph):
    """Each undirected edge i yields directed edges 2i (u->v) and 2i+1 (v->u)."""
    out = []
    for i, (u, v) in enumerate(graph.edges):
        out.append((u, v))
        out.append((v, u))
    return out


def edge_adjacency(graph):
    """Non-backtracking adjacency on directed edges.

    (u -> v) connects to every directed edge out of v except its own
    reverse; a parallel edge back to u is a legitimate neighbor.
    """
    succ = _successors(graph)
    entries = {(i, j): 1 for i, row in enumerate(succ) for j in row}
    return SparseOperator("directedEdges", len(succ), entries)


def _successors(graph):
    """For each directed edge i = (u -> v), the directed edges out of v but
    its reverse i ^ 1, as lists indexed by i."""
    de = directed_edges(graph)
    by_src = {}
    for i, (s, _) in enumerate(de):
        by_src.setdefault(s, []).append(i)
    return [[j for j in by_src.get(v, ()) if j != (i ^ 1)] for i, (_, v) in enumerate(de)]


def ihara_zeta(graph):
    """Both determinant forms of the zeta function and whether they agree.

    Returns (hashimoto_den, bass_den, agree): the zeta function is
    1/hashimoto_den, hashimoto_den = det(I - Ae u), bass_den =
    det(I - A u + (D - I) u^2) with D the valency matrix, and agree is the
    Ihara-Bass identity (Bass 1992) checked as an exact polynomial equation,
        det(I - Ae u) == (1 - u^2)^(E - V) det(I - A u + (D - I) u^2).
    The input must be connected with minimum degree 2, so E >= V.
    """
    graph.require_edge_at_every_vertex()
    if not graph.is_connected():
        raise DegreeTooLow("graph must be connected")
    if min(graph.degrees()) < 2:
        raise DegreeTooLow("graph must have minimum degree 2")
    hashimoto_den = det_i_minus_pencil([edge_adjacency(graph).to_dense()])
    a = graph.adjacency()
    # the valencies are the row sums of A, so -(D - I) = diag(1 - rowsum)
    bass_den = det_i_minus_pencil([a, np.diag(1 - a.sum(axis=1))])
    agree = hashimoto_den == bass_den * one_minus_power(2, graph.m - graph.n)
    return hashimoto_den, bass_den, agree


def count_closed_walks(graph, length, budget=DEFAULT_BUDGET):
    """Backtrackless tailless closed walks of the given length, by DFS.

    Based count over directed edges; equals Tr Ae^n without using matrices.
    """
    succ = _successors(graph)
    return count_walks(succ, length, budget)


@dataclass
class GraphSpectrumReport:
    verdict: str
    valency: int
    outside: int  # nontrivial adjacency eigenvalues with lambda^2 > 4q

    @property
    def passed(self):
        return self.verdict == "RAMANUJAN"


def ramanujan_graph_check(graph):
    """Spectral expander test for a (q+1)-regular graph, exactly.

    With P(x) = det(x I - A), the reversed det(I - u A) padded to degree n,
    the even polynomial P(x) P(-x) is (-1)^n S(x^2), S(y) = prod (y -
    lambda^2) over the eigenvalues.  The trivial eigenvalue k = q + 1 leaves
    S as one factor y - k^2, and -k, when P(-k) = 0, as one more.  A is
    symmetric, so every root of S is real, and polyint.real_roots_above
    counts those with lambda^2 > 4q exactly, by Descartes' rule of signs;
    one at lambda^2 = 4q is not counted.
    """
    graph.require_edge_at_every_vertex()
    degs = graph.degrees()
    if len(set(degs)) != 1:
        raise NotRegular(f"degrees {sorted(set(degs))} are not constant")
    k = degs[0]
    if k == 0:
        raise DegreeTooLow("the spectral test needs valency at least 1, got 0")
    q = k - 1
    c = det_i_minus_pencil([graph.adjacency()]).coeffs
    p = IntPoly((0,) * (graph.n + 1 - len(c)) + c[::-1])
    s = IntPoly((p * p.substitute_neg()).coeffs[::2]).divexact(IntPoly((-k * k, 1)))
    if p(-k) == 0:
        s = s.divexact(IntPoly((-k * k, 1)))
    outside = real_roots_above(s, 4 * q)
    return GraphSpectrumReport(
        verdict="NOT-RAMANUJAN" if outside else "RAMANUJAN", valency=k, outside=outside
    )


# ----------------------------------------------------------------------
# seeded generators (test plumbing)


def cycle_graph(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n):
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(outer + spokes + inner))


def random_regular_graph(n, degree, seed):
    """Pairing model with rejection until simple and connected."""
    if (n * degree) % 2:
        raise A2ZetaError("n*degree must be even")
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = sorted(
            tuple(sorted((stubs[2 * i], stubs[2 * i + 1])))
            for i in range(len(stubs) // 2)
        )
        simple = all(u != v for u, v in edges) and len(set(edges)) == len(edges)
        if not simple:
            continue
        g = Graph(n, tuple(edges))
        if g.is_connected():
            return g


def random_irregular_graph(n, seed, extra=3):
    """Connected simple graph with min degree >= 2 and uneven degrees."""
    rng = random.Random(seed)
    while True:
        edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
        for _ in range(n // 2 + extra):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add(tuple(sorted((u, v))))
        g = Graph(n, tuple(sorted(edges)))
        if g.is_connected() and min(g.degrees()) >= 2 and len(set(g.degrees())) > 1:
            return g
        seed += 1
        rng = random.Random(seed)
