"""Graph baseline: the one-dimensional case of the zeta machinery.

Finite undirected multigraphs with the non-backtracking edge operator, the
two closed forms of the graph zeta function (asserted exactly equal), a
brute-force cycle counter, and the spectral expander test.
"""

import random
from dataclasses import dataclass

import numpy as np

from .errors import A2ZetaError, DegreeTooLow, NotRegular
from .enumeration import DEFAULT_BUDGET, count_walks
from .operators import SparseOperator
from .polyint import IntPoly, RationalFunction, det_i_minus_pencil


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
        if self.n == 0:
            return False
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.n


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
    de = directed_edges(graph)
    by_src = {}
    for i, (s, _) in enumerate(de):
        by_src.setdefault(s, []).append(i)
    entries = {}
    for i, (_, v) in enumerate(de):
        rev = i ^ 1
        for j in by_src.get(v, ()):
            if j != rev:
                entries[(i, j)] = 1
    return SparseOperator("directedEdges", len(de), entries)


def ihara_zeta(graph):
    """The zeta function two ways, asserted exactly equal.

    Returns (zeta, edge_form, vertex_form): edge_form = 1/det(I - Ae u),
    vertex_form = (1-u^2)^(V-E)/det(I - A u + (D - I) u^2) with D the
    valency matrix.  The input must be connected with minimum degree 2.
    """
    if not graph.is_connected():
        raise DegreeTooLow("graph must be connected")
    if min(graph.degrees()) < 2:
        raise DegreeTooLow("graph must have minimum degree 2")
    hashimoto_den = det_i_minus_pencil([edge_adjacency(graph).to_dense()])
    a = graph.adjacency()
    # the valencies are the row sums of A, so -(D - I) = diag(1 - rowsum)
    bass_den = det_i_minus_pencil([a, np.diag(1 - a.sum(axis=1))])
    chi = graph.n - graph.m  # Euler characteristic, <= 0 here
    one_minus_u2 = IntPoly((1, 0, -1))
    edge_form = RationalFunction(IntPoly.const(1), hashimoto_den)
    vertex_form = RationalFunction(IntPoly.const(1), bass_den * one_minus_u2 ** (-chi))
    if edge_form != vertex_form:
        raise A2ZetaError("edge and vertex zeta forms disagree")
    return edge_form, hashimoto_den, bass_den


def count_closed_walks(graph, length, budget=DEFAULT_BUDGET):
    """Backtrackless tailless closed walks of the given length, by DFS.

    Based count over directed edges; equals Tr Ae^n without using matrices.
    """
    de = directed_edges(graph)
    by_src = {}
    for i, (s, _) in enumerate(de):
        by_src.setdefault(s, []).append(i)
    succ = [
        [j for j in by_src.get(v, ()) if j != (i ^ 1)] for i, (_, v) in enumerate(de)
    ]
    return count_walks(succ, length, budget)


@dataclass
class GraphSpectrumReport:
    verdict: str
    valency: int
    bound: float
    trivial: list
    nontrivial: list

    @property
    def passed(self):
        return self.verdict == "RAMANUJAN"


def ramanujan_graph_check(graph, tol=1e-9):
    """Spectral expander test for a (q+1)-regular graph."""
    if not 0 < tol <= 1e-3:
        raise A2ZetaError("tol must be in (0, 1e-3]")
    degs = graph.degrees()
    if len(set(degs)) != 1:
        raise NotRegular(f"degrees {sorted(set(degs))} are not constant")
    k = degs[0]
    if k == 0:
        raise DegreeTooLow("the spectral test needs valency at least 1, got 0")
    q = k - 1
    eig = sorted(np.linalg.eigvalsh(graph.adjacency()))
    trivial, nontrivial = [], list(eig)
    for target in (float(k), float(-k)):
        hits = [x for x in nontrivial if abs(x - target) <= tol]
        if hits:
            closest = min(hits, key=lambda x: abs(x - target))
            trivial.append(closest)
            nontrivial.remove(closest)
    bound = 2.0 * np.sqrt(q)
    ok = all(abs(x) <= bound + tol for x in nontrivial)
    return GraphSpectrumReport(
        verdict="RAMANUJAN" if ok else "NOT-RAMANUJAN",
        valency=k,
        bound=bound,
        trivial=trivial,
        nontrivial=nontrivial,
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
