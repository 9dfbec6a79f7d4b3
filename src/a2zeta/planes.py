"""Deterministic coordinate construction of PG(2, q).

Points are vectors in F_q^3 normalized so the first nonzero coordinate is 1,
sorted lexicographically in the fixed element order of gf.GF; lines come
from the dual the same way.  Everything downstream keys off these ids, so
the construction must never change.
"""

from dataclasses import dataclass, field

from .gf import GF


@dataclass
class ProjectivePlane:
    q: int
    field: GF
    points: list  # normalized coordinate triples
    lines: list  # frozensets of point ids
    line_index: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.q * self.q + self.q + 1

    @property
    def incidence(self):
        """Point x line boolean matrix."""
        return [[p in L for L in self.lines] for p in range(self.n)]


def _normalized_triples(q):
    """Nonzero vectors of F_q^3 with first nonzero coordinate 1, sorted."""
    tails = [(b, c) for b in range(q) for c in range(q)]
    return [(0, 0, 1)] + [(0, 1, c) for c in range(q)] + [(1, b, c) for b, c in tails]


def build_plane(q):
    """PG(2, q) for every prime power q <= gf.MAX_ORDER; UnsupportedOrder otherwise."""
    F = GF(q)
    points = _normalized_triples(q)

    def dot(u, v):
        s = 0
        for x, y in zip(u, v):
            s = F.add(s, F.mul(x, y))
        return s

    lines = [
        frozenset(i for i, p in enumerate(points) if dot(ell, p) == 0) for ell in points
    ]
    plane = ProjectivePlane(
        q=q,
        field=F,
        points=points,
        lines=lines,
        line_index={L: j for j, L in enumerate(lines)},
    )
    defect = plane_defect(lines, range(len(points)), q)
    assert defect is None, defect
    return plane


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
