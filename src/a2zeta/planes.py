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
    point_index: dict = field(default_factory=dict)
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
    point_index = {p: i for i, p in enumerate(points)}

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
        point_index=point_index,
        line_index={L: j for j, L in enumerate(lines)},
    )
    _check_plane(plane)
    return plane


def _check_plane(plane):
    n, q = plane.n, plane.q
    assert len(plane.points) == n and len(plane.lines) == n
    assert all(len(L) == q + 1 for L in plane.lines)
    on = [0] * n
    for L in plane.lines:
        for p in L:
            on[p] += 1
    assert all(c == q + 1 for c in on)
    # the n lines cover n * q(q+1)/2 = n(n-1)/2 point pairs, so if none is
    # covered twice, every pair lies on exactly one line
    covered = bytearray(n * n)
    for L in plane.lines:
        pts = sorted(L)
        for k, i in enumerate(pts):
            for j in pts[k + 1 :]:
                assert not covered[i * n + j], f"points {i},{j} lie on two lines"
                covered[i * n + j] = 1
