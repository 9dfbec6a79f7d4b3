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


def _normalized_triples(F):
    q = F.q
    out = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                v = (a, b, c)
                if v == (0, 0, 0):
                    continue
                lead = next(x for x in v if x != 0)
                if lead != 1:
                    continue
                out.append(v)
    out.sort()
    return out


def build_plane(q):
    """PG(2, q) for prime q or q in {4, 8, 9}; UnsupportedOrder otherwise."""
    F = GF(q)
    points = _normalized_triples(F)
    duals = _normalized_triples(F)
    point_index = {p: i for i, p in enumerate(points)}

    def dot(u, v):
        s = 0
        for x, y in zip(u, v):
            s = F.add(s, F.mul(x, y))
        return s

    lines = [
        frozenset(i for i, p in enumerate(points) if dot(ell, p) == 0) for ell in duals
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
    for i in range(n):
        for j in range(i + 1, n):
            common = [L for L in plane.lines if i in L and j in L]
            assert len(common) == 1, f"points {i},{j} lie on {len(common)} lines"
