"""Typed 2-complexes: the finite quotient data model and its validator.

A TypedComplex records a finite (q+1)-regular two-dimensional typed
multicomplex: vertices graded by Z/3, directed type-1 edges that raise the
type by one, and chambers given as triangles of three chained type-1 edges.
Parallel edges and repeated vertex triples are allowed; edges and chambers
are first-class objects with consecutive integer ids.

The validator checks the local building axioms.  The decisive one is the
link condition: at every vertex the bipartite graph pairing out-edges with
in-edges through chambers must be the incidence graph of a projective plane
of order q.  It is checked by planes.plane_defect, which counts point
pairs line by line, with the in-edges as lines on the out-edges.  That one
side suffices: the dual of a projective plane of order q is one, so the
out-edges as lines on the in-edges pass whenever it does.  A point twice on
one line is a defect, so a passing link graph is simple, which is what
makes the row sums of the derived operators exact.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import IndexOutOfRange, ValidationFailure
from .planes import plane_defect


class DirectedChamber(NamedTuple):
    """A chamber with one of its three type-1 edges distinguished."""

    chamber: int
    slot: int


def _least_rotation(triple):
    rots = [triple, triple[1:] + triple[:1], triple[2:] + triple[:2]]
    return min(rots)


class TypedComplex:
    """Immutable quotient complex.

    Parameters
    ----------
    q : residue field size, q >= 2
    vertex_types : sequence of Z/3 types, one per vertex
    edges : sequence of (src, dst) vertex pairs, one per type-1 edge
    chambers : sequence of (a, b, c) edge-id triples with
        dst(a) = src(b), dst(b) = src(c), dst(c) = src(a)

    Chambers are stored rotation-normalized (lexicographically least
    rotation of the edge triple); input triples may be any rotation.
    Only index ranges are enforced here; run validate() for the axioms.
    """

    def __init__(self, q, vertex_types, edges, chambers):
        if q < 2:
            raise IndexOutOfRange(f"q must be >= 2, got {q}")
        self.q = q
        self.vertex_types = tuple(int(t) for t in vertex_types)
        self.n_vertices = len(self.vertex_types)
        if self.n_vertices < 1:
            raise IndexOutOfRange("need at least one vertex")
        if any(t not in (0, 1, 2) for t in self.vertex_types):
            raise IndexOutOfRange("vertex types must be in {0,1,2}")
        self.edges = tuple((int(s), int(d)) for s, d in edges)
        for eid, (s, d) in enumerate(self.edges):
            if not (0 <= s < self.n_vertices and 0 <= d < self.n_vertices):
                raise IndexOutOfRange(f"edge {eid} endpoint out of range")
        self.chambers = []
        for cid, tri in enumerate(chambers):
            a, b, c = (int(x) for x in tri)
            for e in (a, b, c):
                if not 0 <= e < len(self.edges):
                    raise IndexOutOfRange(f"chamber {cid} references edge {e}")
            self.chambers.append(_least_rotation((a, b, c)))
        self.chambers = tuple(self.chambers)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_chambers(self):
        return len(self.chambers)

    @cached_property
    def edge_array(self):
        """The (src, dst) pairs as an E x 2 int64 array."""
        return np.array(self.edges, dtype=np.int64).reshape(-1, 2)

    @cached_property
    def chamber_array(self):
        """The rotation-normal edge triples as a C x 3 int64 array."""
        return np.array(self.chambers, dtype=np.int64).reshape(-1, 3)

    def edge_src(self, e):
        return self.edges[e][0]

    def edge_dst(self, e):
        return self.edges[e][1]

    def chambers_through_edge(self):
        """For each edge, the list of (chamber, slot) where it appears."""
        where = [[] for _ in range(self.n_edges)]
        for cid, tri in enumerate(self.chambers):
            for slot, e in enumerate(tri):
                where[e].append((cid, slot))
        return where

    def __eq__(self, other):
        return (
            isinstance(other, TypedComplex)
            and self.q == other.q
            and self.vertex_types == other.vertex_types
            and self.edges == other.edges
            and self.chambers == other.chambers
        )

    def __repr__(self):
        return (
            f"TypedComplex(q={self.q}, V={self.n_vertices}, "
            f"E={self.n_edges}, C={self.n_chambers})"
        )


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


class ValidationReport:
    def __init__(self, checks):
        self.checks = checks

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def __iter__(self):
        return iter(self.checks)


def directed_chambers(cx):
    """All (chamber, slot) pairs, chamber-id major, slot minor."""
    return [DirectedChamber(c, s) for c in range(cx.n_chambers) for s in range(3)]


def euler_characteristic(cx):
    """V - #undirected edges + #chambers.

    Each 1-cell of the complex is one type-1 edge together with its type-2
    reverse, so the undirected edge count equals the type-1 edge count.
    """
    return cx.n_vertices - cx.n_edges + cx.n_chambers


def validate(cx):
    """Run all structural checks; every invariant gets a named entry."""
    q, V = cx.q, cx.n_vertices
    m = q * q + q + 1
    checks = []

    bad = next(
        (
            e
            for e, (s, d) in enumerate(cx.edges)
            if cx.vertex_types[d] != (cx.vertex_types[s] + 1) % 3
        ),
        None,
    )
    checks.append(
        Check("type_increment", bad is None, "" if bad is None else f"edge {bad}")
    )

    out_edges = [[] for _ in range(V)]
    in_edges = [[] for _ in range(V)]
    for e, (s, d) in enumerate(cx.edges):
        out_edges[s].append(e)
        in_edges[d].append(e)
    out_deg = [len(es) for es in out_edges]
    in_deg = [len(es) for es in in_edges]
    bad = next((v for v in range(V) if out_deg[v] != m or in_deg[v] != m), None)
    checks.append(
        Check(
            "vertex_degrees",
            bad is None,
            "" if bad is None else f"vertex {bad}: out {out_deg[bad]}, in {in_deg[bad]}",
        )
    )

    bad = next(
        (
            c
            for c, (a, b, c2) in enumerate(cx.chambers)
            if cx.edge_dst(a) != cx.edge_src(b)
            or cx.edge_dst(b) != cx.edge_src(c2)
            or cx.edge_dst(c2) != cx.edge_src(a)
        ),
        None,
    )
    checks.append(
        Check("chamber_chaining", bad is None, "" if bad is None else f"chamber {bad}")
    )

    chamber_count = Counter()
    for tri in cx.chambers:
        for e in tri:
            chamber_count[e] += 1
    bad = next((e for e in range(cx.n_edges) if chamber_count[e] != q + 1), None)
    checks.append(
        Check(
            "edge_in_q_plus_1_chambers",
            bad is None,
            "" if bad is None else f"edge {bad} lies in {chamber_count[bad]} chambers",
        )
    )

    checks.append(
        Check(
            "edge_count",
            cx.n_edges == V * m,
            f"{cx.n_edges} edges, expected {V * m}",
        )
    )
    expected_chambers = (q + 1) * m * V
    checks.append(
        Check(
            "chamber_count_divisibility",
            expected_chambers % 3 == 0,
            f"(q+1)(q^2+q+1)V = {expected_chambers} not divisible by 3",
        )
    )
    checks.append(
        Check(
            "chamber_count",
            3 * cx.n_chambers == expected_chambers,
            f"{cx.n_chambers} chambers, expected {expected_chambers // 3}",
        )
    )

    checks.append(_check_links(cx, out_edges, in_edges))

    chi = euler_characteristic(cx)
    chi_formula = (q + 1) * (q - 1) * (q - 1) * V
    checks.append(
        Check(
            "euler_characteristic",
            3 * chi == chi_formula,
            f"V-E+C = {chi}, formula gives {chi_formula}/3",
        )
    )

    checks.append(_check_connected(cx))

    bad = next(
        (c for c, tri in enumerate(cx.chambers) if tri != _least_rotation(tri)), None
    )
    checks.append(
        Check(
            "chambers_rotation_normalized",
            bad is None,
            "" if bad is None else f"chamber {bad}",
        )
    )

    return ValidationReport(checks)


def _check_links(cx, out_edges, in_edges):
    # each chamber through v pairs its out-edge a at v with its in-edge b at
    # v; the in-edges are then lines on the out-edges, which must form a
    # projective plane of order q.  The out-edges as lines on the in-edges
    # form its dual, which passes plane_defect whenever it does, so that
    # side is not checked.
    outs_of = [[] for _ in range(cx.n_edges)]
    for tri in cx.chambers:
        for slot, a in enumerate(tri):
            b = tri[slot - 1]
            if cx.edge_dst(b) != cx.edge_src(a):
                v = cx.edge_src(a)
                return Check("link_condition", False, f"vertex {v}: chamber not chained")
            outs_of[b].append(a)
    for v in range(cx.n_vertices):
        defect = plane_defect([outs_of[b] for b in in_edges[v]], out_edges[v], cx.q)
        if defect is not None:
            return Check("link_condition", False, f"vertex {v}, out-edges: {defect}")
    return Check("link_condition", True)


def reachable_count(n, edges):
    """How many of the vertices 0..n-1 (n >= 1) the undirected edge list reaches from 0."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def _check_connected(cx):
    seen = reachable_count(cx.n_vertices, cx.edges)
    ok = seen == cx.n_vertices
    return Check(
        "connected", ok, "" if ok else f"only {seen} of {cx.n_vertices} reachable"
    )


def require_valid(cx):
    """Raise ValidationFailure on the first failing check."""
    report = validate(cx)
    if not report.passed:
        f = report.first_failure
        raise ValidationFailure(f.name, f.detail)
    return report
