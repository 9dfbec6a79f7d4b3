"""Line-oriented file formats: complexes, presentations, graphs, matrices.

All formats are UTF-8 text with one record per line and ids consecutive
from 0, so serialize-then-parse is the identity and files are diffable.
"""

from .complexes import TypedComplex
from .errors import ParseError
from .gf import parse_poly
from .graphs import Graph
from .planes import build_plane
from .presentations import TrianglePresentation


class _Lines:
    def __init__(self, text):
        self.rows = [
            (i + 1, line.strip())
            for i, line in enumerate(text.splitlines())
            if line.strip() and not line.lstrip().startswith("#")
        ]
        self.pos = 0

    def next(self, expect=None, nfields=None):
        """The next record; with expect, its keyword and its nfields values are checked."""
        if self.pos >= len(self.rows):
            raise ParseError(self.rows[-1][0] + 1 if self.rows else 1, "unexpected end of file")
        lineno, row = self.rows[self.pos]
        self.pos += 1
        toks = row.split()
        if expect is not None and toks[0] != expect:
            raise ParseError(lineno, f"expected {expect!r}, got {toks[0]!r}")
        if nfields is not None and len(toks) != nfields + 1:
            raise ParseError(lineno, f"{expect!r} line needs {nfields} values, got {len(toks) - 1}")
        return lineno, toks

    def done(self):
        return self.pos >= len(self.rows)

    def count(self, expect, what):
        """The count on the next expect line, at most the number of records after it."""
        lineno, toks = self.next(expect, 1)
        return _int(lineno, toks[1], what, 0, len(self.rows) - self.pos)


def _int(lineno, tok, what, least=None, most=None):
    """The integer tok; ParseError if it is not one, or is below least or above most."""
    try:
        n = int(tok)
    except ValueError:
        raise ParseError(lineno, f"bad {what}: {tok!r}") from None
    if least is not None and n < least:
        raise ParseError(lineno, f"{what} must be >= {least}, got {n}")
    if most is not None and n > most:
        raise ParseError(lineno, f"{what} {n} exceeds the {most} records that follow")
    return n


def parse_complex(text):
    lines = _Lines(text)
    lineno, toks = lines.next()
    if toks != ["a2complex", "v1"]:
        raise ParseError(lineno, "expected header 'a2complex v1'")
    lineno, toks = lines.next("q", 1)
    q = _int(lineno, toks[1], "q", 2)
    nv = lines.count("vertices", "vertex count")
    types = [None] * nv
    for _ in range(nv):
        lineno, toks = lines.next("type", 2)
        vid = _int(lineno, toks[1], "vertex id")
        if not 0 <= vid < nv or types[vid] is not None:
            raise ParseError(lineno, f"bad or repeated vertex id {vid}")
        types[vid] = _int(lineno, toks[2], "type")
    ne = lines.count("edges", "edge count")
    edges = [None] * ne
    for _ in range(ne):
        lineno, toks = lines.next("edge", 3)
        eid = _int(lineno, toks[1], "edge id")
        if not 0 <= eid < ne or edges[eid] is not None:
            raise ParseError(lineno, f"bad or repeated edge id {eid}")
        edges[eid] = (
            _int(lineno, toks[2], "src"),
            _int(lineno, toks[3], "dst"),
        )
    nc = lines.count("chambers", "chamber count")
    chambers = []
    for _ in range(nc):
        lineno, toks = lines.next("chamber", 3)
        chambers.append(tuple(_int(lineno, t, "edge id") for t in toks[1:]))
    if not lines.done():
        raise ParseError(lines.rows[lines.pos][0], "trailing content")
    return TypedComplex(q, types, edges, chambers)


def serialize_complex(cx):
    out = ["a2complex v1", f"q {cx.q}", f"vertices {cx.n_vertices}"]
    for v, t in enumerate(cx.vertex_types):
        out.append(f"type {v} {t}")
    out.append(f"edges {cx.n_edges}")
    for e, (s, d) in enumerate(cx.edges):
        out.append(f"edge {e} {s} {d}")
    out.append(f"chambers {cx.n_chambers}")
    for a, b, c in cx.chambers:
        out.append(f"chamber {a} {b} {c}")
    return "\n".join(out) + "\n"


def parse_presentation(text):
    lines = _Lines(text)
    lineno, toks = lines.next()
    if toks != ["trianglepres", "v1"]:
        raise ParseError(lineno, "expected header 'trianglepres v1'")
    lineno, toks = lines.next("q", 1)
    q = _int(lineno, toks[1], "q")
    plane = build_plane(q)
    n = plane.n
    lam = [None] * n
    for _ in range(n):
        lineno, toks = lines.next("lambda", 2)
        p = _int(lineno, toks[1], "point id")
        if not 0 <= p < n or lam[p] is not None:
            raise ParseError(lineno, f"bad or repeated point id {p}")
        lam[p] = _int(lineno, toks[2], "line id")
    triples = set()
    while not lines.done():
        lineno, toks = lines.next("triple", 3)
        triple = tuple(_int(lineno, t, "point id") for t in toks[1:])
        if not all(0 <= p < n for p in triple):
            raise ParseError(lineno, f"point id out of range in triple {triple}")
        triples.add(triple)
    return TrianglePresentation(plane, tuple(lam), frozenset(triples))


def serialize_presentation(tp):
    out = ["trianglepres v1", f"q {tp.plane.q}"]
    for p, ell in enumerate(tp.lam):
        out.append(f"lambda {p} {ell}")
    for x, y, z in sorted(tp.triples):
        out.append(f"triple {x} {y} {z}")
    return "\n".join(out) + "\n"


def parse_graph(text):
    lines = _Lines(text)
    lineno, toks = lines.next()
    if toks != ["graph", "v1"]:
        raise ParseError(lineno, "expected header 'graph v1'")
    lineno, toks = lines.next("vertices", 1)
    n = _int(lineno, toks[1], "vertex count", 0)
    edges = []
    while not lines.done():
        lineno, toks = lines.next("edge", 2)
        u = _int(lineno, toks[1], "endpoint")
        v = _int(lineno, toks[2], "endpoint")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(lineno, f"endpoint out of range: {u} {v}")
        edges.append((u, v))
    return Graph(n, tuple(edges))


def serialize_graph(g):
    out = ["graph v1", f"vertices {g.n}"]
    for u, v in g.edges:
        out.append(f"edge {u} {v}")
    return "\n".join(out) + "\n"


def parse_matrix(text, F):
    """A 3x3 matrix of polynomials in t over the field F, one row per line."""
    lines = _Lines(text)
    rows = []
    for _ in range(3):
        lineno, toks = lines.next()
        if len(toks) != 3:
            raise ParseError(lineno, f"a matrix row needs 3 entries, got {len(toks)}")
        rows.append(tuple(parse_poly(F, tok, lineno) for tok in toks))
    if not lines.done():
        raise ParseError(lines.rows[lines.pos][0], "trailing content")
    return tuple(rows)
