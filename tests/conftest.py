import pytest

from a2zeta.complexes import TypedComplex
from a2zeta.fileio import parse_complex
from a2zeta.planes import build_plane
from a2zeta.presentations import complex_from_presentation, search_triangle_presentations
from importlib import resources


def bundled_text(name):
    return (resources.files("a2zeta") / "data" / name).read_text()


@pytest.fixture(scope="session")
def bundled_cx():
    return parse_complex(bundled_text("bundled_q2.cx3"))


@pytest.fixture(scope="session")
def q3_cx():
    plane = build_plane(3)
    tp = search_triangle_presentations(plane, limit=1, seed=0)[0]
    return complex_from_presentation(tp)


@pytest.fixture(scope="session")
def q4_cx():
    tp = search_triangle_presentations(build_plane(4), limit=1, seed=0)[0]
    return complex_from_presentation(tp)


def relabeled(cx, rnd):
    """cx with its vertex, edge and chamber ids permuted at random."""
    pv = rnd.sample(range(cx.n_vertices), cx.n_vertices)
    pe = rnd.sample(range(cx.n_edges), cx.n_edges)
    types = [None] * cx.n_vertices
    for v, t in enumerate(cx.vertex_types):
        types[pv[v]] = t
    edges = [None] * cx.n_edges
    for e, (s, d) in enumerate(cx.edges):
        edges[pe[e]] = (pv[s], pv[d])
    chambers = [tuple(pe[e] for e in tri) for tri in cx.chambers]
    rnd.shuffle(chambers)
    return TypedComplex(cx.q, types, edges, chambers)


@pytest.fixture(scope="session")
def corpus(bundled_cx, q3_cx):
    """All validator-passing complexes the suite exercises."""
    plane = build_plane(2)
    extra = [
        complex_from_presentation(tp)
        for tp in search_triangle_presentations(plane, limit=2, seed=0)[1:]
    ]
    return [bundled_cx, q3_cx] + extra
