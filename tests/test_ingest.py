import hashlib

import numpy as np
import pytest

from a2zeta import planes
from a2zeta.complexes import validate
from a2zeta.errors import IndexOutOfRange, ParseError, PresentationInvalid, UnsupportedOrder
from a2zeta.fileio import (
    parse_complex,
    parse_presentation,
    serialize_complex,
    serialize_presentation,
)
from a2zeta.gf import GF
from a2zeta.operators import vertex_hecke
from a2zeta.planes import build_plane, plane_defect
from a2zeta.presentations import (
    TrianglePresentation,
    complex_from_presentation,
    search_triangle_presentations,
)
from oracles import plane_by_dot_product


def test_plane_counts_q2():
    plane = build_plane(2)
    assert len(plane.points) == 7 and len(plane.lines) == 7
    assert all(len(L) == 3 for L in plane.lines)


def test_plane_counts_q3():
    plane = build_plane(3)
    assert len(plane.points) == 13
    assert all(len(L) == 4 for L in plane.lines)


def test_plane_defect_on_altered_lines():
    plane = build_plane(3)
    lines = [sorted(L) for L in plane.lines]
    assert plane_defect(lines, range(13), 3) is None
    off = next(p for p in range(13) if p not in lines[0])
    j = next(j for j, L in enumerate(lines) if 12 in L)
    altered = {
        "moved point": [[off] + lines[0][1:]] + lines[1:],
        "repeated point": [lines[0] + lines[0][:1]] + lines[1:],
        "foreign point": [[99 if p == 12 else p for p in L] if k == j else L
                          for k, L in enumerate(lines)],
    }
    for name, bad in altered.items():
        assert plane_defect(bad, range(13), 3) is not None, name


@pytest.mark.parametrize("defect", ["repeated point", "swapped points"])
def test_build_plane_rejects_a_wrong_orbit(defect, monkeypatch):
    """build_plane's own check fails on an orbit that repeats a point, and
    on one with two neighbours swapped, one on z = 0 and one off it, which
    numbers every point once but moves one element of the difference set."""
    orbit = planes.singer_orbit(GF(3))
    points = build_plane(3).points
    if defect == "repeated point":
        orbit[1], match = orbit[0], "repeats a point"
    else:
        i = next(i for i in range(12) if points[orbit[i]][2] == 0 != points[orbit[i + 1]][2])
        orbit[i], orbit[i + 1] = orbit[i + 1], orbit[i]
        match = "difference set"
    monkeypatch.setattr(planes, "singer_orbit", lambda F: orbit)
    with pytest.raises(AssertionError, match=match):
        build_plane(3)


def test_unsupported_order():
    with pytest.raises(UnsupportedOrder):
        build_plane(6)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 25])
def test_supported_order_planes(q):
    plane = build_plane(q)  # checked as a difference set inside
    assert (plane.points, plane.lines) == plane_by_dot_product(q)
    n = plane.n
    assert plane_defect(plane.lines, range(n), q) is None
    assert sorted(plane.orbit) == list(range(n))
    base = plane.base
    assert base == [i for i in range(n) if plane.orbit[i] in plane.lines[0]]
    # a planar difference set: every nonzero residue is one difference
    assert sorted((a - b) % n for a in base for b in base if a != b) == list(range(1, n))
    assert sorted(plane.translates) == list(range(n)) and plane.translates[0] == 0
    for j, k in enumerate(plane.translates):
        assert plane.lines[k] == {plane.orbit[(i + j) % n] for i in base}


# sha256 of the first seed-0 presentation, as `tp search --limit 1` writes it
PRESENTATION_SHA256 = {
    9: "2610ce2282cc70aae20e73c4c97c5a7a65bdf8a39ae159aefebcff346e73cc2e",
    16: "ed013f5cb320afa96e284479bc5e792b78a53779c2ac59aec4172047475d382c",
    25: "99d4493a5780e654914db9c95c0ca83142a1187cf0f26431cb991ea4da3c542a",
}


@pytest.mark.parametrize("q", sorted(PRESENTATION_SHA256))
def test_search_built_presentation_pinned(q):
    tp = search_triangle_presentations(build_plane(q), 1, 0)[0]
    text = serialize_presentation(tp)
    assert hashlib.sha256(text.encode()).hexdigest() == PRESENTATION_SHA256[q]


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
def test_field_tables(q):
    F = GF(q)
    for a in F.elements():
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # spot-check associativity and distributivity
    for a in (1, 2, 3):
        for b in (1, 3, q - 1):
            for c in (2, q - 2):
                assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_search_finds_presentation_q2():
    plane = build_plane(2)
    found = search_triangle_presentations(plane, limit=1, seed=0)
    assert len(found) == 1
    assert len(found[0].triples) == 21


def test_search_limit_zero():
    plane = build_plane(2)
    assert search_triangle_presentations(plane, limit=0, seed=0) == []


def test_search_deterministic():
    plane = build_plane(2)
    a = search_triangle_presentations(plane, limit=2, seed=0)
    b = search_triangle_presentations(plane, limit=2, seed=0)
    assert [(p.lam, p.triples) for p in a] == [(p.lam, p.triples) for p in b]
    c = search_triangle_presentations(plane, limit=2, seed=5)
    d = search_triangle_presentations(plane, limit=2, seed=5)
    assert [(p.lam, p.triples) for p in c] == [(p.lam, p.triples) for p in d]


def test_presentation_invariants_reverified():
    plane = build_plane(2)
    tp = search_triangle_presentations(plane, limit=1, seed=0)[0]
    for x, y, z in tp.triples:
        assert (y, z, x) in tp.triples
    # breaking a triple must be rejected by the constructor
    triples = set(tp.triples)
    bad = triples.pop()
    with pytest.raises(PresentationInvalid):
        TrianglePresentation(plane, tp.lam, frozenset(triples))


def test_complex_from_presentation_structure(bundled_cx):
    assert bundled_cx.n_vertices == 3
    assert bundled_cx.n_edges == 21
    assert bundled_cx.n_chambers == 21
    a1, _ = vertex_hecke(bundled_cx)
    dense = a1.to_dense()
    # every type-1 edge goes i -> i+1 with the full multiplicity 7
    assert np.array_equal(dense, [[0, 7, 0], [0, 0, 7], [7, 0, 0]])


def test_search_results_all_validate():
    """complex_from_presentation does not validate its output; the validator
    passes it at every prime power q <= 9, two presentations per seed."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        plane = build_plane(q)
        for seed in (0, 1):
            found = search_triangle_presentations(plane, limit=2, seed=seed)
            assert len(found) == 2
            for tp in found:
                assert validate(complex_from_presentation(tp)).passed


def test_complex_round_trip(bundled_cx):
    text = serialize_complex(bundled_cx)
    assert parse_complex(text) == bundled_cx


def test_presentation_round_trip():
    plane = build_plane(2)
    tp = search_triangle_presentations(plane, limit=1, seed=0)[0]
    text = serialize_presentation(tp)
    tp2 = parse_presentation(text)
    assert tp2.lam == tp.lam and tp2.triples == tp.triples


def test_parse_error_bad_q():
    with pytest.raises(ParseError) as err:
        parse_complex("a2complex v1\nq 0\nvertices 1\n")
    assert err.value.line == 2


def test_parse_error_dangling_edge_id(bundled_cx):
    text = serialize_complex(bundled_cx)
    first_chamber = next(
        ln for ln in text.splitlines() if ln.startswith("chamber ")
    )
    broken = text.replace(first_chamber, "chamber 0 7 999", 1)
    with pytest.raises(IndexOutOfRange):
        parse_complex(broken)


def test_bundled_files_regenerate(bundled_cx):
    """Golden data is reproduced byte-for-byte by the search."""
    from conftest import bundled_text

    plane = build_plane(2)
    tp = search_triangle_presentations(plane, limit=1, seed=0)[0]
    assert serialize_presentation(tp) == bundled_text("bundled_q2.tp")
    assert serialize_complex(complex_from_presentation(tp)) == bundled_text(
        "bundled_q2.cx3"
    )
