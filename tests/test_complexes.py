import pytest

from a2zeta.complexes import (
    DirectedChamber,
    TypedComplex,
    directed_chambers,
    euler_characteristic,
    require_valid,
    validate,
)
from a2zeta.errors import IndexOutOfRange, ValidationFailure


def test_bundled_complex_counts_and_validation(bundled_cx):
    report = validate(bundled_cx)
    assert report.passed, report.first_failure
    assert bundled_cx.n_edges == 21
    assert bundled_cx.n_chambers == 21
    assert bundled_cx.n_vertices == 3


def test_validation_report_names(bundled_cx):
    names = {c.name for c in validate(bundled_cx)}
    assert {
        "type_increment",
        "vertex_degrees",
        "edge_in_q_plus_1_chambers",
        "link_condition",
        "euler_characteristic",
        "connected",
    } <= names


def test_deleted_chamber_fails_chamber_count(bundled_cx):
    broken = TypedComplex(
        bundled_cx.q,
        bundled_cx.vertex_types,
        bundled_cx.edges,
        bundled_cx.chambers[:-1],
    )
    report = validate(broken)
    assert not report.passed
    failing = {c.name for c in report if not c.passed}
    assert "edge_in_q_plus_1_chambers" in failing


def test_unchained_chambers_fail_link_condition(bundled_cx):
    # edge 2 now ends at vertex 2 and edge 20 starts at vertex 1, so the
    # chambers through them no longer close up: a failed check, not a crash
    edges = list(bundled_cx.edges)
    edges[2], edges[20] = (0, 2), (1, 0)
    cx = TypedComplex(bundled_cx.q, bundled_cx.vertex_types, edges, bundled_cx.chambers)
    failing = {c.name for c in validate(cx) if not c.passed}
    assert {"chamber_chaining", "link_condition"} <= failing


def test_self_loop_violates_type_increment():
    # single vertex with q^2+q+1 self-loops in and out
    cx = TypedComplex(2, [0], [(0, 0)] * 7, [])
    report = validate(cx)
    assert not report.passed
    assert report.first_failure.name == "type_increment"


def test_index_out_of_range_on_dangling_edge(bundled_cx):
    with pytest.raises(IndexOutOfRange):
        TypedComplex(
            bundled_cx.q,
            bundled_cx.vertex_types,
            bundled_cx.edges,
            [(0, 1, 999)],
        )


def test_euler_characteristic_values(bundled_cx, q3_cx):
    assert euler_characteristic(bundled_cx) == 3
    assert euler_characteristic(q3_cx) == 16
    # direct count agrees with the closed form
    assert bundled_cx.n_vertices - bundled_cx.n_edges + bundled_cx.n_chambers == 3


def test_euler_characteristic_two_formulas_on_corpus(corpus):
    for cx in corpus:
        chi = euler_characteristic(cx)
        q, V = cx.q, cx.n_vertices
        assert 3 * chi == (q + 1) * (q - 1) ** 2 * V


def test_directed_chambers_enumeration(bundled_cx):
    dcs = directed_chambers(bundled_cx)
    assert len(dcs) == 63
    assert dcs[0] == DirectedChamber(0, 0)
    assert dcs[1] == DirectedChamber(0, 1)
    assert dcs[-1] == DirectedChamber(20, 2)


def test_directed_chambers_empty():
    cx = TypedComplex(2, [0], [], [])
    assert directed_chambers(cx) == []


def test_chambers_rotation_normalized(bundled_cx):
    for tri in bundled_cx.chambers:
        rots = [tri, tri[1:] + tri[:1], tri[2:] + tri[:2]]
        assert tri == min(rots)


def test_require_valid_raises_with_first_failure(bundled_cx):
    broken = TypedComplex(
        bundled_cx.q,
        bundled_cx.vertex_types,
        bundled_cx.edges,
        bundled_cx.chambers[:-1],
    )
    with pytest.raises(ValidationFailure):
        require_valid(broken)


def test_counts_invariant_on_corpus(corpus):
    for cx in corpus:
        q, V = cx.q, cx.n_vertices
        m = q * q + q + 1
        assert cx.n_edges == V * m
        assert 3 * cx.n_chambers == V * (q + 1) * m
        assert (V * (q + 1) * m) % 3 == 0
