import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2zeta.complexes import (
    DirectedChamber,
    TypedComplex,
    directed_chambers,
    euler_characteristic,
    require_valid,
    validate,
)
from a2zeta.errors import IndexOutOfRange, ValidationFailure
from oracles import link_condition_pairwise


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


def link_check(cx):
    return next(c for c in validate(cx) if c.name == "link_condition")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_link_condition_matches_pairwise_oracle(data, bundled_cx, q3_cx):
    """Random slot swaps, replaced edge ids and duplicated chambers: the
    counting link check and the pairwise oracle give the same verdict."""
    cx = data.draw(st.sampled_from([bundled_cx, q3_cx]))
    chambers = [list(tri) for tri in cx.chambers]
    index = st.integers(0, len(chambers) - 1)
    slot = st.integers(0, 2)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["swap", "replace", "duplicate"]))
        i, s, j, t = data.draw(st.tuples(index, slot, index, slot))
        if kind == "swap":
            chambers[i][s], chambers[j][t] = chambers[j][t], chambers[i][s]
        elif kind == "replace":
            chambers[i][s] = data.draw(st.integers(0, cx.n_edges - 1))
        else:
            chambers[j] = list(chambers[i])
    broken = TypedComplex(cx.q, cx.vertex_types, cx.edges, chambers)
    assert link_check(broken).passed == link_condition_pairwise(broken).passed


def test_parallel_edge_swap_fails_only_the_pair_condition(bundled_cx):
    # edges 0..6 all run from vertex 0 to vertex 1, so swapping two of them
    # between chambers keeps the chaining, every degree and every pairing
    # distinct; only two out-edges now share two in-edges in the link of 0
    chambers = [list(tri) for tri in bundled_cx.chambers]
    chambers[0][0], chambers[3][0] = chambers[3][0], chambers[0][0]
    cx = TypedComplex(bundled_cx.q, bundled_cx.vertex_types, bundled_cx.edges, chambers)
    assert [c.name for c in validate(cx) if not c.passed] == ["link_condition"]
    assert "share 2 neighbors" in link_condition_pairwise(cx).detail
    assert "lie on two lines" in link_check(cx).detail


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
