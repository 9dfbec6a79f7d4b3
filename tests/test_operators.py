import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2zeta.enumeration import count_galleries
from a2zeta.operators import (
    SparseOperator,
    chamber_operator,
    edge_operator,
    vertex_hecke,
)

from oracles import trace_power_by_multiplication


def test_row_sums_on_corpus(corpus):
    for cx in corpus:
        q = cx.q
        a1, a2 = vertex_hecke(cx)
        le = edge_operator(cx)
        lb = chamber_operator(cx)
        assert set(a1.row_sums()) == {q * q + q + 1}
        assert set(a2.row_sums()) == {q * q + q + 1}
        assert set(le.row_sums()) == {q * q}
        assert set(lb.row_sums()) == {q}


def test_a2_is_transpose(corpus):
    for cx in corpus:
        a1, a2 = vertex_hecke(cx)
        assert a2.entries == a1.transpose().entries


def test_chamber_exclusion(bundled_cx):
    le = edge_operator(bundled_cx)
    for a, b, c in bundled_cx.chambers:
        assert (a, b) not in le.entries
        assert (b, c) not in le.entries
        assert (c, a) not in le.entries


def test_trace_le_1_is_zero(bundled_cx):
    le = edge_operator(bundled_cx)
    assert le.trace_power(1) == 0


def test_trace_lb_vanishes_off_multiples_of_three(corpus):
    for cx in corpus[:2]:
        lb = chamber_operator(cx)
        for m in (1, 2, 4, 5, 7, 8):
            assert lb.trace_power(m) == 0


def test_trace_lb3_equals_gallery_count(bundled_cx):
    lb = chamber_operator(bundled_cx)
    assert lb.trace_power(3) == count_galleries(bundled_cx, 3)


def test_type2_adjacency_is_le_transpose(bundled_cx):
    """The reversed-edge operator, built symmetrically, equals LE^T."""
    cx = bundled_cx
    share = [set() for _ in range(cx.n_edges)]
    for tri in cx.chambers:
        for e in tri:
            share[e].update(tri)
    entries = {}
    for e in range(cx.n_edges):
        for f in range(cx.n_edges):
            # reversed edge e* runs dst(e) -> src(e); e* chains to f* when
            # src(e) = dst(f), excluded when some chamber holds both edges
            if cx.edge_src(e) == cx.edge_dst(f) and f not in share[e]:
                entries[(e, f)] = 1
    t2 = SparseOperator("edges1", cx.n_edges, entries)
    assert t2.entries == edge_operator(cx).transpose().entries


def test_export_format(bundled_cx):
    a1, _ = vertex_hecke(bundled_cx)
    text = a1.export()
    lines = text.splitlines()
    assert lines[0] == "sparse 3 3 3"
    assert lines[1].split() == ["0", "1", "7"]


@pytest.mark.parametrize("n", [62, 63])
@pytest.mark.parametrize(
    "dim, entries",
    [(1, {(0, 0): 2}), (2, {(r, c): 1 for r in range(2) for c in range(2)})],
    ids=["two", "all_ones_2x2"],
)
def test_trace_power_at_the_int64_boundary(dim, entries, n):
    """Row sums 2: the powers fit int64 up to n = 62 and no further."""
    assert SparseOperator("test", dim, entries).trace_power(n) == 2**n


@pytest.mark.parametrize("rho, n", [(2, 52), (2, 53), (3, 33), (3, 34)])
@pytest.mark.parametrize("shape", ["scalar", "all_ones"])
def test_trace_power_at_the_float64_boundary(rho, n, shape):
    """Row sums rho: float64 below rho^n = 2^53, Python ints from there on.
    3^33 < 2^53 < 3^34, and 3^34 is odd, so float64 could not hold it."""
    if shape == "scalar":
        dim, entries = 1, {(0, 0): rho}
    else:
        dim, entries = rho, {(r, c): 1 for r in range(rho) for c in range(rho)}
    assert SparseOperator("test", dim, entries).trace_power(n) == rho**n


@pytest.mark.parametrize(
    "entries",
    [{(0, 0): 1, (0, 1): 3, (1, 1): 2}, {(r, c): 1 for r in range(2) for c in range(2)}],
    ids=["invertible", "singular"],
)
def test_trace_power_rejects_negative_powers(entries):
    """Tr A^-1 of [[1, 3], [0, 2]] is 3/2, not an integer; [[1, 1], [1, 1]] has
    no inverse, and numpy's LinAlgError would say so.  Both are refused
    before any inversion."""
    op = SparseOperator("test", 2, entries)
    with pytest.raises(ValueError, match="n >= 0"):
        op.trace_power(-1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda dim: st.dictionaries(
            st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
            st.integers(0, 3),
            max_size=dim * dim,
        ).map(lambda entries: SparseOperator("test", dim, entries))
    ),
    st.integers(0, 10),
)
@example(SparseOperator("test", 12, {(r, c): 3 for r in range(12) for c in range(12)}), 10)
def test_trace_power_matches_python_int_products(op, n):
    """Random nonnegative operators; the example reaches 36^10, the largest
    power the strategy allows."""
    assert op.trace_power(n) == trace_power_by_multiplication(op, n)
