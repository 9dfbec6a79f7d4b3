import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2zeta.errors import DegreeTooLow, NotRegular
from a2zeta.graphs import (
    Graph,
    complete_graph,
    count_closed_walks,
    cycle_graph,
    edge_adjacency,
    ihara_zeta,
    petersen_graph,
    ramanujan_graph_check,
    random_irregular_graph,
    random_regular_graph,
)
from a2zeta.polyint import IntPoly
from oracles import approx_roots, eigvalsh_graph_check, squarefree_decomposition


def test_cycle_edge_adjacency_is_two_cycles():
    ae = edge_adjacency(cycle_graph(5))
    assert set(ae.row_sums()) == {1}
    perm = {r: c for (r, c) in ae.entries}
    # two orbits of length 5 under the successor permutation
    seen = set()
    orbits = 0
    for start in range(10):
        if start in seen:
            continue
        orbits += 1
        x = start
        for _ in range(5):
            seen.add(x)
            x = perm[x]
        assert x == start
    assert orbits == 2


def test_k4_row_sums():
    assert set(edge_adjacency(complete_graph(4)).row_sums()) == {2}


def test_single_edge_rejected():
    with pytest.raises(DegreeTooLow):
        ihara_zeta(Graph(2, ((0, 1),)))
    assert not edge_adjacency(Graph(2, ((0, 1),))).entries


def test_c5_zeta_closed_form():
    hden, _, agree = ihara_zeta(cycle_graph(5))
    one_minus_u5 = IntPoly((1, 0, 0, 0, 0, -1))
    assert agree and hden == one_minus_u5 * one_minus_u5


def test_k4_and_petersen_forms_agree():
    assert ihara_zeta(complete_graph(4))[2]
    assert ihara_zeta(petersen_graph())[2]


def test_walk_counts():
    c5 = cycle_graph(5)
    assert count_closed_walks(c5, 5) == 10
    k4 = complete_graph(4)
    ae = edge_adjacency(k4)
    assert count_closed_walks(k4, 3) == 24
    for n in range(1, 9):
        assert count_closed_walks(k4, n) == ae.trace_power(n)


def test_tree_has_no_cycles():
    tree = Graph(4, ((0, 1), (1, 2), (1, 3)))
    for n in range(1, 6):
        assert count_closed_walks(tree, n) == 0


def test_multigraph_forms_agree():
    # theta graph: parallel edges are legitimate non-backtracking returns
    theta = Graph(2, ((0, 1), (0, 1), (0, 1)))
    assert ihara_zeta(theta)[2]
    ae = edge_adjacency(theta)
    for n in range(1, 8):
        assert count_closed_walks(theta, n) == ae.trace_power(n)
    # loops and a mixed graph keep the two closed forms equal as well
    assert ihara_zeta(Graph(1, ((0, 0), (0, 0))))[2]
    assert ihara_zeta(Graph(3, ((0, 1), (1, 2), (2, 0), (0, 0))))[2]


def disjoint_union(g, h):
    return Graph(g.n + h.n, g.edges + tuple((u + g.n, v + g.n) for u, v in h.edges))


def test_ramanujan_check_known_graphs():
    """The exact count agrees with the eigenvalues in double precision.
    K_{3,3} and the cube are bipartite, so -3 is trivial as well as 3; two
    disjoint Petersens have a second eigenvalue 3 past 2 sqrt(2)."""
    petersen = petersen_graph()
    k33 = Graph(6, tuple((u, v) for u in range(3) for v in range(3, 6)))
    cube = Graph(8, tuple((u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b))
    cases = [
        (k33, "RAMANUJAN", 0),
        (cube, "RAMANUJAN", 0),
        (complete_graph(4), "RAMANUJAN", 0),
        (complete_graph(5), "RAMANUJAN", 0),
        (petersen, "RAMANUJAN", 0),
        (cycle_graph(7), "RAMANUJAN", 0),
        (cycle_graph(8), "RAMANUJAN", 0),
        (disjoint_union(petersen, petersen), "NOT-RAMANUJAN", 1),
    ]
    for g, verdict, outside in cases:
        rep = ramanujan_graph_check(g)
        assert (rep.verdict, rep.outside) == (verdict, outside)
        assert (rep.verdict, rep.outside) == eigvalsh_graph_check(g)
        assert rep.valency == g.degrees()[0]


def test_eigenvalues_on_the_bound_stay_ramanujan():
    """Two disjoint C4 (q = 1): the nontrivial eigenvalues 2 and -2 are
    exactly +-2 sqrt(q), a root of S at y = 4q, which is not counted."""
    c4 = cycle_graph(4)
    rep = ramanujan_graph_check(disjoint_union(c4, c4))
    assert (rep.verdict, rep.outside) == ("RAMANUJAN", 0)


@st.composite
def regular_graphs(draw):
    degree = draw(st.integers(3, 5))
    n = draw(st.sampled_from([n for n in range(degree + 1, 21) if n * degree % 2 == 0]))
    return random_regular_graph(n, degree, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@given(g=regular_graphs())
def test_exact_check_agrees_with_eigvalsh(g):
    rep = ramanujan_graph_check(g)
    assert (rep.verdict, rep.outside) == eigvalsh_graph_check(g)


def test_not_regular():
    with pytest.raises(NotRegular):
        ramanujan_graph_check(Graph(3, ((0, 1), (1, 2), (2, 0), (0, 1))))


def test_joined_k4_pair_reported_per_spectrum():
    # two K4s, one edge removed from each, re-joined to stay 3-regular
    edges = [
        (u, v)
        for u, v in complete_graph(4).edges
        if (u, v) != (0, 1)
    ]
    edges += [(u + 4, v + 4) for u, v in edges[:5]]
    edges += [(0, 1 + 4), (1, 0 + 4)]
    g = Graph(8, tuple(edges))
    assert set(g.degrees()) == {3}
    rep = ramanujan_graph_check(g)
    assert (rep.verdict, rep.outside) == ("RAMANUJAN", 0)
    assert (rep.verdict, rep.outside) == eigvalsh_graph_check(g)


def test_random_graphs_forms_agree():
    for seed in range(10):
        assert ihara_zeta(random_regular_graph(8, 3, seed=seed))[2]
    for seed in range(10):
        assert ihara_zeta(random_irregular_graph(9, seed=seed))[2]


def test_rh_equivalence_on_regular_graphs():
    """Ramanujan verdict agrees with nontrivial pole moduli being q^-1/2."""
    for g in (complete_graph(4), petersen_graph(), random_regular_graph(10, 3, 1)):
        q = g.degrees()[0] - 1
        verdict = ramanujan_graph_check(g).passed
        hden, _, _ = ihara_zeta(g)
        roots = []
        for factor, mult in squarefree_decomposition(hden):
            found = approx_roots(factor)
            assert all(residual <= 1e-9 for _, residual in found)
            roots.extend([r for r, _ in found] * mult)
        assert len(roots) == hden.degree
        nontrivial = [
            r
            for r in roots
            if min(abs(abs(r) - 1.0), abs(abs(r) - 1.0 / q)) > 1e-6
        ]
        rh = all(abs(abs(r) - q**-0.5) < 1e-6 for r in nontrivial)
        assert rh == verdict
