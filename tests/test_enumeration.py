import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2zeta import enumeration
from a2zeta.complexes import TypedComplex
from a2zeta.enumeration import (
    DEFAULT_BUDGET,
    _chamber_successors,
    _edge_successors,
    closed_walks,
    count_galleries,
    count_type1_geodesics,
    count_walks,
    enumerate_galleries,
    free_orbits,
    gallery_boundaries,
)
from a2zeta.errors import A2ZetaError, NotAGallery, ResourceLimit
from a2zeta.operators import chamber_operator, edge_operator
from a2zeta.presentations import singer_action
from conftest import relabeled
from oracles import closed_walk_count, shift_equivalence_classes, walk_tree_size


def test_geodesic_counts_match_traces(bundled_cx):
    le = edge_operator(bundled_cx)
    for n in range(1, 7):
        assert count_type1_geodesics(bundled_cx, n) == le.trace_power(n)


def test_geodesic_count_zero_off_multiples_of_three(bundled_cx):
    for n in (1, 2, 4, 5, 7):
        assert count_type1_geodesics(bundled_cx, n) == 0


def test_gallery_counts_match_traces(bundled_cx):
    lb = chamber_operator(bundled_cx)
    for length in (3, 4, 5, 6):
        assert count_galleries(bundled_cx, length) == lb.trace_power(length)


def test_resource_limit(bundled_cx):
    with pytest.raises(ResourceLimit):
        count_type1_geodesics(bundled_cx, 9, budget=100)


@pytest.mark.parametrize(
    "succ, length, walks, visits",
    [
        # directed triangle K3: Tr (J - I)^3 = 6, DFS tree 1 + 2 + 4 per start
        ([[1, 2], [0, 2], [0, 1]], 3, 6, 21),
        # a loop at 0 and 0 <-> 1: the single node is its own leaf at length 1
        ([[0, 1], [0]], 1, 1, 2),
        ([[0, 1], [0]], 4, 7, 18),
    ],
    ids=["k3_length3", "loop_length1", "loop_length4"],
)
def test_closed_walks_and_budget(succ, length, walks, visits):
    """Every yielded walk is closed, and each DFS node, leaves included,
    is one visit: a budget of exactly the tree size passes, one less raises."""
    found = list(closed_walks(succ, length, visits))
    assert len(found) == len(set(found)) == walks
    for w in found:
        assert len(w) == length
        assert all(b in succ[a] for a, b in zip(w, w[1:] + w[:1]))
    with pytest.raises(ResourceLimit):
        list(closed_walks(succ, length, visits - 1))


def test_q3_counts_match_traces(q3_cx):
    """The seed-0 q=3 complex, where the DFS tree has millions of nodes."""
    assert count_type1_geodesics(q3_cx, 6) == edge_operator(q3_cx).trace_power(6) == 1593774
    assert count_galleries(q3_cx, 9) == chamber_operator(q3_cx).trace_power(9) == 54873


def singer_routes(cx):
    """(successor lists, Singer images) on the edges and on the directed chambers."""
    edge_images, chamber_images = singer_action(cx)
    return [(_edge_successors(cx), edge_images), (_chamber_successors(cx), chamber_images)]


def test_orbit_route_equals_the_trivial_route(bundled_cx, q3_cx, q4_cx):
    """One start per Singer orbit, times n, gives the count from every
    start at each length up to 9; past the budget both routes raise."""
    for cx in (bundled_cx, q3_cx, q4_cx):
        for succ, images in singer_routes(cx):
            for length in range(1, 10):
                try:
                    want = count_walks(succ, length, DEFAULT_BUDGET)
                except ResourceLimit:
                    with pytest.raises(ResourceLimit):
                        count_walks(succ, length, DEFAULT_BUDGET, images)
                    continue
                assert count_walks(succ, length, DEFAULT_BUDGET, images) == want


def test_complex_counts_take_the_singer_orbits(q3_cx, monkeypatch):
    """count_galleries and count_type1_geodesics hand the Singer images to
    count_walks, and no images (the trivial group) on a relabeled complex."""
    passed, count = [], enumeration.count_walks

    def spy(succ, length, budget, images=None):
        passed.append(images)
        return count(succ, length, budget, images)

    monkeypatch.setattr(enumeration, "count_walks", spy)
    count_type1_geodesics(q3_cx, 3)
    count_galleries(q3_cx, 3)
    count_galleries(relabeled(q3_cx, random.Random(0)), 3)
    assert passed == [*singer_action(q3_cx), None]


def test_a_free_non_automorphism_changes_a_count(q3_cx):
    """The orbit route trusts its action.  sigma conjugated by the
    transposition of 0 and b is free with orbits of length n, but it is no
    automorphism: b's orbit is then counted from 0.  Directed chambers
    0, 1, 2 start no closed 3-gallery, and those of orbit 3 start one."""
    succ, (_, sigma) = _chamber_successors(q3_cx), singer_action(q3_cx)
    b = max(next(o for o in free_orbits(sigma) if o[0] == 3))
    swap = list(range(len(succ)))
    swap[0], swap[b] = b, 0
    wrong = [swap[sigma[swap[i]]] for i in range(len(succ))]
    assert {len(o) for o in free_orbits(wrong)} == {q3_cx.q**2 + q3_cx.q + 1}
    assert count_walks(succ, 3, DEFAULT_BUDGET, wrong) != count_walks(succ, 3, DEFAULT_BUDGET)


def test_orbits_of_unequal_length_are_refused():
    with pytest.raises(A2ZetaError, match="not free"):
        count_walks([[1], [0], [2]], 2, 100, [1, 0, 2])


def test_budget_threshold_on_a_singer_complex(q3_cx):
    """The budget caps the full DFS tree from every start, as without the
    action: exactly its size passes, one less raises."""
    for walker, succ, length in (
        (count_galleries, _chamber_successors(q3_cx), 6),
        (count_type1_geodesics, _edge_successors(q3_cx), 4),
    ):
        size = walk_tree_size(succ, length)
        walker(q3_cx, length, budget=size)
        with pytest.raises(ResourceLimit, match=f"DFS budget of {size - 1} nodes exceeded"):
            walker(q3_cx, length, budget=size - 1)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_relabeling_keeps_the_walk_counts(q3_cx, seed):
    """A relabeled complex has no Singer action and is counted from every
    start, and its counts are those of its Singer original."""
    cx = relabeled(q3_cx, random.Random(seed))
    assert singer_action(cx) is None
    for length in range(3, 7):
        assert count_galleries(cx, length) == count_galleries(q3_cx, length)
        assert count_type1_geodesics(cx, length) == count_type1_geodesics(q3_cx, length)


def test_repeated_chamber_takes_the_trivial_route(q3_cx):
    """enumerate does not validate its complex.  With a chamber repeated the
    Singer images would not be a permutation, so singer_action gives none
    and the counts run from every start."""
    chambers = q3_cx.chambers + q3_cx.chambers[:1]
    cx = TypedComplex(q3_cx.q, q3_cx.vertex_types, q3_cx.edges, chambers)
    assert singer_action(cx) is None
    assert count_galleries(cx, 6) == chamber_operator(cx).trace_power(6)
    assert count_type1_geodesics(cx, 3) == edge_operator(cx).trace_power(3)


@pytest.mark.parametrize(
    "walker", [count_type1_geodesics, count_galleries, enumerate_galleries]
)
def test_over_budget_length_fails_fast(bundled_cx, walker):
    """The budget is checked before any walk of the given length is built."""
    with pytest.raises(ResourceLimit, match="DFS budget of 10000000 nodes exceeded"):
        walker(bundled_cx, 20_000)


@st.composite
def successor_lists(draw):
    """Random successor lists: empty rows, self-loops and repeated entries."""
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, n - 1), max_size=3)
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(succ=successor_lists(), length=st.integers(1, 7), data=st.data())
def test_count_walks_matches_listing_and_budget(succ, length, data):
    size = walk_tree_size(succ, length)
    count = count_walks(succ, length, size)
    assert count == len(list(closed_walks(succ, length, size)))
    assert count == closed_walk_count(succ, length)
    for budget in (data.draw(st.integers(0, 2 * size)), size - 1):
        if budget < size:
            with pytest.raises(ResourceLimit):
                count_walks(succ, length, budget)
            with pytest.raises(ResourceLimit):
                list(closed_walks(succ, length, budget))
        else:
            assert count_walks(succ, length, budget) == count


def test_boundary_of_length6_galleries(bundled_cx):
    galleries = enumerate_galleries(bundled_cx, 6)
    for cycles in gallery_boundaries(bundled_cx, galleries):
        assert len(cycles) == 2
        assert all(len(c) == 3 for c in cycles)


def test_boundary_of_length9_galleries(bundled_cx):
    galleries = enumerate_galleries(bundled_cx, 9)
    assert galleries  # ramified classes exist on the bundled complex
    for cycles in gallery_boundaries(bundled_cx, galleries[:200]):
        assert len(cycles) == 1
        assert len(cycles[0]) == 9


def test_boundary_shift_consistency(bundled_cx):
    def rotations(c):
        return {tuple(c[(i + k) % len(c)] for i in range(len(c))) for k in range(len(c))}

    galleries = enumerate_galleries(bundled_cx, 6)[:20]
    shifted = [g[1:] + g[:1] for g in galleries]
    for orig, moved in zip(
        gallery_boundaries(bundled_cx, galleries),
        gallery_boundaries(bundled_cx, shifted),
    ):
        for cyc in moved:
            assert any(tuple(cyc) in rotations(c) for c in orig)


def test_not_a_gallery_errors(bundled_cx):
    with pytest.raises(NotAGallery):
        gallery_boundaries(bundled_cx, [(0, 1, 2, 3)])  # length not multiple of 3
    with pytest.raises(NotAGallery):
        gallery_boundaries(bundled_cx, [(0, 0, 0)])  # not an adjacency chain


def test_shift_classes_divide_length(bundled_cx):
    galleries = enumerate_galleries(bundled_cx, 6)
    classes = shift_equivalence_classes(galleries)
    assert sum(size for _, size in classes) == len(galleries)
    for _, size in classes:
        assert 6 % size == 0
