import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from a2zeta import building, cli
from a2zeta.building import (
    BuildingVertex,
    LocalBuilding,
    RelativePosition,
    _at_n0,
    _det3,
    _lA_over_diagonal,
    _least_valuation,
    _mat_mul,
    _pivot_exponent_sum,
    _position,
    _row_minor_valuations,
    ball,
    canonical_algebraic_length,
    verify_geodesic_criterion,
    verify_tamagawa,
)
from a2zeta.errors import BallTooSmall, ResourceLimit, SingularInput
from a2zeta.gf import GF, ptrim, pval
from a2zeta.polyint import IntPoly
from oracles import (
    canonicalize,
    sphere_n0_by_relative_position,
    tamagawa_kernel,
    type1_reps,
    type2_reps,
    verify_tamagawa_full,
)


@pytest.fixture(scope="module")
def b2():
    return LocalBuilding(2)


def test_neighbor_counts(b2):
    base = b2.origin()
    for edge_type in (1, 2):
        nbrs = b2.neighbors(base, edge_type)
        assert len(nbrs) == 7 and len(set(nbrs)) == 7


def test_diag_t_is_a_type1_neighbor(b2):
    base = b2.origin()
    target = b2.class_representative(1, 0)  # diag(1, 1, t) up to ordering
    assert target in b2.neighbors(base, 1)


def test_relative_position_examples(b2):
    base = b2.origin()
    assert b2.relative_position(base, base) == RelativePosition(0, 0)
    assert b2.relative_position(base, b2.class_representative(1, 0)) == (
        RelativePosition(1, 0)
    )
    pos = b2.relative_position(base, b2.class_representative(1, 1))
    assert (pos.n, pos.m, pos.lA, pos.lG) == (1, 1, 3, 2)


def test_relative_position_reversal(b2):
    base = b2.origin()
    rng = random.Random(3)
    vertices = [base]
    for _ in range(12):
        v = vertices[rng.randrange(len(vertices))]
        vertices.append(b2.neighbors(v, rng.choice((1, 2)))[rng.randrange(7)])
    for v in vertices:
        for w in vertices[:6]:
            assert b2.relative_position(v, w) == b2.relative_position(w, v).reversed()


def test_neighbors_match_hecke_spheres(b2):
    base = b2.origin()
    for edge_type, pos in ((1, RelativePosition(1, 0)), (2, RelativePosition(0, 1))):
        for w in b2.neighbors(base, edge_type):
            assert b2.relative_position(base, w) == pos


def test_ball_counts_and_sphere_relpos(b2):
    bl = ball(b2, 1)
    assert bl.sphere_sizes() == [1, 14]
    for v, s in zip(bl.vertices, bl.sphere):
        if s == 1:
            pos = b2.relative_position(bl.vertices[0], v)
            assert (pos.n, pos.m) in ((1, 0), (0, 1))


def test_ball_sphere_type_symmetry(b2):
    bl = ball(b2, 2)
    base = bl.vertices[0]
    counts = {}
    for v in bl.vertices:
        pos = b2.relative_position(base, v)
        counts[(pos.n, pos.m)] = counts.get((pos.n, pos.m), 0) + 1
    for (n, m), c in counts.items():
        assert counts[(m, n)] == c


def test_ball_link_is_projective_plane(b2):
    """Chambers at the origin pair out- and in-edges like PG(2, q)."""
    bl = ball(b2, 1)
    base = bl.vertices[0]
    outs = b2.neighbors(base, 1)
    # chamber through (base, v): third vertex adjacent to both, type 2 from base
    pairs = set()
    for v in outs:
        for w in b2.neighbors(v, 1):
            if w in set(b2.neighbors(base, 2)):
                pairs.add((outs.index(v), b2.neighbors(base, 2).index(w)))
    # q+1 = 3 chambers through each type-1 edge at the base vertex
    from collections import Counter

    left = Counter(p[0] for p in pairs)
    right = Counter(p[1] for p in pairs)
    assert set(left.values()) == {3} and set(right.values()) == {3}
    for i in range(7):
        for j in range(i + 1, 7):
            common = {b for a, b in pairs if a == i} & {b for a, b in pairs if a == j}
            assert len(common) == 1


@pytest.mark.parametrize("q, r", [(2, 3), (3, 2), (4, 1), (9, 1)])
def test_neighbors_are_coset_representative_products(q, r):
    """Column steps give the canonical forms of v.mat * rep, in rep order."""
    B = LocalBuilding(q)
    reps = {1: type1_reps(q), 2: type2_reps(q)}
    for v in ball(B, r).vertices:
        for edge_type in (1, 2):
            want = [canonicalize(B, _mat_mul(B.F, v.mat, rep)) for rep in reps[edge_type]]
            assert B.neighbors(v, edge_type) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_diagonal_base_position_matches_relative_position(q):
    """The Tamagawa shortcut: positions from diag(1, t^m0, t^(m0+n0)), and
    lA from the row valuations and pivot exponents alone.  verify_tamagawa
    reads the delta image, inside ball(B, 1); q <= 3 also covers ball(B, 2)."""
    B = LocalBuilding(q)
    for y in ball(B, 2 if q <= 3 else 1).vertices:
        minor_vals = _row_minor_valuations(B.F, y.mat)
        rho = [_least_valuation(row) for row in y.mat]
        a_sum = _pivot_exponent_sum(y.mat)
        for n0 in range(6):
            for m0 in range(6 - n0):
                d = (0, m0, m0 + n0)
                want = B.relative_position(B.class_representative(n0, m0), y)
                assert _position(minor_vals, d) == want
                assert _lA_over_diagonal(rho, a_sum, d) == want.lA


def test_tamagawa_fails_without_the_a2_term(monkeypatch):
    full = building._delta_image

    def without_a2(B, base):
        vals = full(B, base)
        for y in B.neighbors(base, 1):
            vals[y] = vals[y] - IntPoly((0, 0, B.q))
        return vals

    assert verify_tamagawa(2, 3, 4)
    monkeypatch.setattr(building, "_delta_image", without_a2)
    assert not verify_tamagawa(2, 3, 4)


BUILDINGS = {q: LocalBuilding(q) for q in (2, 3, 4)}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_relative_position_invariance_and_reversal(data):
    """g in GL3(F_q((t))) preserves positions, read off the products g x and
    g y as they are or off their canonical forms; swapping the pair reverses
    them."""
    q = data.draw(st.sampled_from(sorted(BUILDINGS)))
    B = BUILDINGS[q]

    def walk():
        v = B.origin()
        for _ in range(data.draw(st.integers(0, 4))):
            nbrs = B.neighbors(v, data.draw(st.sampled_from((1, 2))))
            v = nbrs[data.draw(st.integers(0, len(nbrs) - 1))]
        return v

    x, y = walk(), walk()
    poly = st.lists(st.integers(0, q - 1), max_size=3).map(ptrim)
    g = tuple(tuple(data.draw(poly) for _ in range(3)) for _ in range(3))
    assume(pval(_det3(B.F, g)) is not None)
    pos = B.relative_position(x, y)
    gx, gy = (BuildingVertex(_mat_mul(B.F, g, v.mat)) for v in (x, y))
    assert B.relative_position(gx, gy) == pos
    assert B.relative_position(canonicalize(B, gx.mat), canonicalize(B, gy.mat)) == pos
    assert B.relative_position(y, x) == pos.reversed()


def test_ball_resource_limit():
    with pytest.raises(ResourceLimit):
        ball(LocalBuilding(2), 3, cap=10)


def test_canonicalize_idempotent_and_coset_invariant(b2):
    F = b2.F
    rng = random.Random(0)

    def random_unimodular():
        while True:
            m = tuple(
                tuple(ptrim([rng.randrange(2) for _ in range(3)]) for _ in range(3))
                for _ in range(3)
            )
            if pval(_det3(F, m)) == 0:
                return m

    for rep in ((0, 0), (1, 0), (1, 1), (2, 1)):
        v = b2.class_representative(*rep)
        canon = canonicalize(b2, v.mat)
        assert canonicalize(b2, canon.mat) == canon
        for _ in range(200):
            u = random_unimodular()
            assert canonicalize(b2, _mat_mul(F, v.mat, u)) == canon


def test_tamagawa_low_degrees():
    # degree-0: T_{0,0} is the identity operator
    assert tamagawa_kernel(2, 0, 0, 0) == IntPoly.const(1)
    for cls in ((1, 0), (0, 1), (1, 1)):
        assert tamagawa_kernel(2, cls[0], cls[1], 1).is_zero()


def test_tamagawa_small_and_full_crosscheck():
    assert verify_tamagawa(2, 2, 3)
    assert verify_tamagawa_full(2, 2, 3)
    # second residue size: per-class and full-ball paths agree there too
    assert verify_tamagawa(3, 1, 2)
    assert verify_tamagawa_full(3, 1, 2)


def test_tamagawa_ball_too_small():
    with pytest.raises(BallTooSmall):
        verify_tamagawa(2, 4, 4)


def test_geodesic_criterion_small():
    assert verify_geodesic_criterion(2, 1, 4)
    assert verify_geodesic_criterion(2, 2, 4)
    assert verify_geodesic_criterion(2, 4, 4)
    assert verify_geodesic_criterion(3, 3, 3)
    assert verify_geodesic_criterion(4, 2, 2)
    with pytest.raises(BallTooSmall):
        verify_geodesic_criterion(2, 3, 2)


def test_geodesic_criterion_refuses_past_the_vertex_cap(monkeypatch):
    """|S(n, 0)| over the cap raises before a single neighbor is listed."""

    def no_neighbors(self, v, edge_type):
        raise AssertionError("the search started")

    monkeypatch.setattr(LocalBuilding, "neighbors", no_neighbors)
    for q, n in ((2, 11), (3, 7)):
        with pytest.raises(ResourceLimit):
            verify_geodesic_criterion(q, n, n)
    # the largest admitted lengths reach the search
    for q, n in ((2, 10), (3, 6)):
        with pytest.raises(AssertionError, match="the search started"):
            verify_geodesic_criterion(q, n, n)


def _drop_last_type1(monkeypatch):
    full = LocalBuilding.neighbors

    def neighbors(self, v, edge_type):
        out = full(self, v, edge_type)
        return out[:-1] if edge_type == 1 else out

    monkeypatch.setattr(LocalBuilding, "neighbors", neighbors)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_geodesic_criterion_fails_with_a_missing_type1_coset(monkeypatch, n):
    """One type-1 coset short, the endpoints fall short of |S(n, 0)|."""
    _drop_last_type1(monkeypatch)
    assert not verify_geodesic_criterion(2, n, n)


@pytest.mark.parametrize("n", [2, 3])
def test_geodesic_criterion_fails_when_no_step_is_blocked(monkeypatch, n):
    """With empty type-2 lists, chamber-completing steps leave S(n, 0)."""
    full = LocalBuilding.neighbors

    def neighbors(self, v, edge_type):
        return full(self, v, edge_type) if edge_type == 1 else []

    monkeypatch.setattr(LocalBuilding, "neighbors", neighbors)
    assert not verify_geodesic_criterion(2, n, n)


def test_geodesic_cli_exits_1_on_a_missing_type1_coset(monkeypatch, capsys):
    _drop_last_type1(monkeypatch)
    argv = ["building", "geodesic", "--q", "2", "--length", "2", "--radius", "2"]
    assert cli.main([*argv, "--format", "records"]) == 1
    assert "geodesic_criterion fail" in capsys.readouterr().out


@pytest.mark.parametrize("q, r", [(2, 3), (3, 2), (4, 2)])
def test_canonical_form_n0_matches_relative_position(q, r):
    """(n, 0) read off the canonical form equals the relative-position test."""
    B = LocalBuilding(q)
    base = B.origin()
    for v in ball(B, r).vertices:
        pos = B.relative_position(base, v)
        for n in range(1, r + 1):
            assert _at_n0(B.F, v, n) == (pos == RelativePosition(n, 0))


@pytest.mark.parametrize(
    "q, n, size",
    [(2, 1, 7), (2, 2, 28), (2, 3, 112), (2, 4, 448), (3, 1, 13), (3, 2, 117), (3, 3, 1053)],
)
def test_sphere_n0_matches_relative_position_filter(q, n, size):
    """The canonical-form (n, 0) filter on sphere n of a ball equals the
    relative-position filter, and has the closed-form size."""
    B = LocalBuilding(q)
    bl = ball(B, n)
    got = {v for v, s in zip(bl.vertices, bl.sphere) if s == n and _at_n0(B.F, v, n)}
    assert got == sphere_n0_by_relative_position(B, n)
    assert len(got) == size == (q * q + q + 1) * q ** (2 * (n - 1))


def test_chamber_violating_step_lands_adjacent(b2):
    """Continuations that complete a chamber end at position (0, 1)."""
    base = b2.origin()
    v1 = b2.neighbors(base, 1)[0]
    blocked = [w for w in b2.neighbors(v1, 1) if w in b2.neighbors(base, 2)]
    assert len(blocked) == b2.q + 1
    for w in blocked:
        assert b2.relative_position(base, w) == RelativePosition(0, 1)


def test_canonical_algebraic_length_examples():
    F = GF(2)
    diag = (((1,), (), ()), ((), (0, 1), ()), ((), (), (0, 0, 1)))
    assert canonical_algebraic_length(F, diag) == 3
    eye = (((1,), (), ()), ((), (1,), ()), ((), (), (1,)))
    assert canonical_algebraic_length(F, eye) == 0
    # block diag(1, companion(x^2 - t x - t)): two eigenvalues of valuation 1/2
    comp = (((1,), (), ()), ((), (), (0, 1)), ((), (1,), (0, 1)))
    assert canonical_algebraic_length(F, comp) == 1


def test_canonical_algebraic_length_scale_invariance():
    F = GF(3)
    m = (((0, 1), (1,), ()), ((), (0, 0, 1), (2,)), ((1,), (), (0, 1)))
    scaled = tuple(tuple((0,) * 2 + e if e else () for e in row) for row in m)
    assert canonical_algebraic_length(F, m) == canonical_algebraic_length(F, scaled)


def test_canonical_algebraic_length_singular():
    F = GF(2)
    zero_row = (((1,), (), ()), ((), (1,), ()), ((), (), ()))
    with pytest.raises(SingularInput):
        canonical_algebraic_length(F, zero_row)


def test_newton_polygon_fractional_valuations():
    from a2zeta.gf import newton_slopes

    # x^2 - t x - t: both roots have valuation 1/2
    assert newton_slopes({2: 0, 1: 1, 0: 1}) == [Fraction(1, 2), Fraction(1, 2)]


def test_prime_power_building_neighbors():
    b4 = LocalBuilding(4)
    base = b4.origin()
    for edge_type in (1, 2):
        nbrs = b4.neighbors(base, edge_type)
        assert len(set(nbrs)) == 21
    w = b4.neighbors(base, 1)[0]
    assert b4.relative_position(base, w) == RelativePosition(1, 0)
    assert b4.relative_position(w, base) == RelativePosition(0, 1)
