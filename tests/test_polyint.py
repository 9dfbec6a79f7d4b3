import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2zeta.errors import A2ZetaError
from a2zeta.polyint import (
    IntPoly,
    RationalFunction,
    Series,
    bareiss_det_int,
    det_i_minus_pencil,
    newton_power_sums,
    parse_poly_line,
    poly_log_derivative,
    rational_series,
    series_log_derivative,
)

U = IntPoly.monomial(1)
ONE = IntPoly.const(1)
ZERO = IntPoly()


def det_over_zu(entries):
    """Reference: fraction-free Bareiss elimination directly over Z[u]."""
    n = len(entries)
    if n == 0:
        return ONE
    m = [row[:] for row in entries]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot is None:
                return ZERO
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).divexact(prev)
            m[i][k] = ZERO
        prev = m[k][k]
    return m[n - 1][n - 1] * sign


def pencil_entries(blocks):
    """I - B1 u - ... - Bd u^d as a matrix of IntPoly entries."""
    n = len(blocks[0])
    return [
        [
            IntPoly([int(i == j)] + [-b[i][j] for b in blocks])
            for j in range(n)
        ]
        for i in range(n)
    ]


def pencil_at(blocks, x):
    """I - B1 x - ... - Bd x^d as an integer matrix."""
    n = len(blocks[0])
    return [
        [int(i == j) - sum(b[i][j] * x ** (k + 1) for k, b in enumerate(blocks)) for j in range(n)]
        for i in range(n)
    ]


@st.composite
def pencils(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 8))
    row = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    return [draw(st.lists(row, min_size=n, max_size=n)) for _ in range(d)]


@settings(max_examples=150, deadline=None)
@given(pencils())
@example([[]])
@example([[[0] * 4 for _ in range(4)]] * 3)
def test_pencil_matches_integer_and_zu_oracles(blocks):
    got = det_i_minus_pencil(blocks)
    dn = len(blocks) * len(blocks[0])
    assert got.degree <= dn and got[0] == 1
    # a polynomial of degree <= dn is fixed by its values at dn + 1 points
    for x in range(-(dn // 2), dn - dn // 2 + 1):
        assert got.eval_int(x) == bareiss_det_int(pencil_at(blocks, x))
    assert got == det_over_zu(pencil_entries(blocks))


@pytest.mark.parametrize("n", [30, 1, 2, 3])
def test_pencil_at_the_coefficient_bound(n):
    """M = +-rho I attains |e_k| = C(N, k) rho^k, the bound the primes cover."""
    for rho in [2**40] if n == 30 else [2**j for j in range(63)]:
        for sign in (1, -1):
            m = [[sign * rho * (i == j) for j in range(n)] for i in range(n)]
            assert det_i_minus_pencil([m]) == IntPoly((1, -sign * rho)) ** n


def test_det_zero_matrix_pencil_is_one():
    assert det_i_minus_pencil([[[0, 0], [0, 0]]]) == ONE


def test_det_k4_pencil_degree_and_constant_term():
    a = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    minus_two = [[-2 * (i == j) for j in range(4)] for i in range(4)]
    det = det_i_minus_pencil([a, minus_two])
    assert det == det_over_zu(pencil_entries([a, minus_two]))
    assert det.degree == 8 and det[0] == 1


def test_block_determinant_multiplicativity():
    rng = random.Random(11)
    for _ in range(20):
        nx, ny = rng.randint(1, 3), rng.randint(1, 3)
        x = [[rng.randint(-4, 4) for _ in range(nx)] for _ in range(nx)]
        y = [[rng.randint(-4, 4) for _ in range(ny)] for _ in range(ny)]
        blk = [
            [x[i][j] if i < nx and j < nx else 0 for j in range(nx + ny)]
            for i in range(nx)
        ] + [
            [y[i - nx][j - nx] if j >= nx else 0 for j in range(nx + ny)]
            for i in range(nx, nx + ny)
        ]
        lhs = det_i_minus_pencil([x]) * det_i_minus_pencil([y])
        assert lhs == det_i_minus_pencil([blk])


def test_bareiss_int_known_values():
    assert bareiss_det_int([[2, 1], [1, 2]]) == 3
    assert bareiss_det_int([[0, 1], [1, 0]]) == -1
    assert bareiss_det_int([[1, 2], [2, 4]]) == 0


def test_log_derivative_geometric_series():
    r = RationalFunction(ONE, ONE - U)
    s = series_log_derivative(r, 4)
    assert s.coeffs == [Fraction(0), 1, 1, 1, 1]


def test_log_derivative_of_cube_power():
    c = 5
    p = (ONE - IntPoly.monomial(3)) ** c  # (1-u^3)^c
    s = poly_log_derivative(p, 3)
    assert s.coeffs[3] == -3 * c


def test_log_derivative_multiplicativity():
    p = RationalFunction(ONE, IntPoly((1, -2, 0, 5)))
    q = RationalFunction(IntPoly((1, 3)), ONE)
    lhs = series_log_derivative(p * q, 8)
    rhs = series_log_derivative(p, 8) + series_log_derivative(q, 8)
    assert lhs == rhs


def test_newton_power_sums_identity_matrix():
    d = 4
    p = (ONE - U) ** d  # det(I - I u) for the 4x4 identity
    assert newton_power_sums(p, 6) == [d] * 6


def test_newton_power_sums_nilpotent():
    # single Jordan block with zero eigenvalue: det(I - X u) = 1
    assert newton_power_sums(ONE, 5) == [0] * 5


def test_rational_function_reduction_and_den_constraint():
    r = RationalFunction(IntPoly((1, -1)) * IntPoly((1, 2)), IntPoly((1, -1)))
    assert r.num == IntPoly((1, 2)) and r.den == ONE
    with pytest.raises(A2ZetaError):
        RationalFunction(ONE, IntPoly((2, 1)))


def test_rational_series_expansion():
    r = RationalFunction(ONE, IntPoly((1, -1)))
    s = rational_series(r, 5)
    assert s.coeffs == [1] * 6


def test_poly_format_round_trip():
    p = IntPoly((1, 0, -73, 9))
    assert parse_poly_line(p.format()) == p
    assert p.format() == "poly 3: 1 0 -73 9"


def test_divexact_raises_on_inexact():
    with pytest.raises(A2ZetaError):
        IntPoly((1, 1)).divexact(IntPoly((0, 1)))


def test_squarefree_decomposition():
    p = IntPoly((1, -1)) ** 3 * IntPoly((1, 0, 2))
    parts = p.squarefree_decomposition()
    by_mult = {m: f for f, m in parts}
    assert sorted(by_mult) == [1, 3]
    assert by_mult[3].degree == 1 and by_mult[1].degree == 2


def test_series_inverse_and_integer_coeffs():
    s = Series([1, 1], 4)
    inv = s.inverse()
    assert inv.coeffs == [1, -1, 1, -1, 1]
    with pytest.raises(A2ZetaError):
        Series([Fraction(1, 2)], 0).integer_coeffs()
