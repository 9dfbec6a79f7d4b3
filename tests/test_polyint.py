import random
from fractions import Fraction
from itertools import islice
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2zeta import polyint
from a2zeta.errors import A2ZetaError
from a2zeta.polyint import (
    IntPoly,
    RationalFunction,
    Series,
    _crt_primes,
    _max_row_norm2,
    _primes_descending,
    det_i_minus_pencil,
    poly_log_derivative,
)
from oracles import (
    bareiss_det_int,
    eval_int,
    newton_power_sums,
    parse_poly_line,
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
        assert eval_int(got, x) == bareiss_det_int(pencil_at(blocks, x))
    assert got == det_over_zu(pencil_entries(blocks))


@pytest.mark.parametrize("n", [30, 1, 2, 3])
def test_pencil_at_the_coefficient_bound(n):
    """M = +-rho I attains |e_k| = C(N, k) rho^k, the bound the primes cover."""
    for rho in [2**40] if n == 30 else [2**j for j in range(63)]:
        for sign in (1, -1):
            m = [[sign * rho * (i == j) for j in range(n)] for i in range(n)]
            assert det_i_minus_pencil([m]) == IntPoly((1, -sign * rho)) ** n


def sylvester_hadamard(n):
    """The n x n Sylvester Hadamard matrix, n a power of 2."""
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_pencil_at_the_hadamard_bound(n):
    """s H_n has H_n^2 = n I, so det(I - u s H_n) = (1 - n s^2 u^2)^(n/2); its
    top coefficient meets Hadamard's bound (n s^2)^(n/2), the bound the
    primes cover."""
    h = sylvester_hadamard(n)
    for j in range(63):
        s = 2**j
        m = [[s * x for x in row] for row in h]
        assert det_i_minus_pencil([m]) == IntPoly((1, 0, -n * s * s)) ** (n // 2)


@st.composite
def equivariant_pencils(draw):
    """A pencil whose blocks are sum_g B_g (x) P^g, relabeled at random.

    Before relabeling, index a*n + h stands for sigma^h rep_a and entry
    ((a, h), (b, g)) is B_{g-h}[a, b], so the shift h -> h+1 is a free
    action of Z/n.  Returns the relabeled blocks and the shift on them.
    """
    n, k, d = draw(st.integers(1, 7)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    size = n * k
    perm = draw(st.permutations(range(size)))  # new index i is old index perm[i]
    where = {old: new for new, old in enumerate(perm)}
    sigma = [where[perm[i] - perm[i] % n + (perm[i] + 1) % n] for i in range(size)]
    blocks = []
    for _ in range(d):
        b = draw(st.lists(st.integers(-5, 5), min_size=n * k * k, max_size=n * k * k))
        old = [
            [b[((g % n - h % n) % n * k + h // n) * k + g // n] for g in range(size)]
            for h in range(size)
        ]
        blocks.append([[old[perm[i]][perm[j]] for j in range(size)] for i in range(size)])
    return blocks, sigma


@settings(max_examples=100, deadline=None)
@given(equivariant_pencils())
def test_character_factorization_matches_trivial_action(pencil):
    blocks, sigma = pencil
    assert det_i_minus_pencil(blocks, sigma) == det_i_minus_pencil(blocks)


@pytest.mark.parametrize(
    "matrix, action",
    [
        ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [1, 2, 0]),
        ([[int(i == j) for j in range(6)] for i in range(6)], [1, 2, 3, 0, 5, 4]),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 1]),
    ],
    ids=["does_not_commute", "orbit_shorter_than_n", "not_a_permutation"],
)
def test_pencil_rejects_bad_actions(matrix, action):
    with pytest.raises(A2ZetaError):
        det_i_minus_pencil([matrix], action)


@pytest.mark.parametrize(
    "limit, n",
    [(100, 1), (10**4, 1), (10**4, 7), (isqrt((2**63 - 1) // 53), 13), (3037000499, 1)],
)
def test_crt_primes_are_the_descending_primes(limit, n, monkeypatch):
    """The shared table yields _primes_descending's sequence, cold or warm,
    whether a read extends it or stays inside it; (100, 1) runs out at 67."""
    monkeypatch.setattr(polyint, "_PRIME_TABLES", {})
    want = list(islice(_primes_descending(limit, n), 40))
    assert list(islice(_crt_primes(limit, n), 5)) == want[:5]
    assert list(islice(_crt_primes(limit, n), 40)) == want
    assert list(islice(_crt_primes(limit, n), 40)) == want
    assert list(islice(_crt_primes(limit, n), 3)) == want[:3]


def python_max_row_norm2(c):
    return max(sum(x * x for x in row) for row in c.tolist())


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.integers(0, 63).flatmap(
            lambda bits: st.lists(
                st.integers(-(2**bits), 2**bits - 1), min_size=n * n, max_size=n * n
            ).map(lambda xs: np.array(xs, dtype=np.int64).reshape(n, n))
        )
    )
)
@example(np.full((2, 2), 2**31, dtype=np.int64))
@example(np.full((2, 2), -(2**31) + 1, dtype=np.int64))
@example(np.array([[isqrt((2**63 - 1) // 2)] * 2, [0, 0]], dtype=np.int64))
@example(np.array([[isqrt((2**63 - 1) // 2) + 1] * 2, [0, 0]], dtype=np.int64))
@example(np.array([[-(2**63), 1], [1, 1]], dtype=np.int64))
def test_max_row_norm2_matches_python_ints(c):
    """Near 2^31 and beyond, where a row sum overflows int64, the result stays
    exact; -2^63, whose numpy abs wraps, takes the Python-int route."""
    assert _max_row_norm2(c) == python_max_row_norm2(c)


def circulant(row):
    n = len(row)
    return [[row[(j - i) % n] for j in range(n)] for i in range(n)]


def test_pencil_same_cold_and_warm(monkeypatch):
    """Interleaved calls of different sizes and actions share the prime and
    root tables; each result equals the one computed with empty tables.
    Calls of one size read one prime table, the larger entries further."""
    shift7 = [(i + 1) % 7 for i in range(7)]
    shift3 = [3 * (i // 3) + (i + 1) % 3 for i in range(6)]
    # a 2 x 2 block matrix of 3 x 3 circulants commutes with shift3
    block3 = [
        circulant(left)[i] + circulant(right)[i]
        for left, right in [([1, -2, 3], [0, 4, -1]), ([0, 4, -1], [1, -2, 3])]
        for i in range(3)
    ]
    k4 = [[int(i != j) for j in range(4)] for i in range(4)]
    cases = [
        ([[[2 * (i == j) for j in range(3)] for i in range(3)]], None),
        ([circulant([0, 1, 0, 0, 0, 0, 1])], shift7),
        ([circulant([0, 1, 0, 0, 0, 0, 1]), circulant([-2, 0, 0, 0, 0, 0, 0])], shift7),
        ([[[2**40 * (i == j) for j in range(3)] for i in range(3)]], None),
        ([block3], shift3),
        ([k4, [[-2 * (i == j) for j in range(4)] for i in range(4)]], None),
        ([circulant([5, 0, 3, -1, 0, 2, 7])], shift7),
        ([block3, block3], shift3),
        ([[[2**62, 0], [0, -(2**62)]]], None),
    ]
    cold = []
    for blocks, action in cases:
        monkeypatch.setattr(polyint, "_PRIME_TABLES", {})
        polyint._root_of_unity.cache_clear()
        cold.append(det_i_minus_pencil(blocks, action))
    monkeypatch.setattr(polyint, "_PRIME_TABLES", {})
    for _ in range(2):
        for (blocks, action), want in zip(cases, cold):
            assert det_i_minus_pencil(blocks, action) == want
    for (blocks, _), want in zip(cases, cold):
        assert det_i_minus_pencil(blocks) == want


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
