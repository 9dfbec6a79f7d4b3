import random
from fractions import Fraction
from itertools import islice
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2zeta import cli, polyint
from a2zeta.errors import A2ZetaError, ResourceLimit
from a2zeta.fileio import serialize_graph
from a2zeta.graphs import petersen_graph
from a2zeta.operators import SparseOperator, chamber_successors
from a2zeta.polyint import (
    IntPoly,
    RationalFunction,
    Series,
    _block_companion,
    _crt_primes,
    _det_i_minus_v_mod,
    _max_row_norm2,
    _primes_descending,
    det_i_minus_pencil,
    det_i_minus_rows,
    one_minus_power,
    poly_log_derivative,
    primes_past,
    real_roots_above,
    roots_on_unit_circle,
    times_one_minus_power,
)
from a2zeta.presentations import singer_action
from a2zeta.zeta import type0_orbit_rows
from oracles import (
    approx_roots,
    bareiss_det_int,
    eval_int,
    gcd_over_q,
    newton_power_sums,
    parse_poly_line,
    power_by_multiplication,
    rational_series,
    reduced_by_euclid,
    series_log_derivative,
    squarefree_decomposition,
    successors_of,
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
            assert det_i_minus_pencil([m]) == one_minus_power(1, n, sign * rho)


def test_pencil_bound_reads_every_row():
    """The largest row is not the first: a bound from row 0 alone is 1."""
    assert det_i_minus_pencil([[[0, 0], [0, 2**62]]]) == IntPoly((1, -(2**62)))
    diagonal = [[2**61 * (i == j > 1) for j in range(4)] for i in range(4)]
    rows, orbits = orbit_rows(diagonal, [1, 0, 3, 2])
    assert det_i_minus_rows(rows, orbits) == one_minus_power(1, 2, 2**61)


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
        assert det_i_minus_pencil([m]) == one_minus_power(2, n // 2, n * s * s)


def orbit_rows(matrix, sigma):
    """(rows, orbits) of a square matrix under the permutation sigma, for
    det_i_minus_rows: the orbits from their least index on, and the row of
    each orbit's first index."""
    orbits, seen = [], set()
    for i in range(len(sigma)):
        if i not in seen:
            orbit = [i]
            while sigma[orbit[-1]] != i:
                orbit.append(sigma[orbit[-1]])
            seen.update(orbit)
            orbits.append(orbit)
    orbits = np.array(orbits, dtype=np.int64)
    return np.asarray(matrix, dtype=np.int64)[orbits[:, 0]], orbits


@st.composite
def equivariant_pencils(draw):
    """A matrix sum_g B_g (x) P^g, relabeled at random, and a free shift on it.

    Before relabeling, index a*n + h stands for sigma^h rep_a and entry
    ((a, h), (b, g)) is B_{g-h}[a, b], so the shift h -> h+1 is a free
    action of Z/n.  Returns the relabeled matrix and the shift on it.
    """
    n, k = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    size = n * k
    perm = draw(st.permutations(range(size)))  # new index i is old index perm[i]
    where = {old: new for new, old in enumerate(perm)}
    sigma = [where[perm[i] - perm[i] % n + (perm[i] + 1) % n] for i in range(size)]
    b = draw(st.lists(st.integers(-5, 5), min_size=n * k * k, max_size=n * k * k))
    old = [
        [b[((g % n - h % n) % n * k + h // n) * k + g // n] for g in range(size)]
        for h in range(size)
    ]
    return [[old[perm[i]][perm[j]] for j in range(size)] for i in range(size)], sigma


@settings(max_examples=100, deadline=None)
@given(equivariant_pencils())
def test_character_factorization_matches_trivial_action(pencil):
    matrix, sigma = pencil
    assert det_i_minus_rows(*orbit_rows(matrix, sigma)) == det_i_minus_pencil([matrix])


def test_character_dets_passes_hold_the_batch_bound(q3_cx, monkeypatch):
    """character_dets takes its primes in passes of at most _BATCH_ENTRIES
    block entries, or one prime's blocks, with the same residues as in one
    pass: q = 3's LB rows under the Singer action (13 blocks of 4 x 4) and
    under the trivial group (one 52 x 52 block)."""
    lb = chamber_successors(q3_cx)
    edge_types = [q3_cx.vertex_types[s] for s, _ in q3_cx.edges]
    types = [edge_types[e] for tri in q3_cx.chambers for e in tri]
    primes, _ = primes_past(2**200, 52, 13)  # the prime rule for both block sizes
    for images in (singer_action(q3_cx)[1], None):
        rows, orbits = type0_orbit_rows(lb, types, images)
        k, n = orbits.shape
        whole, mods = polyint.character_dets(rows, orbits, primes)
        stacks = []
        kernel = polyint._det_i_minus_v_mod

        def recording(stack, stack_mods):
            stacks.append(stack.size)
            return kernel(stack, stack_mods)

        monkeypatch.setattr(polyint, "_det_i_minus_v_mod", recording)
        monkeypatch.setattr(polyint, "_BATCH_ENTRIES", 2**9)
        passed, _ = polyint.character_dets(rows, orbits, primes)
        monkeypatch.undo()
        assert np.array_equal(passed, whole) and mods.ravel().tolist() == primes
        assert len(stacks) > 1 and max(stacks) <= max(2**9, n * k * k)


@pytest.mark.parametrize("case", ["orbit_shorter_than_n"])
def test_pencil_rejects_bad_actions(case):
    """The action check of the orbit rows a determinant is taken from: i ->
    i + 3 commutes with the swap of 0 and 1 in each type class, whose orbits
    on type 0 have lengths 2 and 1."""
    entries = {(i, (i + 3) % 9): 1 for i in range(9)}
    types = [0] * 3 + [1] * 3 + [2] * 3
    op = SparseOperator("test", len(types), entries)
    with pytest.raises(A2ZetaError, match="orbits"):
        type0_orbit_rows(successors_of(op), types, [1, 0, 2, 4, 3, 5, 7, 6, 8])


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


def test_primes_past_raises_when_the_primes_run_out():
    """The primes = 1 (mod 2^20) under the limit carry far fewer than 10000
    bits: that is an error naming n, the limit and the bits covered, never
    a product below the bound."""
    match = r"mod 1048576\) up to \d+ .* cover \d+ bits of the 10001"
    with pytest.raises(ResourceLimit, match=match):
        primes_past(2**10000, 1, 2**20)


def test_prime_shortfall_exits_2(tmp_path, monkeypatch, capsys):
    """A determinant whose primes run out is bad input to the CLI, exit 2."""
    monkeypatch.setattr(polyint, "_crt_primes", lambda limit, n: iter([101, 103]))
    path = tmp_path / "petersen.graph"
    path.write_text(serialize_graph(petersen_graph()))
    assert cli.main(["graph", "check", str(path)]) == 2
    assert "cover 13 bits" in capsys.readouterr().err


@pytest.mark.parametrize("bits, k", [(28000, 1), (1000, 33)])
def test_prime_supply_at_q32(bits, k):
    """At q = 32 (n = 1057) the rule, written in the block size k, covers a
    28,000-bit bound at k = 1 (PE's Hadamard bound) and a 1000-bit one at
    k = 33 (MB's blocks).  Written in N = n k it would stop at 21 bits and
    177 primes, about 3.4k bits."""
    primes, modulus = primes_past(2**bits, k, 1057)
    assert modulus > 2**bits
    for p in primes:
        assert p % 1057 == 1 and p > k and k * ((p - 1) // 2) ** 2 < 2**50
        assert 1057 * p * p < 2**63


def is_prime(x):
    return x > 1 and all(x % d for d in range(2, isqrt(x) + 1))


@pytest.mark.parametrize("k", [1, 2, 9, 72])
def test_power_sum_kernel_at_the_prime_rule_edge(k):
    """With the largest prime the rule admits for k x k blocks and residues
    all +-(p - 1)/2, products and their partial sums reach k ((p - 1)/2)^2,
    the bound; det(I - v M) mod p still matches Bareiss at k + 1 points (4
    at k = 72) and in its top coefficient, (-1)^k det M.  The next prime
    breaks the rule, so the bound is tight."""
    p = primes_past(1, k, 1)[0][0]
    h = (p - 1) // 2
    following = next(x for x in range(p + 2, 2 * p, 2) if is_prime(x))
    assert k * h * h < 2**50 <= k * ((following - 1) // 2) ** 2
    rnd = random.Random(k)
    for signs in ("all plus", "random"):
        m = [
            [h if signs == "all plus" or rnd.random() < 0.5 else -h for _ in range(k)]
            for _ in range(k)
        ]
        mods = np.array([[[p]]], dtype=np.int64)
        got = _det_i_minus_v_mod(np.array([m], dtype=np.int64) % p, mods)[0].tolist()
        assert all(0 <= c < p for c in got) and got[0] == 1
        for v in range(k + 1 if k < 72 else 4):
            i_minus_vm = [[(i == j) - v * x for j, x in enumerate(row)] for i, row in enumerate(m)]
            assert sum(c * v**e for e, c in enumerate(got)) % p == bareiss_det_int(i_minus_vm) % p
        assert got[k] == (-1) ** k * bareiss_det_int(m) % p


def test_power_sum_kernel_reads_each_row_mod_its_own_prime():
    """The -1/e tables are looked up per run of equal primes: interleaved
    primes give each row what it gives alone."""
    p, r = primes_past(2**60, 3, 1)[0][:2]
    stack = np.array(random.Random(3).choices(range(r), k=27), dtype=np.int64).reshape(3, 3, 3)
    mods = np.array([p, r, p], dtype=np.int64)[:, None, None]
    alone = [_det_i_minus_v_mod(stack[i : i + 1] % m, m[None]) for i, m in enumerate(mods)]
    assert np.array_equal(_det_i_minus_v_mod(stack % mods, mods), np.concatenate(alone))


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
    root tables; each result equals the one computed with empty tables and
    the one of every row.  Calls of one size read one prime table, the
    larger entries further.  An action on a pencil of d blocks acts alike
    on each block of its companion."""
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
    inputs = []
    for blocks, action in cases:
        base = len(blocks[0])
        sigma = [d * base + i for d in range(len(blocks)) for i in action or range(base)]
        inputs.append(orbit_rows(_block_companion(blocks), sigma))
    cold = []
    for rows, orbits in inputs:
        monkeypatch.setattr(polyint, "_PRIME_TABLES", {})
        polyint._root_of_unity.cache_clear()
        cold.append(det_i_minus_rows(rows, orbits))
    monkeypatch.setattr(polyint, "_PRIME_TABLES", {})
    for _ in range(2):
        for (rows, orbits), want in zip(inputs, cold):
            assert det_i_minus_rows(rows, orbits) == want
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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(0, 300), st.integers(-5, 5))
@example(3, 300, 5)
@example(2, 0, -5)
@example(1, 7, 0)
def test_one_minus_power_matches_repeated_multiplication(k, m, c):
    expected = power_by_multiplication(ONE - IntPoly.monomial(k, c), m)
    assert one_minus_power(k, m, c) == expected


@pytest.mark.parametrize("m", [-1, -1200])
def test_one_minus_power_rejects_negative_exponent(m):
    with pytest.raises(ValueError):
        one_minus_power(3, m)


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
    p = one_minus_power(3, c)
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
    p = one_minus_power(1, d)  # det(I - I u) for the 4x4 identity
    assert newton_power_sums(p, 6) == [d] * 6


def test_newton_power_sums_nilpotent():
    # single Jordan block with zero eigenvalue: det(I - X u) = 1
    assert newton_power_sums(ONE, 5) == [0] * 5


def test_rational_function_reduction_and_den_constraint():
    r = RationalFunction(IntPoly((1, -1)) * IntPoly((1, 2)), IntPoly((1, -1)))
    assert r.num == IntPoly((1, 2)) and r.den == ONE
    with pytest.raises(A2ZetaError):
        RationalFunction(ONE, IntPoly((2, 1)))


small_polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPoly)


@settings(max_examples=100, deadline=None)
@given(small_polys, st.integers(0, 40))
@example(IntPoly(), 3)
@example(IntPoly((2**70, -1)), 0)
def test_times_one_minus_power_matches_the_product(p, m):
    assert times_one_minus_power(p, m) == p * one_minus_power(1, m)


def test_times_one_minus_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        times_one_minus_power(ONE, -1)


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys, small_polys, st.sampled_from((1, -1)))
@example(ONE, ONE, IntPoly((1, -1)), 1)
@example(IntPoly((1, -4, 4)), IntPoly((1, -2)), ONE, 1)  # the gcd is all of den
@example(IntPoly((0, 3)), IntPoly((1, 1)), IntPoly((1, 2)), -1)  # num(0) = 0
def test_rational_function_matches_euclid_over_q(a, b, g, s):
    """num = a g and den = b g with den(0) = s = +-1 (b and g taken with
    constant term s and 1), so the reduced denominator keeps constant term
    +-1; num(0) != 0 takes the reversed gcd, num(0) = 0 the plain one."""
    b, g = IntPoly((s,) + b.coeffs[1:]), IntPoly((1,) + g.coeffs[1:])
    num, den = a * g, b * g
    z = RationalFunction(num, den)
    assert (list(z.num.coeffs), list(z.den.coeffs)) == reduced_by_euclid(num, den)


@settings(max_examples=100, deadline=None)
@given(small_polys, small_polys, small_polys, st.sampled_from((1, -1)))
def test_gcd_with_a_unit_leading_divisor_matches_euclid_over_q(a, b, g, s):
    """y = (b + s u^(deg b + 1)) (g + u^(deg g + 1)) has leading coefficient
    s = +-1, so the pseudo-remainder by it takes no power of it."""
    g = g + IntPoly.monomial(g.degree + 1)
    x, y = a * g, (b + IntPoly.monomial(b.degree + 1, s)) * g
    got = x.gcd(y)
    assert [Fraction(c, got.coeffs[-1]) for c in got.coeffs] == gcd_over_q(x, y)


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
    p = one_minus_power(1, 3) * IntPoly((1, 0, 2))
    parts = squarefree_decomposition(p)
    by_mult = {m: f for f, m in parts}
    assert sorted(by_mult) == [1, 3]
    assert by_mult[3].degree == 1 and by_mult[1].degree == 2


def reciprocal_product(xs, linear=()):
    """prod (s^2 - x s + 1) over xs, times s - r for each r in linear."""
    p = ONE
    for x in xs:
        p = p * IntPoly((1, -x, 1))
    for r in linear:
        p = p * IntPoly((-r, 1))
    return p


@settings(max_examples=60, deadline=None)
@given(
    xs=st.sets(st.sampled_from([-4, -3, -1, 0, 1, 3, 4]), min_size=1),
    linear=st.sets(st.sampled_from([1, -1])),
)
def test_unit_circle_test_agrees_with_numerical_roots(xs, linear):
    """On squarefree products the numerical roots are accurate, and the
    exact test agrees with them: s^2 - x s + 1 has its roots on the circle
    exactly when |x| < 2."""
    p = reciprocal_product(sorted(xs), sorted(linear))
    found = approx_roots(p)
    assert all(residual <= 1e-9 for _, residual in found)
    numerical = all(abs(abs(r) - 1.0) < 1e-6 for r, _ in found)
    assert roots_on_unit_circle(p) == numerical == all(abs(x) < 2 for x in xs)


@pytest.mark.parametrize(
    "p",
    [
        power_by_multiplication(IntPoly((1, 1)), 5),
        power_by_multiplication(IntPoly((1, -1)), 4),
        power_by_multiplication(IntPoly((1, 1)), 4) * IntPoly((1, 1, 1)),
    ],
    ids=["one_plus_s_to_5", "one_minus_s_to_4", "one_plus_s_to_4_times_s2_s_1"],
)
def test_repeated_roots_are_on_the_unit_circle(p):
    """Exact where the numerical roots of the same polynomial smear off the
    circle by more than 1e-4."""
    assert roots_on_unit_circle(p)
    assert max(abs(abs(r) - 1.0) for r, _ in approx_roots(p)) > 1e-4


@pytest.mark.parametrize(
    "p, on_circle",
    [
        (IntPoly((7,)), True),
        (IntPoly((1, -3, 1)), False),  # x = 3: real roots off the circle
        (IntPoly((-1, 3, -3, 1)) * IntPoly((1, -3, 1)), False),
        (IntPoly((1, 2)), False),  # not self-reciprocal
        (IntPoly((1, 0, 0, 1)), True),  # s^3 + 1 = (s + 1)(s^2 - s + 1)
        (IntPoly((1, -1, 1)) * IntPoly((1, -1, 1)) * IntPoly((1, 4, 1)), False),
        (IntPoly((1, -1, 1)) * IntPoly((1, -1, 1)) * IntPoly((1, 1, 1)), True),
        (IntPoly((-1, 0, 1)) * IntPoly((1, 0, 1)), True),
    ],
)
def test_roots_on_unit_circle_cases(p, on_circle):
    assert roots_on_unit_circle(p) == on_circle
    assert roots_on_unit_circle(p * 6) == on_circle


@settings(max_examples=100, deadline=None)
@given(
    roots=st.lists(st.integers(-9, 9), max_size=8),
    squares=st.lists(st.integers(1, 90), max_size=4),
    a=st.integers(-10, 10),
    scale=st.sampled_from([1, -3]),
)
@example(roots=[2, 2, 2], squares=[4], a=2, scale=1)
def test_real_roots_above_counts_the_roots(roots, squares, a, scale):
    """Roots r of the factors y - r and +-sqrt(d) of y^2 - d: those past a,
    compared in integers; one at y = a is not counted."""
    p = IntPoly((scale,))
    for r in roots:
        p = p * IntPoly((-r, 1))
    for d in squares:
        p = p * IntPoly((-d, 0, 1))
    # sqrt(d) > a and -sqrt(d) > a, without the square root
    want = sum(r > a for r in roots)
    want += sum((a < 0 or d > a * a) + (a < 0 and d < a * a) for d in squares)
    assert real_roots_above(p, a) == want


def test_series_inverse_and_integer_coeffs():
    s = Series([1, 1], 4)
    inv = s.inverse()
    assert inv.coeffs == [1, -1, 1, -1, 1]
    with pytest.raises(A2ZetaError):
        Series([Fraction(1, 2)], 0).integer_coeffs()
