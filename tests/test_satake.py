from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2zeta.polyint import Series
from a2zeta.satake import (
    ONE,
    ZERO,
    SymPoly,
    sigma,
    transform_Tk,
    transform_Tk0,
    verify_recursion_42,
    verify_sigma3_identity,
)

from oracles import (
    is_symmetric,
    transform_a1,
    transform_a2,
    transform_Tk0_fraction,
    transform_Tk_fraction,
)


def int_coeffs(p):
    return all(type(v) is int for v in p.terms.values())


def test_sigma_edge_cases():
    assert sigma(1, 2).is_zero()  # empty range
    assert sigma(3, 3) == ONE  # z1 z2 z3 = 1
    assert sigma(2, 2) == (
        SymPoly.monomial(1, 1, 0)
        + SymPoly.monomial(0, 1, 1)
        + SymPoly.monomial(1, 0, 1)
    )


def test_transform_values_match_displayed_forms():
    for q in (2, 3, 5):
        assert transform_a1(q) == q * sigma(1, 1)
        assert transform_a2(q) == q * sigma(2, 2)
        assert transform_Tk(q, 1) == transform_a1(q)
        assert transform_Tk0(q, 1) == transform_a1(q)


def test_pencil_factorization():
    # 1 - psi(A1) u + q psi(A2) u^2 - q^3 u^3 == prod_i (1 - q z_i u)
    for q in (2, 3):
        lhs = Series(
            [
                ONE,
                -1 * transform_a1(q),
                q * transform_a2(q),
                SymPoly.scalar(-(q**3)),
            ],
            3,
        )
        rhs = Series([ONE], 3)
        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            rhs = rhs * Series([ONE, -q * SymPoly.monomial(*e)], 3)
        assert all((a - b).is_zero() for a, b in zip(lhs.coeffs, rhs.coeffs))


def test_sympoly_series_inverse():
    one = Series([ONE], 7)
    s = Series([ONE, -2 * sigma(1, 1), 4 * sigma(2, 2), SymPoly.scalar(-8)], 7)
    assert (s * s.inverse()).coeffs == [ONE] + [ZERO] * 7
    # a unit constant term that is not a scalar: c z^k inverts to z^-k / c
    unit = SymPoly.monomial(2, 0, 1, Fraction(3, 5))
    t = Series([unit, sigma(2, 1), sigma(3, 3)], 7)
    assert t * t.inverse() == one
    with pytest.raises(ZeroDivisionError):
        Series([ZERO, ONE], 7).inverse()
    with pytest.raises(ZeroDivisionError):
        Series([sigma(1, 1), ONE], 7).inverse()


def test_all_outputs_are_symmetric():
    for k in range(1, 8):
        for kind in (1, 2, 3):
            assert is_symmetric(sigma(k, kind))
    for q in (2, 3):
        for k in range(1, 5):
            assert is_symmetric(transform_Tk(q, k))
            assert is_symmetric(transform_Tk0(q, k))


def test_sigma3_identity():
    ok, residuals = verify_sigma3_identity(8)
    assert ok
    assert all(r.is_zero() for r in residuals[:3])  # both sides 0 below u^3


def test_sigma3_base_case():
    # degree-3 term: sigma_{3,3} equals the inner series constant term
    assert sigma(3, 3) == ONE


@pytest.mark.parametrize("q", [2, 3, 5])
def test_recursion_42(q):
    ok, residuals = verify_recursion_42(q, 6)
    assert ok
    assert all(r.is_zero() for r in residuals)


def test_recursion_42_prefix_property():
    ok4, _ = verify_recursion_42(2, 4)
    ok6, _ = verify_recursion_42(2, 6)
    assert ok4 and ok6


def test_degree_one_coefficient():
    for q in (2, 5):
        lhs = q * transform_Tk0(q, 1) - (q - 1) * transform_Tk(q, 1)
        assert lhs == q * sigma(1, 1)


def test_sympoly_arithmetic():
    a = SymPoly.monomial(2, 1, 0, Fraction(1, 2))
    b = SymPoly.monomial(0, 1, 2)
    assert (a + a) == SymPoly.monomial(2, 1, 0)
    assert (a - a).is_zero()
    prod = SymPoly.monomial(2, 1, 0) * b
    assert prod == SymPoly.monomial(2, 2, 2) == SymPoly.scalar(1) * SymPoly.monomial(0, 0, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.integers(1, 9))
def test_integer_transforms_match_the_fraction_formulas(q, k):
    tk, tk0 = transform_Tk(q, k), transform_Tk0(q, k)
    assert tk == transform_Tk_fraction(q, k)
    assert tk0 == transform_Tk0_fraction(q, k)
    assert int_coeffs(tk) and int_coeffs(tk0)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_recursion_42_runs_on_python_ints(q, monkeypatch):
    """Every coefficient of every series the check forms, residuals included,
    is an int: no Fraction arises anywhere on the way."""
    made = []
    init = Series.__init__

    def recording_init(self, coeffs, order):
        init(self, coeffs, order)
        made.append(self)

    monkeypatch.setattr(Series, "__init__", recording_init)
    ok, residuals = verify_recursion_42(q, 6)
    assert ok and made
    assert all(int_coeffs(c) for s in made for c in s.coeffs)
    assert all(int_coeffs(r) for r in residuals)


def test_cached_sigma_is_unchanged_by_the_checks():
    """sigma's values are shared across calls; the checks that read them
    leave every one equal to a fresh computation, and the same object."""
    keys = [(k, kind) for k in range(1, 10) for kind in (1, 2, 3)]
    before = {key: sigma(*key) for key in keys}
    fresh = {key: SymPoly(dict(v.terms)) for key, v in before.items()}
    for q in (2, 3, 5):
        assert verify_recursion_42(q, 9)[0]
    assert verify_sigma3_identity(9)[0]
    for key in keys:
        assert sigma(*key) is before[key]
        assert sigma(*key) == fresh[key] == sigma.__wrapped__(*key)


def test_unit_inverse_is_an_int_when_exact():
    assert (1 / SymPoly.monomial(1, 0, 0, -1)).terms == {(-1, 0): -1}
    assert type((1 / SymPoly.scalar(Fraction(1, 2))).terms[(0, 0)]) is int
    assert (1 / SymPoly.scalar(2)).terms == {(0, 0): Fraction(1, 2)}
