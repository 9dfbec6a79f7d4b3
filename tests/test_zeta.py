import pytest

from a2zeta.errors import A2ZetaError
from a2zeta.operators import chamber_operator, edge_operator, identity_matrix, vertex_hecke
from a2zeta.planes import build_plane
from a2zeta.polyint import (
    IntPoly,
    RationalFunction,
    det_i_minus_pencil,
    series_log_derivative,
)
from a2zeta.presentations import complex_from_presentation, search_triangle_presentations
from a2zeta.zeta import (
    check_main_identity,
    check_series_identity,
    hecke_series,
    one_minus_cube,
    ramanujan_check,
    roots_via_cube,
    zeta_bundle,
    zeta_functions,
)

ONE = IntPoly.const(1)


@pytest.fixture(scope="module")
def bundle(bundled_cx):
    return zeta_bundle(bundled_cx)


def test_dvertex_closed_form(bundle):
    assert bundle.dvertex == one_minus_cube(1) * one_minus_cube(8) * one_minus_cube(64)


def test_degree_bookkeeping(bundle):
    lhs = 3 * bundle.chi + bundle.pe.degree + bundle.pe2.degree
    rhs = bundle.dvertex.degree + bundle.pb.degree
    assert lhs == rhs == 72


def test_constant_terms(bundle):
    for p in (bundle.dvertex, bundle.pb, bundle.pe, bundle.pe2):
        assert p[0] == 1


@pytest.fixture(scope="module")
def q4_cx():
    tp = search_triangle_presentations(build_plane(4), limit=1, seed=0)[0]
    return complex_from_presentation(tp)


def test_block_reduction_matches_direct_determinants(corpus, q4_cx):
    """PE = det(I - LE u) and PB = det(I + LB u) on the full operators."""
    for cx in corpus + [q4_cx]:
        b = zeta_bundle(cx)
        assert b.pe == det_i_minus_pencil([edge_operator(cx).to_dense()])
        lb = chamber_operator(cx).to_dense()
        assert b.pb == det_i_minus_pencil([[[-v for v in row] for row in lb]])


def test_main_identity_pass(bundled_cx, bundle):
    ok, residual = check_main_identity(bundled_cx, bundle)
    assert ok and residual.is_zero()


def test_main_identity_fails_under_perturbation(bundled_cx, bundle):
    lb = chamber_operator(bundled_cx)
    entries = dict(lb.entries)
    entries.pop(sorted(entries)[0])
    n = lb.dim
    minus_dense = [[0] * n for _ in range(n)]
    for (r, c), v in entries.items():
        minus_dense[r][c] = -v
    pb = det_i_minus_pencil([minus_dense])
    lhs = one_minus_cube() ** bundle.chi * bundle.pe * bundle.pe2
    assert not (lhs - bundle.dvertex * pb).is_zero()


def test_pb_is_polynomial_in_u_cubed(bundle):
    assert all(c == 0 for i, c in enumerate(bundle.pb.coeffs) if i % 3)
    assert bundle.pb.degree == 63


def test_trivial_factor_divisibility(corpus):
    for cx in corpus:
        b = zeta_bundle(cx)
        q = cx.q
        product = one_minus_cube(1) * one_minus_cube(q**3) * one_minus_cube(q**6)
        assert product.divides(b.dvertex)


def test_hecke_series_low_degrees(bundled_cx):
    table = hecke_series(bundled_cx, 9)
    a1, a2 = vertex_hecke(bundled_cx)
    assert table.aggregate(0) == identity_matrix(3)
    assert table.aggregate(1) == a1.to_dense()
    for k in range(10):
        assert all(v >= 0 for row in table.aggregate(k) for v in row)


def test_hecke_operators_commute(bundled_cx):
    from a2zeta.operators import mat_mul

    a1, a2 = (op.to_dense() for op in vertex_hecke(bundled_cx))
    assert mat_mul(a1, a2) == mat_mul(a2, a1)


def test_series_identity(bundled_cx, bundle):
    report = check_series_identity(bundled_cx, 12, bundle)
    assert report.passed
    assert report.lhs.coeffs[0] == 0 and report.rhs.coeffs[0] == 0
    assert all(c >= 0 for c in report.type1_traces)
    assert report.type1_traces[0] == 0


def test_series_identity_passes_on_corpus(corpus):
    for cx in corpus:
        assert check_series_identity(cx, 9).passed


def test_zeta_functions_identities(bundled_cx, bundle):
    zf = zeta_functions(bundled_cx, bundle)
    assert zf["Z"] == RationalFunction(ONE, bundle.pe * bundle.pe2)
    assert zf["Z1"] == RationalFunction(ONE, bundle.pe)
    # Zminus * Z2(-u) == Z1(u^2), the closed-form comparison
    assert zf["Zminus"] * zf["Z2"].substitute_neg() == zf["Z1"].substitute_power(2)
    # (1-u^3)^chi / Dvertex == Z1(u) * Zminus(u)
    lhs = RationalFunction(one_minus_cube() ** bundle.chi, bundle.dvertex)
    assert lhs == zf["Z1"] * zf["Zminus"]


def test_z1_log_derivative_counts(bundled_cx, bundle):
    zf = zeta_functions(bundled_cx, bundle)
    series = series_log_derivative(zf["Z1"], 6)
    le = edge_operator(bundled_cx)
    for n in range(1, 7):
        assert series.coeffs[n] == le.trace_power(n)


def test_zminus_log_derivative_nonnegative(bundled_cx, bundle):
    zf = zeta_functions(bundled_cx, bundle)
    coeffs = series_log_derivative(zf["Zminus"], 18).integer_coeffs()
    assert all(c >= 0 for c in coeffs)


def test_ramanujan_verdict(bundled_cx, bundle):
    report = ramanujan_check(bundled_cx, 1e-6, bundle)
    assert report.verdict == "RAMANUJAN"
    trivial = [r for r in report.vertex_roots if r.label == "trivial"]
    assert len(trivial) == 9
    assert not report.surplus_trivial
    assert all(r.label != "unclassified" for r in report.pe_roots)


def test_ramanujan_tol_validation(bundled_cx):
    with pytest.raises(A2ZetaError):
        ramanujan_check(bundled_cx, tol=0.5)


def test_roots_of_one_minus_u_cubed():
    roots = roots_via_cube(one_minus_cube(), 1e-9)
    assert len(roots) == 3
    assert all(abs(abs(r) - 1.0) < 1e-12 for r in roots)


def test_trivial_zero_matcher_on_cube_factor_alone():
    """1 - u^3 alone: every root matches a trivial zero, nontrivial empty."""
    import numpy as np

    from a2zeta.zeta import _match_and_remove

    roots = roots_via_cube(one_minus_cube(), 1e-9)
    trivial = [
        complex(m * np.exp(2j * np.pi * k / 3))
        for m in (1.0, 0.5, 0.25)
        for k in range(3)
    ]
    matched, nontrivial, surplus = _match_and_remove(roots, trivial, 1e-6)
    assert nontrivial == [] and surplus == []
    assert sum(1 for m in matched if m is not None) == 3


def test_hecke_aggregates_nonnegative_q3(q3_cx):
    table = hecke_series(q3_cx, 6)
    for k in range(7):
        assert all(v >= 0 for row in table.aggregate(k) for v in row)


def test_z2_pole_exponents_in_3z(bundle):
    support = {i for i, c in enumerate(bundle.pb.coeffs) if c}
    assert all(i % 3 == 0 for i in support)


def test_disconnected_complex_refused(bundled_cx):
    """Zeta computations reject inputs that fail the connectivity check."""
    from a2zeta.complexes import TypedComplex, validate
    from a2zeta.errors import ValidationFailure

    cx = bundled_cx
    v, e = cx.n_vertices, cx.n_edges
    double = TypedComplex(
        cx.q,
        cx.vertex_types + cx.vertex_types,
        list(cx.edges) + [(s + v, d + v) for s, d in cx.edges],
        list(cx.chambers) + [(a + e, b + e, c + e) for a, b, c in cx.chambers],
    )
    report = validate(double)
    assert not report.passed
    assert {c.name for c in report if not c.passed} == {"connected"}
    with pytest.raises(ValidationFailure):
        zeta_bundle(double)
