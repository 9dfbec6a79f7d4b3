"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time budget is pinned here.
"""

import time

import numpy as np
import pytest

from a2zeta.building import verify_geodesic_criterion, verify_tamagawa
from a2zeta.complexes import validate
from a2zeta.enumeration import (
    count_galleries,
    count_type1_geodesics,
    enumerate_galleries,
    gallery_boundaries,
)
from a2zeta.graphs import (
    complete_graph,
    count_closed_walks,
    edge_adjacency,
    ihara_zeta,
    petersen_graph,
    random_irregular_graph,
    random_regular_graph,
)
from a2zeta.operators import chamber_operator, edge_operator
from a2zeta.polyint import one_minus_power
from a2zeta.satake import sigma, verify_recursion_42, verify_sigma3_identity
from a2zeta.zeta import (
    check_series_identity,
    ramanujan_check,
    zeta_bundle,
    zeta_functions,
)
from oracles import (
    approx_roots,
    divides,
    newton_power_sums,
    product_identity_residual,
    series_log_derivative,
    squarefree_decomposition,
    transform_a1,
    transform_a2,
)


def report(number, name, passed=True):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed


def test_criterion_01_main_identity(bundled_cx, q3_cx):
    for cx in (bundled_cx, q3_cx):
        start = time.monotonic()
        b = zeta_bundle(cx)
        elapsed = time.monotonic() - start
        assert b.proof and product_identity_residual(b).is_zero()
        assert elapsed < 60.0
    report(1, "main determinant identity (q=2 bundled, q=3 searched)")


def test_criterion_02_graph_baseline():
    start = time.monotonic()
    graphs = [complete_graph(4), petersen_graph()]
    graphs += [random_regular_graph(8, 3, seed=s) for s in range(10)]
    for g in graphs:
        assert ihara_zeta(g)[2]  # the Ihara-Bass identity holds exactly
    for g in (complete_graph(4), petersen_graph()):
        ae = edge_adjacency(g)
        for n in range(1, 9):
            assert count_closed_walks(g, n) == ae.trace_power(n)
    for s in range(10):
        assert ihara_zeta(random_irregular_graph(9, seed=s))[2]
    assert time.monotonic() - start < 30.0
    report(2, "graph zeta baseline, exact on 22 graphs")


def test_criterion_03_tamagawa_recursion():
    start = time.monotonic()
    for q in (2, 3):
        assert verify_tamagawa(q, 4, 5)
    assert time.monotonic() - start < 120.0
    report(3, "Hecke inversion recursion, q in {2,3}, degree 4, radius 5")


def test_criterion_04_spherical_recursion():
    start = time.monotonic()
    for q in (2, 3, 5):
        ok, _ = verify_recursion_42(q, 6)
        assert ok
    ok, _ = verify_sigma3_identity(8)
    assert ok
    for q in (2, 3, 5):
        assert transform_a1(q) == q * sigma(1, 1)
        assert transform_a2(q) == q * sigma(2, 2)
    assert time.monotonic() - start < 10.0
    report(4, "spherical-transform recursion, q in {2,3,5}")


def test_criterion_05_gallery_trace_theorem(bundled_cx):
    lb = chamber_operator(bundled_cx)
    for length in (3, 6, 9):
        assert count_galleries(bundled_cx, length) == lb.trace_power(length)
    for m in (1, 2, 4, 5, 7, 8):
        assert lb.trace_power(m) == 0
    pb = zeta_bundle(bundled_cx).pb
    assert all(c == 0 for i, c in enumerate(pb.coeffs) if i % 3)
    report(5, "gallery counts equal chamber-operator traces")


def test_criterion_06_edge_zeta(bundled_cx):
    le = edge_operator(bundled_cx)
    traces = [le.trace_power(n) for n in range(1, 11)]
    for n in range(1, 9):
        assert count_type1_geodesics(bundled_cx, n) == traces[n - 1]
    b = zeta_bundle(bundled_cx)
    assert newton_power_sums(b.pe, 10) == traces
    z1 = zeta_functions(bundled_cx, b)["Z1"]
    series = series_log_derivative(z1, 10)
    assert [series.coeffs[n] for n in range(1, 11)] == traces
    report(6, "edge zeta traces: DFS, Newton identities, log derivative")


def test_criterion_07_boundary_structure(bundled_cx):
    for length, cycle_count in ((6, 2), (9, 1)):
        galleries = enumerate_galleries(bundled_cx, length)
        assert galleries
        for cycles in gallery_boundaries(bundled_cx, galleries):
            assert len(cycles) == cycle_count
            want = length // 2 if length % 2 == 0 else length
            assert all(len(c) == want for c in cycles)
    report(7, "gallery boundaries: exhaustive at lengths 6 and 9")


def test_criterion_08_trivial_factor_divisibility(corpus):
    for cx in corpus:
        assert validate(cx).passed
        q = cx.q
        b = zeta_bundle(cx)
        product = (
            one_minus_power(3, 1) * one_minus_power(3, 1, q**3) * one_minus_power(3, 1, q**6)
        )
        assert divides(product, b.dvertex)
    report(8, "vertex determinant divisible by its trivial factors")


def test_criterion_09_series_identity(bundled_cx):
    rep = check_series_identity(bundled_cx, 12)
    assert rep.passed
    assert all(isinstance(c, int) and c >= 0 for c in rep.type1_traces)
    report(9, "log-derivative series identity to order 12")


def test_criterion_10_group_zeta_identities(bundled_cx):
    b = zeta_bundle(bundled_cx)
    zf = zeta_functions(bundled_cx, b)
    assert zf["Zminus"] * zf["Z2"].substitute_neg() == zf["Z1"].substitute_power(2)
    from a2zeta.polyint import RationalFunction

    lhs = RationalFunction(one_minus_power(3, b.chi), b.dvertex)
    assert lhs == zf["Z1"] * zf["Zminus"]
    coeffs = series_log_derivative(zf["Zminus"], 18).integer_coeffs()
    assert all(c >= 0 for c in coeffs)
    report(10, "negative-type zeta identities and nonnegative counts")


def test_criterion_11_geodesic_criterion():
    start = time.monotonic()
    for n in (1, 2, 3):
        assert verify_geodesic_criterion(2, n, 4)
    assert time.monotonic() - start < 60.0
    report(11, "building geodesic criterion, q=2, n <= 3")


def test_criterion_12_spectral_classification(bundled_cx):
    b = zeta_bundle(bundled_cx)
    rep = ramanujan_check(bundled_cx, b)
    assert rep.verdict == "RAMANUJAN"
    assert rep.dvertex == [("trivial", 9)]
    # the nine trivial zeros are the cube roots of 1, 1/8 and 1/64
    targets = [m * np.exp(2j * np.pi * k / 3) for m in (1.0, 0.5, 0.25) for k in range(3)]
    for r, _ in approx_roots(b.dvertex):
        assert min(abs(r - t) for t in targets) < 1e-9
    assert rep.uncertified == {}
    assert rep.pe == [("|u|=q^-2", 3), ("|u|=q^-1/2", 18)]
    moduli = sorted(
        abs(r)
        for factor, mult in squarefree_decomposition(b.pe)
        for r, _ in approx_roots(factor) * mult
    )
    assert moduli == pytest.approx([2**-2] * 3 + [2**-0.5] * 18, abs=1e-6)
    report(12, "spectral classification: trivial zeros and RH criterion")
