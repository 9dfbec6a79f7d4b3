import dataclasses
import hashlib
import json
import random
from collections import Counter
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2zeta import cli, complexes, planes, polyint, presentations, zeta
from a2zeta.complexes import TypedComplex, validate
from a2zeta.errors import A2ZetaError, IdentityFailure, ResourceLimit
from a2zeta.fileio import parse_complex, serialize_complex
from a2zeta.gf import GF
from a2zeta.operators import (
    SparseOperator,
    chamber_operator,
    chamber_successors,
    edge_operator,
    edge_successors,
    vertex_hecke,
)
from a2zeta.planes import _primitive_cubic, build_plane
from a2zeta.polyint import (
    IntPoly,
    RationalFunction,
    det_i_minus_pencil,
    det_i_minus_rows,
    hadamard_bound,
    one_minus_power,
    primes_past,
)
from a2zeta.presentations import (
    complex_from_presentation,
    search_triangle_presentations,
    singer_action,
)
from a2zeta.zeta import (
    character_relations,
    check_series_identity,
    hecke_series,
    ramanujan_check,
    type0_orbit_rows,
    zeta_bundle,
    zeta_functions,
)
from conftest import relabeled
from oracles import (
    approx_roots,
    divides,
    product_identity_residual,
    series_log_derivative,
    squarefree_decomposition,
    successors_of,
)

ONE = IntPoly.const(1)


def one_minus_cube(c=1):
    return one_minus_power(3, 1, c)


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


# sha256 of the coefficient strings of the exact polynomials of the seed-0
# q=5 search-built complex (PB has degree 558).
Q5_DIGESTS = {
    "dvertex": "3630a73e61c1edf49aaf48571d8cb8132b239244d5c9db94a3843d25c58567c2",
    "pe": "fe6c2d1b5eb10e1d74d6cd91d49ba0f5a68593d4e6e1f777679c1a6136c6dd11",
    "pb": "f31881389e5b1e82df6a72ceb97b238eef9123f621acaa135fa07ce6aa327b50",
}


# the same for the seed-0 q=7 complex (PB has degree 1368), recorded with the
# dense product of the three operator blocks, a route independent of the rows
Q7_DIGESTS = {
    "dvertex": "fecf75cc48db5f0ae9deda7665dce75396fc6a769c99fc42f63f067de90b3904",
    "pe": "83513ebd694ac6f88a0597f8134661ab3bea0049774cb8a5457d5f636efe2385",
    "pb": "f2a28b8a640f2e6911ba4c59fd1ccf1047143ce6e4e372b901a0993f90793bc0",
}


def test_q5_polynomials_pinned():
    tp = search_triangle_presentations(build_plane(5), limit=1, seed=0)[0]
    b = zeta_bundle(complex_from_presentation(tp))
    for name, want in Q5_DIGESTS.items():
        text = " ".join(map(str, getattr(b, name).coeffs))
        assert hashlib.sha256(text.encode()).hexdigest() == want, name


def test_q7_polynomials_pinned(q7_cx):
    b = zeta_bundle(q7_cx)
    for name, want in Q7_DIGESTS.items():
        assert poly_digest(getattr(b, name)) == want, name


def test_block_reduction_matches_direct_determinants(corpus, q4_cx):
    """PE = det(I - LE u) and PB = det(I + LB u) on the full operators."""
    for cx in corpus + [q4_cx]:
        b = zeta_bundle(cx)
        assert b.pe == det_i_minus_pencil([edge_operator(cx).to_dense()])
        assert b.pb == det_i_minus_pencil([-chamber_operator(cx).to_dense()])


@pytest.fixture(scope="module")
def singer_bundles(bundled_cx, q3_cx, q4_cx):
    return [(cx, zeta_bundle(cx)) for cx in (bundled_cx, q3_cx, q4_cx)]


@settings(max_examples=25, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_polynomials_invariant_under_relabeling(singer_bundles, rnd):
    # the bundle's equality compares Dvertex and PE (and q, chi), which fix
    # PE2 and PB;
    # a relabeled complex has no Singer action, so its PE and PB take every
    # type-0 row (n = 1) where the search-built one takes one row per orbit
    for cx, want in singer_bundles:
        assert zeta_bundle(relabeled(cx, rnd)) == want


def source_types(cx):
    """The source types of the edges and of the directed chambers 3*C + slot."""
    edge_types = [cx.vertex_types[s] for s, _ in cx.edges]
    return edge_types, [edge_types[e] for tri in cx.chambers for e in tri]


def test_type0_orbit_rows_are_rows_of_the_dense_cube(corpus, q4_cx):
    """Each row is the row of L^3 at its orbit's representative, restricted
    to type 0, and the orbits partition the type-0 indices into equal parts."""
    for cx in corpus + [q4_cx, relabeled(q4_cx, random.Random(1))]:
        edge_types, chamber_types = source_types(cx)
        images = singer_action(cx) or (None, None)
        for op, successors, types, sigma in (
            (edge_operator(cx), edge_successors(cx), edge_types, images[0]),
            (chamber_operator(cx), chamber_successors(cx), chamber_types, images[1]),
        ):
            rows, orbits = type0_orbit_rows(successors, types, sigma)
            zero = [i for i, t in enumerate(types) if t == 0]
            dense = op.to_dense()  # row sums at most q^2: L^3 is at most q^6
            cube = (dense @ dense @ dense)[np.ix_(zero, zero)]
            assert sorted(orbits.ravel().tolist()) == list(range(len(zero)))
            assert orbits.shape[1] == (1 if sigma is None else cx.q**2 + cx.q + 1)
            assert rows.tolist() == cube[orbits[:, 0]].tolist()


def test_operators_shift_types_and_commute_with_the_singer_action(
    corpus, q4_cx, q5_cx, q7_cx
):
    """What type0_orbit_rows takes on trust, checked on the operators: the
    type classes have equal sizes, LE shifts types by 1 and LB by 2, and
    each Singer image list is a type-preserving permutation P with
    P L P^T == L on the dense operator."""
    cxs = corpus + [q4_cx, q5_cx, q7_cx]
    for cx in cxs + [relabeled(q4_cx, random.Random(1))]:
        edge_types, chamber_types = source_types(cx)
        action = singer_action(cx)
        assert (action is not None) == (cx in cxs)
        for i, (op, types, shift) in enumerate(
            ((edge_operator(cx), edge_types, 1), (chamber_operator(cx), chamber_types, 2))
        ):
            assert len(set(Counter(types)[t] for t in range(3))) == 1
            assert all(types[c] == (types[r] + shift) % 3 for r, c in op.entries)
            if action is None:
                continue
            images = action[i]
            assert sorted(images) == list(range(op.dim))
            assert all(types[s] == t for s, t in zip(images, types))
            # (P L P^T)[images[i], images[j]] = L[i, j], P[images[i], i] = 1
            dense = op.to_dense()
            assert np.array_equal(dense[np.ix_(images, images)], dense)


@pytest.mark.parametrize(
    "types, entries",
    [
        # the entry (0, 0) of Op^3 is 2^63
        ((0, 1, 2), {(0, 1): 2**21, (1, 2): 2**21, (2, 0): 2**21}),
    ],
    ids=["overflowing_multiplicities"],
)
def test_type0_orbit_rows_rejects_bad_operators(types, entries):
    op = SparseOperator("test", len(types), entries)
    with pytest.raises(A2ZetaError):
        type0_orbit_rows(successors_of(op), types, None)


def test_type0_orbit_rows_hold_the_int64_maximum():
    op = SparseOperator("test", 3, {(0, 1): 2**63 - 1, (1, 2): 1, (2, 0): 1})
    rows, orbits = type0_orbit_rows(successors_of(op), (0, 1, 2), None)
    assert rows.tolist() == [[2**63 - 1]] and orbits.tolist() == [[0]]


def test_main_identity_pass(bundle):
    assert bundle.proof and product_identity_residual(bundle).is_zero()


def test_main_identity_fails_under_perturbation(bundled_cx, bundle):
    lb = chamber_operator(bundled_cx)
    entries = dict(lb.entries)
    entries.pop(sorted(entries)[0])
    n = lb.dim
    minus_dense = [[0] * n for _ in range(n)]
    for (r, c), v in entries.items():
        minus_dense[r][c] = -v
    pb = det_i_minus_pencil([minus_dense])
    lhs = one_minus_power(3, bundle.chi) * bundle.pe * bundle.pe2
    assert not (lhs - bundle.dvertex * pb).is_zero()


def test_pb_is_polynomial_in_u_cubed(bundle):
    assert all(c == 0 for i, c in enumerate(bundle.pb.coeffs) if i % 3)
    assert bundle.pb.degree == 63


def test_trivial_factor_divisibility(corpus):
    for cx in corpus:
        b = zeta_bundle(cx)
        q = cx.q
        product = one_minus_cube(1) * one_minus_cube(q**3) * one_minus_cube(q**6)
        assert divides(product, b.dvertex)


def test_hecke_series_low_degrees(bundled_cx):
    table = hecke_series(bundled_cx, 9)
    a1, a2 = vertex_hecke(bundled_cx)
    assert np.array_equal(table[0], np.identity(3))
    assert np.array_equal(table[1], a1.to_dense())
    for k in range(10):
        assert all(v >= 0 for row in table[k] for v in row)


def test_hecke_operators_commute(bundled_cx):
    a1, a2 = (op.to_dense() for op in vertex_hecke(bundled_cx))
    assert np.array_equal(a1 @ a2, a2 @ a1)


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
    lhs = RationalFunction(one_minus_power(3, bundle.chi), bundle.dvertex)
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
    report = ramanujan_check(bundled_cx, bundle)
    assert report.verdict == "RAMANUJAN"
    assert report.dvertex == [("trivial", 9)]
    assert report.uncertified == {}
    assert sum(c for _, c in report.pb) == bundle.pb.degree
    assert sum(c for _, c in report.pe) == bundle.pe.degree


def test_classes_agree_with_numerical_roots(bundled_cx, bundle):
    """At q = 2 the exact classes are those of the double-precision roots
    of each polynomial, each root put in the class of its modulus."""
    report = ramanujan_check(bundled_cx, bundle)
    moduli = {"|u|=1": 1.0, "|u|=q^-1": 0.5, "|u|=q^-1/2": 2**-0.5}
    moduli.update({"|u|=q^-1/4": 2**-0.25, "|u|=q^-2": 0.25})
    for poly, classes in ((bundle.pb, report.pb), (bundle.pe, report.pe)):
        got = Counter()
        for factor, mult in squarefree_decomposition(poly):
            for r, residual in approx_roots(factor):
                assert residual <= 1e-9
                near = [label for label, m in moduli.items() if abs(abs(r) - m) < 1e-6]
                assert len(near) == 1
                got[near[0]] += mult
        assert got == dict(classes)


def test_roots_of_one_minus_u_cubed(bundle):
    """Dvertex = 1 - u^3 alone: its three zeros are the trivial ones at
    |u| = 1, and the two missing factors decide the verdict."""
    report = ramanujan_check(None, dataclasses.replace(bundle, dvertex=one_minus_cube()))
    assert report.verdict == "TRIVIAL-ZEROS-MISSING"
    assert report.dvertex == [("trivial", 3)]


def test_trivial_zero_matcher_on_cube_factor_alone(bundle):
    """Every trivial factor of Dvertex goes exactly once: a second 1 - u^3
    stays in the remainder, as three zeros off |u| = 1/q."""
    dvertex = bundle.dvertex * one_minus_cube()
    report = ramanujan_check(None, dataclasses.replace(bundle, dvertex=dvertex))
    assert report.verdict == "NOT-RAMANUJAN"
    assert report.dvertex == [("trivial", 9), ("nontrivial", 3)]


def test_hecke_aggregates_nonnegative_q3(q3_cx):
    table = hecke_series(q3_cx, 6)
    for k in range(7):
        assert all(v >= 0 for row in table[k] for v in row)


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


# ----------------------------------------------------------------------
# the Singer action and the character factorization

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def poly_digest(p):
    return hashlib.sha256(" ".join(map(str, p.coeffs)).encode()).hexdigest()


@pytest.fixture(scope="module")
def digest_texts(bundled_cx):
    """The .cx3 text of the 9 complexes of perfbench/digests.json."""
    cxs = [bundled_cx]
    for q, limit in ((3, 2), (4, 6)):
        found = search_triangle_presentations(build_plane(q), limit, 0)
        cxs += [complex_from_presentation(tp) for tp in found]
    return [serialize_complex(cx) for cx in cxs]


@pytest.fixture(scope="module")
def q7_cx():
    tp = search_triangle_presentations(build_plane(7), limit=1, seed=0)[0]
    return complex_from_presentation(tp)


def test_bundles_match_the_recorded_digests(digest_texts):
    table = json.loads(DIGESTS.read_text())
    assert len(table) == len(digest_texts) == 9
    for text in digest_texts:
        want = table[hashlib.sha256(text.encode()).hexdigest()[:16]]
        b = zeta_bundle(parse_complex(text))
        for name in ("dvertex", "pe", "pb"):
            assert poly_digest(getattr(b, name)) == want[name], (want["input"], name)


# (c0, c1, c2) of the primitive cubic x^3 + c2 x^2 + c1 x + c0 that fixes
# the Singer cycle, and so every search-built presentation, at every prime
# power q <= 64, recorded by stepping 1 through the powers of x
PRIMITIVE_CUBICS = {
    2: (1, 1, 0),
    3: (1, 2, 0),
    4: (2, 1, 1),
    5: (2, 3, 0),
    7: (2, 3, 0),
    8: (2, 1, 0),
    9: (4, 1, 0),
    11: (4, 1, 0),
    13: (6, 1, 0),
    16: (9, 1, 0),
    17: (3, 1, 0),
    19: (4, 1, 0),
    23: (3, 1, 0),
    25: (6, 1, 0),
    27: (9, 2, 0),
    29: (11, 1, 0),
    31: (14, 1, 0),
    32: (6, 1, 0),
    37: (13, 1, 0),
    41: (6, 1, 0),
    43: (14, 1, 0),
    47: (4, 1, 0),
    49: (15, 1, 0),
    53: (5, 1, 0),
    59: (3, 1, 0),
    61: (17, 1, 0),
    64: (34, 1, 0),
}


def test_primitive_cubic_pinned():
    primes = [p for p in range(2, 65) if all(p % d for d in range(2, p))]
    prime_powers = [q for q in range(2, 65) if sum(q % p == 0 for p in primes) == 1]
    assert sorted(PRIMITIVE_CUBICS) == prime_powers
    for q, want in PRIMITIVE_CUBICS.items():
        assert _primitive_cubic(GF(q)) == want, q


def test_singer_action_found_on_search_built_complexes(
    digest_texts, q7_cx, monkeypatch
):
    q5_cx = complex_from_presentation(
        search_triangle_presentations(build_plane(5), limit=1, seed=0)[0]
    )
    cxs = [parse_complex(text) for text in digest_texts] + [q5_cx, q7_cx]
    actions = [singer_action(cx) for cx in cxs]
    for cx, action in zip(cxs, actions):
        assert action is not None
        edge_images, chamber_images = action
        assert sorted(edge_images) == list(range(cx.n_edges))
        assert sorted(chamber_images) == list(range(3 * cx.n_chambers))
        # a permutation p commutes with L iff L[p[i], p[j]] == L[i, j]
        for op, p in (
            (edge_operator(cx), edge_images),
            (chamber_operator(cx), chamber_images),
        ):
            dense = op.to_dense()
            assert np.array_equal(dense[np.ix_(p, p)], dense)

    def no_plane(q):
        raise AssertionError("singer_action built the plane")

    # by module attribute, or by a name imported into presentations
    monkeypatch.setattr(planes, "build_plane", no_plane)
    monkeypatch.setattr(presentations, "build_plane", no_plane, raising=False)
    assert [singer_action(cx) for cx in cxs] == actions


def test_singer_action_is_none_without_the_symmetry(q3_cx):
    rnd = random.Random(0)
    assert singer_action(relabeled(q3_cx, rnd)) is None
    # edge ids permuted within each slot: endpoints kept, chambers moved
    n = q3_cx.n_edges // 3
    pe = [slot * n + x for slot in range(3) for x in rnd.sample(range(n), n)]
    chambers = [tuple(pe[e] for e in tri) for tri in q3_cx.chambers]
    shuffled = TypedComplex(q3_cx.q, q3_cx.vertex_types, q3_cx.edges, chambers)
    assert singer_action(shuffled) is None
    assert zeta_bundle(shuffled) == zeta_bundle(q3_cx)
    # the shape of a q = 6 complex, but GF(6) does not exist
    n = 6**2 + 6 + 1
    edges = [(i, (i + 1) % 3) for i in range(3) for _ in range(n)]
    assert singer_action(TypedComplex(6, (0, 1, 2), edges, [])) is None


def test_q16_complex_has_the_singer_action():
    tp = search_triangle_presentations(build_plane(16), limit=1, seed=0)[0]
    cx = complex_from_presentation(tp)
    assert validate(cx).passed
    action = singer_action(cx)
    assert action is not None
    le = edge_operator(cx)
    edge_types = [cx.vertex_types[s] for s, _ in cx.edges]
    me, orbits = type0_orbit_rows(edge_successors(cx), edge_types, action[0])
    assert len(orbits) == 1  # the type-0 edges form one Singer orbit
    pe = det_i_minus_rows(me, orbits).substitute_power(3)
    # PE = det(I - u^3 ME), ME = LE^3 on type 0, one of three equal-trace blocks
    assert pe[3] * 3 == -le.trace_power(3)


def test_q7_ramanujan_exits_0(q7_cx, tmp_path, capsys):
    path = tmp_path / "q7.cx3"
    path.write_text(serialize_complex(q7_cx))
    assert cli.main(["check", "ramanujan", str(path), "--format", "records"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "verdict RAMANUJAN"


def test_q7_relabeled_exact_classes_exit_0(q7_cx, tmp_path, monkeypatch, capsys):
    """The n = 1 route at q = 7: every PB and PE root of a relabeled complex
    gets its exact class, the same counts as on the Singer route, through
    the CLI.  Its polynomials, which take about 15 s without the action,
    are those of the Singer bundle, so its bundle is that one with the
    relabeled complex's ME: every type-0 row, each its own orbit."""
    cx = relabeled(q7_cx, random.Random(0))
    edge_types, _ = source_types(cx)
    me = type0_orbit_rows(edge_successors(cx), edge_types, None)
    assert me[1].shape == (57, 1)
    n1 = dataclasses.replace(zeta_bundle(q7_cx), me=me)
    monkeypatch.setattr(zeta, "zeta_bundle", lambda cx: n1)
    path = tmp_path / "q7.cx3"
    path.write_text(serialize_complex(cx))
    assert cli.main(["check", "ramanujan", str(path), "--format", "records"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "verdict RAMANUJAN"
    assert lines[1:] == [
        "root.dvertex trivial 9",
        "root.pb |u|=q^-1 3",
        "root.pb |u|=q^-1/2 168",
        "root.pb |u|=q^-1/4 336",
        "root.pb |u|=1 861",
        "root.pe |u|=q^-2 3",
        "root.pe |u|=q^-1/2 168",
    ]


# ----------------------------------------------------------------------
# the identity one Singer character at a time


def orbit_rows_of(cx):
    """(me, edge orbits, mb, chamber orbits) of a complex under its Singer action."""
    edge_types, chamber_types = source_types(cx)
    edge_images, chamber_images = singer_action(cx)
    me, edge_orbits = type0_orbit_rows(edge_successors(cx), edge_types, edge_images)
    mb, chamber_orbits = type0_orbit_rows(chamber_successors(cx), chamber_types, chamber_images)
    return me, edge_orbits, mb, chamber_orbits


@pytest.fixture(scope="module")
def q5_cx():
    tp = search_triangle_presentations(build_plane(5), limit=1, seed=0)[0]
    return complex_from_presentation(tp)


def test_character_route_agrees_with_the_product_check(digest_texts, q5_cx, q7_cx):
    """Every search-built complex of the digests and of the q = 5, 7 pins is
    proven by characters, and the two products agree with the quotient PB;
    its sha256 is pinned by the digest and pin tests above."""
    cxs = [parse_complex(text) for text in digest_texts] + [q5_cx, q7_cx]
    for cx in cxs:
        b = zeta_bundle(cx)
        n = cx.q**2 + cx.q + 1
        assert b.proof and all(p % n == 1 for p in b.proof)
        assert product_identity_residual(b).is_zero()


# the primes that prove the identity on the bundled q=2 and seed-0 q = 3, 4,
# 5, 7 complexes, from the bound for 1-square ME blocks, L = 1 + sum |G|:
# 2^(q+1) L^2 + |Dvertex|_1 max_t C(q+1, t) ceil(r^(t/2))
PROOF_PRIMES = {
    2: [38745211],
    3: [33554249, 33554093],
    4: [30011983, 30011731],
    5: [27396871, 27396623, 27396437],
    7: [23725453, 23724769, 23724541, 23723743],
}


def test_singer_proof_primes_pinned(bundled_cx, q3_cx, q4_cx, q5_cx, q7_cx):
    for q, cx in zip((2, 3, 4, 5, 7), (bundled_cx, q3_cx, q4_cx, q5_cx, q7_cx)):
        assert zeta_bundle(cx).proof == PROOF_PRIMES[q], q


def test_proven_route_forms_no_pb_determinant(q3_cx, q7_cx, tmp_path, monkeypatch):
    """With the Singer action or without it, check identity and check
    ramanujan take each operator's character determinants once, ME's and
    then MB's, and never form PB: no product by (1 - v)^chi runs."""
    blocks = []
    original = zeta.character_dets

    def recording(rows, orbits, primes):
        blocks.append(orbits.shape[0])
        return original(rows, orbits, primes)

    def forbidden(p, m):
        raise AssertionError("PB was formed")

    monkeypatch.setattr(zeta, "character_dets", recording)
    monkeypatch.setattr(zeta, "times_one_minus_power", forbidden)
    monkeypatch.setattr(polyint, "times_one_minus_power", forbidden)
    for name, cx, k in (("q7", q7_cx, [1, 8]), ("q3r", relabeled(q3_cx, random.Random(0)), [13, 52])):
        path = tmp_path / f"{name}.cx3"
        path.write_text(serialize_complex(cx))
        for command in ("identity", "ramanujan"):
            blocks.clear()
            assert cli.main(["check", command, str(path)]) == 0
            assert blocks == k, (name, command)


def test_pe_comes_from_the_proof_residues_in_both_bound_orders(q3_cx, monkeypatch):
    """ME's character determinants are taken once, on the proof's primes
    and, when PE's Hadamard bound needs more, on further distinct ones, and
    MB's on the proof's; PE from them is exact either way.  Under the
    Singer action at q = 3 PE alone would need 5 primes of the proof's rule
    and the proof 2; relabeled, under the trivial group, the proof needs 10
    and PE 5."""
    lists = []
    original = zeta.character_dets

    def recording(rows, orbits, primes):
        lists.append(list(primes))
        return original(rows, orbits, primes)

    monkeypatch.setattr(zeta, "character_dets", recording)
    cx = relabeled(q3_cx, random.Random(0))
    for cx, rows, counts in (
        (q3_cx, orbit_rows_of(q3_cx), (5, 2)),
        (cx, trivial_group_rows_of(cx), (5, 10)),
    ):
        lists.clear()
        b = zeta_bundle(cx)
        me, _, _, chamber_orbits = rows
        pe_primes, _ = primes_past(hadamard_bound(me), *chamber_orbits.shape)
        assert (len(pe_primes), len(b.proof)) == counts
        me_primes, mb_primes = lists
        assert mb_primes == b.proof == me_primes[: len(b.proof)]
        assert len(set(me_primes)) == len(me_primes)
        assert prod(me_primes) > hadamard_bound(me)
        assert (me_primes == b.proof) == (counts[1] > counts[0])
        assert b.pe == det_i_minus_pencil([edge_operator(cx).to_dense()])


def test_pe_past_the_proof_rule_supply(q3_cx, monkeypatch):
    """When the primes MB's block size admits cover the proof's bound but
    not PE's Hadamard bound, as at q = 32, ME's own rule supplies the rest,
    and PE stays exact: here with MB's primes capped at 700, where 9 primes
    cover 75 bits, the proof's 50 but not PE's 101."""
    want = zeta_bundle(q3_cx)
    original = polyint._prime_limit
    monkeypatch.setattr(polyint, "_prime_limit", lambda k, n: 700 if k > 1 else original(k, n))
    with pytest.raises(ResourceLimit):
        primes_past(hadamard_bound(orbit_rows_of(q3_cx)[0]), 4, 13)
    b = zeta_bundle(q3_cx)
    assert max(b.proof) < 700 and b.proof != want.proof
    assert b == want and b.pb == want.pb
    assert b.pe == det_i_minus_pencil([edge_operator(q3_cx).to_dense()])


def test_pb_degree_read_off_the_identity(corpus, q4_cx):
    for cx in corpus + [q4_cx, relabeled(q4_cx, random.Random(0))]:
        b = zeta_bundle(cx)
        assert b.pb_degree == b.pb.degree


# sha256 of le.mat and lb.mat as `operators --out` writes them for the
# seed-0 q = 3 complex and for it relabeled by random.Random(0)
OPERATOR_EXPORT_DIGESTS = {
    "q3": {
        "le": "695620b53f5d040a541022cf14490bf74bdda990710c00e61d458003e242b636",
        "lb": "f85d890ca8e4f311f5362f1dcf6947229025765a927dd2b32de6d64eee3feaf4",
    },
    "q3r": {
        "le": "625e515622fe5f28cdf92a818aa7e7e0ec718ced7d05844f61dcf18112e51f34",
        "lb": "5cee45772d39c2978ab6ec572cedc9e5a0e4ed6998573cf42b4e244e170c0a9e",
    },
}


def test_operator_exports_pinned(q3_cx, tmp_path, capsys):
    for name, cx in (("q3", q3_cx), ("q3r", relabeled(q3_cx, random.Random(0)))):
        path = tmp_path / f"{name}.cx3"
        path.write_text(serialize_complex(cx))
        assert cli.main(["operators", str(path), "--out", str(tmp_path / name)]) == 0
        for mat, want in OPERATOR_EXPORT_DIGESTS[name].items():
            text = (tmp_path / name / f"{mat}.mat").read_bytes()
            assert hashlib.sha256(text).hexdigest() == want, (name, mat)


def test_section9_validates_once(q3_cx, tmp_path, monkeypatch, capsys):
    """hecke_series trusts the validation its caller ran: zeta_bundle's, or
    check_series_identity's own when it is given a bundle."""
    calls = []
    original = complexes.validate

    def counting(cx):
        calls.append(cx)
        return original(cx)

    monkeypatch.setattr(complexes, "validate", counting)
    path = tmp_path / "q3.cx3"
    path.write_text(serialize_complex(q3_cx))
    assert cli.main(["check", "section9", str(path), "--degree", "9"]) == 0
    assert len(calls) == 1
    bundle = zeta_bundle(q3_cx)
    calls.clear()
    assert check_series_identity(q3_cx, 6, bundle).passed
    assert len(calls) == 1


def perturbed_orbit(op, images):
    """op with 1 added to every entry of the Singer orbit of its first entry."""
    entries = dict(op.entries)
    r, c = min(entries)
    for _ in range(len(images)):
        entries[(r, c)] += 1
        r, c = images[r], images[c]
        if (r, c) == min(op.entries):
            break
    return SparseOperator(op.space, op.dim, entries)


def test_perturbed_lb_orbit_names_a_character_and_exits_1(q3_cx, tmp_path, monkeypatch, capsys):
    """A sigma-invariant change to LB keeps the action, so the character
    check runs and fails, and names the character and the prime."""
    _, chamber_images = singer_action(q3_cx)
    lb = perturbed_orbit(chamber_operator(q3_cx), chamber_images)
    changed = sum(lb.entries[key] != v for key, v in chamber_operator(q3_cx).entries.items())
    assert changed == 13
    monkeypatch.setattr(zeta, "chamber_successors", lambda cx: successors_of(lb))
    with pytest.raises(IdentityFailure) as failure:
        zeta_bundle(q3_cx)
    j, p = failure.value.j, failure.value.p
    assert 0 <= j < 13 and p % 13 == 1
    path = tmp_path / "q3.cx3"
    path.write_text(serialize_complex(q3_cx))
    assert cli.main(["check", "identity", str(path), "--format", "records"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"character fail j={j} p={p}", "identity fail"]


def test_perturbed_lb_entry_fails_the_trivial_group_relation(q3_cx, tmp_path, monkeypatch, capsys):
    """Without the action one changed LB entry fails the one relation of
    the trivial group, j = 0: check identity names it and exits 1, and
    every command that needs PB exits 1 with no traceback."""
    cx = relabeled(q3_cx, random.Random(0))
    lb = chamber_operator(cx)
    entries = dict(lb.entries)
    entries[min(entries)] += 1
    perturbed = SparseOperator(lb.space, lb.dim, entries)
    monkeypatch.setattr(zeta, "chamber_successors", lambda cx: successors_of(perturbed))
    path = tmp_path / "q3r.cx3"
    path.write_text(serialize_complex(cx))
    assert cli.main(["check", "identity", str(path), "--format", "records"]) == 1
    out, _ = capsys.readouterr()
    character, identity = out.splitlines()
    assert character.startswith("character fail j=0 p=") and identity == "identity fail"
    for command in (["zeta"], ["check", "ramanujan"], ["check", "section9", "--degree", "3"]):
        assert cli.main(command[:2] + [str(path)] + command[2:]) == 1, command
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("validation failure: main_identity: ")
        assert "Traceback" not in err


def trivial_group_rows_of(cx):
    """(me, edge orbits, mb, chamber orbits) of a complex under the trivial group."""
    edge_types, chamber_types = source_types(cx)
    me, edge_orbits = type0_orbit_rows(edge_successors(cx), edge_types, None)
    mb, chamber_orbits = type0_orbit_rows(chamber_successors(cx), chamber_types, None)
    return me, edge_orbits, mb, chamber_orbits


def test_character_primes_cover_the_bound(q3_cx):
    """A residual coefficient c equal to the product of every prime the
    unperturbed proof takes vanishes mod each of them; the bound grows with
    |c|, so one prime more is taken, and that one catches it at j = 0.
    Under the trivial group, n = 1, the one relation is the identity, on
    one 52-square MB block."""
    cx = relabeled(q3_cx, random.Random(0))
    trivial = trivial_group_rows_of(cx)
    assert trivial[3].shape == (52, 1)
    for cx, rows, count in ((q3_cx, orbit_rows_of(q3_cx), 2), (cx, trivial, 10)):
        b = zeta_bundle(cx)
        _, primes, failure = character_relations(b.chi, b.dvertex, *rows)
        assert failure is None and primes == b.proof and len(primes) == count
        c = prod(primes)
        # Dvertex + c u^9 makes the j = 0 residual c v^3 PB_0(v), PB_0(0) = 1
        _, more, failure = character_relations(b.chi, b.dvertex + IntPoly.monomial(9, c), *rows)
        assert more[: len(primes)] == primes
        assert failure == (0, more[len(primes)])


def test_relabeled_complex_is_proven_on_the_trivial_group(q3_cx):
    """No action, so the proof runs under the trivial group: PB, its exact
    quotient, is its own determinant, the two products agree, and the
    classes from fact (a) on every row of ME are those the characters give."""
    cx = relabeled(q3_cx, random.Random(0))
    b = zeta_bundle(cx)
    _, _, mb, chamber_orbits = trivial_group_rows_of(cx)
    assert b.pb == det_i_minus_rows(-mb, chamber_orbits).substitute_power(3)
    assert product_identity_residual(b).is_zero()
    report = ramanujan_check(cx, b)
    assert report.verdict == "RAMANUJAN"
    assert report.pb == [("|u|=q^-1", 3), ("|u|=q^-1/2", 36), ("|u|=q^-1/4", 72), ("|u|=1", 45)]
    assert report.pe == [("|u|=q^-2", 3), ("|u|=q^-1/2", 36)]
    assert report.uncertified == {}
    proven = ramanujan_check(q3_cx)
    assert (proven.pb, proven.pe) == (report.pb, report.pe)


def test_fact_a_failure_leaves_pb_and_pe_uncertified(bundled_cx, bundle):
    """A sigma-invariant change to ME that keeps its row and column sums
    breaks its Gram matrix: PB and PE are uncertified, and the verdict,
    from Dvertex alone, stands."""
    rows, orbits = bundle.me
    g = orbits[0]
    assert rows[0, g].sum() == 2**6
    broken = rows.copy()
    broken[0, g[0]] += 1  # same sum, another autocorrelation
    broken[0, g[1]] -= 1
    report = ramanujan_check(bundled_cx, dataclasses.replace(bundle, me=(broken, orbits)))
    assert report.verdict == "RAMANUJAN"
    assert report.uncertified == {"pb": 63, "pe": 21}
    assert report.pb == report.pe == []
    assert report.dvertex == ramanujan_check(bundled_cx, bundle).dvertex


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_relabeling_keeps_the_root_classes(singer_reports, seed):
    """A relabeled complex takes the n = 1 route, and its verdict and class
    counts are those of its Singer original."""
    for cx, want in singer_reports:
        report = ramanujan_check(relabeled(cx, random.Random(seed)))
        assert [report.verdict, report.dvertex, report.pb, report.pe] == want


@pytest.fixture(scope="module")
def singer_reports(q3_cx, q4_cx, q5_cx):
    out = []
    for cx in (q3_cx, q4_cx, q5_cx):
        report = ramanujan_check(cx)
        assert report.uncertified == {}
        out.append((cx, [report.verdict, report.dvertex, report.pb, report.pe]))
    return out


@pytest.mark.parametrize(
    "extra, verdict, label",
    [
        (None, "RAMANUJAN", None),
        ((1, -1), "NOT-RAMANUJAN", "nontrivial"),  # one more 1 - v
        ((1, -3 * 8, 64), "NOT-RAMANUJAN", "nontrivial"),  # s^2 - 3 s + 1, s = 8 v
        ((1, -8, 64), "RAMANUJAN", "ramanujan"),  # s^2 - s + 1
        ((1, 8), "RAMANUJAN", "ramanujan"),  # s + 1
    ],
    ids=["trivial_only", "extra_one_minus_v", "x_3", "x_1", "s_plus_1"],
)
def test_dvertex_verdict_is_exact(bundled_cx, bundle, extra, verdict, label):
    """Synthetic Dvertex = (1-v)(1-8v)(1-64v) R(v) at q = 2: the verdict
    comes from R by integers alone, and R's zeros are labeled by it; the
    double-precision roots of R(u^3) agree with the label."""
    dvertex = bundle.dvertex
    if extra is not None:
        dvertex = dvertex * IntPoly(extra).substitute_power(3)
    report = ramanujan_check(bundled_cx, dataclasses.replace(bundle, dvertex=dvertex))
    assert report.verdict == verdict
    if extra is None:
        assert report.dvertex == [("trivial", 9)]
    else:
        assert report.dvertex == [("trivial", 9), (label, 3 * (len(extra) - 1))]
        moduli = [abs(r) for r, _ in approx_roots(IntPoly(extra).substitute_power(3))]
        assert (label == "ramanujan") == all(abs(m - 0.5) < 1e-9 for m in moduli)
    # PB's classes need Dvertex to be the trivial product; PE's do not
    assert ("pb" in report.uncertified) == (extra is not None)
    assert "pe" not in report.uncertified


def test_missing_trivial_factor_is_reported(bundled_cx, bundle):
    """Dvertex without its factor 1 - 64 v: TRIVIAL-ZEROS-MISSING, with the
    six trivial zeros that are there.  PB and its degree stay those of the
    proven identity."""
    dvertex = bundle.dvertex.divexact(one_minus_cube(64))
    changed = dataclasses.replace(bundle, dvertex=dvertex)
    report = ramanujan_check(bundled_cx, changed)
    assert report.verdict == "TRIVIAL-ZEROS-MISSING"
    assert report.dvertex == [("trivial", 6)]
    assert report.uncertified == {"pb": 63}
    assert changed.pb == bundle.pb and changed.pb.degree == 63


@pytest.fixture(scope="module")
def q9_cx():
    tp = search_triangle_presentations(build_plane(9), limit=1, seed=0)[0]
    return complex_from_presentation(tp)


@pytest.mark.parametrize(
    "q, pb, pe",
    [
        (7, [3, 168, 336, 861], [3, 168]),
        (9, [3, 270, 540, 1917], [3, 270]),
    ],
)
def test_ramanujan_classes_pinned(q, pb, pe, q7_cx, q9_cx):
    report = ramanujan_check({7: q7_cx, 9: q9_cx}[q])
    assert report.verdict == "RAMANUJAN"
    assert report.dvertex == [("trivial", 9)]
    assert report.pb == list(zip(["|u|=q^-1", "|u|=q^-1/2", "|u|=q^-1/4", "|u|=1"], pb))
    assert report.pe == list(zip(["|u|=q^-2", "|u|=q^-1/2"], pe))


def test_class_counts_sum_to_the_degrees(bundled_cx, q3_cx, q4_cx, q5_cx, q7_cx, q9_cx):
    """On the bundled complex, the seed-0 ones at q = 3, 4, 5, 7, 9 and
    relabeled ones at q = 3, 5, the counts of each polynomial add up to its
    degree in u."""
    cxs = [bundled_cx, q3_cx, q4_cx, q5_cx, q7_cx, q9_cx]
    cxs += [relabeled(cx, random.Random(0)) for cx in (q3_cx, q5_cx)]
    for cx in cxs:
        b = zeta_bundle(cx)
        report = ramanujan_check(cx, b)
        assert report.verdict == "RAMANUJAN" and report.uncertified == {}
        for name in ("dvertex", "pb", "pe"):
            assert sum(c for _, c in getattr(report, name)) == getattr(b, name).degree


# sha256 of the stdout of `zeta <cx3> --which minus` for the seed-0 q = 5 and
# q = 7 complexes, recorded from PB / PE2 reduced by the PRS gcd
ZMINUS_TEXT_DIGESTS = {
    5: "6de314e381663b647761affb56429499fd6d1ba4c9eff7fab79db08e51313107",
    7: "0985fcc6d0b4a4581169317b3a363dbe5f026a31911bbb72b9dfd951a4899428",
}


def test_zeta_minus_text_unchanged(q5_cx, q7_cx, tmp_path, capsys):
    for q, cx in ((5, q5_cx), (7, q7_cx)):
        path = tmp_path / f"q{q}.cx3"
        path.write_text(serialize_complex(cx))
        assert cli.main(["zeta", str(path), "--which", "minus"]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == ZMINUS_TEXT_DIGESTS[q]


def test_small_batches_keep_the_pins(q5_cx, q7_cx, monkeypatch):
    """With _BATCH_ENTRIES so small that each pass of character_dets takes
    a few primes, or one for MB, PE and PB, also PB by its determinant,
    still equal the pins."""
    monkeypatch.setattr(polyint, "_BATCH_ENTRIES", 2**8)
    for cx, pins in ((q5_cx, Q5_DIGESTS), (q7_cx, Q7_DIGESTS)):
        b = zeta_bundle(cx)
        _, _, mb, chamber_orbits = orbit_rows_of(cx)
        pb = det_i_minus_rows(-mb, chamber_orbits).substitute_power(3)
        assert [poly_digest(p) for p in (b.pe, b.pb, pb)] == [
            pins["pe"], pins["pb"], pins["pb"]
        ]


def test_zeta_minus_is_the_same_from_pb_over_pe2(q5_cx, q7_cx):
    """PB / PE2 reduced as it stands, in reversed coordinates since
    PE2(0) = 1, gives the pinned pair."""
    for cx in (q5_cx, q7_cx):
        b = zeta_bundle(cx)
        assert RationalFunction(b.pb, b.pe2) == zeta.zeta_minus(b)
