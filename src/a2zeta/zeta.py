"""Zeta functions of a quotient complex and the identity checks built on them.

The four exact polynomials are

    Dvertex = det(I - A1 u + q A2 u^2 - q^3 u^3 I)
    PB      = det(I + LB u)
    PE      = det(I - LE u)
    PE2     = det(I - LE u^2) = PE(u^2)

and the determinant identity under test is

    (1 - u^3)^chi * PE * PE2  ==  Dvertex * PB.

Every operator here shifts the Z/3 grading by a fixed amount (LE by 1, LB
by 2, and the vertex pencil mixes shifts 0, 1, 2), so each determinant is a
polynomial in u^3.  For LE and LB we exploit this: ordering the index set
by source type makes the operator block-cyclic, and

    det(I - L u) = det(I - u^3 M),   M = product of the three blocks,

which shrinks a 3n x 3n polynomial determinant to an n x n one.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import euler_characteristic, require_valid
from .errors import A2ZetaError, RootFindingFailure
from .operators import (
    chamber_operator,
    edge_operator,
    identity_matrix,
    mat_mul,
    source_type_of_directed_chamber,
    edge_source_type,
    vertex_hecke,
)
from .polyint import (
    IntPoly,
    RationalFunction,
    Series,
    det_i_minus_pencil,
    poly_log_derivative,
    series_log_derivative,
)

ONE = IntPoly.const(1)


def one_minus_cube(scale=1):
    """1 - scale * u^3."""
    return IntPoly((1, 0, 0, -scale))


# ----------------------------------------------------------------------
# block-cyclic determinant reduction


def cyclic_block_product(op, type_of, shift):
    """Blocks of a type-shifting operator and their cyclic product.

    The operator must map type t to type t + shift (mod 3).  Returns the
    square integer matrix M with det(I - u Op) = det(I - u^3 M), namely the
    product B[0]B[shift]B[2*shift] of the blocks starting from type 0.
    """
    idx_by_type = [[], [], []]
    for i in range(op.dim):
        idx_by_type[type_of(i)].append(i)
    sizes = [len(ix) for ix in idx_by_type]
    if len(set(sizes)) != 1:
        raise A2ZetaError("type classes have unequal sizes")
    pos = {}
    for t in range(3):
        for k, i in enumerate(idx_by_type[t]):
            pos[i] = (t, k)
    n = sizes[0]
    blocks = {t: [[0] * n for _ in range(n)] for t in range(3)}
    for (r, c), v in op.entries.items():
        tr, kr = pos[r]
        tc, kc = pos[c]
        if tc != (tr + shift) % 3:
            raise A2ZetaError("operator does not shift types uniformly")
        blocks[tr][kr][kc] = v
    m = blocks[0]
    t = shift % 3
    for _ in range(2):
        m = mat_mul(m, blocks[t])
        t = (t + shift) % 3
    return m


def det_i_minus_u3(m, sign=1):
    """det(I - sign * u^3 * M) for an integer matrix M, exactly."""
    return det_i_minus_pencil([sign * np.asarray(m, dtype=np.int64)]).substitute_power(3)


# ----------------------------------------------------------------------
# the bundle


@dataclass
class ZetaBundle:
    q: int
    chi: int
    dvertex: IntPoly
    pb: IntPoly
    pe: IntPoly
    pe2: IntPoly

    def __post_init__(self):
        for name in ("dvertex", "pb", "pe", "pe2"):
            if getattr(self, name)[0] != 1:
                raise A2ZetaError(f"{name} constant term is not 1")
        if self.pe2.degree != 2 * self.pe.degree:
            raise A2ZetaError("deg PE2 != 2 deg PE")


def vertex_determinant(cx, A1=None, A2=None):
    """det(I - A1 u + q A2 u^2 - q^3 u^3 I), exact."""
    if A1 is None:
        A1, A2 = vertex_hecke(cx)
    q = cx.q
    return det_i_minus_pencil(
        [
            A1.to_dense(),
            -q * np.array(A2.to_dense(), dtype=np.int64),
            q**3 * np.eye(cx.n_vertices, dtype=np.int64),
        ]
    )


def zeta_bundle(cx):
    """All four exact polynomials and the Euler characteristic."""
    require_valid(cx)
    A1, A2 = vertex_hecke(cx)
    LE = edge_operator(cx)
    LB = chamber_operator(cx)
    dvertex = vertex_determinant(cx, A1, A2)
    me = cyclic_block_product(LE, lambda e: edge_source_type(cx, e), 1)
    pe = det_i_minus_u3(me, sign=1)
    mb = cyclic_block_product(LB, lambda i: source_type_of_directed_chamber(cx, i), 2)
    pb = det_i_minus_u3(mb, sign=-1)
    pe2 = pe.substitute_power(2)
    return ZetaBundle(
        q=cx.q, chi=euler_characteristic(cx), dvertex=dvertex, pb=pb, pe=pe, pe2=pe2
    )


def check_main_identity(cx, bundle=None):
    """(1-u^3)^chi PE PE2 == Dvertex PB; returns (passed, residual)."""
    b = bundle if bundle is not None else zeta_bundle(cx)
    lhs = (one_minus_cube() ** b.chi) * b.pe * b.pe2
    rhs = b.dvertex * b.pb
    residual = lhs - rhs
    return residual.is_zero(), residual


def zeta_functions(cx, bundle=None):
    """The four zeta functions as reduced rational functions."""
    b = bundle if bundle is not None else zeta_bundle(cx)
    return {
        "Z": RationalFunction(ONE, b.pe * b.pe2),
        "Z1": RationalFunction(ONE, b.pe),
        "Z2": RationalFunction(ONE, b.pb.substitute_neg()),
        "Zminus": RationalFunction(b.pb, b.pe2),
    }


# ----------------------------------------------------------------------
# Hecke series on the quotient


class HeckeSeriesTable:
    """Aggregate Hecke matrices by algebraic length.

    aggregate(k) is the sum over n + 2m = k of the type-(n, m) counting
    matrices; individual summands beyond degree 1 are not reconstructed.
    """

    def __init__(self, aggregates):
        self.aggregates = aggregates

    @property
    def order(self):
        return len(self.aggregates) - 1

    def aggregate(self, k):
        return self.aggregates[k]

    def trace(self, k):
        m = self.aggregates[k]
        return sum(m[i][i] for i in range(len(m)))


def hecke_series(cx, order):
    """Coefficients of (1 - u^3)(I - A1 u + q A2 u^2 - q^3 u^3 I)^{-1}.

    The inverse-series coefficients S_k satisfy
        S_k = A1 S_{k-1} - q A2 S_{k-2} + q^3 S_{k-3} + [k = 0] I,
    and the aggregate of degree k is S_k - S_{k-3}.
    """
    require_valid(cx)
    A1m, A2m = (op.to_dense() for op in vertex_hecke(cx))
    q = cx.q
    n = cx.n_vertices
    s = [identity_matrix(n)]
    for k in range(1, order + 1):
        acc = mat_mul(A1m, s[k - 1])
        if k >= 2:
            m2 = mat_mul(A2m, s[k - 2])
            acc = [[a - q * b for a, b in zip(ra, rb)] for ra, rb in zip(acc, m2)]
        if k >= 3:
            acc = [
                [a + q**3 * b for a, b in zip(ra, rb)]
                for ra, rb in zip(acc, s[k - 3])
            ]
        s.append(acc)
    aggregates = []
    for k in range(order + 1):
        if k >= 3:
            aggregates.append(
                [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(s[k], s[k - 3])]
            )
        else:
            aggregates.append([row[:] for row in s[k]])
    return HeckeSeriesTable(aggregates)


# ----------------------------------------------------------------------
# the series identity


@dataclass
class SeriesIdentityReport:
    passed: bool
    order: int
    lhs: Series
    rhs: Series
    type1_traces: list  # Tr of the type-(n, 0) matrices, n = 0..order

    def __bool__(self):
        return self.passed


def check_series_identity(cx, order, bundle=None):
    """Series form of the identity plus extraction of the type-1 trace counts.

    Checks, to the given order,
        u d/du log[(1-u^3)^chi / Dvertex]
            == u d/du log[Z1(u) Z1(u^2) / Z2(-u)]
    with exact rational coefficients, then solves
        lhs == q * S - (q-1) * (sum Tr(aggregate_k) u^k)(1-q^2 u^3)/(1-u^3)
    for S = sum Tr(B_{n,0}) u^n and verifies its coefficients are
    nonnegative integers.
    """
    b = bundle if bundle is not None else zeta_bundle(cx)
    q = cx.q
    lhs = b.chi * poly_log_derivative(one_minus_cube(), order) - poly_log_derivative(
        b.dvertex, order
    )
    rhs = (
        poly_log_derivative(b.pb, order)
        - poly_log_derivative(b.pe, order)
        - poly_log_derivative(b.pe2, order)
    )
    series_match = lhs == rhs

    table = hecke_series(cx, order)
    # the (0, 0) term is excluded from the counting series
    trace_series = Series(
        [0] + [table.trace(k) for k in range(1, order + 1)], order
    )
    weight = Series.from_poly(one_minus_cube(q * q), order) * Series.from_poly(
        one_minus_cube(), order
    ).inverse()
    solved = (lhs + (q - 1) * (trace_series * weight)) * Fraction(1, q)
    try:
        counts = solved.integer_coeffs()
        nonneg = all(c >= 0 for c in counts)
    except A2ZetaError:
        counts, nonneg = [], False
    return SeriesIdentityReport(
        passed=series_match and nonneg and counts[:1] == [0],
        order=order,
        lhs=lhs,
        rhs=rhs,
        type1_traces=counts,
    )


# ----------------------------------------------------------------------
# numerical root classification


@dataclass
class RootRecord:
    value: complex
    modulus: float
    label: str  # trivial | ramanujan | exceptional | reference-<m>


@dataclass
class RamanujanReport:
    verdict: str
    tol: float
    vertex_roots: list
    surplus_trivial: list
    pb_roots: list
    pe_roots: list
    pe_reference_moduli: list

    @property
    def passed(self):
        return self.verdict == "RAMANUJAN"


def poly_roots_certified(p, tol):
    """Roots of an IntPoly in double precision with a residual certificate."""
    if p.degree < 1:
        return []
    scale = max(abs(c) for c in p.coeffs)
    coeffs = [c / scale for c in p.coeffs]
    roots = np.roots(list(reversed(coeffs)))
    out = []
    for r in roots:
        val = 0.0
        mag = 0.0
        for c in reversed(coeffs):
            val = val * r + c
            mag = mag * abs(r) + abs(c)
        if not np.isfinite(mag) or mag == 0 or abs(val) / mag > tol:
            raise RootFindingFailure(f"root {r} has relative residual {abs(val)/mag}")
        out.append(complex(r))
    return sorted(out, key=lambda z: (abs(z), z.real, z.imag))


def roots_via_cube(p, tol):
    """Roots of a polynomial in u^3, computed on the degree/3 compression.

    Rooting det polynomials directly in u is badly conditioned once the
    degree grows, and repeated roots smear by eps^(1/multiplicity); so the
    compression in v = u^3 is split into exact squarefree factors first and
    only simple roots ever reach the numerical solver.  Each v-root then
    expands to its three cube roots.
    """
    g = _compress_cube(p)
    vroots = []
    for factor, mult in g.squarefree_decomposition():
        vroots.extend(poly_roots_certified(factor, tol) * mult)
    out = []
    for v in vroots:
        r = abs(v) ** (1.0 / 3.0)
        theta = np.angle(v) / 3.0
        for k in range(3):
            a = theta + 2.0 * np.pi * k / 3.0
            out.append(complex(r * np.cos(a), r * np.sin(a)))
    return sorted(out, key=lambda z: (abs(z), z.real, z.imag))


def _match_and_remove(roots, targets, tol):
    """Match each target to at most one root within tol; return leftovers."""
    remaining = list(roots)
    matched = []
    surplus = []
    for t in targets:
        hits = [r for r in remaining if abs(r - t) <= tol]
        hits.sort(key=lambda r: abs(r - t))
        if hits:
            matched.append(hits[0])
            remaining.remove(hits[0])
            for extra in hits[1:]:
                surplus.append((t, extra))
        else:
            matched.append(None)
    return matched, remaining, surplus


def _rational_reciprocal_roots(p):
    """Exact roots of p of the form v = ±1/d with d a positive integer.

    p has constant term 1, so these are all its rational roots.  Candidates
    come from the certified numerical roots of the squarefree factors and
    are then confirmed by exact integer evaluation, so the returned values
    (Fractions, with multiplicity) are proven roots.
    """
    found = []
    for factor, mult in p.squarefree_decomposition():
        deg = factor.degree
        for r in poly_roots_certified(factor, 1e-6):
            if abs(r.imag) > 1e-9 or abs(r.real) < 1e-12:
                continue
            recip = 1.0 / r.real
            d = round(abs(recip))
            s = 1 if recip > 0 else -1
            if d == 0 or abs(abs(recip) - d) > 1e-6 * d:
                continue
            # factor(s/d) == 0 iff sum c_i s^i d^(deg-i) == 0
            val = sum(
                c * (s**i) * (d ** (deg - i)) for i, c in enumerate(factor.coeffs)
            )
            if val == 0:
                found.extend([Fraction(s, d)] * mult)
    return found


def ramanujan_check(cx, tol=1e-6, bundle=None):
    """Classify the zeros of the three determinants against the RH criteria.

    Dvertex gets a hard verdict: after removing the nine trivial zeros
    (cube roots of unity times 1, 1/q, 1/q^2), all remaining roots must
    have modulus within tol of 1/q.  PB and PE get modulus histograms
    against their expected values; PE's exact reciprocal-integer root
    moduli (its u^3-cyclotomic-type factors) join its reference set.
    """
    if not 0 < tol <= 1e-3:
        raise A2ZetaError("tol must be in (0, 1e-3]")
    b = bundle if bundle is not None else zeta_bundle(cx)
    q = cx.q

    vroots = roots_via_cube(b.dvertex, tol)
    trivial = [
        complex(m * np.exp(2j * np.pi * k / 3))
        for m in (1.0, 1.0 / q, 1.0 / q**2)
        for k in range(3)
    ]
    matched, nontrivial, surplus = _match_and_remove(vroots, trivial, tol)
    missing = [t for t, m in zip(trivial, matched) if m is None]
    verdict = "RAMANUJAN"
    if missing:
        verdict = "TRIVIAL-ZEROS-MISSING"
    elif any(abs(abs(r) - 1.0 / q) > tol for r in nontrivial):
        verdict = "NOT-RAMANUJAN"

    records = []
    for t, m in zip(trivial, matched):
        if m is not None:
            records.append(RootRecord(m, abs(m), "trivial"))
    for r in nontrivial:
        label = "ramanujan" if abs(abs(r) - 1.0 / q) <= tol else "exceptional"
        records.append(RootRecord(r, abs(r), label))

    pb_factors = _exact_factor_moduli(b.pb)
    pb_roots = [
        RootRecord(
            r,
            abs(r),
            _nearest_label(abs(r), [1.0, q**-0.5, q**-0.25] + pb_factors, tol),
        )
        for r in roots_via_cube(b.pb, tol)
    ]
    pe_reference = _exact_factor_moduli(b.pe)
    pe_roots = [
        RootRecord(
            r,
            abs(r),
            _nearest_label(abs(r), [1.0 / q, q**-0.5] + pe_reference, tol),
        )
        for r in roots_via_cube(b.pe, tol)
    ]
    return RamanujanReport(
        verdict=verdict,
        tol=tol,
        vertex_roots=records,
        surplus_trivial=surplus,
        pb_roots=pb_roots,
        pe_roots=pe_roots,
        pe_reference_moduli=pe_reference,
    )


def _exact_factor_moduli(p):
    """Moduli contributed by exact (1 - c u^3) factors, c = ±integer reciprocal.

    These are the u^3-cyclotomic-type factors; their root moduli are exact
    reference values for the histograms.
    """
    exact = _rational_reciprocal_roots(_compress_cube(p))
    return sorted({abs(float(v)) ** (1.0 / 3.0) for v in exact})


def _compress_cube(p):
    """p with only u^{3k} terms -> the polynomial in v = u^3."""
    if any(c and i % 3 for i, c in enumerate(p.coeffs)):
        raise A2ZetaError("polynomial is not a polynomial in u^3")
    return IntPoly(p.coeffs[::3])


def _nearest_label(modulus, references, tol):
    best = min(references, key=lambda m: abs(modulus - m))
    if abs(modulus - best) <= tol:
        return f"|u|={best:.6f}"
    return "unclassified"
