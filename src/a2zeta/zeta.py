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

A search-built complex also carries the Singer shift of PG(2, q), a free
action of Z/n, n = q^2 + q + 1, on its edges and directed chambers;
presentations.singer_action returns both permutations from one check of
the chamber set.  It commutes with LE and LB, so it acts freely on the
type-0 rows of ME and MB, and det_i_minus_pencil factors
each determinant over the n characters of Z/n, as in the Artin
L-function factorization of Stark-Terras: modulo a prime p = 1 (mod n),
det(I - v M) = prod_j det(I - v M_j) with every M_j only 1-square for ME
and (q+1)-square for MB.  The residues are the same as without the action
and the prime count comes from the same Hadamard bound, so the result is
exact by the same proof.  A complex without the action (relabeled, or not
built from a presentation) takes the trivial group, n = 1.

The PB and PE root histograms of ramanujan_check label the roots of a
squarefree factor that fails its numerical certificate as unclassified;
only Dvertex decides the verdict.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import euler_characteristic, require_valid
from .errors import A2ZetaError, RootFindingFailure
from .operators import chamber_operator, edge_operator, vertex_hecke
from .polyint import (
    IntPoly,
    RationalFunction,
    Series,
    det_i_minus_pencil,
    poly_log_derivative,
)
from .presentations import singer_action

ONE = IntPoly.const(1)


def one_minus_cube(scale=1):
    """1 - scale * u^3."""
    return IntPoly((1, 0, 0, -scale))


# ----------------------------------------------------------------------
# block-cyclic determinant reduction


def cyclic_block_product(op, types, shift):
    """Blocks of a type-shifting operator and their cyclic product.

    types[i] is the type of index i, and the operator must map type t to
    type t + shift (mod 3).  Returns the square integer matrix M with
    det(I - u Op) = det(I - u^3 M), namely the product B[0]B[shift]B[2*shift]
    of the blocks starting from type 0, as an int64 array.  Block t holds
    the rows of type t; an index keeps its order within its type class.
    Multiplicities are nonnegative, so the product of the three blocks'
    largest row sums, each taken at least 1, bounds every block entry, every
    entry of the product and every partial sum on the way; the blocks are
    multiplied in int64 only while it is below 2^63.
    """
    pos, sizes = [], [0, 0, 0]
    for t in types:
        pos.append(sizes[t])
        sizes[t] += 1
    if len(set(sizes)) != 1:
        raise A2ZetaError("type classes have unequal sizes")
    largest = [1, 1, 1]
    for t, s in zip(types, op.row_sums()):
        largest[t] = max(largest[t], s)
    if largest[0] * largest[1] * largest[2] >= 2**63:
        raise A2ZetaError("block product may overflow int64")
    blocks = np.zeros((3, sizes[0], sizes[0]), dtype=np.int64)
    for (r, c), v in op.entries.items():
        if types[c] != (types[r] + shift) % 3:
            raise A2ZetaError("operator does not shift types uniformly")
        blocks[types[r], pos[r], pos[c]] = v
    return blocks[0] @ blocks[shift % 3] @ blocks[2 * shift % 3]


def det_i_minus_u3(m, sign=1, action=None):
    """det(I - sign * u^3 * M) for an integer matrix M, exactly.

    action is an optional free permutation action on M's index set, as in
    det_i_minus_pencil, which factors the determinant over its characters.
    """
    return det_i_minus_pencil([sign * np.asarray(m)], action).substitute_power(3)


def _on_type0(images, types):
    """A permutation of an index set, restricted to its type-0 indices.

    Indices are renumbered by their position in the type-0 class, the order
    that cyclic_block_product gives the rows of its product.  No permutation
    (None) stays None.
    """
    if images is None:
        return None
    zero = [i for i, t in enumerate(types) if t == 0]
    pos = {i: a for a, i in enumerate(zero)}
    return [pos[images[i]] for i in zero]


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
            -q * A2.to_dense(),
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
    # source types: of each edge, and of the distinguished edge of 3*C + slot
    edge_types = [cx.vertex_types[s] for s, _ in cx.edges]
    chamber_types = [edge_types[e] for tri in cx.chambers for e in tri]
    edge_images, chamber_images = singer_action(cx) or (None, None)
    me = cyclic_block_product(LE, edge_types, 1)
    pe = det_i_minus_u3(me, 1, _on_type0(edge_images, edge_types))
    mb = cyclic_block_product(LB, chamber_types, 2)
    pb = det_i_minus_u3(mb, -1, _on_type0(chamber_images, chamber_types))
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


def hecke_series(cx, order):
    """Coefficients of (1 - u^3)(I - A1 u + q A2 u^2 - q^3 u^3 I)^{-1}.

    Returns the aggregate Hecke matrices for k = 0..order: aggregate k is the
    sum over n + 2m = k of the type-(n, m) counting matrices; individual
    summands beyond degree 1 are not reconstructed.

    The inverse-series coefficients S_k satisfy
        S_k = A1 S_{k-1} - q A2 S_{k-2} + q^3 S_{k-3} + [k = 0] I,
    and the aggregate of degree k is S_k - S_{k-3}.
    """
    require_valid(cx)
    A1m, A2m = (op.to_dense().astype(object) for op in vertex_hecke(cx))
    q = cx.q
    s = [np.identity(cx.n_vertices, dtype=object)]
    for k in range(1, order + 1):
        acc = A1m @ s[k - 1]
        if k >= 2:
            acc = acc - q * (A2m @ s[k - 2])
        if k >= 3:
            acc = acc + q**3 * s[k - 3]
        s.append(acc)
    return [s[k] - s[k - 3] if k >= 3 else s[k] for k in range(order + 1)]


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
        [0] + [int(table[k].trace()) for k in range(1, order + 1)], order
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


def _approx_roots(p):
    """Double-precision roots of an IntPoly, each with its relative residual.

    The residual is |p(r)| / sum |c_i| |r|^i with p scaled to unit maximum
    coefficient; it is infinite where that denominator is 0 or not finite.
    """
    scale = max(abs(c) for c in p.coeffs)
    coeffs = [c / scale for c in p.coeffs]
    out = []
    for r in np.roots(list(reversed(coeffs))):
        val = 0.0
        mag = 0.0
        for c in reversed(coeffs):
            val = val * r + c
            mag = mag * abs(r) + abs(c)
        ok = np.isfinite(mag) and mag != 0
        out.append((complex(r), abs(val) / mag if ok else float("inf")))
    return out


def _rooted_factors(p):
    """(factor, multiplicity, approximate roots) for p in u^3, rooted in v = u^3.

    Rooting det polynomials directly in u is badly conditioned once the
    degree grows, and repeated roots smear by eps^(1/multiplicity); so the
    compression in v = u^3 is split into exact squarefree factors first and
    only simple roots ever reach the numerical solver.
    """
    return [
        (factor, mult, _approx_roots(factor))
        for factor, mult in _compress_cube(p).squarefree_decomposition()
    ]


def _cube_roots(factors, tol):
    """(u-root, certified) for the rooted factors of a polynomial in u^3.

    A factor is certified when every one of its roots has relative residual
    at most tol.  Each v-root expands to its three cube roots; the result is
    sorted by root.
    """
    out = []
    for _, mult, found in factors:
        certified = all(residual <= tol for _, residual in found)
        for v, _ in found * mult:
            r = abs(v) ** (1.0 / 3.0)
            theta = np.angle(v) / 3.0
            for k in range(3):
                a = theta + 2.0 * np.pi * k / 3.0
                out.append((complex(r * np.cos(a), r * np.sin(a)), certified))
    return sorted(out, key=lambda pair: (abs(pair[0]), pair[0].real, pair[0].imag))


def roots_via_cube(p, tol):
    """Roots of a polynomial in u^3; RootFindingFailure unless all certified."""
    pairs = _cube_roots(_rooted_factors(p), tol)
    if not all(certified for _, certified in pairs):
        raise RootFindingFailure(f"a root has relative residual above {tol}")
    return [z for z, _ in pairs]


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


def _rational_reciprocal_roots(factors):
    """Exact roots v = ±1/d, d a positive integer, of the rooted factors.

    The polynomial has constant term 1, so these are all its rational
    roots.  Candidates come from the numerical roots of the squarefree
    factors, certified or not, and are then confirmed by exact integer
    evaluation, so the returned values (Fractions, with multiplicity) are
    proven roots.
    """
    found = []
    for factor, mult, roots in factors:
        deg = factor.degree
        for r, _ in roots:
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

    pb_factors = _rooted_factors(b.pb)
    pe_factors = _rooted_factors(b.pe)
    pb_reference = [1.0, q**-0.5, q**-0.25] + _exact_factor_moduli(pb_factors)
    pe_reference = _exact_factor_moduli(pe_factors)
    return RamanujanReport(
        verdict=verdict,
        tol=tol,
        vertex_roots=records,
        surplus_trivial=surplus,
        pb_roots=_histogram(pb_factors, pb_reference, tol),
        pe_roots=_histogram(pe_factors, [1.0 / q, q**-0.5] + pe_reference, tol),
        pe_reference_moduli=pe_reference,
    )


def _histogram(factors, references, tol):
    """Root records of the rooted factors, labeled by nearest reference modulus.

    The roots of a squarefree factor that fails its certificate are labeled
    unclassified: the histograms never decide the verdict.
    """
    records = []
    for r, certified in _cube_roots(factors, tol):
        label = _nearest_label(abs(r), references, tol) if certified else "unclassified"
        records.append(RootRecord(r, abs(r), label))
    return records


def _exact_factor_moduli(factors):
    """Moduli contributed by exact (1 - c u^3) factors, c = ±integer reciprocal.

    These are the u^3-cyclotomic-type factors; their root moduli are exact
    reference values for the histograms.
    """
    exact = _rational_reciprocal_roots(factors)
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
