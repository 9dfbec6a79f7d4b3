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
polynomial in u^3.  For LE and LB, with M the restriction of L^3 to the
type-0 indices, det(I - L u) = det(I - u^3 M), an N x N determinant in
place of a 3N x 3N one.  M is never formed: type0_orbit_rows takes the rows
it needs from three sparse row-times-operator steps each.

A search-built complex also carries the Singer shift of PG(2, q), a free
action of Z/n, n = q^2 + q + 1, on its edges and directed chambers;
presentations.singer_action returns both permutations from one check of
the chamber set.  It commutes with LE and LB, checked on their entries, so
M is determined by one row per orbit on the type-0 indices: q + 1 rows of
MB and one of ME.  det_i_minus_rows factors the determinant over the n
characters of Z/n, as in the Artin L-function factorization of
Stark-Terras: modulo a prime p = 1 (mod n), det(I - v M) = prod_j
det(I - v M_j) with every M_j only 1-square for ME and (q+1)-square for MB.
The residues are the same as without the action and the prime count comes
from the same Hadamard bound, so PE is exact by the same proof.

With the action, the identity itself splits over the characters:
character_relations checks one small relation per character j between
PE_j = 1 - m_j v, PB_j = det(I + v MB_j) and, at j = 0, Dvertex, modulo a
few primes p = 1 (mod n) whose product exceeds a bound on every residual
coefficient under every complex embedding.  Then every relation holds
exactly, so the identity does, and PB is taken from it by exact division,
    PB(v) = (1 - v)^chi PE(v) PE(v^2) / Dvertex(v),  v = u^3,
with neither PB's determinant nor the identity's two products formed.  If
a relation fails, the bundle records the character j and the prime p, and
PB comes from its own determinant and the identity from the two products,
as on a complex without the action (relabeled, or not built from a
presentation).  That one takes the trivial group, n = 1: every type-0
index is its own orbit, and the same determinant code runs.

ramanujan_check decides its verdict on Dvertex alone.  On a proven bundle
it checks fact (a) exactly on ME's orbit row (its autocorrelation, its sum
and Dvertex's three trivial factors) and then labels every PB and PE root
by the proven factor it comes from, with its exact modulus.  Otherwise,
or if fact (a) fails, the PB and PE root histograms are numerical and
label the roots of a squarefree factor that fails its certificate as
unclassified.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt

import numpy as np

from .complexes import euler_characteristic, require_valid
from .errors import A2ZetaError, RootFindingFailure
from .operators import chamber_operator, edge_operator, vertex_hecke
from .polyint import (
    IntPoly,
    RationalFunction,
    Series,
    character_dets,
    det_i_minus_pencil,
    det_i_minus_rows,
    one_minus_power,
    poly_log_derivative,
    primes_past,
    times_one_minus_power,
)
from .presentations import singer_action

ONE = IntPoly.const(1)


# ----------------------------------------------------------------------
# the type-0 rows of a block-cyclic operator


def type0_orbit_rows(op, types, shift, images):
    """The rows of M = Op^3 on the type-0 indices, one per orbit, and the orbits.

    types[i] is the type of index i; Op must map type t to type t + shift
    (mod 3), and the three type classes must have equal sizes.  images is a
    permutation of the index set, as from singer_action, or None for the
    trivial group.  It must keep every type, commute with Op (checked on
    Op's entries) and have equally long orbits on the type-0 indices, which
    are numbered by their position in their class.  Returns (rows, orbits)
    as det_i_minus_rows takes them.  The rows are taken in Python ints; an
    entry of 2^63 or more raises A2ZetaError.
    """
    if len({types.count(t) for t in range(3)}) != 1:
        raise A2ZetaError("type classes have unequal sizes")
    step = [[] for _ in types]
    for (r, c), v in op.entries.items():
        if types[c] != (types[r] + shift) % 3:
            raise A2ZetaError("operator does not shift types uniformly")
        step[r].append((c, v))
    zero = [i for i, t in enumerate(types) if t == 0]
    pos = {i: a for a, i in enumerate(zero)}
    if images is None:
        images = range(len(types))
    elif sorted(images) != list(range(len(types))) or any(
        types[s] != t for s, t in zip(images, types)
    ):
        raise A2ZetaError("action is not a type-preserving permutation")
    entries = op.entries
    if any(entries.get((images[r], images[c])) != v for (r, c), v in entries.items()):
        raise A2ZetaError("operator does not commute with the action")
    orbits = _orbits([pos[images[i]] for i in zero])
    rows = np.zeros((len(orbits), len(zero)), dtype=np.int64)
    for a, orbit in enumerate(orbits):
        row = {zero[orbit[0]]: 1}
        for _ in range(3):
            after = {}
            for r, x in row.items():
                for c, v in step[r]:
                    after[c] = after.get(c, 0) + x * v
            row = after
        for c, x in row.items():
            if x >= 2**63:
                raise A2ZetaError("an entry of Op^3 does not fit in int64")
            rows[a, pos[c]] = x
    return rows, np.array(orbits, dtype=np.int64)


def _orbits(sigma):
    """The orbits of a permutation sigma of range(len(sigma)), each from its least index.

    Raises A2ZetaError unless every orbit has the same length.
    """
    orbits, seen = [], set()
    for i in range(len(sigma)):
        if i not in seen:
            orbit = [i]
            while sigma[orbit[-1]] != i:
                orbit.append(sigma[orbit[-1]])
            seen.update(orbit)
            orbits.append(orbit)
    if len(set(map(len, orbits))) > 1:
        raise A2ZetaError("action is not free: its orbits differ in length")
    return orbits


def det_i_minus_u3(rows, sign, orbits):
    """det(I - sign * u^3 * M) exactly, M given by type0_orbit_rows."""
    return det_i_minus_rows(sign * rows, orbits).substitute_power(3)


# ----------------------------------------------------------------------
# the identity, one Singer character at a time


def character_relations(q, dvertex, me, edge_orbits, mb, chamber_orbits):
    """Check the identity one character of Z/n at a time: (primes, failure).

    me, edge_orbits and mb, chamber_orbits are the orbit rows of ME and MB
    from type0_orbit_rows under the Singer action, one orbit of ME and
    q + 1 of MB.  With m_j and MB_j the character blocks of
    det_i_minus_rows, PE_j(v) = 1 - m_j v and PB_j(v) = det(I + v MB_j),
    the relations are, in v = u^3,
        (1-v)^(q-2) PE_-j(v) PE_j(v^2) = PB_j(v)             for j != 0,
        (1-v)^(q+1) PE_0(v) PE_0(v^2) = Dvertex(v) PB_0(v),
    and their product over j is the identity, since (q + 1) + (n - 1)(q - 2)
    is chi.  Each residual coefficient c is one integer polynomial in
    zeta^j, so a prime p = 1 (mod n) that kills it at every j of one order
    d lies under every prime ideal of Z[zeta_d] above p: the primes that
    all kill it divide it, and their product to the power phi(d) divides
    its norm.  That norm is at most B^phi(d), B a bound on |c| under every
    complex embedding; so primes are taken until their product exceeds B,
    and then every relation holds exactly.  B is 2^(q+1) (1 + s)^2 plus
    the 1-norm of Dvertex times max_t C(q+1, t) r^(t/2), with s = sum |G|
    bounding |m_j| and r the largest squared row 2-norm of the sums over
    the orbit blocks of |MB|, which by Hadamard bounds PB_j's coefficients.

    All primes and characters are checked at once.  failure is None, or
    (j, p) for the first prime and then the least character whose
    residual is nonzero mod p.
    """
    n = edge_orbits.shape[1]
    k = chamber_orbits.shape[0]
    dv = _compress_cube(dvertex)
    s = sum(abs(x) for x in me[0].tolist())
    sums = np.abs(mb)[:, chamber_orbits].sum(axis=2).tolist()
    r = max(sum(x * x for x in row) for row in sums)
    pb_bound = max(comb(k, t) * (isqrt(r**t - 1) + 1) for t in range(k + 1))
    bound = 2 ** (q + 1) * (1 + s) ** 2 + sum(map(abs, dv.coeffs)) * pb_bound
    primes, _ = primes_past(bound, mb.shape[1], n)
    pe, mods = character_dets(me, edge_orbits, primes)
    pb, _ = character_dets(-mb, chamber_orbits, primes)  # det(I + v MB_j)
    # (1 - m_-j v)(1 - m_j v^2) = (1 + a v)(1 + e v^2), then q - 2 times (1 - v)
    e = pe[:, :, 1]
    a = e[:, (-np.arange(n)) % n]
    lhs = np.zeros_like(pb)
    lhs[:, :, :4] = np.stack([np.ones_like(e), a, e, a * e % mods[:, 0]], axis=2)
    for _ in range(q - 2):
        lhs[:, :, 1:] = (lhs[:, :, 1:] - lhs[:, :, :-1]) % mods
    failed = (lhs != pb).any(axis=2)
    # j = 0 over the integers, one prime at a time
    cube = one_minus_power(1, 3)
    for i, p in enumerate(primes):
        residual = IntPoly(lhs[i, 0].tolist()) * cube - IntPoly(pb[i, 0].tolist()) * dv
        failed[i, 0] = any(c % p for c in residual.coeffs)
    if failed.any():
        i, j = np.argwhere(failed)[0]
        return primes, (int(j), primes[i])
    return primes, None


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
    # how PB was reached, outside equality: proof is (primes, G) when
    # character_relations proved the identity, G_g = ME[rep, sigma^g rep] as
    # Python ints, and failure the (j, p) where a relation failed
    proof: tuple = field(default=None, compare=False)
    failure: tuple = field(default=None, compare=False)

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
    """All four exact polynomials and the Euler characteristic.

    With the Singer action, PB is the exact quotient of the identity once
    character_relations has proven it; if a relation fails, or without the
    action, PB is its own determinant.
    """
    require_valid(cx)
    A1, A2 = vertex_hecke(cx)
    LE = edge_operator(cx)
    LB = chamber_operator(cx)
    dvertex = vertex_determinant(cx, A1, A2)
    chi = euler_characteristic(cx)
    # source types: of each edge, and of the distinguished edge of 3*C + slot
    edge_types = [cx.vertex_types[s] for s, _ in cx.edges]
    chamber_types = [edge_types[e] for tri in cx.chambers for e in tri]
    edge_images, chamber_images = singer_action(cx) or (None, None)
    me, edge_orbits = type0_orbit_rows(LE, edge_types, 1, edge_images)
    pe = det_i_minus_u3(me, 1, edge_orbits)
    mb, chamber_orbits = type0_orbit_rows(LB, chamber_types, 2, chamber_images)
    proof = failure = None
    if edge_images is not None:
        primes, failure = character_relations(
            cx.q, dvertex, me, edge_orbits, mb, chamber_orbits
        )
        if failure is None:
            proof = primes, me[0, edge_orbits[0]].tolist()
    if proof is None:
        pb = det_i_minus_u3(mb, -1, chamber_orbits)
    else:
        # PB = (1 - v)^chi PE(v) PE(v^2) / Dvertex(v), v = u^3
        pe_v = _compress_cube(pe)
        product = times_one_minus_power(pe_v * pe_v.substitute_power(2), chi)
        pb = product.divexact(_compress_cube(dvertex)).substitute_power(3)
    return ZetaBundle(
        q=cx.q,
        chi=chi,
        dvertex=dvertex,
        pb=pb,
        pe=pe,
        pe2=pe.substitute_power(2),
        proof=proof,
        failure=failure,
    )


def check_main_identity(cx, bundle=None):
    """(1-u^3)^chi PE PE2 == Dvertex PB; returns (passed, residual).

    A bundle proven character by character passes with residual 0 and no
    product formed; any other bundle is checked by the two products.
    """
    b = bundle if bundle is not None else zeta_bundle(cx)
    if b.proof is not None:
        return True, IntPoly()
    lhs = one_minus_power(3, b.chi) * b.pe * b.pe2
    rhs = b.dvertex * b.pb
    residual = lhs - rhs
    return residual.is_zero(), residual


def zeta_minus(b):
    """(num, den) of Zminus = PB / PE2 in lowest terms, den(0) = 1.

    On a proven bundle PB / PE2 = (1 - u^3)^chi PE / Dvertex, whose
    reduction is a gcd with the degree-9 Dvertex; otherwise PB / PE2 is
    reduced as it stands.  The reduced form with den(0) = 1 is unique, so
    both give the same pair.
    """
    if b.proof is None:
        z = RationalFunction(b.pb, b.pe2)
        return z.num, z.den
    num = times_one_minus_power(_compress_cube(b.pe), b.chi)
    z = RationalFunction(num, _compress_cube(b.dvertex))
    return z.num.substitute_power(3), z.den.substitute_power(3)


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
    lhs = b.chi * poly_log_derivative(one_minus_power(3, 1), order) - poly_log_derivative(
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
    weight = Series.from_poly(one_minus_power(3, 1, q * q), order) * Series.from_poly(
        one_minus_power(3, 1), order
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
    have modulus within tol of 1/q.  PB and PE get every root labeled by
    its exact modulus on a bundle proven by characters where fact (a)
    holds (_character_spectra); otherwise they get numerical modulus
    histograms against their expected values, and PE's exact
    reciprocal-integer root moduli (its u^3-cyclotomic-type factors) join
    its reference set.  pe_reference_moduli is that set, or PE's two exact
    moduli q^-2 and q^-1/2 on the proven route.
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

    spectra = _character_spectra(b)
    if spectra is None:
        pb_factors = _rooted_factors(b.pb)
        pe_factors = _rooted_factors(b.pe)
        pb_reference = [1.0, q**-0.5, q**-0.25] + _exact_factor_moduli(pb_factors)
        pe_reference = _exact_factor_moduli(pe_factors)
        spectra = (
            _histogram(pb_factors, pb_reference, tol),
            _histogram(pe_factors, [1.0 / q, q**-0.5] + pe_reference, tol),
            pe_reference,
        )
    return RamanujanReport(verdict, tol, records, surplus, *spectra)


def _character_spectra(b):
    """(PB roots, PE roots, PE's exact moduli) of a proven bundle, or None.

    Fact (a) is checked exactly on ME's orbit row G: its autocorrelation
    A(s) = sum_g G_g G_(g+s) is constant for s != 0, A(0) - A(1) = q^3 and
    sum G = q^6, and Dvertex = (1-v)(1-q^3 v)(1-q^6 v).  Then m_0 = q^6 and
    |m_j|^2 = A(0) - A(1) = q^3 for j != 0, so the proven relations
    PB_j = (1-v)^(q-2) (1 - m_-j v)(1 - m_j v^2) and, from the j = 0 one,
    PB_0 = (1-v)^q (1 + q^3 v) give every root of PB and PE = prod_j
    (1 - m_j v) with its exact modulus:
        PB: |u| = 1 (from 1 - v), 1/q (1 + q^3 v), q^-1/2 (1 - m_-j v),
            q^-1/4 (1 - m_j v^2);
        PE: |u| = q^-2 (j = 0), q^-1/2 (j != 0).
    The printed approximate roots come from m_j, a floating-point DFT of
    G.  None when the bundle is unproven or fact (a) fails.
    """
    if b.proof is None:
        return None
    q, g = b.q, b.proof[1]
    n = len(g)
    auto = [sum(x * y for x, y in zip(g, g[s:] + g[:s])) for s in range(n)]
    trivial = [one_minus_power(3, 1, c) for c in (1, q**3, q**6)]
    if (
        len(set(auto[1:])) != 1
        or auto[0] - auto[1] != q**3
        or sum(g) != q**6
        or b.dvertex != trivial[0] * trivial[1] * trivial[2]
    ):
        return None
    m = np.fft.fft(np.array(g, dtype=float))[1:]  # m_j for j = 1..n-1
    pe = [(1.0 / q**6, q**-2.0)] + [(1.0 / x, q**-0.5) for x in m]
    pb = [(1.0, 1.0)] * ((q - 2) * (n - 1) + q) + [(-1.0 / q**3, 1.0 / q)]
    pb += [(1.0 / x, q**-0.5) for x in m]
    pb += [(s / np.sqrt(x), q**-0.25) for x in m for s in (1.0, -1.0)]
    return _labeled(pb), _labeled(pe), [q**-2.0, q**-0.5]


def _labeled(roots):
    """Root records of the cube roots u of (v, exact |u|) pairs, by exact |u|
    and then by root, rounded so that float noise does not order roots that
    print alike."""
    v = np.array([v for v, _ in roots], dtype=complex)
    moduli = np.repeat([modulus for _, modulus in roots], 3)
    a = np.angle(v)[:, None] / 3.0 + 2.0 * np.pi * np.arange(3) / 3.0
    u = (np.abs(v)[:, None] ** (1.0 / 3.0) * np.exp(1j * a)).ravel()
    order = np.lexsort((u.imag.round(9), u.real.round(9), moduli))
    return [
        RootRecord(x, abs(x), f"|u|={modulus:.6f}")
        for x, modulus in zip(u[order].tolist(), moduli[order].tolist())
    ]


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
