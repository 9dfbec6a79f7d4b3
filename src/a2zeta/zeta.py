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
it needs by stepping them all together through L's successor arrays
(operators.edge_successors and chamber_successors), three steps of one
type class each.

A search-built complex also carries the Singer shift of PG(2, q), a free
action of Z/n, n = q^2 + q + 1, on its edges and directed chambers;
presentations.singer_action returns both permutations from one check of
the chamber set.  It commutes with LE and LB, implied by singer_action's
automorphism check, so M is determined by one row per orbit on the type-0
indices: q + 1 rows of MB and one of ME; without it, the trivial group,
n = 1, takes every type-0 index as its own orbit.  det_i_minus_rows
factors the determinant over the n characters of Z/n, as in the Artin
L-function factorization of Stark-Terras: modulo a prime p = 1 (mod n),
det(I - v M) = prod_j det(I - v M_j), with small blocks M_j (1-square for
ME and (q+1)-square for MB under the Singer action).

The identity splits over the same characters: character_relations checks
one relation per character j between PE_j = det(I - v ME_j),
PB_j = det(I + v MB_j) and, at j = 0, Dvertex (with n = 1, the identity
itself), modulo a few primes p = 1 (mod n) whose product exceeds a bound
on every residual coefficient under every complex embedding.  Then the
identity holds exactly.  Each operator's character determinants are taken
once: ME's on primes that cover both that bound and PE's Hadamard bound,
so that the product of its residues over j rebuilds PE exactly by CRT,
and MB's on the prefix the proof needs.  PB is the identity's exact
quotient,
    PB(v) = (1 - v)^chi PE(v) PE(v^2) / Dvertex(v),  v = u^3,
formed only when read (ZetaBundle.pb), with neither PB's determinant nor
the two products formed; a failed relation raises IdentityFailure.

ramanujan_check is exact on one route for every complex, with no floating
point.  Its verdict comes from Dvertex in integers: the three trivial
factors are divided out exactly, and the remainder must have every root on
|u| = 1/q, decided by a Sturm count after x = s + 1/s, s = q^3 u^3.  PB's
and PE's zeros are counted per exact modulus from fact (a), checked exactly
on ME's orbit rows (row and column sums q^6, ME ME^T = q^3 I + c J), with
the identity the bundle has proven; each count follows from N, the number
of type-0 edges, and chi.  Without fact (a) they are reported as
uncertified, with their degrees, PB's from the identity.
"""

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import comb, isqrt, prod

import numpy as np

from .complexes import euler_characteristic, require_valid
from .enumeration import free_orbits
from .errors import A2ZetaError, IdentityFailure
from .operators import chamber_successors, edge_successors, vertex_hecke
from .polyint import (
    IntPoly,
    RationalFunction,
    Series,
    character_dets,
    crt_poly,
    det_i_minus_pencil,
    hadamard_bound,
    one_minus_power,
    _max_row_norm2,
    _product_mod,
    orbit_blocks,
    poly_log_derivative,
    primes_past,
    roots_on_unit_circle,
    times_one_minus_power,
)
from .presentations import singer_action

ONE = IntPoly.const(1)


# ----------------------------------------------------------------------
# the type-0 rows of a block-cyclic operator


def type0_orbit_rows(successors, types, images):
    """The rows of M = Op^3 on the type-0 indices, one per orbit, and the orbits.

    successors is Op's operators.Successors, and types[i] is the type of
    index i; the type-0 indices are numbered by their position in their
    class.  images is the action on the indices, an int sequence from
    singer_action, or None for the trivial group; its orbits on type 0 must
    be equally long.  Unchecked here, by contract: Op maps type t to t + s
    for one s, over type classes of equal sizes (require_valid gives both
    for LE and LB), and images is a type-preserving permutation that
    commutes with Op (singer_action proves it an automorphism of the
    complex, and LE and LB are defined from edges and chambers alone).
    Returns (rows, orbits) as det_i_minus_rows takes them.

    The rows step through Op together, out of one type class at a time, in
    blocks of at most _STEP_ENTRIES products a step.  A2ZetaError is
    raised up front unless the product over the classes of their longest
    row times their largest weight, a bound on every partial sum of a row
    of Op^3, is below 2^63.
    """
    indptr, indices, weights = successors
    types = np.asarray(types)
    degree = indptr[1:] - indptr[:-1]
    src = np.repeat(np.arange(len(types)), degree)
    # the entries out of class t are ends[t]:ends[t + 1] of these, by column
    order = np.argsort(types[src] * len(types) + indices)
    src, cols, weights = src[order], indices[order], weights[order]
    ends = np.searchsorted(types[src], np.arange(4)).tolist()
    change = np.ones(len(cols), dtype=bool)
    change[1:] = cols[1:] != cols[:-1]
    first = np.flatnonzero(change)  # of each column
    groups = np.searchsorted(first, ends).tolist()
    longest, heaviest = np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)
    np.maximum.at(longest, types, degree)
    np.maximum.at(heaviest, types[src], weights)
    if prod(d * w for d, w in zip(longest.tolist(), heaviest.tolist())) >= 2**63:
        raise A2ZetaError("an entry of Op^3 does not fit in int64")
    zero = np.flatnonzero(types == 0)
    pos = np.cumsum(types == 0) - 1  # of each type-0 index in its class
    sigma = np.arange(len(zero)) if images is None else pos[np.asarray(images)[zero]]
    orbits = np.array(free_orbits(sigma.tolist()), dtype=np.int64)
    rows = np.zeros((len(orbits), len(zero)), dtype=np.int64)
    block = max(1, _STEP_ENTRIES // max(1, len(src)))
    for a in range(0, len(orbits), block):
        reps = zero[orbits[a : a + block, 0]]
        x = np.zeros((len(reps), len(types)), dtype=np.int64)
        x[np.arange(len(reps)), reps] = 1
        t = 0
        for _ in range(3):
            lo, hi = ends[t], ends[t + 1]
            starts = first[groups[t] : groups[t + 1]]
            after = np.zeros_like(x)
            if hi > lo:
                product = x[:, src[lo:hi]] * weights[lo:hi]
                after[:, cols[starts]] = np.add.reduceat(product, starts - lo, axis=1)
                t = int(types[cols[lo]])
            x = after
        rows[a : a + block] = x[:, zero]
    return rows, orbits


_STEP_ENTRIES = 2**22


# ----------------------------------------------------------------------
# the identity, one character at a time


def character_relations(chi, dvertex, me, edge_orbits, mb, chamber_orbits):
    """Check the identity one character of Z/n at a time, and take PE from
    the same residues: (PE in v = u^3, primes, failure).

    me, edge_orbits and mb, chamber_orbits are the orbit rows of ME and MB
    from type0_orbit_rows under one free action of Z/n, the Singer action
    or the trivial group (n = 1, every type-0 row): k_E orbits of ME and
    k_B of MB.  With ME_j and MB_j the character blocks of
    det_i_minus_rows, PE_j(v) = det(I - v ME_j) and PB_j(v) = det(I + v
    MB_j), and e = k_B - 3 k_E, the relations are, in v = u^3,
        (1-v)^e PE_-j(v) PE_j(v^2) = PB_j(v)                       for j != 0,
        (1-v)^(chi - (n-1) e) PE_0(v) PE_0(v^2) = Dvertex(v) PB_0(v),
    and their product over j is the identity; with n = 1 the one relation
    is the identity.  Each residual coefficient c is one integer polynomial
    in zeta^j, so a prime p = 1 (mod n) that kills it at every j of one
    order d lies under every prime ideal of Z[zeta_d] above p: the primes
    that all kill it divide it, and their product to the power phi(d)
    divides its norm.  That norm is at most B^phi(d), B a bound on |c|
    under every complex embedding; so primes are taken until their product
    exceeds B, and then every relation holds exactly.  B is
    2^(chi - (n-1) e) L^2, L = sum_t C(k_E, t) r_E^(t/2) a bound on PE_j's
    1-norm, plus Dvertex's 1-norm times max_t C(k_B, t) r_B^(t/2), a bound
    on PB_j's coefficients (_coefficient_bounds, by Hadamard).

    The primes past B, the primes returned, come from primes_past under
    the larger block's rule, and MB's character determinants are taken on
    them.  ME's are taken once, on those primes and, while their product
    is not past PE's hadamard_bound, on further distinct ones under ME's
    own rule, which admits larger primes; so their product over j rebuilds
    PE.  All primes and characters are checked at once.  failure is None,
    or (j, p) for the first prime and then the least character whose
    residual is nonzero mod p.
    """
    k_e, n = edge_orbits.shape
    k = chamber_orbits.shape[0]
    e = k - 3 * k_e
    dv = _compress_cube(dvertex)
    bound = 2 ** (chi - (n - 1) * e) * sum(_coefficient_bounds(me, edge_orbits)) ** 2
    bound += sum(map(abs, dv.coeffs)) * max(_coefficient_bounds(mb, chamber_orbits))
    primes, modulus = primes_past(bound, max(k, k_e), n)
    # ME's own rule admits larger primes than MB's: any further ones PE needs
    rest = hadamard_bound(me) // modulus
    pe_primes = primes + (primes_past(rest, k_e, n, set(primes))[0] if rest else [])
    pe, mods = character_dets(me, edge_orbits, pe_primes)
    pe_v = crt_poly(_product_mod(pe, mods[:, 0]), pe_primes)
    pe, mods = pe[: len(primes)], mods[: len(primes)]
    pb, _ = character_dets(-mb, chamber_orbits, primes)  # det(I + v MB_j)
    p = mods[:, 0]
    # PE_-j(v) PE_j(v^2) as a product of two factors, then e times (1 - v)
    factors = np.zeros((len(primes), n, 2, 2 * k_e + 1), dtype=np.int64)
    factors[:, :, 0, : k_e + 1] = pe[:, (-np.arange(n)) % n]
    factors[:, :, 1, ::2] = pe
    product = _product_mod(factors.reshape(-1, 2, 2 * k_e + 1), np.repeat(p, n, axis=0))
    lhs = np.zeros_like(pb)
    lhs[:, :, : 3 * k_e + 1] = product[:, : 3 * k_e + 1].reshape(len(primes), n, -1)
    for _ in range(e):
        lhs[:, :, 1:] = (lhs[:, :, 1:] - lhs[:, :, :-1]) % mods
    failed = (lhs != pb).any(axis=2)
    # j = 0: chi - n e more times (1 - v), less Dvertex PB_0
    rest = chi - n * e
    top = np.zeros((len(primes), k + 1 + max(rest, dv.degree)), dtype=np.int64)
    top[:, : k + 1] = lhs[:, 0]
    for _ in range(rest):
        top[:, 1:] = (top[:, 1:] - top[:, :-1]) % p
    dv_mod = np.array([[c % x for c in dv.coeffs] for x in primes], dtype=np.int64)
    for t in range(dv.degree + 1):
        top[:, t : t + k + 1] = (top[:, t : t + k + 1] - dv_mod[:, t, None] * pb[:, 0]) % p
    failed[:, 0] = top.any(axis=1)
    if failed.any():
        i, j = np.argwhere(failed)[0]
        return pe_v, primes, (int(j), primes[i])
    return pe_v, primes, None


def _coefficient_bounds(rows, orbits):
    """C(k, t) ceil(r^(t/2)), t = 0..k: bounds on the coefficients of det(I - v M_j).

    rows and orbits are as det_i_minus_rows takes them, and r is the
    largest squared row 2-norm of the k x k sum over the orbit blocks of
    |M|, which bounds every entry of every M_j under every embedding.
    """
    k = orbits.shape[0]
    r = _max_row_norm2(np.abs(rows)[:, orbits].sum(axis=2))
    return [comb(k, t) * (isqrt(r**t - 1) + 1) for t in range(k + 1)]


# ----------------------------------------------------------------------
# the bundle


@dataclass
class ZetaBundle:
    q: int
    chi: int
    dvertex: IntPoly
    pe: IntPoly
    # outside equality: proof, the primes with which character_relations
    # proved the identity; me, ME's (orbit rows, orbits) from
    # type0_orbit_rows, for ramanujan_check; and identity, the (chi,
    # Dvertex, PE) in v = u^3 of the proof, of which PB is the quotient
    proof: list = field(default=None, compare=False)
    me: tuple = field(default=None, compare=False)
    identity: tuple = field(default=None, compare=False, repr=False)

    @property
    def pe2(self):
        """PE2 = det(I - LE u^2) = PE(u^2)."""
        return self.pe.substitute_power(2)

    @cached_property
    def pb(self):
        """PB = det(I + LB u), the proven identity's exact quotient, formed when read."""
        chi, dv, pe = self.identity
        product = times_one_minus_power(pe * pe.substitute_power(2), chi)
        return product.divexact(dv).substitute_power(3)

    @property
    def pb_degree(self):
        """PB's degree in u, read off the proven identity without forming PB."""
        chi, dv, pe = self.identity
        return 3 * (chi + 3 * pe.degree - dv.degree)


def vertex_determinant(cx):
    """det(I - A1 u + q A2 u^2 - q^3 u^3 I), exact."""
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
    """Dvertex, PE and the Euler characteristic, exact, with the identity proven.

    character_relations proves the identity under the Singer action, or
    under the trivial group without it, and takes PE from the same
    residues; PB, the identity's exact quotient, is formed when first
    read.  A failed relation raises IdentityFailure.
    """
    require_valid(cx)
    dvertex = vertex_determinant(cx)
    chi = euler_characteristic(cx)
    # source types: of each edge, and of the distinguished edge of 3*C + slot
    edge_types = np.array(cx.vertex_types)[cx.edge_array[:, 0]]
    chamber_types = edge_types[cx.chamber_array.ravel()]
    edge_images, chamber_images = singer_action(cx) or (None, None)
    me, edge_orbits = type0_orbit_rows(edge_successors(cx), edge_types, edge_images)
    mb, chamber_orbits = type0_orbit_rows(chamber_successors(cx), chamber_types, chamber_images)
    pe, proof, failure = character_relations(chi, dvertex, me, edge_orbits, mb, chamber_orbits)
    if failure is not None:
        raise IdentityFailure(*failure)
    return ZetaBundle(
        q=cx.q,
        chi=chi,
        dvertex=dvertex,
        pe=pe.substitute_power(3),
        proof=proof,
        me=(me, edge_orbits),
        identity=(chi, _compress_cube(dvertex), pe),
    )


def zeta_minus(b):
    """Zminus = PB / PE2 in lowest terms, den(0) = 1, as a RationalFunction.

    By the identity, which every bundle has proven, PB / PE2 =
    (1 - u^3)^chi PE / Dvertex, whose reduction is a gcd with the small
    Dvertex; the reduced form with den(0) = 1 is unique, so it is that of
    PB / PE2.
    """
    num = times_one_minus_power(_compress_cube(b.pe), b.chi)
    return RationalFunction(num, _compress_cube(b.dvertex)).substitute_power(3)


def zeta_functions(cx, bundle=None):
    """The four zeta functions as reduced rational functions."""
    b = bundle if bundle is not None else zeta_bundle(cx)
    return {
        "Z": RationalFunction(ONE, b.pe * b.pe2),
        "Z1": RationalFunction(ONE, b.pe),
        "Z2": RationalFunction(ONE, b.pb.substitute_neg()),
        "Zminus": zeta_minus(b),
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

    cx must be valid, by contract: its caller has run require_valid, as
    check_series_identity does, and it is not run again.
    """
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
    nonnegative integers.  cx is validated once: by zeta_bundle, or here
    when a bundle is given.
    """
    if bundle is None:
        b = zeta_bundle(cx)
    else:
        require_valid(cx)
        b = bundle
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
# exact root classes


@dataclass
class RamanujanReport:
    verdict: str
    # (label, count) for each class of zeros of Dvertex, PB and PE, the
    # count of zeros in u; a label is trivial, ramanujan, nontrivial or
    # |u|=<exact modulus>
    dvertex: list
    pb: list
    pe: list
    # name -> degree in u of PB or PE when its classes are unproven; its
    # class list is then empty
    uncertified: dict

    @property
    def passed(self):
        return self.verdict == "RAMANUJAN"


def ramanujan_check(cx, bundle=None):
    """Classify the zeros of the three determinants against the RH criteria.

    Dvertex gives the verdict, in integers only: its nine trivial zeros,
    the cube roots of v = 1, 1/q^3, 1/q^6, are the factors (1 - v),
    (1 - q^3 v) and (1 - q^6 v), divided out exactly, and every other zero
    has |u| = 1/q exactly when the remainder, in s = q^3 v, has every root
    on the unit circle (polyint.roots_on_unit_circle).  When fact (a) holds
    on ME's orbit rows (_fact_a), PE = (1 - q^6 v) P(v) with the other
    N - 1 roots of P at |v| = q^(-3/2), N the number of type-0 edges; when
    also Dvertex is the trivial product, the identity, which the bundle
    has proven, gives
        PB = (1 - v)^(chi - 1) (1 + q^3 v) P(v) P(v^2).
    Each factor gives one class, three zeros in u per root in v.  Otherwise
    PB and PE are reported as uncertified, with their degree; PB's is
    read off the identity (ZetaBundle.pb_degree), so PB is never formed.
    """
    b = bundle if bundle is not None else zeta_bundle(cx)
    verdict, dvertex, trivial_only = _dvertex_classes(_compress_cube(b.dvertex), b.q)
    classes = {}
    if _fact_a(b):
        m = 3 * (b.me[0].shape[1] - 1)
        classes["pe"] = [("|u|=q^-2", 3), ("|u|=q^-1/2", m)]
        if trivial_only:
            classes["pb"] = [("|u|=q^-1", 3), ("|u|=q^-1/2", m), ("|u|=q^-1/4", 2 * m)]
            classes["pb"].append(("|u|=1", 3 * (b.chi - 1)))
    degrees = {"pb": b.pb_degree, "pe": b.pe.degree}
    uncertified = {name: degrees[name] for name in ("pb", "pe") if name not in classes}
    # N = 1 or chi = 1 leaves a class empty
    pb, pe = ([(label, n) for label, n in classes.get(name, ()) if n] for name in ("pb", "pe"))
    return RamanujanReport(verdict, dvertex, pb, pe, uncertified)


def _dvertex_classes(dv, q):
    """(verdict, classes, whether dv is the trivial product) for Dvertex in v = u^3.

    Each trivial factor 1 - c v, c = 1, q^3, q^6, that divides dv exactly
    gives three trivial zeros, u^3 = 1/c; a factor that does not makes the
    verdict TRIVIAL-ZEROS-MISSING.  The remainder R is RAMANUJAN when
    S(s) = q^(3d) R(s / q^3), d = deg R, has every root on |s| = 1; its 3d
    zeros are then labeled ramanujan, and otherwise nontrivial (some of
    them, not necessarily each, are off |u| = 1/q).
    """
    found = 0
    for c in (1, q**3, q**6):
        try:
            dv = dv.divexact(IntPoly((1, -c)))
            found += 1
        except A2ZetaError:
            pass
    d = dv.degree
    s = IntPoly([r * q ** (3 * (d - i)) for i, r in enumerate(dv.coeffs)]).primitive()
    on_circle = roots_on_unit_circle(s)
    classes = [("trivial", 3 * found)] if found else []
    if d > 0:
        classes.append(("ramanujan" if on_circle else "nontrivial", 3 * d))
    if found < 3:
        return "TRIVIAL-ZEROS-MISSING", classes, False
    return ("RAMANUJAN" if on_circle else "NOT-RAMANUJAN"), classes, d == 0


def _fact_a(b):
    """Whether fact (a) holds, checked exactly on ME's orbit blocks G_g (the bundle's me).

    Fact (a) is that every row and column sum of ME is q^6, and ME ME^T =
    q^3 I + c J with c = (q^12 - q^3) / N, N = n k.  By the action, the
    rows of ME ME^T at the representatives are A(s)[a, c] = sum_(g, b)
    G_g[a, b] G_(g-s)[c, b], which must be c + q^3 [s = 0][a = c]: under
    the Singer action, with one orbit, G's autocorrelation, and under the
    trivial group, n = 1, ME ME^T itself.  Then the all-ones
    vector is an eigenvector of ME and ME^T for q^6, its complement is
    invariant, and on it ME ME^T = q^3 I, so every other eigenvalue m has
    |m| = q^(3/2), and PE = (1 - q^6 v) prod (1 - m v).
    """
    q = b.q
    g = orbit_blocks(*b.me)
    n, k, _ = g.shape
    c, r = divmod(q**12 - q**3, n * k)
    big = int(np.abs(g).max())
    if big * big * n * k >= 2**63:  # sums of products in Python ints
        g = g.astype(object)
    if r or (g.sum(axis=(0, 2)) != q**6).any() or (g.sum(axis=(0, 1)) != q**6).any():
        return False
    shifted = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n  # [s, g] -> g - s
    rows = g.transpose(1, 0, 2).reshape(k, n * k)  # [a, (g, b)]
    gram = rows @ g[shifted].transpose(2, 0, 1, 3).reshape(k * n, n * k).T
    want = np.full((k, k * n), c, dtype=object)
    want[np.arange(k), np.arange(k) * n] += q**3
    return not (gram != want).any()


def _compress_cube(p):
    """p with only u^{3k} terms -> the polynomial in v = u^3."""
    if any(c and i % 3 for i, c in enumerate(p.coeffs)):
        raise A2ZetaError("polynomial is not a polynomial in u^3")
    return IntPoly(p.coeffs[::3])
