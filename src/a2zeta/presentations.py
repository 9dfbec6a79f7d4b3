"""Triangle presentations over PG(2, q) and the quotient complexes they induce.

A triangle presentation is a pair (lambda, T): a point-to-line bijection
lambda together with a set T of ordered point triples that is closed under
rotation, functional in its first two coordinates, and compatible with
lambda-incidence.  Each presentation yields a 3-vertex quotient complex:
one vertex per type, one edge per (point, type) pair, one chamber per
triple.  The search works inside a Singer cycle of the plane, where flags
become differences in Z/(q^2+q+1) and a presentation collapses to a
rotation-closed successor system on difference triples; this keeps the
search space desk-scale at every supported q.
"""

import random
from dataclasses import dataclass

from .complexes import TypedComplex, _least_rotation, require_valid
from .errors import PresentationInvalid, UnsupportedOrder
from .gf import GF
from .planes import ProjectivePlane, build_plane


@dataclass(frozen=True)
class TrianglePresentation:
    plane: ProjectivePlane
    lam: tuple  # point id -> line id
    triples: frozenset  # ordered point-id triples

    def __post_init__(self):
        check_presentation(self.plane, self.lam, self.triples)


def check_presentation(plane, lam, triples):
    n, q = plane.n, plane.q
    if len(lam) != n or sorted(set(lam)) != list(range(n)):
        raise PresentationInvalid("lambda is not a bijection")
    for x, y, z in triples:
        if (y, z, x) not in triples:
            raise PresentationInvalid(f"rotation of {(x, y, z)} missing")
    seen = {}
    for x, y, z in triples:
        if (x, y) in seen and seen[(x, y)] != z:
            raise PresentationInvalid(f"two completions of pair {(x, y)}")
        seen[(x, y)] = z
    for x, y, z in triples:
        if y not in plane.lines[lam[x]]:
            raise PresentationInvalid(f"pair {(x, y)} not lambda-incident")
    for x in range(n):
        for y in plane.lines[lam[x]]:
            if (x, y) not in seen:
                raise PresentationInvalid(f"incident pair {(x, y)} has no triple")
    if len(triples) != (q + 1) * n:
        raise PresentationInvalid(
            f"|T| = {len(triples)}, expected {(q + 1) * n}"
        )


# ----------------------------------------------------------------------
# Singer cycle machinery


def _primitive_cubic(q):
    """Coefficients (c0, c1, c2) of a primitive monic cubic over GF(q)."""
    F = GF(q)
    order = q**3 - 1
    primes = []
    n = order
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)

    def reduce_pow(a, e, mod):
        # a, result are length-3 tuples over F; multiply mod x^3 + c2 x^2 + c1 x + c0
        def mul(u, v):
            prod = [0] * 5
            for i, x in enumerate(u):
                if x == 0:
                    continue
                for j, y in enumerate(v):
                    if y:
                        prod[i + j] = F.add(prod[i + j], F.mul(x, y))
            for i in (4, 3):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j in range(3):
                        prod[i - 3 + j] = F.sub(prod[i - 3 + j], F.mul(c, mod[j]))
            return tuple(prod[:3])

        result = (1, 0, 0)
        base = a
        while e:
            if e & 1:
                result = mul(result, base)
            base = mul(base, base)
            e >>= 1
        return result

    for c2 in range(q):
        for c1 in range(q):
            for c0 in range(1, q):
                mod = (c0, c1, c2)
                # cubic with no roots is irreducible
                if any(
                    F.add(
                        F.add(F.mul(F.mul(r, r), r), F.mul(c2, F.mul(r, r))),
                        F.add(F.mul(c1, r), c0),
                    )
                    == 0
                    for r in range(q)
                ):
                    continue
                x = (0, 1, 0)
                if reduce_pow(x, order, mod) != (1, 0, 0):
                    continue
                if all(reduce_pow(x, order // p, mod) != (1, 0, 0) for p in primes):
                    return mod
    raise AssertionError(f"no primitive cubic over GF({q})")


def _singer_orbit(plane):
    """Point ids in Singer order and the difference set of a base line.

    Returns (orbit, D): orbit[i] is the plane point id of sigma^i(e1), and
    D = {i : orbit[i] on the base line}, a planar difference set mod n.
    """
    F = plane.field
    q, n = plane.q, plane.n
    c0, c1, c2 = _primitive_cubic(q)

    def step(v):
        # multiply by the companion matrix of x^3 + c2 x^2 + c1 x + c0
        a, b, c = v
        return (
            F.neg(F.mul(c0, c)),
            F.sub(a, F.mul(c1, c)),
            F.sub(b, F.mul(c2, c)),
        )

    def normalize(v):
        lead = next(x for x in v if x != 0)
        inv = F.inv(lead)
        return tuple(F.mul(inv, x) for x in v)

    orbit = []
    v = (1, 0, 0)
    for _ in range(n):
        orbit.append(plane.point_index[normalize(v)])
        v = step(v)
    if len(set(orbit)) != n:
        raise AssertionError("Singer orbit does not cover the plane")
    base_line = plane.lines[0]
    D = sorted(i for i in range(n) if orbit[i] in base_line)
    return orbit, D


def _successor_systems(D, target, n):
    """Rotation-closed systems of difference triples summing to target mod n.

    Yields frozensets S of triples (d1, d2, d3) in D^3 with d1+d2+d3 = target,
    closed under rotation, covering each element of D exactly once as a first
    coordinate.  These are exactly the functional, rotation-closed choices.
    """
    triples = [
        (d1, d2, (target - d1 - d2) % n)
        for d1 in D
        for d2 in D
        if (target - d1 - d2) % n in D
    ]
    classes = []
    seen = set()
    for t in triples:
        rots = {t, (t[1], t[2], t[0]), (t[2], t[0], t[1])}
        key = min(rots)
        if key in seen:
            continue
        seen.add(key)
        firsts = [r[0] for r in rots]
        if len(rots) != 1 and len(set(firsts)) != len(firsts):
            continue  # would assign two successors to one difference
        classes.append((key, frozenset(rots), frozenset(firsts)))
    classes.sort()

    def extend(chosen, covered):
        if covered == frozenset(D):
            yield frozenset().union(*(c[1] for c in chosen))
            return
        pivot = min(d for d in D if d not in covered)
        for cls in classes:
            if pivot in cls[2] and not (cls[2] & covered):
                yield from extend(chosen + [cls], covered | cls[2])

    yield from extend([], frozenset())


def search_triangle_presentations(plane, limit, seed=0):
    """Backtracking search for triangle presentations on the given plane.

    The lambda candidates are the Singer-equivariant bijections
    point sigma^i  ->  line sigma^(i+c); for each shift c the compatible T
    are in bijection with rotation-closed successor systems on difference
    triples.  Deterministic for a fixed (q, seed, limit); the seed only
    permutes the exploration order.
    """
    if limit <= 0:
        return []
    orbit, D = _singer_orbit(plane)
    n = plane.n
    line_of = {}
    base = plane.lines[0]
    for j in range(n):
        pts = frozenset(orbit[(i + j) % n] for i in range(n) if orbit[i] in base)
        line_of[j] = plane.line_index[pts]

    shifts = list(range(n))
    if seed:
        random.Random(seed).shuffle(shifts)
    results = []
    for c in shifts:
        for S in _successor_systems(D, (-3 * c) % n, n):
            lam = [0] * n
            for i in range(n):
                lam[orbit[i]] = line_of[(i + c) % n]
            succ = {t[0]: t[1] for t in S}
            triples = set()
            for i in range(n):
                for d1 in D:
                    d2 = succ[d1]
                    triples.add(
                        (
                            orbit[i],
                            orbit[(i + c + d1) % n],
                            orbit[(i + 2 * c + d1 + d2) % n],
                        )
                    )
            results.append(
                TrianglePresentation(plane, tuple(lam), frozenset(triples))
            )
            if len(results) >= limit:
                return results
    return results


def complex_from_presentation(tp):
    """The 3-vertex quotient complex of a triangle presentation.

    Vertices 0, 1, 2 carry their own index as type.  Point x at slot i gives
    the type-1 edge v_i -> v_{i+1} with id i*n + x; the triple (x, y, z)
    gives the chamber with edges x at slot 0, y at slot 1, z at slot 2.
    """
    plane = tp.plane
    n = plane.n
    edges = []
    for i in range(3):
        for x in range(n):
            edges.append((i, (i + 1) % 3))

    def eid(i, x):
        return i * n + x

    chambers = [
        (eid(0, x), eid(1, y), eid(2, z)) for (x, y, z) in sorted(tp.triples)
    ]
    cx = TypedComplex(plane.q, (0, 1, 2), edges, chambers)
    require_valid(cx)
    return cx


def singer_action(cx):
    """The Singer shift of PG(2, q) as a permutation of cx's edges, or None.

    complex_from_presentation gives point x at slot i the edge i*n + x, and
    search_triangle_presentations builds triple sets closed under the shift
    orbit[i] -> orbit[i+1] of _singer_orbit.  So on a 3-vertex complex with
    3n edges, n = q^2 + q + 1, the candidate is i*n + x -> i*n + sigma(x).  It
    is returned only if it keeps every edge's endpoints and maps the chamber
    set onto itself, that is only if it is an automorphism, which then acts
    freely with every orbit of length n.  Otherwise, and for a q that
    build_plane does not support, the result is None, the trivial group.
    """
    q = cx.q
    n = q * q + q + 1
    if cx.n_vertices != 3 or cx.n_edges != 3 * n:
        return None
    try:
        orbit, _ = _singer_orbit(build_plane(q))
    except UnsupportedOrder:
        return None
    shift = [0] * n
    for i, x in enumerate(orbit):
        shift[x] = orbit[(i + 1) % n]
    sigma = [slot * n + shift[x] for slot in range(3) for x in range(n)]
    if any(cx.edges[s] != cx.edges[e] for e, s in enumerate(sigma)):
        return None
    image = sorted(_least_rotation(tuple(sigma[e] for e in tri)) for tri in cx.chambers)
    return sigma if image == sorted(cx.chambers) else None
