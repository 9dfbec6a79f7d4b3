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

The conditions that check_presentation decides make every vertex link a
projective plane (Cartwright-Mantero-Steger-Zappa 1993), so
complex_from_presentation does not validate its output.

The Singer cycle and the point and line numbering come from planes; the
search reads them off the ProjectivePlane, and singer_action reads the
shift off a complex from planes.singer_orbit, without building the plane.
"""

import functools
import random
from dataclasses import dataclass

import numpy as np

from .complexes import TypedComplex
from .errors import PresentationInvalid, UnsupportedOrder
from .gf import GF
from .planes import ProjectivePlane, singer_orbit


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
    orbit, D, line_of, n = plane.orbit, plane.base, plane.translates, plane.n

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

    The result is valid unchecked: check_presentation has run on tp, as on
    every parsed or searched presentation.  At vertex 0, out-edge x and
    in-edge z share a chamber exactly when x is on lambda(z), since (x, y,
    z) rotates to the incident (z, x, y), and every incident pair has one
    triple, so one chamber.  So the in-edges cut the lines lambda(z), each
    once, out of the out-edges: the link is PG(2, q) on one side and its
    dual, the pencils, on the other.  Vertices 1 and 2 follow from the
    pairs (x, y) and (y, z).  The degrees, the chaining, q + 1 chambers on
    each edge, the counts from |T| = (q + 1) n, chi, connectivity and the
    rotation-normal chambers hold by construction.
    """
    n = tp.plane.n
    edges = [(i, (i + 1) % 3) for i in range(3) for _ in range(n)]
    chambers = [(x, n + y, 2 * n + z) for x, y, z in sorted(tp.triples)]
    return TypedComplex(tp.plane.q, (0, 1, 2), edges, chambers)


def singer_action(cx):
    """The Singer shift of PG(2, q) on cx's edges and directed chambers, or None.

    complex_from_presentation gives point x at slot i the edge i*n + x, and
    search_triangle_presentations builds triple sets closed under the shift
    orbit[i] -> orbit[i+1] of planes.singer_orbit.  So on a 3-vertex complex
    with 3n edges, n = q^2 + q + 1, the candidate is i*n + x -> i*n + sigma(x),
    taken once per q for the life of the process (_singer_shift).
    It is kept only if the chambers are distinct, as on every valid
    complex, and it keeps every edge's endpoints and maps every chamber to
    a chamber; it is then an automorphism, on any complex, validated or
    not, and acts freely with every orbit of length n.
    The result is the pair (edge images, directed chamber images), directed
    chamber 3*C + slot going to the chamber and slot of its edges' images.
    Otherwise, and for a q that GF does not support, the result is None,
    the trivial group.
    """
    q = cx.q
    n = q * q + q + 1
    if cx.n_vertices != 3 or cx.n_edges != 3 * n:
        return None
    sigma = _singer_shift(q)
    edges, tri = cx.edge_array, cx.chamber_array
    if sigma is None or (edges[sigma] != edges).any():
        return None
    # each image rotated as chambers are stored, to start at its least edge
    image = sigma[tri]
    first = image.argmin(axis=1)
    stored = np.take_along_axis(image, (first[:, None] + np.arange(3)) % 3, axis=1)
    keys = tri @ [9 * n * n, 3 * n, 1]
    by_key = np.argsort(keys)
    if (np.diff(keys[by_key]) == 0).any():
        return None  # a repeated chamber: the images below need not be a permutation
    found = np.searchsorted(keys[by_key], stored @ [9 * n * n, 3 * n, 1])
    cid = by_key[found.clip(max=max(len(keys) - 1, 0))]
    if (tri[cid] != stored).any():
        return None
    # slot s of chamber C goes to slot s - first of its image
    chamber_images = 3 * cid[:, None] + (np.arange(3) - first[:, None]) % 3
    return sigma.tolist(), chamber_images.ravel().tolist()


@functools.cache
def _singer_shift(q):
    """i*n + x -> i*n + sigma(x) on 3n edge ids as an int64 array, or None
    for a q that GF does not support."""
    try:
        orbit = np.array(singer_orbit(GF(q)))
    except UnsupportedOrder:
        return None
    shift = np.empty(len(orbit), dtype=np.int64)
    shift[orbit] = np.roll(orbit, -1)
    return (np.arange(3)[:, None] * len(orbit) + shift).ravel()
