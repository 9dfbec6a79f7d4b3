"""Brute-force enumeration of tailless cycles and galleries on a quotient.

This is the independent counting side of the trace theorems: everything
here recomputes its neighbor rules from the raw complex data (never from
the operator matrices) and counts by depth-first search, so an agreement
with a matrix trace is a genuine two-route check.

Counts are of based objects: the starting edge or chamber is distinguished,
matching what a trace counts.  Budgets cap the number of DFS node visits.
"""

from concurrent.futures import ProcessPoolExecutor

from .errors import NotAGallery, ResourceLimit

DEFAULT_BUDGET = 10_000_000


def _edge_successors(cx):
    """L_E successor lists recomputed from scratch: chained, no shared chamber."""
    share = [set() for _ in range(cx.n_edges)]
    for tri in cx.chambers:
        for e in tri:
            share[e].update(tri)
    by_src = [[] for _ in range(cx.n_vertices)]
    for f, (s, _) in enumerate(cx.edges):
        by_src[s].append(f)
    return [
        [f for f in by_src[cx.edge_dst(e)] if f not in share[e]]
        for e in range(cx.n_edges)
    ]


def _chamber_successors(cx):
    """Directed-chamber successor lists recomputed from scratch."""
    where = cx.chambers_through_edge()
    succ = [[] for _ in range(3 * cx.n_chambers)]
    for cid, tri in enumerate(cx.chambers):
        for slot in range(3):
            shared = tri[(slot + 1) % 3]
            for cid2, slot2 in where[shared]:
                if cid2 != cid:
                    succ[3 * cid + slot].append(3 * cid2 + (slot2 + 1) % 3)
    return [sorted(row) for row in succ]


def count_closed(succ, length, starts, budget):
    """Closed successor walks of the given length, grouped by start element."""
    visited = 0
    total = 0
    for start in starts:
        stack = [(start, 1)]
        while stack:
            cur, depth = stack.pop()
            visited += 1
            if visited > budget:
                raise ResourceLimit(f"DFS budget of {budget} nodes exceeded")
            if depth == length:
                if start in succ[cur]:
                    total += 1
                continue
            for nxt in succ[cur]:
                stack.append((nxt, depth + 1))
    return total


def _count_chunk(args):
    succ, length, starts, budget = args
    return count_closed(succ, length, starts, budget)


def _count(succ, length, budget, jobs):
    starts = list(range(len(succ)))
    if jobs and jobs > 1:
        chunks = [starts[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(
                pool.map(
                    _count_chunk,
                    [(succ, length, chunk, budget) for chunk in chunks],
                )
            )
        return sum(parts)
    return count_closed(succ, length, starts, budget)


def count_type1_geodesics(cx, length, budget=DEFAULT_BUDGET, jobs=1):
    """Based tailless type-1 closed geodesics of the given length.

    Closed edge sequences (e_1, ..., e_n) chained head to tail, every
    consecutive pair (wrap-around included) avoiding a common chamber.
    Equals Tr LE^n, but computed without any matrix arithmetic.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    return _count(_edge_successors(cx), length, budget, jobs)


def count_galleries(cx, length, budget=DEFAULT_BUDGET, jobs=1):
    """Based tailless type-1 closed galleries of the given length (>= 3)."""
    if length < 3:
        raise NotAGallery("gallery length must be >= 3")
    return _count(_chamber_successors(cx), length, budget, jobs)


def enumerate_galleries(cx, length, budget=DEFAULT_BUDGET):
    """All based closed galleries as tuples of directed-chamber indices."""
    succ = _chamber_successors(cx)
    out = []
    visited = 0
    for start in range(len(succ)):
        stack = [(start,)]
        while stack:
            path = stack.pop()
            visited += 1
            if visited > budget:
                raise ResourceLimit(f"DFS budget of {budget} nodes exceeded")
            if len(path) == length:
                if start in succ[path[-1]]:
                    out.append(path)
                continue
            for nxt in succ[path[-1]]:
                stack.append(path + (nxt,))
    return out


def gallery_boundary(cx, gallery):
    """Boundary edge cycle(s) of a closed gallery.

    For a closed gallery of length 3m the distinguished edges taken every
    other chamber form two edge cycles of length 3m/2 when 3m is even and a
    single cycle of length 3m when 3m is odd.  Each returned cycle is
    verified to be closed under the tailless edge-adjacency rule.
    """
    L = len(gallery)
    if L < 3 or L % 3 != 0:
        raise NotAGallery(f"length {L} is not a positive multiple of 3")
    succ = _chamber_successors(cx)
    for a, b in zip(gallery, gallery[1:] + gallery[:1]):
        if b not in succ[a]:
            raise NotAGallery(f"{a} -> {b} is not a chamber adjacency")
    edges = []
    for idx in gallery:
        cid, slot = divmod(idx, 3)
        edges.append(cx.chambers[cid][slot])

    cycles = []
    if L % 2 == 0:
        for offset in (0, 1):
            cycles.append(tuple(edges[(offset + 2 * j) % L] for j in range(L // 2)))
    else:
        cycles.append(tuple(edges[(2 * j) % L] for j in range(L)))

    esucc = _edge_successors(cx)
    for cyc in cycles:
        for e, f in zip(cyc, cyc[1:] + cyc[:1]):
            if f not in esucc[e]:
                raise NotAGallery(
                    f"boundary pair {e} -> {f} violates the edge adjacency rule"
                )
    return cycles


def shift_equivalence_classes(galleries):
    """Partition based galleries into cyclic-shift classes.

    Returns a list of (representative, class size); class sizes divide the
    length, smaller sizes flagging non-primitive galleries.
    """
    seen = set()
    classes = []
    for g in galleries:
        if g in seen:
            continue
        L = len(g)
        shifts = {tuple(g[(i + k) % L] for i in range(L)) for k in range(L)}
        seen.update(shifts)
        classes.append((min(shifts), len(shifts)))
    return classes
