"""Brute-force enumeration of tailless cycles and galleries on a quotient.

This is the independent counting side of the trace theorems: everything
here recomputes its neighbor rules from the raw complex data (never from
the operator matrices) and counts by depth-first search, so an agreement
with a matrix trace is a genuine two-route check.

Counts are of based objects: the starting edge or chamber is distinguished,
matching what a trace counts.  One walker, closed_walks, does every search
(graphs.count_closed_walks uses it too): the counts count its walks and
enumerate_galleries lists them.  A budget caps its DFS node visits.
"""

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


def closed_walks(succ, length, budget):
    """Every based closed successor walk of the given length, as a tuple.

    A walk (v_1, ..., v_n) steps from each v_i to an entry of succ[v_i], and
    closes when v_1 is in succ[v_n].  Walks come start by start, in the
    order of the successor lists.  Each node of the DFS tree, leaves
    included, is one visit; ResourceLimit is raised once the visits exceed
    budget.  The last step is taken inside its parent's successor loop, so
    a leaf costs one membership test and no stack entry.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    closes = [set() for _ in succ]  # closes[s]: the v with s in succ[v]
    for v, row in enumerate(succ):
        for s in row:
            closes[s].add(v)
    visited = 0
    for start in range(len(succ)):
        ends = closes[start]
        stack = [()]
        while stack:
            path = stack.pop()
            nexts = succ[path[-1]] if path else (start,)
            visited += len(nexts)
            if visited > budget:
                raise ResourceLimit(f"DFS budget of {budget} nodes exceeded")
            if len(path) == length - 1:
                for nxt in nexts:
                    if nxt in ends:
                        yield path + (nxt,)
            else:
                for nxt in reversed(nexts):
                    stack.append(path + (nxt,))


def count_type1_geodesics(cx, length, budget=DEFAULT_BUDGET):
    """Based tailless type-1 closed geodesics of the given length.

    Closed edge sequences (e_1, ..., e_n) chained head to tail, every
    consecutive pair (wrap-around included) avoiding a common chamber.
    Equals Tr LE^n, but computed without any matrix arithmetic.
    """
    return sum(1 for _ in closed_walks(_edge_successors(cx), length, budget))


def _gallery_walks(cx, length, budget):
    if length < 3:
        raise NotAGallery("gallery length must be >= 3")
    return closed_walks(_chamber_successors(cx), length, budget)


def count_galleries(cx, length, budget=DEFAULT_BUDGET):
    """Based tailless type-1 closed galleries of the given length (>= 3)."""
    return sum(1 for _ in _gallery_walks(cx, length, budget))


def enumerate_galleries(cx, length, budget=DEFAULT_BUDGET):
    """All based closed galleries as tuples of directed-chamber indices."""
    return list(_gallery_walks(cx, length, budget))


def gallery_boundaries(cx, galleries):
    """Boundary edge cycle(s) of each closed gallery, in the given order.

    For a closed gallery of length 3m the distinguished edges taken every
    other chamber form two edge cycles of length 3m/2 when 3m is even and a
    single cycle of length 3m when 3m is odd.  Each returned cycle is
    verified to be closed under the tailless edge-adjacency rule.
    """
    succ = _chamber_successors(cx)
    esucc = _edge_successors(cx)
    out = []
    for gallery in galleries:
        L = len(gallery)
        if L < 3 or L % 3 != 0:
            raise NotAGallery(f"length {L} is not a positive multiple of 3")
        for a, b in zip(gallery, gallery[1:] + gallery[:1]):
            if b not in succ[a]:
                raise NotAGallery(f"{a} -> {b} is not a chamber adjacency")
        edges = [cx.chambers[idx // 3][idx % 3] for idx in gallery]
        if L % 2 == 0:
            cycles = [edges[offset::2] for offset in (0, 1)]
        else:
            cycles = [(edges + edges)[::2]]
        for cyc in cycles:
            for e, f in zip(cyc, cyc[1:] + cyc[:1]):
                if f not in esucc[e]:
                    raise NotAGallery(
                        f"boundary pair {e} -> {f} violates the edge adjacency rule"
                    )
        out.append([tuple(cyc) for cyc in cycles])
    return out


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
