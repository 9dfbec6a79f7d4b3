"""Brute-force enumeration of tailless cycles and galleries on a quotient.

This is the independent counting side of the trace theorems: everything
here recomputes its neighbor rules from the raw complex data (never from
the operator matrices) and counts by depth-first search, so an agreement
with a matrix trace is a genuine two-route check.

Counts are of based objects: the starting edge or chamber is distinguished,
matching what a trace counts.  One DFS loop, _closed_walk_prefixes, does
every search.  closed_walks lists whole walks (enumerate_galleries).
count_walks, behind every count here and graphs.count_closed_walks, meets
in the middle: the DFS covers the first length - length // 2 vertices of
each walk, and each prefix end adds its closing length // 2-step tails,
tallied backward per start.  The budget caps the node count of the full
DFS tree of all walks, whichever half is searched, and is checked before
the search, so an over-budget length fails before any walk is built.

count_walks also takes a free action on the indices that commutes with the
successor rule.  Such a permutation maps the closed walks from r one-to-one
onto those from its image, so every start in an orbit has the same count:
the search runs from the least index of each orbit (free_orbits) and the
sum is multiplied by the orbit length.  With no action, the trivial group,
every index is its own orbit.  count_galleries and count_type1_geodesics
take the Singer shift from presentations.singer_action, which proves that
it keeps every edge's endpoints and maps the chamber set onto itself; the
successor rules are defined from edges and chambers alone, so it commutes
with them.  closed_walks (and so enumerate_galleries) and
graphs.count_closed_walks run from every start.
"""

from .errors import A2ZetaError, NotAGallery, ResourceLimit
from .presentations import singer_action

DEFAULT_BUDGET = 10_000_000


def free_orbits(sigma):
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


def _check_budget(succ, length, budget, starts, copies):
    """Raise ResourceLimit if the full DFS tree of the walks has > budget nodes.

    The tree has one node per walk of 1..length vertices from each index:
    level j holds the (j-1)-step walks, counted with the multiplicity of
    repeated successor entries.  Only the walks from starts are counted,
    copies times each: under a free automorphism with orbits of length
    copies, one start per orbit, that is the full tree.  The levels are
    counted forward, keyed by their last vertex, and the count stops once
    it passes budget, so no walk is ever built for an over-budget length.
    """
    level = dict.fromkeys(starts, 1)
    nodes = copies * len(level)
    for _ in range(length - 1):
        if nodes > budget or not level:
            break
        deeper = {}
        for v, c in level.items():
            for w in succ[v]:
                deeper[w] = deeper.get(w, 0) + c
        level = deeper
        nodes += copies * sum(level.values())
    if nodes > budget:
        raise ResourceLimit(f"DFS budget of {budget} nodes exceeded")


def _closed_walk_prefixes(succ, length, budget, k, starts, copies):
    """The one DFS loop: yield (prefix, tails) over the based closed walks from starts.

    prefix is the first length - k vertices of closed walks from one start,
    as a live list valid until the next step; tails (> 0) is the number of
    k-step walks from its last vertex to a vertex that closes back to the
    start.  A walk steps from v to each entry of succ[v], repeated entries
    counted with their multiplicity, and closes when the start is in
    succ[v_n], counted once.  With k = 0 each prefix is one whole walk.
    The tails come from a per-start table built backward over predecessor
    lists; the budget is checked first, on the full tree, with each start
    standing for copies (_check_budget).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    _check_budget(succ, length, budget, starts, copies)
    pred = [[] for _ in succ]
    for v, row in enumerate(succ):
        for w in row:
            pred[w].append(v)
    depth = length - k
    for start in starts:
        tails = dict.fromkeys(pred[start], 1)  # closes once, whatever the multiplicity
        for _ in range(k):
            back = {}
            for w, c in tails.items():
                for v in pred[w]:
                    back[v] = back.get(v, 0) + c
            tails = back
        if depth == 1:
            if start in tails:
                yield [start], tails[start]
            continue
        path = [start]
        stack = [iter(succ[start])]  # stack[i] runs over succ[path[i]]
        while stack:
            if len(path) == depth - 1:  # the top successors end prefixes
                for v in stack.pop():
                    t = tails.get(v)
                    if t:
                        path.append(v)
                        yield path, t
                        path.pop()
                path.pop()
                continue
            v = next(stack[-1], None)
            if v is None:
                stack.pop()
                path.pop()
            else:
                path.append(v)
                stack.append(iter(succ[v]))


def closed_walks(succ, length, budget):
    """Every based closed successor walk of the given length, as a tuple.

    A walk (v_1, ..., v_n) steps from each v_i to an entry of succ[v_i], and
    closes when v_1 is in succ[v_n].  Walks come start by start, in the
    order of the successor lists.  ResourceLimit is raised, before any walk
    is built, when the DFS tree of all walks of 1..length vertices from
    every start (leaves included) has more than budget nodes.
    """
    for walk, _ in _closed_walk_prefixes(succ, length, budget, 0, range(len(succ)), 1):
        yield tuple(walk)


def count_walks(succ, length, budget, images=None):
    """len(list(closed_walks(succ, length, budget))), meet-in-the-middle.

    The DFS runs over the first length - length // 2 vertices of each walk
    and adds, at each prefix end, the number of closing tails, so no walk
    is built.  images is a permutation of the indices, or None for the
    trivial group; unchecked here, it must commute with succ (v -> w is a
    step exactly when images[v] -> images[w] is one, with the same
    multiplicity).  The walks are counted from the least index of each of
    its orbits, which must be equally long, and multiplied by their
    length.  The budget keeps the meaning it has in closed_walks.
    """
    starts, copies = range(len(succ)), 1  # the trivial group's orbits
    if images is not None and starts:
        orbits = free_orbits(images)
        starts, copies = [orbit[0] for orbit in orbits], len(orbits[0])
    prefixes = _closed_walk_prefixes(succ, length, budget, length // 2, starts, copies)
    return copies * sum(t for _, t in prefixes)


def count_type1_geodesics(cx, length, budget=DEFAULT_BUDGET):
    """Based tailless type-1 closed geodesics of the given length.

    Closed edge sequences (e_1, ..., e_n) chained head to tail, every
    consecutive pair (wrap-around included) avoiding a common chamber.
    Equals Tr LE^n, but computed without any matrix arithmetic, from one
    start per orbit of cx's Singer action when it has one.
    """
    edge_images, _ = singer_action(cx) or (None, None)
    return count_walks(_edge_successors(cx), length, budget, edge_images)


def _gallery_successors(cx, length):
    if length < 3:
        raise NotAGallery("gallery length must be >= 3")
    return _chamber_successors(cx)


def count_galleries(cx, length, budget=DEFAULT_BUDGET):
    """Based tailless type-1 closed galleries of the given length (>= 3),
    from one start per orbit of cx's Singer action when it has one."""
    succ = _gallery_successors(cx, length)
    _, chamber_images = singer_action(cx) or (None, None)
    return count_walks(succ, length, budget, chamber_images)


def enumerate_galleries(cx, length, budget=DEFAULT_BUDGET):
    """All based closed galleries as tuples of directed-chamber indices."""
    return list(closed_walks(_gallery_successors(cx, length), length, budget))


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
