"""Finite multigraphs with involutive directed edge pairs, and spanning-tree counts.

Graphs are stored by one chosen orientation per edge pair; the inverse
orientation is implicit.  Loops and parallel edges are allowed, and a loop
contributes both of its orientations to the valency of its vertex.

Two independent spanning-tree counters live here, and the rest of the
repository treats them as ground truth.  Both read only the adjacency of the
graph they are given (no vertex labels, voltages or cover structure):

- the reduced-Laplacian determinant, by fraction-free symmetric Bareiss
  elimination on sparse rows in minimum-degree order, where each entry keeps
  the step it was written at and is rescaled only when it is read (exact, no
  floating point);
- a brute-force count of the trees themselves, which never uses a
  determinant: a frontier dynamic program over the edge pairs in
  breadth-first order from vertex 0, whose states are the partitions of the
  frontier vertices into the components of a chosen forest.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush

from .errors import VerificationMismatch


class EdgePair(namedtuple("EdgePair", "origin terminus")):
    """One chosen orientation of an undirected edge; its index in the graph's
    edge_pairs names it."""

    __slots__ = ()


class SerreGraph(namedtuple("SerreGraph", "vertices edge_pairs")):
    """The vertex labels and the EdgePair of each edge, in edge order."""

    __slots__ = ()

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def valency(self, v: int) -> int:
        count = 0
        for e in self.edge_pairs:
            if e.origin == v:
                count += 1
            if e.terminus == v:
                count += 1
        return count


def build_graph(vertex_count: int, undirected_edges, labels=None) -> SerreGraph:
    """Build a graph from a list of (u, v) endpoint pairs, in input order."""
    if vertex_count < 0:
        raise ValueError("vertex_count must be nonnegative")
    if labels is None:
        labels = tuple(range(vertex_count))
    else:
        labels = tuple(labels)
        if len(labels) != vertex_count:
            raise ValueError("label count mismatch")
    pairs = []
    for u, v in undirected_edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise IndexError(f"edge ({u}, {v}) references a missing vertex")
        pairs.append(EdgePair(u, v))
    return SerreGraph(labels, tuple(pairs))


def euler_characteristic(g: SerreGraph) -> int:
    """|V| - |E|/2 where |E| counts directed edges."""
    return g.vertex_count - len(g.edge_pairs)


def is_connected(g: SerreGraph) -> bool:
    """Breadth-first reachability from vertex 0; the empty graph is an error."""
    n = g.vertex_count
    if n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    neighbors = [[] for _ in range(n)]
    for e in g.edge_pairs:
        neighbors[e.origin].append(e.terminus)
        neighbors[e.terminus].append(e.origin)
    return _reaches_all(neighbors, n)


def _reaches_all(neighbors, n: int) -> bool:
    """Whether a breadth-first search from vertex 0, along the vertices that
    neighbors[v] yields for each v, reaches all n vertices."""
    seen = {0}
    queue = [0]
    for v in queue:
        for w in neighbors[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def _min_degree_det(rows) -> int:
    """Determinant of a symmetric positive-definite integer matrix, consumed.

    rows maps each index i to a dict {j: entry (i, j)} of the nonzero entries
    of row i, diagonal included.  Fraction-free symmetric Bareiss in minimum-
    degree order (Tinney-Walker; George-Liu): the next pivot k is a live index
    whose row has the fewest entries, ties by index, popped from a heap.  A
    row's least entry there never exceeds its length: a row that shrinks is
    pushed again, and an entry that pops below its row's length (the row grew
    by fill-in) is pushed back at that length.  After pivots p_1..p_t, entry
    (i, j) is the minor on the pivot rows and row i against the pivot columns
    and column j, and pivot k updates it to (p_k a_ij - a_ik a_kj) / p_{k-1}.
    Off the pivot's own pattern (a_ik or a_kj zero) that is a_ij p_k / p_{k-1},
    a rescaling, so a pivot writes only the pairs (i, j) of its pattern, each
    once for both (i, j) and (j, i), and leaves the rest of every row alone.
    Each entry is stored as (value, s), s the number of pivots when it was
    written, and a read after t pivots takes value p_t / p_s, exact because
    both values are minors (Sylvester's identity).  Every pivot is positive
    for a positive-definite matrix; one that is not raises
    VerificationMismatch.
    """
    pivots = [1]
    for row in rows.values():
        for j, a in row.items():
            row[j] = (a, 0)
    heap = [(len(row), i) for i, row in rows.items()]
    heapify(heap)
    while heap:
        size, k = heappop(heap)
        pivot_row = rows.get(k)
        if pivot_row is None:
            continue
        if len(pivot_row) != size:
            heappush(heap, (len(pivot_row), k))
            continue
        del rows[k]
        now = len(pivots) - 1
        prev = pivots[now]
        a, s = pivot_row.pop(k)
        pk = a if s == now else a * prev // pivots[s]
        if pk <= 0:
            raise VerificationMismatch(
                f"pivot {now + 1} of a reduced Laplacian is {pk}, not positive"
            )
        reached = []
        for i, (a, s) in pivot_row.items():
            row = rows[i]
            reached.append((i, a if s == now else a * prev // pivots[s], row, len(row)))
            del row[k]
        absent = (0, now)
        for m, (i, aik, row_i, _) in enumerate(reached):
            get = row_i.get
            for j, akj, row_j, _ in reached[m:]:
                # (i, j) is read once, before it is written
                a, s = get(j, absent)
                a = a if s == now else a * prev // pivots[s]
                row_i[j] = row_j[i] = ((pk * a - aik * akj) // prev, now + 1)
        for i, _, row, before in reached:
            if len(row) < before:
                heappush(heap, (len(row), i))
        pivots.append(pk)
    return pivots[-1]


def spanning_tree_count(g: SerreGraph) -> int:
    """Number of spanning trees via the reduced Laplacian determinant.

    The reduced Laplacian drops vertex 0 and is kept as sparse dict rows,
    built from the adjacency alone (no labels); _min_degree_det eliminates it
    in minimum-degree order.  Loops cancel in the Laplacian.  A single-vertex
    graph has one spanning tree, the empty one.  A disconnected graph, found by
    a breadth-first search over the rows, returns 0 before any elimination.
    """
    n = g.vertex_count
    if n == 0:
        raise ValueError("spanning trees of the empty graph are undefined")
    rows = {v: {v: 0} for v in range(n)}
    for e in g.edge_pairs:
        u, v = e.origin, e.terminus
        if u != v:
            rows[u][u] += 1
            rows[v][v] += 1
            rows[u][v] = rows[u].get(v, 0) - 1
            rows[v][u] = rows[v].get(u, 0) - 1
    # the keys of row v are v and its neighbours
    if not _reaches_all(rows, n):
        return 0
    for v in rows.pop(0):
        if v:
            del rows[v][0]
    return _min_degree_det(rows)


BRUTE_FORCE_PAIR_LIMIT = 24


def spanning_tree_count_bruteforce(g: SerreGraph) -> int:
    """Count spanning trees by a frontier dynamic program over the edge pairs.

    The non-loop edge pairs are put in breadth-first order from vertex 0:
    a pair is taken when the first of its endpoints is scanned.  A graph
    the search does not span, which includes every graph with fewer than
    |V| - 1 non-loop pairs, has no spanning tree.  A vertex is on the
    frontier from its first pair to its last.  states maps each partition
    of the frontier into the components of a chosen forest, each vertex
    labelled by the position of its component's first one, to its number
    of forests.  Excluding a pair keeps the state; including it merges the
    components of its ends, unless they are one (a cycle).  A component
    whose last frontier vertex leaves is closed, and its state is kept only
    if it is the whole tree: no frontier vertex and no unseen vertex remain,
    which in a connected graph happens only after the last pair.  The count
    of the empty state is then the answer.  With w the widest frontier there
    are at most Bell(w) states, and a pair costs O(w Bell(w)) whatever the
    number of trees.  Guarded at BRUTE_FORCE_PAIR_LIMIT edge pairs.  Serves
    as an oracle independent of any determinant computation.
    """
    n = g.vertex_count
    if n == 0:
        raise ValueError("spanning trees of the empty graph are undefined")
    if len(g.edge_pairs) > BRUTE_FORCE_PAIR_LIMIT:
        raise ValueError("graph too large for brute-force enumeration")
    neighbors = [[] for _ in range(n)]
    for e in g.edge_pairs:
        if e.origin != e.terminus:
            neighbors[e.origin].append(e.terminus)
            neighbors[e.terminus].append(e.origin)
    ends = []
    order = [0]
    queued = [False] * n
    queued[0] = True
    scanned = [False] * n
    for v in order:
        for w in neighbors[v]:
            if not scanned[w]:
                ends.append((v, w))
                if not queued[w]:
                    queued[w] = True
                    order.append(w)
        scanned[v] = True
    if len(order) < n:
        return 0
    last = [0] * n
    for i, (u, w) in enumerate(ends):
        last[u] = last[w] = i
    front = []
    states = {(): 1}
    for i, (u, w) in enumerate(ends):
        for v in (u, w):
            if v not in front:
                states = {s + (len(front),): c for s, c in states.items()}
                front.append(v)
        a, b = front.index(u), front.index(w)
        # each include branch reads the count of its state before this pair
        for s, c in list(states.items()):
            x, y = s[a], s[b]
            if x != y:
                if x > y:
                    x, y = y, x
                s = tuple([x if z == y else z for z in s])
                states[s] = states.get(s, 0) + c
        for v in (u, w):
            if last[v] != i:
                continue
            p = front.index(v)
            del front[p]
            left = {}
            for s, c in states.items():
                rest = s[:p] + s[p + 1:]
                if s[p] < p:
                    s = tuple([z - 1 if z > p else z for z in rest])
                elif p in rest:
                    # the component's next frontier vertex becomes its first
                    q = rest.index(p)
                    s = tuple([q if z == p else z - 1 if z > p else z for z in rest])
                elif rest:
                    continue  # a closed component that is not the whole tree
                else:
                    s = ()
                left[s] = left.get(s, 0) + c
            states = left
    return states.get((), 0)
