"""Finite multigraphs with involutive directed edge pairs, and spanning-tree counts.

Graphs are stored by one chosen orientation per edge pair; the inverse
orientation is implicit.  Loops and parallel edges are allowed, and a loop
contributes both of its orientations to the valency of its vertex.

Two independent spanning-tree counters live here, and the rest of the
repository treats them as ground truth.  Both read only the adjacency of the
graph they are given (no vertex labels, voltages or cover structure):

- the reduced-Laplacian determinant, by fraction-free symmetric Bareiss
  elimination on sparse rows in minimum-degree order (exact, no floating
  point);
- a brute-force enumeration of the trees themselves, which never uses a
  determinant: include/exclude backtracking over the edge pairs in
  breadth-first order from vertex 0, cut in O(1) per step by the last pair
  that reaches each component, with the last pair of each tree counted in
  bulk.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import VerificationMismatch


@dataclass(frozen=True)
class EdgePair:
    """One chosen orientation of an undirected edge; id is the input index."""

    id: int
    origin: int
    terminus: int


@dataclass(frozen=True)
class SerreGraph:
    vertices: tuple
    edge_pairs: tuple

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def directed_edge_count(self) -> int:
        return 2 * len(self.edge_pairs)

    def valency(self, v: int) -> int:
        count = 0
        for e in self.edge_pairs:
            if e.origin == v:
                count += 1
            if e.terminus == v:
                count += 1
        return count


def build_graph(vertex_count: int, undirected_edges, labels=None) -> SerreGraph:
    """Build a graph from a list of (u, v) endpoint pairs, ids in input order."""
    if vertex_count < 0:
        raise ValueError("vertex_count must be nonnegative")
    if labels is None:
        labels = tuple(range(vertex_count))
    else:
        labels = tuple(labels)
        if len(labels) != vertex_count:
            raise ValueError("label count mismatch")
    pairs = []
    for i, (u, v) in enumerate(undirected_edges):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise IndexError(f"edge ({u}, {v}) references a missing vertex")
        pairs.append(EdgePair(i, u, v))
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
    by fill-in) is pushed back at that length.  After pivots p_1..p_k, entry
    (i, j) is the minor on the pivot rows and row i against the pivot columns
    and column j, and the update is a_ij <- (p_k a_ij - a_ik a_kj) / p_{k-1},
    computed once for both (i, j) and (j, i).  A row the pivot does not reach
    only scales by p_k / p_{k-1}, so it is not rewritten: each row keeps the
    step s of its last update and is scaled by p_{k-1} / p_s when it is next
    read, exact because both values are minors.  Every pivot is positive for a
    positive-definite matrix; one that is not raises VerificationMismatch.
    """
    pivots = [1]
    stamp = dict.fromkeys(rows, 0)
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
        prev = pivots[-1]
        ps = pivots[stamp[k]]
        if ps != prev:
            pivot_row = {j: a * prev // ps for j, a in pivot_row.items()}
        pk = pivot_row.pop(k)
        if pk <= 0:
            raise VerificationMismatch(
                f"pivot {len(pivots)} of a reduced Laplacian is {pk}, not positive"
            )
        reached = list(pivot_row.items())
        old, new = [], []
        for i in pivot_row:
            row = rows[i]
            before = len(row)
            del row[k]
            ps = pivots[stamp[i]]
            # entries outside the pivot row go from step s to this step at once
            updated = {j: a * pk // ps for j, a in row.items() if j not in pivot_row}
            if ps != prev:
                row = {j: a * prev // ps for j, a in row.items() if j in pivot_row}
            old.append(row.get)
            new.append(updated)
            rows[i] = updated
            stamp[i] = len(pivots)
            after = len(updated) + len(pivot_row)
            if after < before:
                heappush(heap, (after, i))
        for t, (i, aik) in enumerate(reached):
            get, row_i = old[t], new[t]
            for (j, akj), row_j in zip(reached[t:], new[t:]):
                row_i[j] = row_j[i] = (pk * get(j, 0) - aik * akj) // prev
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
    """Count spanning trees by enumerating them, one edge pair at a time.

    The non-loop edge pairs are put in breadth-first order from vertex 0:
    a pair is taken when the first of its endpoints is scanned.  A graph
    the search does not span, which includes every graph with fewer than
    |V| - 1 non-loop pairs, has no spanning tree.  Include/exclude
    backtracking then decides the pairs in that order.  The components of
    the chosen forest are a label per vertex and a member list per label;
    a union relabels the smaller side, and its undo restores it.  reach[c]
    is the last index of a pair that touches component c, so a component
    whose reach is the current index i meets no later pair: pair i is
    excluded only if both of its endpoint components reach past i, and
    included (never when it closes a cycle) only if the merged component
    does.  Both cuts are O(1) and necessary for completing a tree, so no
    tree is lost.  When one pair is still needed, exactly two components
    remain, and the later pairs that join them are counted at once.  Each
    spanning tree is thus counted once, by its last pair.  Exponential;
    guarded at BRUTE_FORCE_PAIR_LIMIT edge pairs.  Serves as an oracle
    independent of any determinant computation.
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
    if n == 1:
        return 1
    reach = [0] * n
    for i, (u, w) in enumerate(ends):
        reach[u] = reach[w] = i
    label = list(range(n))
    members = [[v] for v in range(n)]

    def joining(i):
        # the pairs from i on that join the two components left
        return sum([label[u] != label[w] for u, w in ends[i:]])

    def count(i, needed):
        # trees that add needed >= 2 pairs from ends[i:]; excluding pair i
        # is the next turn of the loop
        total = 0
        last = len(ends) - needed
        while i <= last:
            u, w = ends[i]
            a, b = label[u], label[w]
            ra, rb = reach[a], reach[b]
            if a != b and (ra > i or rb > i):
                if len(members[a]) < len(members[b]):
                    a, b, ra, rb = b, a, rb, ra
                moved = members[b]
                for v in moved:
                    label[v] = a
                kept = members[a]
                size = len(kept)
                kept += moved
                if rb > ra:
                    reach[a] = rb
                total += joining(i + 1) if needed == 2 else count(i + 1, needed - 1)
                reach[a] = ra
                del kept[size:]
                for v in moved:
                    label[v] = b
            if ra <= i or rb <= i:
                break
            i += 1
        return total

    return joining(0) if n == 2 else count(0, n - 1)
