"""Finite multigraphs with involutive directed edge pairs, and spanning-tree counts.

Graphs are stored by one chosen orientation per edge pair; the inverse
orientation is implicit.  Loops and parallel edges are allowed, and a loop
contributes both of its orientations to the valency of its vertex.

Two independent spanning-tree counters live here, and the rest of the
repository treats them as ground truth.  Both read only the adjacency of the
graph they are given (no vertex labels, voltages or cover structure):

- the reduced-Laplacian determinant, in Cuthill-McKee vertex order with
  fraction-free symmetric Bareiss elimination kept inside the band (exact,
  no floating point);
- a brute-force enumeration of edge sets by include/exclude backtracking
  over a union-find, which never uses a determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    seen = [False] * n
    seen[0] = True
    queue = [0]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in neighbors[v]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return all(seen)


def _bfs_levels(adj, root: int) -> list:
    """Level structure of a breadth-first search from root: a list of levels."""
    seen = {root}
    levels = [[root]]
    while True:
        level = []
        for v in levels[-1]:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    level.append(w)
        if not level:
            return levels
        levels.append(level)


def _cuthill_mckee(adj):
    """Cuthill-McKee vertex order of a graph given by adjacency dicts, or None
    when the graph is disconnected.

    The root is pseudo-peripheral (George-Liu): from a vertex of least
    degree, move to a least-degree vertex of the last BFS level while that
    deepens the level structure.  The BFS from the root then appends the
    unvisited neighbours of each vertex by increasing degree, which keeps
    every edge between nearby positions (a small bandwidth).
    """
    n = len(adj)
    degree = [len(a) for a in adj]
    root = min(range(n), key=lambda v: (degree[v], v))
    levels = _bfs_levels(adj, root)
    if sum(map(len, levels)) < n:
        return None
    while True:
        w = min(levels[-1], key=lambda v: (degree[v], v))
        w_levels = _bfs_levels(adj, w)
        if len(w_levels) <= len(levels):
            break
        root, levels = w, w_levels
    order = [root]
    seen = [False] * n
    seen[root] = True
    for v in order:  # grows while it is scanned: this is the BFS queue
        fresh = sorted((w for w in adj[v] if not seen[w]), key=lambda w: (degree[w], w))
        for w in fresh:
            seen[w] = True
        order += fresh
    return order


def _banded_det(band, b: int) -> int:
    """Determinant of a symmetric positive-definite matrix of bandwidth b.

    band[i][d] holds entry (i, i + d) for 0 <= d <= b (the upper band; zero
    past the last row).  Fraction-free symmetric Bareiss: after step k,
    entry (i, j) with i, j > k is the minor on rows 0..k, i and columns
    0..k, j, and the pivot p_k is the leading principal minor of order k + 1.
    When column j has no entry in rows 0..k (j > k + b) that minor is just
    p_k times the original entry, so a column is left untouched until it
    enters the window at step j - b, where it is multiplied once by p_{j-b-1};
    only the triangle of rows and columns k + 1..k + b is updated at step k.
    Every pivot is positive for a positive-definite matrix; one that is not
    raises VerificationMismatch.
    """
    m = len(band)
    prev = 1
    for k in range(m):
        entering = k + b
        if entering < m and prev != 1:
            for i in range(k, entering + 1):
                band[i][entering - i] *= prev
        wk = band[k]
        pk = wk[0]
        if pk <= 0:
            raise VerificationMismatch(
                f"leading minor {k + 1} of a reduced Laplacian is {pk}, not positive"
            )
        w = min(b, m - 1 - k)
        for s in range(1, w + 1):
            wi = band[k + s]
            mik = wk[s]
            width = w - s + 1
            if mik:
                wi[:width] = [(x * pk - mik * y) // prev for x, y in zip(wi, wk[s:w + 1])]
            else:
                wi[:width] = [x * pk // prev for x in wi[:width]]
        prev = pk
    return prev


def spanning_tree_count(g: SerreGraph) -> int:
    """Number of spanning trees via the reduced Laplacian determinant.

    The vertices are put in Cuthill-McKee order, computed from the adjacency
    alone (no labels), and the first one is deleted; the reduced Laplacian is
    then banded and positive definite, and _banded_det eliminates inside the
    band.  Loops cancel in the Laplacian.  A single-vertex graph has one
    spanning tree, the empty one.  Disconnected graphs return 0.
    """
    n = g.vertex_count
    if n == 0:
        raise ValueError("spanning trees of the empty graph are undefined")
    adj = [{} for _ in range(n)]
    for e in g.edge_pairs:
        u, v = e.origin, e.terminus
        if u != v:
            adj[u][v] = adj[u].get(v, 0) + 1
            adj[v][u] = adj[v].get(u, 0) + 1
    order = _cuthill_mckee(adj)
    if order is None:
        return 0
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i - 1  # row of v in the reduced Laplacian; the root gets -1
    b = max((pos[w] - pos[v] for v in order[1:] for w in adj[v] if pos[w] > pos[v]), default=0)
    band = [[0] * (b + 1) for _ in range(n - 1)]
    for v in order[1:]:
        row = band[pos[v]]
        row[0] = sum(adj[v].values())
        for w, c in adj[v].items():
            if pos[w] > pos[v]:
                row[pos[w] - pos[v]] = -c
    return _banded_det(band, b)


BRUTE_FORCE_PAIR_LIMIT = 24


def spanning_tree_count_bruteforce(g: SerreGraph) -> int:
    """Count spanning trees by enumerating sets of |V| - 1 edge pairs.

    Include/exclude backtracking over the edge pairs in order, with a
    union-find (union by size, no path compression, so a union is undone
    by resetting one parent): an edge that would close a cycle is never
    included, loops never are, and a branch ends as soon as too few edges
    remain.  Each spanning tree is reached once, at a leaf that holds
    |V| - 1 edges.  Exponential; guarded at BRUTE_FORCE_PAIR_LIMIT edge
    pairs.  Serves as an oracle independent of any determinant computation.
    """
    n = g.vertex_count
    if n == 0:
        raise ValueError("spanning trees of the empty graph are undefined")
    if len(g.edge_pairs) > BRUTE_FORCE_PAIR_LIMIT:
        raise ValueError("graph too large for brute-force enumeration")
    edges = [(e.origin, e.terminus) for e in g.edge_pairs if e.origin != e.terminus]
    parent = list(range(n))
    size = [1] * n

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def count(index, needed):
        if needed == 0:
            return 1
        if len(edges) - index < needed:
            return 0
        total = count(index + 1, needed)
        u, v = edges[index]
        ru, rv = root(u), root(v)
        if ru != rv:
            if size[ru] > size[rv]:
                ru, rv = rv, ru
            parent[ru] = rv
            size[rv] += size[ru]
            total += count(index + 1, needed - 1)
            parent[ru] = ru
            size[rv] -= size[ru]
        return total

    return count(0, n - 1)
