"""Integer voltage assignments and the derived cyclic covers.

A voltage is stored on the chosen orientation of each edge pair; the
reverse orientation implicitly carries the negated value, so antisymmetry
holds by construction.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Sequence
from itertools import chain, product, repeat
from math import gcd

from .errors import HypothesisViolation
from .graph_core import EdgePair, SerreGraph, build_graph


class VoltagedGraph(namedtuple("VoltagedGraph", "base voltages")):
    """A base graph and its voltages: voltages[i], an int, is the voltage of
    base.edge_pairs[i].  Built from any sequence of one integer per edge
    pair; a mapping or other non-sequence, or a value that is not an integer
    (see _voltage), raises TypeError, and a wrong length raises ValueError."""

    __slots__ = ()

    def __new__(cls, base, voltages):
        if not isinstance(voltages, Sequence):
            raise TypeError(f"voltages must be a sequence, not {type(voltages).__name__}")
        voltages = tuple(map(_voltage, voltages))
        if len(voltages) != len(base.edge_pairs):
            raise ValueError("voltages must give exactly one value per base edge pair")
        return super().__new__(cls, base, voltages)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too
        return cls(*iterable)


def _voltage(a) -> int:
    """An integer voltage; floats, strings and bools raise TypeError."""
    if isinstance(a, bool):
        raise TypeError(f"voltage {a!r} is a bool, not an integer")
    return operator.index(a)


def voltaged_graph(vertex_count: int, edges_with_voltages, labels=None) -> VoltagedGraph:
    """Convenience constructor from (u, v, voltage) triples."""
    edges = [(u, v) for u, v, _ in edges_with_voltages]
    g = build_graph(vertex_count, edges, labels=labels)
    return VoltagedGraph(g, [a for _, _, a in edges_with_voltages])


def _bfs_tree_potentials(vg: VoltagedGraph):
    """Spanning tree from vertex 0 (edges scanned in edge order), with the
    voltage-sum potential of each vertex along its tree path.

    Returns (potentials, the set of the tree's edge-pair indices).
    """
    g = vg.base
    n = g.vertex_count
    if n == 0:
        raise HypothesisViolation("base graph must be connected")
    incident = [[] for _ in range(n)]
    for i, (e, a) in enumerate(zip(g.edge_pairs, vg.voltages)):
        incident[e.origin].append((i, e.terminus, a))
        if e.terminus != e.origin:
            incident[e.terminus].append((i, e.origin, -a))
    potential = [None] * n
    potential[0] = 0
    tree = set()
    queue = [0]
    for v in queue:
        for i, w, a in incident[v]:
            if potential[w] is None:
                potential[w] = potential[v] + a
                tree.add(i)
                queue.append(w)
    if len(queue) < n:
        raise HypothesisViolation("base graph must be connected")
    return potential, tree


def fundamental_cycle_voltages(vg: VoltagedGraph) -> list:
    """Voltage of the fundamental cycle of each non-tree edge pair, in edge order."""
    potential, tree = _bfs_tree_potentials(vg)
    return [potential[e.origin] + a - potential[e.terminus]
            for i, (e, a) in enumerate(zip(vg.base.edge_pairs, vg.voltages)) if i not in tree]


def monodromy_index(vg: VoltagedGraph) -> int:
    """Generator d >= 0 of the group of cycle voltages.

    The infinite cyclic cover is connected iff d == 1, and the n-layer is
    connected iff gcd(d, n) == 1.  d == 0 means every cycle voltage vanishes.
    """
    d = 0
    for w in fundamental_cycle_voltages(vg):
        d = gcd(d, w)
    return d


def derived_graph(vg: VoltagedGraph, n: int) -> SerreGraph:
    """The n-layer cover: vertices (v, s) for s mod n, edges twisted by voltages.

    Vertex order is lexicographic in (base vertex, residue), so (v, s) has
    index v * n + s, and base edge pair (u, v) with voltage a lifts, in
    residue order, to the pairs (u * n + s, v * n + (s + a) % n).  The graph
    is built directly, equal to and of the same types as build_graph's on
    these edges: every index is in range by construction, and each EdgePair
    is made by tuple.__new__, with no Python frame per edge.  The graph is
    materialized explicitly, so memory grows with vertex_count * n.
    """
    if n < 1:
        raise ValueError("layer index must be positive")
    g = vg.base
    pairs = []
    for (u, v), a in zip(g.edge_pairs, vg.voltages):
        u, v, a = u * n, v * n, a % n
        # the termini v * n + (s + a) % n are the residues rotated by a
        termini = chain(range(v + a, v + n), range(v, v + a))
        pairs += map(tuple.__new__, repeat(EdgePair), zip(range(u, u + n), termini))
    return SerreGraph(tuple(product(g.vertices, range(n))), tuple(pairs))
