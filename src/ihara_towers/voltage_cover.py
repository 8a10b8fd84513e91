"""Integer voltage assignments and the derived cyclic covers.

A voltage is stored on the chosen orientation of each edge pair; the
reverse orientation implicitly carries the negated value, so antisymmetry
holds by construction.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from math import gcd

from .errors import HypothesisViolation
from .graph_core import SerreGraph, build_graph


class VoltageAssignment(namedtuple("VoltageAssignment", "values")):
    """Map from edge-pair id to the voltage of the stored orientation; values
    is a copy of the mapping it was built from."""

    __slots__ = ()

    def __new__(cls, values):
        return super().__new__(cls, dict(values))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: copy the values there too
        return cls(*iterable)

    def __getitem__(self, edge_id: int) -> int:
        return self.values[edge_id]


class VoltagedGraph(namedtuple("VoltagedGraph", "base voltages")):
    """A base graph with one voltage per edge pair; ValueError unless the
    voltages are keyed exactly by the ids of the base's edge pairs."""

    __slots__ = ()

    def __new__(cls, base, voltages):
        if set(voltages.values) != {e.id for e in base.edge_pairs}:
            raise ValueError("voltages must be keyed exactly by the base edge pairs")
        return super().__new__(cls, base, voltages)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check the keys there too
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
    values = {i: _voltage(a) for i, (_, _, a) in enumerate(edges_with_voltages)}
    return VoltagedGraph(g, VoltageAssignment(values))


def _bfs_tree_potentials(vg: VoltagedGraph):
    """Spanning tree from vertex 0 (edges scanned in id order), with the
    voltage-sum potential of each vertex along its tree path.

    Returns (potentials, tree_edge_ids).
    """
    g = vg.base
    n = g.vertex_count
    if n == 0:
        raise HypothesisViolation("base graph must be connected")
    incident = [[] for _ in range(n)]
    for e in g.edge_pairs:
        incident[e.origin].append((e, +1))
        if e.terminus != e.origin:
            incident[e.terminus].append((e, -1))
    for lst in incident:
        lst.sort(key=lambda pair: pair[0].id)
    potential = [None] * n
    potential[0] = 0
    tree_ids = set()
    queue = [0]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for e, direction in incident[v]:
            w = e.terminus if direction == 1 else e.origin
            if potential[w] is None:
                potential[w] = potential[v] + direction * vg.voltages[e.id]
                tree_ids.add(e.id)
                queue.append(w)
    if len(queue) < n:
        raise HypothesisViolation("base graph must be connected")
    return potential, tree_ids


def fundamental_cycle_voltages(vg: VoltagedGraph) -> list:
    """Voltage of the fundamental cycle of each non-tree edge pair, in id order."""
    potential, tree_ids = _bfs_tree_potentials(vg)
    out = []
    for e in vg.base.edge_pairs:
        if e.id in tree_ids:
            continue
        out.append(potential[e.origin] + vg.voltages[e.id] - potential[e.terminus])
    return out


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

    Vertex order is lexicographic in (base vertex, residue).  The graph is
    materialized explicitly, so memory grows with vertex_count * n.
    """
    if n < 1:
        raise ValueError("layer index must be positive")
    g = vg.base
    labels = tuple((g.vertices[v], s) for v in range(g.vertex_count) for s in range(n))
    edges = []
    for e in g.edge_pairs:
        a = vg.voltages[e.id]
        for s in range(n):
            edges.append((e.origin * n + s, e.terminus * n + (s + a) % n))
    return build_graph(g.vertex_count * n, edges, labels=labels)
