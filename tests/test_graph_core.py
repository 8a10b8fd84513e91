import random
from itertools import combinations

from corpus import (
    degree_and_adjacency,
    named_towers,
    random_connected_voltaged_graph,
    random_tower,
    reference_min_degree_det,
)

from ihara_towers import voltaged_graph
from ihara_towers.errors import VerificationMismatch
from ihara_towers.graph_core import (
    BRUTE_FORCE_PAIR_LIMIT,
    _min_degree_det,
    build_graph,
    euler_characteristic,
    is_connected,
    spanning_tree_count,
    spanning_tree_count_bruteforce,
)
from ihara_towers.polyring import int_matrix_det
from ihara_towers.voltage_cover import derived_graph

B2 = build_graph(1, [(0, 0), (0, 0)])
DUMBBELL = build_graph(2, [(0, 0), (0, 1), (1, 1)])
C3 = build_graph(3, [(0, 1), (1, 2), (2, 0)])
THETA = build_graph(2, [(0, 1), (0, 1), (0, 1)])
K4 = build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
K33 = build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
PETERSEN = build_graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)
# three graphs at the brute-force guard, with many trees and wide frontiers
MOBIUS_KANTOR = build_graph(  # the generalized Petersen graph GP(8, 3)
    16,
    [(i, (i + 1) % 8) for i in range(8)]
    + [(i, i + 8) for i in range(8)]
    + [(8 + i, 8 + (i + 3) % 8) for i in range(8)],
)
GRID_4X4 = build_graph(
    16,
    [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
    + [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)],
)
K7_PLUS_3 = build_graph(
    7, [(a, b) for a in range(7) for b in range(a + 1, 7)] + [(0, 1), (2, 3), (4, 5)]
)


def dense_matrix_tree(g):
    """Dense reduced-Laplacian determinant by general Bareiss (reference)."""
    d, a = degree_and_adjacency(g)
    return int_matrix_det([row[1:] for row in (d - a).rows[1:]])


def combinations_count(g):
    """Spanning trees as acyclic (|V| - 1)-subsets of edge pairs (reference)."""
    n = g.vertex_count
    count = 0
    for subset in combinations(g.edge_pairs, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for e in subset:
            ru, rv = find(e.origin), find(e.terminus)
            if ru == rv:
                break
            parent[ru] = rv
        else:
            count += 1
    return count


def random_multigraph(rng, max_vertices=6, max_pairs=10):
    """Uniform random endpoints: loops, parallel edges and disconnected graphs."""
    n = rng.randint(1, max_vertices)
    pairs = rng.randint(0, max_pairs)
    return build_graph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(pairs)])


def test_build_graph_examples():
    assert B2.vertex_count == 1
    assert 2 * len(B2.edge_pairs) == 4
    assert B2.valency(0) == 4
    assert DUMBBELL.valency(0) == 3 and DUMBBELL.valency(1) == 3
    lonely = build_graph(1, [])
    assert lonely.valency(0) == 0


def test_build_graph_rejects_bad_indices():
    try:
        build_graph(2, [(0, 2)])
        assert False
    except IndexError:
        pass
    for count, labels, message in ((-1, None, "vertex_count must be nonnegative"),
                                   (2, ("a",), "label count mismatch")):
        try:
            build_graph(count, [], labels=labels)
            assert False, count
        except ValueError as exc:
            assert str(exc) == message


def test_euler_characteristic():
    assert euler_characteristic(B2) == -1
    assert euler_characteristic(DUMBBELL) == -1
    assert euler_characteristic(C3) == 0


def test_degree_and_adjacency():
    d, a = degree_and_adjacency(B2)
    assert d.rows == ((4,),) and a.rows == ((4,),)
    d, a = degree_and_adjacency(DUMBBELL)
    assert d.rows == ((3, 0), (0, 3))
    assert a.rows == ((2, 1), (1, 2))
    d, a = degree_and_adjacency(THETA)
    assert d.rows == ((3, 0), (0, 3))
    assert a.rows == ((0, 3), (3, 0))


def test_laplacian_row_sums_vanish():
    rng = random.Random(5)
    for _ in range(50):
        vg = random_connected_voltaged_graph(rng)
        d, a = degree_and_adjacency(vg.base)
        assert all(s == 0 for s in (d - a).row_sums())


def test_valency_sum_equals_directed_edges():
    rng = random.Random(6)
    for _ in range(50):
        g = random_connected_voltaged_graph(rng).base
        assert sum(g.valency(v) for v in range(g.vertex_count)) == 2 * len(g.edge_pairs)


def test_spanning_tree_counts():
    assert spanning_tree_count(B2) == 1
    assert spanning_tree_count(C3) == 3
    assert spanning_tree_count(THETA) == 3
    assert spanning_tree_count(build_graph(1, [])) == 1
    two_isolated = build_graph(2, [])
    assert spanning_tree_count(two_isolated) == 0


def test_bruteforce_examples():
    assert spanning_tree_count_bruteforce(build_graph(1, [])) == 1
    assert spanning_tree_count_bruteforce(C3) == 3
    assert spanning_tree_count_bruteforce(K4) == 16  # Cayley: 4**2


def test_bruteforce_edge_cases():
    bf = spanning_tree_count_bruteforce
    assert bf(build_graph(1, [(0, 0)] * 5)) == 1  # loops only: the empty tree
    assert bf(build_graph(2, [])) == 0
    assert bf(build_graph(2, [(0, 0), (1, 1)])) == 0
    # a dense component that vertex 0 cannot reach, with or without a neighbour
    far = [(a, b) for a in range(2, 6) for b in range(a + 1, 6)] * 3
    for g in (build_graph(6, [(0, 1)] + far), build_graph(6, [(0, 0)] + far)):
        assert len(g.edge_pairs) == 19 and not is_connected(g)
        assert bf(g) == 0
    # fewer non-loop pairs than |V| - 1, padded with loops to the guard
    assert bf(build_graph(5, [(0, 1), (2, 3)] + [(v, v) for v in range(5)] * 4)) == 0
    # parallel pairs only: the count is the product of the multiplicities
    assert bf(build_graph(2, [(0, 1)] * BRUTE_FORCE_PAIR_LIMIT)) == BRUTE_FORCE_PAIR_LIMIT
    assert bf(build_graph(3, [(1, 0)] * 5 + [(2, 1)] * 7)) == 35
    assert bf(build_graph(3, [(0, 1)] * 3 + [(1, 2)] * 4 + [(2, 0)] * 5)) == 3 * 4 + 4 * 5 + 5 * 3


def test_bruteforce_on_graphs_at_the_guard():
    counts = {}
    for name, g in (("GP(8, 3)", MOBIUS_KANTOR), ("4x4 grid", GRID_4X4), ("K7 + 3", K7_PLUS_3)):
        assert len(g.edge_pairs) == BRUTE_FORCE_PAIR_LIMIT, name
        counts[name] = spanning_tree_count_bruteforce(g)
        assert counts[name] == spanning_tree_count(g) == dense_matrix_tree(g), name
    assert counts == {"GP(8, 3)": 248832, "4x4 grid": 100352, "K7 + 3": 35721}


def test_bruteforce_drops_a_component_closed_before_the_last_pair():
    # breadth-first from 0 the pairs run (0, 1), (0, 4), (1, 2), (1, 3),
    # (4, 5), (4, 7), (4, 6), (2, 3), (5, 6), (7, 6): the pendant triangle
    # 1-2-3 leaves the frontier at (2, 3), before the last pair, so every
    # forest without the bridge (0, 1) closes it while 5, 6 and 7 remain
    edges = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7), (7, 4), (4, 6)]
    g = build_graph(8, edges)
    # the bridges (0, 1) and (0, 4), one of 3 trees of the triangle and one
    # of 8 of the 4-cycle 4-5-6-7 with the chord (4, 6)
    assert spanning_tree_count_bruteforce(g) == spanning_tree_count(g) == 3 * 8


def test_bruteforce_matches_matrix_tree_on_verify_shaped_layers():
    # every layer within the guard of seeded 2-vertex, 3-pair bases: the shape
    # whose layers the verify workload counts by brute force, 2 to 16 vertices
    rng = random.Random(19)
    for _ in range(20):
        edges = [(0, 1, rng.randint(-6, 6))]
        edges += [(rng.randrange(2), rng.randrange(2), rng.randint(-6, 6)) for _ in range(2)]
        vg = voltaged_graph(2, edges)
        for n in range(1, BRUTE_FORCE_PAIR_LIMIT // 3 + 1):
            layer = derived_graph(vg, n)
            assert spanning_tree_count_bruteforce(layer) == spanning_tree_count(layer), (edges, n)


def test_bruteforce_guard():
    big = build_graph(2, [(0, 1)] * 25)
    try:
        spanning_tree_count_bruteforce(big)
        assert False
    except ValueError:
        pass
    # neither counter takes the empty graph
    for count in (spanning_tree_count, spanning_tree_count_bruteforce):
        try:
            count(build_graph(0, []))
            assert False, count
        except ValueError as exc:
            assert str(exc) == "spanning trees of the empty graph are undefined"


def test_is_connected():
    assert is_connected(B2)
    assert is_connected(DUMBBELL)
    assert not is_connected(build_graph(2, []))
    try:
        is_connected(build_graph(0, []))
        assert False
    except ValueError:
        pass


def test_matrix_tree_equals_bruteforce_on_corpus():
    graphs = [B2, DUMBBELL, C3, THETA, K4]
    graphs += [vg.base for vg in named_towers().values()]
    rng = random.Random(9)
    for _ in range(40):
        graphs.append(random_connected_voltaged_graph(rng).base)
    for g in graphs:
        if len(g.edge_pairs) <= 24:
            assert spanning_tree_count(g) == spanning_tree_count_bruteforce(g)


def test_symmetric_elimination_matches_general_bareiss():
    # sparse elimination in minimum-degree order against dense general Bareiss
    rng = random.Random(77)
    graphs = [random_multigraph(rng) for _ in range(300)]
    graphs += [random_multigraph(rng, max_vertices=2, max_pairs=5) for _ in range(40)]
    assert any(not is_connected(g) for g in graphs)
    assert any(g.vertex_count == 1 for g in graphs)
    for g in graphs:
        assert spanning_tree_count(g) == dense_matrix_tree(g)


def reduced_laplacian_rows(g):
    """Sparse rows of the reduced Laplacian (vertex 0 dropped) with no
    connectivity check: a disconnected graph gives a singular matrix."""
    rows = {v: {v: 0} for v in range(1, g.vertex_count)}
    for e in g.edge_pairs:
        u, v = e.origin, e.terminus
        if u != v:
            for a, b in ((u, v), (v, u)):
                if a:
                    rows[a][a] += 1
                    if b:
                        rows[a][b] = rows[a].get(b, 0) - 1
    return rows


def shared_cells(rows):
    """The kernel's form of symmetric integer rows: each entry a [value, 0]
    cell, one cell shared by (i, j) and (j, i)."""
    cells = {}
    return {i: {j: cells.setdefault(frozenset((i, j)), [a, 0]) for j, a in row.items()}
            for i, row in rows.items()}


class PivotLog(dict):
    """Rows that record the order in which the kernel deletes them."""

    def __init__(self, items):
        super().__init__(items)
        self.pivots = []

    def __delitem__(self, k):
        self.pivots.append(k)
        super().__delitem__(k)


def test_per_entry_steps_match_the_row_stamp_kernel():
    # derived layers of 4-vertex, 6-pair bases (the first three bases up to
    # n = 200, the next twelve up to n = 50) and the random multigraphs of
    # test_symmetric_elimination_matches_general_bareiss; a disconnected one
    # has a zero pivot, and a lowered diagonal entry gives negative ones; both
    # kernels pick the same pivots in the same order; the per-entry kernel
    # takes its rows as shared cells
    rng = random.Random(79)
    graphs, bases = [], 0
    while bases < 90:
        vg = random_tower(rng)
        if vg.base.vertex_count == 4 and len(vg.base.edge_pairs) == 6:
            ns = (2, 11, 29, 50, 100, 200)[:6 if bases < 3 else 4 if bases < 15 else 3]
            graphs += [derived_graph(vg, n) for n in ns]
            bases += 1
    layers = len(graphs)
    assert max(g.vertex_count for g in graphs) == 800
    rng = random.Random(77)
    graphs += [random_multigraph(rng) for _ in range(300)]
    graphs += [random_multigraph(rng, max_vertices=2, max_pairs=5) for _ in range(40)]
    inputs = [reduced_laplacian_rows(g) for g in graphs]
    assert len(inputs) >= 600
    for rows in inputs[-340:]:
        if 1 in rows:
            lowered = {i: dict(row) for i, row in rows.items()}
            lowered[1][1] -= 2
            inputs.append(lowered)
    outcomes = []
    for rows in inputs:
        results = []
        for kernel, form in ((_min_degree_det, shared_cells),
                             (reference_min_degree_det, lambda rows: rows)):
            consumed = PivotLog((i, dict(row)) for i, row in form(rows).items())
            try:
                results.append((kernel(consumed), consumed.pivots))
            except VerificationMismatch as exc:
                results.append((str(exc), consumed.pivots))
        assert results[0] == results[1], rows
        outcomes.append(results[0][0])
    assert all(isinstance(r, int) for r in outcomes[:layers])
    messages = [r for r in outcomes if isinstance(r, str)]
    assert any(r.endswith(" is 0, not positive") for r in messages)
    assert any(" is -" in r for r in messages)


def test_banded_count_matches_dense_on_layers():
    # derived layers of 4-vertex, 6-pair bases with voltages in [-6, 6]: the
    # long cyclic graphs of the verify workload, where fill-in is largest
    rng = random.Random(78)
    checked = 0
    while checked < 3:
        vg = random_tower(rng)
        if vg.base.vertex_count != 4 or len(vg.base.edge_pairs) != 6:
            continue
        for n in (2, 11, 29, 50):
            layer = derived_graph(vg, n)
            assert spanning_tree_count(layer) == dense_matrix_tree(layer), n
        checked += 1


def test_min_degree_elimination_rejects_non_positive_pivot():
    # the unreduced Laplacian of the path 0 - 1 - 2 is singular
    rows = {0: {0: 1, 1: -1}, 1: {0: -1, 1: 2, 2: -1}, 2: {1: -1, 2: 1}}
    for kernel, form in ((_min_degree_det, shared_cells),
                         (reference_min_degree_det, lambda rows: rows)):
        try:
            kernel(form({i: dict(row) for i, row in rows.items()}))
            assert False
        except VerificationMismatch as exc:
            assert str(exc) == "pivot 3 of a reduced Laplacian is 0, not positive"


def test_disconnected_layer_counts_zero():
    # voltages 2 and 4 reach only even residues, so layer 4 has two components;
    # its reduced Laplacian is singular, and the count is 0, not a zero pivot
    layer = derived_graph(voltaged_graph(1, [(0, 0, 2), (0, 0, 4)]), 4)
    assert not is_connected(layer)
    assert spanning_tree_count(layer) == 0


def test_min_degree_count_matches_dense_and_bruteforce_on_random_layers():
    # derived layers of random voltaged bases with random endpoints, so some
    # bases are disconnected and some layers split by their monodromy
    rng = random.Random(80)
    layers = []
    for _ in range(640):
        v = rng.randint(1, 3)
        pairs = rng.randint(0, 5)
        edges = [(rng.randrange(v), rng.randrange(v), rng.randint(-4, 4)) for _ in range(pairs)]
        layers.append(derived_graph(voltaged_graph(v, edges), rng.randint(1, 5)))
    assert sum(not is_connected(g) for g in layers) >= 100
    assert sum(g.vertex_count == 1 for g in layers) >= 10
    for g in layers:
        count = spanning_tree_count(g)
        assert count == dense_matrix_tree(g)
        if len(g.edge_pairs) <= BRUTE_FORCE_PAIR_LIMIT:
            assert count == spanning_tree_count_bruteforce(g)


def test_bruteforce_matches_combinations_reference():
    rng = random.Random(79)
    for _ in range(300):
        g = random_multigraph(rng, max_vertices=7, max_pairs=12)
        assert spanning_tree_count_bruteforce(g) == combinations_count(g)
    # 400 more, wider: loops, parallel pairs and disconnected graphs all occur
    graphs = [random_multigraph(rng, max_vertices=8, max_pairs=14) for _ in range(400)]
    pairs = [[frozenset((e.origin, e.terminus)) for e in g.edge_pairs] for g in graphs]
    assert any(len(p) == 1 for ends in pairs for p in ends)
    assert any(len(set(ends)) < len(ends) for ends in pairs)
    assert any(not is_connected(g) for g in graphs)
    counts = [spanning_tree_count_bruteforce(g) for g in graphs]
    assert sum(count > 0 for count in counts) >= 100
    assert counts == [combinations_count(g) for g in graphs]


def test_known_counts():
    for g, count in ((K4, 16), (K33, 81), (PETERSEN, 2000)):
        assert spanning_tree_count(g) == count
        assert spanning_tree_count_bruteforce(g) == count


def _relabeled(g, rng):
    """g with vertices permuted, labels shuffled, edge pairs reordered and
    each pair's stored orientation flipped at random."""
    n = g.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[e.origin], perm[e.terminus]) for e in g.edge_pairs]
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    labels = list(g.vertices)
    rng.shuffle(labels)
    return build_graph(n, edges, labels=labels)


def test_tree_count_invariant_under_relabeling():
    rng = random.Random(12)
    for _ in range(30):
        g = random_connected_voltaged_graph(rng).base
        relabeled = _relabeled(g, rng)
        assert spanning_tree_count(g) == spanning_tree_count(relabeled)
        if len(g.edge_pairs) <= 12:
            assert spanning_tree_count_bruteforce(g) == spanning_tree_count_bruteforce(relabeled)
    # minimum-degree ties go by vertex index, and the brute-force pair order is
    # breadth-first from vertex 0 in input order, so relabelling changes both
    top_layers = 0
    for _ in range(10):
        vg = random_tower(rng)
        pairs = len(vg.base.edge_pairs)
        large = derived_graph(vg, 24)
        for n in {max(1, 16 // pairs), BRUTE_FORCE_PAIR_LIMIT // pairs}:
            small = derived_graph(vg, n)
            top_layers += len(small.edge_pairs) > 20
            assert spanning_tree_count_bruteforce(small) == spanning_tree_count_bruteforce(
                _relabeled(small, rng)
            )
        assert spanning_tree_count(large) == spanning_tree_count(_relabeled(large, rng))
    assert top_layers >= 5
