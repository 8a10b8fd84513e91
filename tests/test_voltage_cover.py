import pickle
import random
from math import gcd

from corpus import bouquet, degree_and_adjacency, dumbbell, random_connected_voltaged_graph

from ihara_towers.errors import HypothesisViolation
from ihara_towers.graph_core import (
    EdgePair,
    build_graph,
    euler_characteristic,
    is_connected,
    spanning_tree_count,
)
from ihara_towers.towers_cli import generate_family, graph_from_json, graph_to_json
from ihara_towers.voltage_cover import (
    VoltagedGraph,
    derived_graph,
    fundamental_cycle_voltages,
    monodromy_index,
    voltaged_graph,
)


def test_voltage_keys_validated():
    # one int per edge pair, in edge order, through the constructor and _replace
    vg = voltaged_graph(1, [(0, 0, 1), (0, 0, 2)])
    assert vg.voltages == (1, 2) and type(vg.voltages) is tuple
    assert vg.base.edge_pairs == (EdgePair(0, 0), EdgePair(0, 0))
    assert EdgePair._fields == ("origin", "terminus")
    # a mapping iterates its keys, which must not be read as voltages
    bad = [({0: 1, 1: 2}, TypeError), ({0, 1}, TypeError), (iter((1, 2)), TypeError),
           ([1], ValueError), ([1, 2, 3], ValueError), ((), ValueError),
           ([1, True], TypeError), ((1, 2.0), TypeError), ([1, "2"], TypeError)]
    for build in (lambda vs: VoltagedGraph(vg.base, vs), lambda vs: vg._replace(voltages=vs)):
        assert build([5, -7]).voltages == (5, -7)
        for voltages, error in bad:
            try:
                build(voltages)
                assert False, voltages
            except error:
                pass
    assert vg.voltages == (1, 2)


def _mutable_parts(x):
    """The values inside x, a record or one of its fields, that are neither a
    tuple nor an immutable scalar."""
    if isinstance(x, tuple):
        for item in x:
            yield from _mutable_parts(item)
    elif not isinstance(x, (int, str)):
        yield x


def test_graphs_hold_no_mutable_container():
    rng = random.Random(42)
    graphs = [bouquet(3, 5), dumbbell(2, 3), voltaged_graph(0, [])]
    graphs += [random_connected_voltaged_graph(rng) for _ in range(20)]
    for vg in graphs:
        for record in (vg, vg.base, *vg.base.edge_pairs, derived_graph(vg, 3)):
            assert list(_mutable_parts(record)) == [], record


def test_a_voltaged_graph_hashes_as_its_value():
    fib = voltaged_graph(1, [(0, 0, 1), (0, 0, 2)], labels=("v0",))
    assert generate_family("fibonacci", []) == fib
    assert hash(generate_family("fibonacci", [])) == hash(fib)
    for vg in (fib, voltaged_graph(2, [(0, 0, 1), (0, 1, 0), (1, 1, -2)], labels=("a", "b"))):
        for twin in (graph_from_json(graph_to_json(vg)), pickle.loads(pickle.dumps(vg))):
            assert twin == vg and hash(twin) == hash(vg)


def test_monodromy_examples():
    assert monodromy_index(bouquet(3, 5)) == 1
    assert monodromy_index(bouquet(2, 4)) == 2
    assert monodromy_index(bouquet(0, 0)) == 0


def test_monodromy_needs_connected_base():
    vg = voltaged_graph(2, [(0, 0, 1), (1, 1, 1)])
    try:
        monodromy_index(vg)
        assert False
    except HypothesisViolation:
        pass


def test_fundamental_cycle_voltages():
    assert fundamental_cycle_voltages(bouquet(3, 5)) == [3, 5]
    assert fundamental_cycle_voltages(dumbbell(4, 7)) == [4, 7]
    tree = voltaged_graph(3, [(0, 1, 2), (1, 2, -3)])
    assert fundamental_cycle_voltages(tree) == []


def test_derived_graph_b2_layer4():
    layer = derived_graph(bouquet(3, 5), 4)
    assert layer.vertex_count == 4
    assert all(layer.valency(v) == 4 for v in range(4))
    assert spanning_tree_count(layer) == 32


def test_derived_graph_layer1_is_base():
    rng = random.Random(3)
    for _ in range(20):
        vg = random_connected_voltaged_graph(rng)
        layer = derived_graph(vg, 1)
        d0, a0 = degree_and_adjacency(vg.base)
        d1, a1 = degree_and_adjacency(layer)
        assert d0.rows == d1.rows and a0.rows == a1.rows


def test_derived_bouquet_is_circulant():
    # bouquet voltages (a_1, ..., a_k) yield the circulant with those jumps
    vg = bouquet(1, 3)
    n = 12
    layer = derived_graph(vg, n)
    _, a = degree_and_adjacency(layer)
    for i in range(n):
        for j in range(n):
            expected = sum(
                1 for jump in (1, 3) for s in (jump, -jump) if (i + s) % n == j
            )
            assert a.rows[i][j] == expected


def test_chi_scales_with_layer():
    rng = random.Random(4)
    for _ in range(20):
        vg = random_connected_voltaged_graph(rng)
        for n in (1, 2, 3, 5, 8):
            assert euler_characteristic(derived_graph(vg, n)) == n * euler_characteristic(vg.base)


def test_layer_connected_iff_gcd_one():
    rng = random.Random(8)
    checked = 0
    while checked < 25:
        vg = random_connected_voltaged_graph(rng)
        d = monodromy_index(vg)
        for n in range(1, 31):
            assert is_connected(derived_graph(vg, n)) == (gcd(d, n) == 1)
        checked += 1


def test_layer_preserves_valency():
    rng = random.Random(15)
    for _ in range(20):
        vg = random_connected_voltaged_graph(rng)
        g = vg.base
        layer = derived_graph(vg, 6)
        for v in range(g.vertex_count):
            for s in range(6):
                assert layer.valency(v * 6 + s) == g.valency(v)


def test_fiber_collapse_reproduces_smaller_layer():
    # collapsing residues mod n inside the 2n-layer gives the n-layer's
    # adjacency counts, doubled
    rng = random.Random(16)
    for _ in range(10):
        vg = random_connected_voltaged_graph(rng)
        n = rng.randint(1, 5)
        small = derived_graph(vg, n)
        big = derived_graph(vg, 2 * n)
        _, a_small = degree_and_adjacency(small)
        _, a_big = degree_and_adjacency(big)
        v_count = vg.base.vertex_count
        collapsed = [[0] * (v_count * n) for _ in range(v_count * n)]
        for i in range(v_count * 2 * n):
            vi, si = divmod(i, 2 * n)
            for j in range(v_count * 2 * n):
                vj, sj = divmod(j, 2 * n)
                collapsed[vi * n + si % n][vj * n + sj % n] += a_big.rows[i][j]
        for i in range(v_count * n):
            for j in range(v_count * n):
                assert collapsed[i][j] == 2 * a_small.rows[i][j]


def test_derived_graph_rejects_bad_layer():
    try:
        derived_graph(bouquet(1), 0)
        assert False
    except ValueError:
        pass


def test_voltaged_graph_rejects_non_integer_voltages():
    assert voltaged_graph(1, [(0, 0, 3)]).voltages == (3,)
    for voltage in (1.7, True, "3"):
        try:
            voltaged_graph(1, [(0, 0, voltage)])
            assert False
        except TypeError:
            pass
