import math
import random

from corpus import (
    bouquet,
    dumbbell,
    fib,
    geometric_quotient,
    random_connected_voltaged_graph,
    random_int_poly,
    random_self_reciprocal,
    random_tower,
    sylvester_matrix,
)

from ihara_towers.errors import HypothesisViolation, ResourceLimit, VerificationMismatch
from ihara_towers.ihara import (
    _kappa_from_delta,
    analyze,
    ihara_polynomial,
    kappa_sequence,
    kappa_via_formula,
    pierce_lehmer,
    pierce_lehmer_range,
    resultant_row,
    verify_tower,
)
from ihara_towers.polyring import (
    IntPoly,
    LaurentPoly,
    cyclotomic_polynomial,
    int_matrix_det,
    is_self_reciprocal,
    resultant,
)
from ihara_towers.voltage_cover import voltaged_graph

# paper values for the two-loop base with voltages (3, 5)
KAPPA_35 = (1, 4, 3, 32, 5, 300, 1183, 1024, 12321, 16820)
RES_35 = (1, -8, 9, -128, 25, -1800, 8281, -8192, 110889, -168200)
DELTA_35 = (-34, 68, -34, 272, -34, 1700, -5746, 4352, -46546, 57188)
J_35 = IntPoly((-1, -2, -4, -6, -8, -6, -4, -2, -1))


def test_ihara_polynomial_bouquets():
    assert ihara_polynomial(bouquet(3, 5)) == LaurentPoly.from_dict(
        {0: 4, 3: -1, -3: -1, 5: -1, -5: -1}
    )
    assert ihara_polynomial(bouquet(1, 2)) == LaurentPoly.from_dict(
        {0: 4, 1: -1, -1: -1, 2: -1, -2: -1}
    )
    voltages = (2, 3, 7)
    expected = {0: 2 * len(voltages)}
    for a in voltages:
        expected[a] = expected.get(a, 0) - 1
        expected[-a] = expected.get(-a, 0) - 1
    assert ihara_polynomial(bouquet(*voltages)) == LaurentPoly.from_dict(expected)


def test_ihara_polynomial_always_self_reciprocal_and_vanishing_at_one():
    rng = random.Random(17)
    for _ in range(200):
        vg = random_connected_voltaged_graph(rng)
        ih = ihara_polynomial(vg)
        assert is_self_reciprocal(ih)
        assert ih.body(1) == 0  # t**low is 1 at t = 1
        assert sum(ih.body.coeffs) == 0  # exact evaluation at t = 1


def test_analyze_b2_35():
    ta = analyze(bouquet(3, 5))
    assert (ta.b, ta.e) == (5, 2)
    assert ta.j_poly == J_35
    assert ta.delta1 == -34
    assert ta.kappa_base == 1 and ta.chi == -1


def _plain(x):
    """x with every record, at any depth, turned into a plain tuple."""
    return tuple(map(_plain, x)) if isinstance(x, tuple) else x


def test_an_analyzed_tower_hashes_as_its_value():
    import pickle

    ta = analyze(bouquet(3, 5))
    before = hash(ta)
    assert before == hash(analyze(bouquet(3, 5))) == hash(pickle.loads(pickle.dumps(ta)))
    assert before == hash(_plain(ta)) and ta == _plain(ta)
    for record, field in ((ta.j_poly, "coeffs"), (ta.i_poly, "coeffs"),
                          (ta.ihara, "low"), (ta.ihara, "body")):
        try:
            setattr(record, field, (7,))
            assert False, field
        except AttributeError:
            pass
    assert hash(ta) == before and ta.j_poly == J_35 and len({ta, analyze(bouquet(3, 5))}) == 1


def test_analyze_b2_12():
    ta = analyze(bouquet(1, 2))
    assert (ta.b, ta.e) == (2, 2)
    assert ta.j_poly == IntPoly((-1, -3, -1))
    assert ta.delta1 == -5


def test_analyze_rejects_zero_chi():
    cycle = voltaged_graph(3, [(0, 1, 1), (1, 2, 0), (2, 0, 0)])
    try:
        analyze(cycle)
        assert False
    except HypothesisViolation:
        pass


def test_analyze_rejects_bad_monodromy():
    for voltages in ((0, 0), (2, 4)):
        try:
            analyze(bouquet(*voltages))
            assert False
        except HypothesisViolation:
            pass


def test_analyze_decides_connectivity_once_and_keeps_its_errors(monkeypatch):
    import ihara_towers.ihara as ihara

    rng = random.Random(2205)
    for _ in range(40):
        vg = random_tower(rng)
        assert analyze(vg).ihara == ihara_polynomial(vg)
    calls, index_calls = [], []
    is_connected, monodromy_index = ihara.is_connected, ihara.monodromy_index
    monkeypatch.setattr(ihara, "is_connected", lambda g: calls.append(g) or is_connected(g))
    monkeypatch.setattr(ihara, "monodromy_index",
                        lambda vg: index_calls.append(vg) or monodromy_index(vg))
    analyze(bouquet(3, 5))
    assert len(calls) == 0 and len(index_calls) == 1
    # empty and disconnected bases are refused first, by both entry points
    for vg in (voltaged_graph(0, []), voltaged_graph(2, [(0, 0, 1), (1, 1, 2)]),
               voltaged_graph(3, [(0, 1, 1), (0, 0, 2), (2, 2, 0)])):
        for call in (analyze, ihara_polynomial):
            try:
                call(vg)
                assert False, (call, vg)
            except HypothesisViolation as exc:
                assert str(exc) == "base graph must be connected"


def test_analyze_builds_no_sturm_chain(monkeypatch, tmp_path):
    # Monodromy index 1 and J(1) != 0 leave J no root on the unit circle, so
    # analyze runs no unit-circle count, neither a Sturm chain nor any Phi_k,
    # and neither do the analyze and asymptotics commands, whose outputs keep
    # their golden digests
    import ihara_towers.mahler as mahler
    import ihara_towers.polyring as polyring
    from test_golden import EXPECTED, GRAPHS, _cli

    from ihara_towers.towers_cli import main

    def refuse(*args):
        raise AssertionError(f"unit-circle work on {args}")

    monkeypatch.setattr(mahler, "_sturm_count_open", refuse)
    monkeypatch.setattr(polyring, "cyclotomic_polynomial", refuse)
    for vg in (bouquet(1, 160), bouquet(3, 5), dumbbell(2, 3), random_tower(random.Random(5))):
        analyze(vg)
    monkeypatch.setattr(mahler, "count_unit_circle_roots", refuse)
    mahler._mahler_archimedean.cache_clear()
    for name, family in GRAPHS.items():
        path = str(tmp_path / f"{name}.json")
        assert main(["generate", *family, "--output", path]) == 0
        for command in (["analyze"], ["analyze", "--prime", "2", "--prime", "5"], ["asymptotics"]):
            key = f"{name} {' '.join(command)}"
            assert _cli([command[0], path, *command[1:]]) == EXPECTED[key], key


def test_table_of_a_degree_1998_j_is_fast(tmp_path, capsys):
    import json
    import time

    from ihara_towers.graph_core import spanning_tree_count
    from ihara_towers.towers_cli import graph_to_json, main
    from ihara_towers.voltage_cover import derived_graph

    vg = bouquet(1, 1000)
    path = tmp_path / "bouquet.json"
    path.write_text(json.dumps(graph_to_json(vg)))
    started = time.perf_counter()
    assert main(["table", str(path), "--n-max", "3"]) == 0
    elapsed = time.perf_counter() - started
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["kappa"] for row in rows] == [
        str(spanning_tree_count(derived_graph(vg, n))) for n in (1, 2, 3)] == ["1", "2", "12"]
    assert elapsed < 1.0, elapsed


def test_pierce_lehmer_table_row():
    for n, expected in enumerate(DELTA_35, start=1):
        assert pierce_lehmer(J_35, n) == expected
    assert pierce_lehmer_range(J_35, 10) == list(DELTA_35)


def test_pierce_lehmer_simple_values():
    assert pierce_lehmer(IntPoly((-2, 1)), 1) == 1  # Res(t - 2, t - 1)
    # D_n = -5 F_n**2 on the Lengyel tower (lead -1, half-degree 1), and
    # D_n = -(2**n - 1)**2 for (2t - 1)(t - 2), on the rescaled path (lead 2)
    j_fib = IntPoly((-1, -3, -1))
    assert pierce_lehmer(j_fib, 12) == -5 * fib(12) ** 2
    assert pierce_lehmer_range(j_fib, 300) == [-5 * fib(n) ** 2 for n in range(1, 301)]
    assert pierce_lehmer(j_fib, 10 ** 4) == -5 * fib(10 ** 4) ** 2
    assert pierce_lehmer_range(IntPoly((2, -5, 2)), 300) == [-(2 ** n - 1) ** 2 for n in range(1, 301)]


def test_pierce_lehmer_fast_path_matches_sylvester():
    ns = (1, 2, 3, 7, 12, 25, 33, 40, 41, 64)
    rng = random.Random(19)
    fs = [IntPoly((-2, 1, 1)), IntPoly((1, 0, 1))]  # (t-1)(t+2) and t**2+1: D_n = 0
    # palindromic, so through the trace polynomial: t**2 -+ t + 1 vanish at
    # roots of unity, (t -+ 1)**2 has a double root
    fs += [IntPoly((1, -1, 1)), IntPoly((1, 1, 1)), IntPoly((1, -2, 1)), IntPoly((1, 2, 1))]
    for _ in range(60):
        f = random_int_poly(rng, max_degree=5)
        if f.degree >= 1:
            fs.append(f)
    # not palindromic with |lead| > 1 (q = 0), and deg-1 moduli: f of degree 1
    # and palindromic f of degree 2
    chosen = [IntPoly((1, 2, -3)), IntPoly((5, 0, 1, -4)), IntPoly((3, 2)), IntPoly((-1, 7)),
              IntPoly((3, 1, 3)), IntPoly((2, -5, 2)), IntPoly((-2, 4, -2))]
    fs += chosen
    palindromes = [random_self_reciprocal(rng) for _ in range(60)]
    assert any(f.degree == 2 for f in palindromes)
    assert any(abs(f.lead) > 1 for f in palindromes)
    for f in fs + palindromes:
        values = pierce_lehmer_range(f, max(ns))
        for n in ns:
            cyc = IntPoly((-1,) + (0,) * (n - 1) + (1,))
            reference = int_matrix_det(sylvester_matrix(f, cyc))
            assert pierce_lehmer(f, n) == values[n - 1] == reference
    # n = 255 and 256: every bit of the chain set, and a single one
    for f in chosen + palindromes[:4]:
        values = pierce_lehmer_range(f, 256)
        for n in (255, 256):
            assert pierce_lehmer(f, n) == values[n - 1]
    assert pierce_lehmer(IntPoly((1, 0, 1)), 12) == 0
    assert pierce_lehmer(IntPoly((1, 0, 1)), 6) == 4
    # large n: Res(f (t - 2), t**n - 1) = Res(f, t**n - 1) (2**n - 1), and
    # f (t - 2) is not palindromic, so its chain has q = 0 and u_(n+1) = t**n
    small = [f for f in palindromes if f.degree <= 6][:20]
    assert len(small) >= 15
    for f in small:
        for n in (513, 1000):
            assert pierce_lehmer(f, n) * (2 ** n - 1) == pierce_lehmer(f * IntPoly((-2, 1)), n)


def test_pierce_lehmer_range_on_small_palindromes():
    # the padic set-up shape: half-degree m = 1..5, |lead| in {1, 2, 3}, n <= 300
    rng = random.Random(23)
    ns = (1, 2, 97, 128, 255, 299, 300)
    for i in range(45):
        m, lead = i % 5 + 1, rng.choice((-3, -2, -1, 1, 2, 3))
        inner = [rng.randint(-6, 6) for _ in range(m)]
        f = IntPoly([lead] + inner + inner[-2::-1] + [lead])
        assert f.degree == 2 * m and f.coeffs == f.coeffs[::-1]
        values = pierce_lehmer_range(f, 300)
        # Res(f, t - 1) = f(1) and Res(f, t**2 - 1) = f(1) f(-1) at even degree
        assert values[:2] == [f(1), f(1) * f(-1)]
        for n in ns:
            assert pierce_lehmer(f, n) == values[n - 1]


def _is_square_over(value: int, unit: int) -> bool:
    """value = unit * r**2 for an integer r (value = 0 when unit = 0)."""
    if unit == 0:
        return value == 0
    quot, rem = divmod(value, unit)
    return rem == 0 and quot >= 0 and math.isqrt(quot) ** 2 == quot


def test_pierce_lehmer_takes_half_size_resultants(monkeypatch):
    # Lehmer 1933: D_(2k+1) = J(1) T_k**2 and D_(2k) = J(1) J(-1) R_k**2, and
    # each layer's resultant is T_k or R_k, never a value of the size of D_n
    import ihara_towers.ihara as ihara_module

    real, returned = ihara_module._resultant, []

    def recording(a, b):
        returned.append(real(a, b))
        return returned[-1]

    monkeypatch.setattr(ihara_module, "_resultant", recording)
    rng = random.Random(37)
    tried = 0
    while tried < 40:
        m = rng.randint(1, 6)
        inner = [rng.randint(-5, 5) for _ in range(m)]
        lead = rng.choice((-1, 1))
        f = IntPoly([lead] + inner + inner[-2::-1] + [lead])
        returned.clear()
        values = pierce_lehmer_range(f, 300)
        if 0 in values:
            continue
        tried += 1
        half = max(abs(v) for v in values).bit_length() // 2 + 8
        assert len(returned) == 300
        assert max(abs(r).bit_length() for r in returned) <= half, f
        for n, value in enumerate(values, start=1):
            assert _is_square_over(value, f(1) if n % 2 else f(1) * f(-1)), (f, n)


def test_pierce_lehmer_square_factors_at_every_lead_and_root_of_unity():
    rng = random.Random(41)
    ns = (1, 2, 3, 64, 99, 100, 255, 256)
    lehmer = IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    assert (lehmer(1), lehmer(-1)) == (-1, 1)
    # |lead| 2 and 3 (q = 4 and 9), half-degree m = 1, and (t + 1)**2, where
    # J(-1) = 0 and so every even D_n vanishes; Lehmer's polynomial and the
    # J of three towers
    fs = [IntPoly((2, 1, 2)), IntPoly((-3, 7, -3)), IntPoly((3, -1, 4, -1, 3)),
          IntPoly((2, 1, -3, 1, 2)), IntPoly((1, 2, 1)) * IntPoly((1, 3, 1)),
          IntPoly((1, 2, 1)) * IntPoly((-2, 1, 5, 1, -2)), lehmer]
    fs += [analyze(vg).j_poly for vg in (bouquet(1, 2), bouquet(3, 5), dumbbell(2, 3))]
    fs += [random_self_reciprocal(rng, max_half_degree=4, bound=6) for _ in range(12)]
    for f in fs:
        values = pierce_lehmer_range(f, 300)
        for n, value in enumerate(values, start=1):
            assert _is_square_over(value, f(1) if n % 2 else f(1) * f(-1)), (f, n)
        for n in ns:
            assert pierce_lehmer(f, n) == values[n - 1]
    # a factor Phi_d, d >= 3: D_n = 0 exactly when d | n
    base = [IntPoly((1, -3, 1)), IntPoly((-2, 1, 3, 1, -2)), lehmer]
    for d in (3, 4, 5, 7, 12):
        for g in base:
            f = g * cyclotomic_polynomial(d)
            values = pierce_lehmer_range(f, 120)
            assert [n for n, v in enumerate(values, start=1) if v == 0] == list(range(d, 121, d))
            for n in (d, 2 * d + 1, 60):
                assert pierce_lehmer(f, n) == values[n - 1]


def test_kappa_sequence_matches_the_formula_to_300():
    # J of degree 8 with lead 1, and of degree 6 with lead -2
    for vg in (dumbbell(2, 3), bouquet(3, 4, 4)):
        ta = analyze(vg)
        kappas = kappa_sequence(ta, 300)
        assert kappas == [kappa_via_formula(ta, n) for n in range(1, 301)]


def test_pierce_lehmer_divisibility():
    rng = random.Random(29)
    for _ in range(200):
        f = random_int_poly(rng, max_degree=6)
        if f.degree < 1:
            continue
        values = pierce_lehmer_range(f, 36)
        for n in range(1, 37):
            for d in range(1, n):
                if n % d == 0:
                    dn, dd = values[n - 1], values[d - 1]
                    assert dn == 0 if dd == 0 else dn % dd == 0


def test_kappa_via_formula_table():
    ta = analyze(bouquet(3, 5))
    assert tuple(kappa_via_formula(ta, n) for n in range(1, 11)) == KAPPA_35
    assert kappa_via_formula(ta, 1) == ta.kappa_base
    assert tuple(kappa_sequence(ta, 10)) == KAPPA_35


def test_bit_cap_bounds_every_pierce_lehmer_entry_point(monkeypatch):
    # With the cap at the largest delta for n <= 12, only the checks on
    # kappas and resultant rows can stop the calls that must raise.
    ta = analyze(bouquet(1, 2))
    monkeypatch.delenv("IHARA_TOWERS_MAX_BITS", raising=False)
    deltas, kappas = pierce_lehmer_range(ta.j_poly, 12), kappa_sequence(ta, 12)
    rows = [resultant_row(ta, n) for n in range(1, 13)]
    cap = max(abs(d).bit_length() for d in deltas)
    n_kappa = next(n for n, k in enumerate(kappas, 1) if abs(k).bit_length() > cap)
    n_row = next(n for n, r in enumerate(rows, 1) if abs(r).bit_length() > cap)
    raising = (
        lambda: kappa_sequence(ta, 12),
        lambda: kappa_via_formula(ta, n_kappa),
        lambda: resultant_row(ta, n_row),
        lambda: pierce_lehmer_range(ta.j_poly, 13),
        lambda: pierce_lehmer(ta.j_poly, 40),
    )
    monkeypatch.setenv("IHARA_TOWERS_MAX_BITS", str(cap))
    assert pierce_lehmer_range(ta.j_poly, 12) == deltas
    assert pierce_lehmer(ta.j_poly, 12) == deltas[-1]
    for call in raising:
        try:
            call()
            assert False
        except ResourceLimit as exc:
            assert str(exc) == f"integer exceeds IHARA_TOWERS_MAX_BITS={cap} bits"
    for setting in ("", None):
        if setting is None:
            monkeypatch.delenv("IHARA_TOWERS_MAX_BITS")
        else:
            monkeypatch.setenv("IHARA_TOWERS_MAX_BITS", setting)
        assert kappa_sequence(ta, 12) == kappas
        assert kappa_via_formula(ta, n_kappa) == kappas[n_kappa - 1]
        assert resultant_row(ta, n_row) == rows[n_row - 1]
        assert pierce_lehmer_range(ta.j_poly, 13)[:12] == deltas
    # a malformed cap is refused when the call starts, before any value is
    # computed; 0 refuses every nonzero value
    for setting in ("abc", "-3", " 12", "1_000", "12 ", "+5", "1.5", "\u0661"):
        monkeypatch.setenv("IHARA_TOWERS_MAX_BITS", setting)
        for call in (lambda: pierce_lehmer(ta.j_poly, 1), lambda: kappa_sequence(ta, 1)):
            try:
                call()
                assert False, setting
            except ValueError as exc:
                assert str(exc) == ("IHARA_TOWERS_MAX_BITS must be a non-negative integer, "
                                    f"got {setting!r}")
    # a zero polynomial or an n below 1 is refused before the cap is read
    zero = IntPoly(())
    for call, message in ((lambda: pierce_lehmer(zero, 3), "zero polynomial"),
                          (lambda: pierce_lehmer_range(zero, 3), "zero polynomial"),
                          (lambda: pierce_lehmer(ta.j_poly, 0), "n must be positive"),
                          (lambda: pierce_lehmer_range(ta.j_poly, 0), "n_max must be positive"),
                          (lambda: kappa_via_formula(ta, 0), "n must be positive"),
                          (lambda: resultant_row(ta, -1), "n must be positive")):
        try:
            call()
            assert False, message
        except ValueError as exc:
            assert str(exc) == message
    monkeypatch.setenv("IHARA_TOWERS_MAX_BITS", "0")
    try:
        pierce_lehmer(ta.j_poly, 1)
        assert False
    except ResourceLimit as exc:
        assert str(exc) == "integer exceeds IHARA_TOWERS_MAX_BITS=0 bits"


def test_kappa_sequence_reads_the_bit_cap_once_per_sweep(monkeypatch, tmp_path):
    # one read in pierce_lehmer_range and one for all the kappas of the sweep,
    # whatever n_max is; the CLI table reads it once more for kappas and rows
    import ihara_towers.ihara as ihara
    import ihara_towers.towers_cli as towers_cli

    reads = []

    def bit_cap():
        reads.append(1)
        return None

    monkeypatch.setattr(ihara, "_bit_cap", bit_cap)
    monkeypatch.setattr(towers_cli, "_bit_cap", bit_cap)
    ta = analyze(bouquet(3, 5))
    for n_max in (1, 10, 300):
        reads.clear()
        kappas = kappa_sequence(ta, n_max)
        assert len(reads) == 2, n_max
    assert tuple(kappas[:10]) == KAPPA_35
    path = str(tmp_path / "bouquet.json")
    towers_cli.main(["generate", "bouquet", "3", "5", "--output", path])
    reads.clear()
    assert towers_cli.main(["table", path, "--n-max", "40"]) == 0
    assert len(reads) == 2


def test_kappa_from_delta_rejects_non_integral_quotient():
    try:
        _kappa_from_delta(analyze(bouquet(3, 5)), 2, 69)
        assert False
    except VerificationMismatch:
        pass


def test_a_layer_with_d_n_zero_raises():
    # A J with a root of unity cannot come from a connected tower, and analyze
    # no longer tests for one: D_k = 0 at the layer of Phi_k raises instead
    for vg in (bouquet(3, 5), dumbbell(2, 3)):
        ta = analyze(vg)
        for k in (2, 3, 4, 6, 12):
            j = ta.j_poly * cyclotomic_polynomial(k)
            patched = ta._replace(j_poly=j, delta1=(-1) ** j.degree * j(1))
            assert pierce_lehmer(j, k) == 0
            for layer in (kappa_via_formula, resultant_row):
                try:
                    layer(patched, k)
                    assert False, (vg, k, layer)
                except VerificationMismatch as exc:
                    assert str(exc) == f"layer {k}: D_n = 0, but a connected layer has a spanning tree"
            try:
                kappa_sequence(patched, k)
                assert False, (vg, k)
            except VerificationMismatch as exc:
                assert str(exc).startswith(f"layer {k}: D_n = 0")


def test_kappa_fibonacci_shape():
    ta = analyze(bouquet(1, 2))
    assert kappa_via_formula(ta, 7) == 7 * 13 ** 2


def test_resultant_row_table():
    ta = analyze(bouquet(3, 5))
    assert tuple(resultant_row(ta, n) for n in range(1, 11)) == RES_35
    assert resultant_row(ta, 1) == 1
    # n * kappa = sign * kappa(base) * resultant_row
    assert 4 * 32 == (-1) ** (ta.b * 3) * ta.kappa_base * -128


def test_resultant_row_identity_and_dispatch():
    # Res(I, (t**n - 1)/(t - 1)) == n**e * D_n / D_1, both sides exact
    for vg in (bouquet(3, 5), dumbbell(1, 2)):
        ta = analyze(vg)
        for n in list(range(1, 25)) + [40, 41, 50]:
            direct = int_matrix_det(sylvester_matrix(ta.i_poly, geometric_quotient(n))) if n <= 45 else None
            value = resultant_row(ta, n)
            q, r = divmod(n ** ta.e * pierce_lehmer(ta.j_poly, n), ta.delta1)
            assert r == 0 and value == q
            if direct is not None:
                assert value == direct


def test_verify_tower_named_examples():
    assert verify_tower(bouquet(3, 5), 10).ok
    report = verify_tower(bouquet(1, 2), 10)
    assert report.ok
    assert list(report.kappas) == [n * fib(n) ** 2 for n in range(1, 11)]
    assert verify_tower(dumbbell(1, 2), 10).ok  # generalized Petersen family


def test_analyze_invariant_raises_package_error(monkeypatch):
    # a broken invariant raises VerificationMismatch, which python -O keeps
    import ihara_towers.ihara as ihara

    monkeypatch.setattr(ihara, "is_self_reciprocal", lambda p: False)
    try:
        analyze(bouquet(3, 5))
        assert False
    except VerificationMismatch as exc:
        assert "self-reciprocal" in str(exc)


class _RecordingContext:
    """Stands in for a fork context: records pool sizes, forks nothing."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        return list(map(func, items))


def test_verify_tower_caps_the_pool(monkeypatch):
    import ihara_towers.ihara as ihara

    context = _RecordingContext()
    monkeypatch.setattr("multiprocessing.get_context", lambda method: context)
    monkeypatch.setattr(ihara.os, "cpu_count", lambda: 64)
    assert verify_tower(bouquet(1, 2), 2, jobs=6).ok
    assert context.sizes == [2]  # no more workers than layers
    assert verify_tower(bouquet(1, 2), 1, jobs=6).ok
    monkeypatch.setattr(ihara.os, "cpu_count", lambda: 1)
    assert verify_tower(bouquet(1, 2), 8, jobs=6).ok
    monkeypatch.setattr(ihara.os, "cpu_count", lambda: None)
    assert verify_tower(bouquet(1, 2), 8, jobs=6).ok
    assert context.sizes == [2]  # one layer or one CPU: counted in-process
    monkeypatch.setattr(ihara.os, "cpu_count", lambda: 3)
    assert verify_tower(bouquet(1, 2), 8, jobs=6).ok
    assert context.sizes == [2, 3]
    for jobs in (0, -3):  # rejected, not coerced to a serial run
        try:
            verify_tower(bouquet(1, 2), 8, jobs=jobs)
            assert False
        except ValueError as exc:
            assert str(exc) == "jobs must be positive"
    assert context.sizes == [2, 3]


def test_verify_tower_bruteforce_mode():
    assert verify_tower(bouquet(3, 5), 6, mode="bruteforce-small").ok


def test_verify_tower_refuses_a_large_bruteforce_tower_before_any_layer(monkeypatch):
    # layer n of a 3-pair base has 3n edge pairs, so 8 layers fit the 24-pair
    # guard and 9 do not; the refusal comes before the sweep and every count
    import ihara_towers.ihara as ihara

    def fail(*args):
        raise AssertionError("counted a layer of a tower that must be refused")

    monkeypatch.setattr(ihara, "spanning_tree_count_bruteforce", fail)
    monkeypatch.setattr(ihara, "kappa_sequence", fail)
    for n_max in (9, 12):
        try:
            verify_tower(dumbbell(2, 3), n_max, mode="bruteforce-small")
            assert False
        except ValueError as exc:
            assert str(exc) == "graph too large for brute-force enumeration"
    try:  # and so is an unknown mode
        verify_tower(dumbbell(2, 3), 2, mode="exhaustive")
        assert False
    except ValueError as exc:
        assert str(exc) == "unknown verification mode 'exhaustive'"
    monkeypatch.undo()
    monkeypatch.setattr(ihara, "spanning_tree_count_bruteforce", ihara.spanning_tree_count)
    assert verify_tower(dumbbell(2, 3), 8, mode="bruteforce-small").ok
    assert verify_tower(dumbbell(2, 3), 12).ok  # the matrix-tree mode has no guard


def test_verify_tower_random():
    rng = random.Random(37)
    for _ in range(5):
        vg = random_tower(rng)
        assert verify_tower(vg, 12).ok


def test_bouquet_and_dumbbell_delta1_closed_forms():
    # |D_1| is the sum of squared loop voltages for these families, and the
    # vanishing order at t = 1 is always exactly 2
    rng = random.Random(97)
    from math import gcd

    count = 0
    while count < 20:
        k = rng.randint(2, 4)
        voltages = sorted(rng.sample(range(1, 9), k))
        if gcd(*voltages) != 1:
            continue
        ta = analyze(bouquet(*voltages))
        assert ta.e == 2
        assert abs(ta.delta1) == sum(a * a for a in voltages)
        count += 1
    count = 0
    while count < 20:
        k, l = rng.randint(1, 8), rng.randint(1, 8)
        if gcd(k, l) != 1:
            continue
        ta = analyze(dumbbell(k, l))
        assert ta.e == 2
        assert abs(ta.delta1) == k * k + l * l
        count += 1


def test_delta1_is_the_resultant_at_one():
    # analyze reads D_1 off J(1); the resultant with t - 1 is the oracle
    rng = random.Random(2101)
    for _ in range(60):
        ta = analyze(random_tower(rng))
        assert ta.delta1 == resultant(ta.j_poly, IntPoly((-1, 1))) != 0
    for vg in (bouquet(3, 5), bouquet(1, 2), dumbbell(2, 3), bouquet(1, 3, 7)):
        ta = analyze(vg)
        assert ta.delta1 == resultant(ta.j_poly, IntPoly((-1, 1)))


def test_formula_oracle_sign_consistency():
    # the resultant row carries the sign that makes n * kappa(X_n) match
    ta = analyze(bouquet(3, 5))
    for n in range(1, 11):
        sign = (-1) ** (ta.b * (n - 1))
        assert n * KAPPA_35[n - 1] == sign * ta.kappa_base * RES_35[n - 1]
