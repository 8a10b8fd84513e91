import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ihara_towers
from ihara_towers.towers_cli import (
    generate_family,
    graph_from_json,
    graph_to_json,
    main,
)
from ihara_towers.voltage_cover import voltaged_graph

# Deterministic runs; tmp_path and capsys are reused by every example.
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
VOLTAGES = st.integers(-5, 5)
JSON_LEAVES = st.none() | st.booleans() | VOLTAGES | st.floats(allow_nan=False) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def voltaged_graphs(draw):
    n = draw(st.integers(1, 3))
    names = draw(st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True))
    index = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(index, index, VOLTAGES), max_size=6))
    return voltaged_graph(n, edges, labels=tuple(names))


NAMES = st.sampled_from(["v0", "v1", "v2"])
EDGES = st.fixed_dictionaries(
    {"from": NAMES | JSON_LEAVES, "to": NAMES | JSON_LEAVES, "voltage": VOLTAGES | JSON_LEAVES}
)
# valid graph files, valid-looking ones with wrong values, and any JSON
GRAPH_DOCS = voltaged_graphs().map(graph_to_json) | st.fixed_dictionaries({
    "vertices": st.lists(NAMES | JSON_LEAVES, max_size=3) | JSON_VALUES,
    "edges": st.lists(EDGES | JSON_VALUES, max_size=4) | JSON_VALUES,
}) | JSON_VALUES


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_and_round_trip(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, _, _ = run(["generate", "bouquet", "3", "5", "--output", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["vertices"] == ["v0"]
    assert [e["voltage"] for e in doc["edges"]] == [3, 5]
    vg = graph_from_json(doc)
    assert graph_to_json(vg) == doc


def test_generate_families():
    fib = generate_family("fibonacci", [])
    assert [fib.voltages[i] for i in range(2)] == [1, 2]
    gp = generate_family("petersen", [2])
    assert [gp.voltages[i] for i in range(3)] == [1, 0, 2]
    ig = generate_family("igraph", [2, 3])
    assert [ig.voltages[i] for i in range(3)] == [2, 0, 3]
    try:
        generate_family("dumbbell", [1])
        assert False
    except ValueError:
        pass


def test_generate_family_rejects_non_integer_parameters():
    # ints and decimal strings (the CLI and the golden tests pass both)
    for params in ([3, -5], ["3", "-5"], [3, "-5"]):
        vg = generate_family("bouquet", params)
        assert [vg.voltages[i] for i in range(2)] == [3, -5]
    for bad in (1.7, 2.0, True, False, None, "1.5", " 3", "1_000", "+", "-", "", "\u0663", [1]):
        try:
            generate_family("bouquet", [1, bad])
            assert False, bad
        except ValueError as exc:
            assert str(exc) == f"parameter {bad!r} is not an integer"


def test_analyze_command(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(["generate", "bouquet", "3", "5", "--output", str(path)], capsys)
    code, out, _ = run(["analyze", str(path), "--prime", "2", "--prime", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["b"] == 5 and doc["e"] == 2
    assert doc["delta1"] == "-34"
    assert doc["padic_measure_exponents"] == {"2": 0, "5": 0}


def test_analyze_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    run(["generate", "bouquet", "0", "0", "--output", str(bad)], capsys)
    code, _, err = run(["analyze", str(bad)], capsys)
    assert code == 2 and "monodromy" in err

    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "edges": [
            {"from": "a", "to": "b", "voltage": 1},
            {"from": "b", "to": "c", "voltage": 0},
            {"from": "c", "to": "a", "voltage": 0},
        ],
    }))
    code, _, err = run(["analyze", str(cycle)], capsys)
    assert code == 2 and "Euler characteristic" in err


def test_graph_file_rejects_coerced_values(tmp_path, capsys):
    path = tmp_path / "g.json"
    for voltage in (1.7, True, "3"):
        path.write_text(json.dumps({
            "vertices": ["v0"],
            "edges": [{"from": "v0", "to": "v0", "voltage": 2},
                      {"from": "v0", "to": "v0", "voltage": voltage}],
        }))
        code, out, err = run(["analyze", str(path)], capsys)
        assert code == 1 and out == "" and "voltage" in err, voltage
    path.write_text(json.dumps({
        "vertices": [0],
        "edges": [{"from": 0, "to": 0, "voltage": 1}, {"from": 0, "to": 0, "voltage": 2}],
    }))
    code, out, err = run(["analyze", str(path)], capsys)
    assert code == 1 and out == "" and "vertex name" in err
    loops = [{"from": "v", "to": "v", "voltage": 1}, {"from": "v", "to": "v", "voltage": 2}]
    for doc in ([], {"vertices": "v", "edges": loops}, {"vertices": ["v"], "edges": [["v"]]}):
        path.write_text(json.dumps(doc))
        code, out, err = run(["analyze", str(path)], capsys)
        assert code == 1 and out == "" and err.startswith("error: "), doc


def test_table_csv_and_json(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(["generate", "bouquet", "3", "5", "--output", str(path)], capsys)
    code, out, _ = run(["table", str(path), "--n-max", "10", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["kappa"] for r in rows] == [
        "1", "4", "3", "32", "5", "300", "1183", "1024", "12321", "16820",
    ]
    assert rows[9]["resultant"] == "-168200" and rows[9]["delta"] == "57188"

    code, out, _ = run(["table", str(path), "--n-max", "1"], capsys)
    doc = json.loads(out)
    assert doc["rows"] == [{"n": 1, "kappa": "1", "resultant": "1", "delta": "-34"}]


def test_verify_command_and_mismatch(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(["generate", "fibonacci", "--output", str(path)], capsys)
    code, out, _ = run(["verify", str(path), "--n-max", "8"], capsys)
    assert code == 0 and json.loads(out)["ok"]

    code, out, _ = run(["verify", str(path), "--n-max", "6", "--mode", "bruteforce-small"], capsys)
    assert code == 0

    code, out, _ = run(["verify", str(path), "--n-max", "8", "--jobs", "2"], capsys)
    assert code == 0 and json.loads(out)["ok"]

    code, out, err = run(["verify", str(path), "--n-max", "8", "--jobs", "-3"], capsys)
    assert (code, out, err) == (1, "", "error: jobs must be positive\n")


def test_verify_detects_corruption(tmp_path, capsys, monkeypatch):
    # corrupt the formula path so the oracle disagrees
    path = tmp_path / "g.json"
    run(["generate", "fibonacci", "--output", str(path)], capsys)
    import ihara_towers.ihara as ihara

    real = ihara.kappa_sequence
    monkeypatch.setattr(ihara, "kappa_sequence", lambda ta, n: [v + (i == 3) for i, v in enumerate(real(ta, n))])
    code, out, err = run(["verify", str(path), "--n-max", "6"], capsys)
    assert code == 3
    assert json.loads(out)["first_mismatch"]["n"] == 4
    assert "mismatch" in err


def test_padic_command(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(["generate", "fibonacci", "--output", str(path)], capsys)
    code, out, _ = run(["padic", str(path), "--prime", "2", "--n-max", "12", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    # ord2(n * F_n**2) for n = 1..6
    assert [r["ord"] for r in rows][:6] == ["0", "1", "2", "2", "0", "7"]
    assert all(r["source"] == "structural" for r in rows)

    code, out, _ = run(["padic", str(path), "--prime", "5", "--n-max", "5"], capsys)
    doc = json.loads(out)
    assert doc["ramified"] and doc["c"] == "-1"
    assert doc["rows"][4]["ord"] == "3"  # kappa(X_5) = 5 * 25


def test_padic_rejects_composite_prime(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(["generate", "fibonacci", "--output", str(path)], capsys)
    code, out, err = run(["padic", str(path), "--prime", "4", "--n-max", "5"], capsys)
    assert (code, out, err) == (1, "", "error: 4 is not prime\n")


def test_asymptotics_command(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(["generate", "fibonacci", "--output", str(path)], capsys)
    code, out, _ = run(["asymptotics", str(path), "--n-probe", "150"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["applicable"] and doc["gap"] < 1e-8

    # circulant tower with jumps (1, 3)
    run(["generate", "circulant-base", "1", "3", "--output", str(path)], capsys)
    code, out, _ = run(["asymptotics", str(path), "--n-probe", "300"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["applicable"] and doc["gap"] < 1e-6


def test_max_bits_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.json"
    run(["generate", "bouquet", "3", "5", "--output", str(path)], capsys)
    monkeypatch.setenv("IHARA_TOWERS_MAX_BITS", "64")
    code, _, err = run(["table", str(path), "--n-max", "40"], capsys)
    assert code == 4 and "resource" in err.lower()
    # a malformed cap is an input error before any work; 0 refuses every value
    for setting in ("abc", "-3", " 12", "1_000"):
        monkeypatch.setenv("IHARA_TOWERS_MAX_BITS", setting)
        code, out, err = run(["table", str(path), "--n-max", "2"], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: IHARA_TOWERS_MAX_BITS must be a non-negative integer, "
                       f"got {setting!r}\n")
    monkeypatch.setenv("IHARA_TOWERS_MAX_BITS", "0")
    code, _, err = run(["table", str(path), "--n-max", "2"], capsys)
    assert code == 4 and "IHARA_TOWERS_MAX_BITS=0 bits" in err


def test_usage_error_exit_code(capsys):
    try:
        code = main(["generate", "nosuchfamily"])
    except SystemExit as exc:
        code = exc.code
    assert code == 1



def test_integer_arguments_are_not_coerced(tmp_path, capsys):
    # int() would take each of these; the arguments take only an optional
    # minus sign and ASCII digits, as generate_family and graph files do
    path = tmp_path / "fib.json"
    run(["generate", "fibonacci", "--output", str(path)], capsys)
    g = str(path)
    for bad in (" 3", "3 ", "1_0", "+3", "\u0663", "1.5", "0x3", "abc", ""):
        commands = (["generate", "bouquet", bad], ["generate", "bouquet", "3", bad],
                    ["analyze", g, "--prime", bad], ["analyze", g, "--seed", bad],
                    ["table", g, "--n-max", bad], ["verify", g, "--n-max", bad],
                    ["verify", g, "--jobs", bad], ["padic", g, "--prime", bad],
                    ["padic", g, "--prime", "2", "--n-max", bad],
                    ["asymptotics", g, "--n-probe", bad], ["asymptotics", g, "--seed", bad])
        for args in commands:
            try:
                main(args)
                assert False, args
            except SystemExit as exc:
                assert exc.code == 1, args
            captured = capsys.readouterr()
            assert captured.out == "", args
            assert captured.err.endswith(f": invalid int value: {bad!r}\n"), args
    code, out, _ = run(["generate", "bouquet", "03", "-5"], capsys)
    assert code == 0 and [e["voltage"] for e in json.loads(out)["edges"]] == [3, -5]
    code, out, _ = run(["table", g, "--n-max", "007"], capsys)
    assert code == 0 and len(json.loads(out)["rows"]) == 7

# Runs every command in one fresh interpreter and prints their exit codes and
# whether sympy was imported.
STARTUP_SCRIPT = """
import contextlib, io, json, sys
from ihara_towers.towers_cli import main
path = sys.argv[1]
commands = (["analyze", path, "--prime", "2", "--prime", "5"], ["table", path],
            ["verify", path], ["asymptotics", path],
            *(["padic", path, "--prime", p] for p in ("2", "3", "5")))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(args) for args in commands]
print(json.dumps({"codes": codes, "sympy": "sympy" in sys.modules}))
"""


def test_cli_never_imports_sympy(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(["generate", "fibonacci", "--output", str(path)], capsys)
    src = str(Path(ihara_towers.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * 7, "sympy": False}


@FUZZ
@given(voltaged_graphs())
def test_graph_json_round_trip(vg):
    doc = json.loads(json.dumps(graph_to_json(vg)))
    assert graph_from_json(doc) == vg


@FUZZ
@given(GRAPH_DOCS)
def test_analyze_exit_codes_on_fuzzed_graph_files(tmp_path, capsys, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["analyze", str(path)], capsys)
    assert code in (0, 1, 2, 3, 4), doc
    assert (code == 0) == (out != "" and err == ""), doc
