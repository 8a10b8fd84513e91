"""The package namespace: every exported name, loaded on first use, and every
top-level definition in src/ used by the package, exported or traced."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import ihara_towers

# module -> the names `ihara_towers` exported from it when it imported them all
EXPORTED = {
    "errors": ["HypothesisViolation", "OrderUnavailable", "PrecisionExhausted",
               "ResourceLimit", "TowerError", "VerificationMismatch"],
    "graph_core": ["SerreGraph", "build_graph", "euler_characteristic", "is_connected",
                   "spanning_tree_count", "spanning_tree_count_bruteforce"],
    "ihara": ["TowerAnalysis", "analyze", "ihara_polynomial", "kappa_sequence",
              "kappa_via_formula", "pierce_lehmer", "pierce_lehmer_range", "resultant_row",
              "verify_tower"],
    "mahler": ["ArchMeasure", "PadicMeasure", "archimedean_asymptotic",
               "count_unit_circle_roots", "mahler_archimedean", "mahler_padic",
               "padic_asymptotic_no_unit_roots"],
    "padic_engine": ["NewtonPolygon", "PadicReport", "UnitRootStructure", "factor_mod_p",
                     "friedman_laws", "iwasawa_invariants", "lambda_for_n",
                     "multiplicative_order", "newton_polygon", "nu_from_oracle", "nu_structural",
                     "ord_delta_exact", "padic_report", "sequence_classes",
                     "unit_root_structure", "washington_invariants"],
    "polyring": ["IntPoly", "LaurentPoly", "divide_exact", "geometric_quotient",
                 "is_self_reciprocal", "ord_at", "poly_matrix_det", "resultant"],
    "voltage_cover": ["VoltageAssignment", "VoltagedGraph", "derived_graph",
                      "fundamental_cycle_voltages", "monodromy_index", "voltaged_graph"],
}


def _fresh_python(script, *args):
    src = str(Path(ihara_towers.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_exported_name_is_its_modules_object():
    star = {}
    exec("from ihara_towers import *", star)
    del star["__builtins__"]
    names = {name for names in EXPORTED.values() for name in names}
    assert set(star) == names == set(ihara_towers.__all__)
    assert names <= set(dir(ihara_towers))
    for module, exported in EXPORTED.items():
        defining = importlib.import_module(f"ihara_towers.{module}")
        for name in exported:
            assert getattr(ihara_towers, name) is getattr(defining, name), name
            assert star[name] is getattr(defining, name), name
    assert ihara_towers.__version__ == "0.1.0"


NAMESPACE_SCRIPT = """
import json, sys
import ihara_towers
def loaded():
    return {m for m in sys.modules if m.startswith("ihara_towers.")}
checks = {"nothing loaded": loaded() == set(),
          "unknown name": not hasattr(ihara_towers, "no_such_name"),
          "submodule not an export": not hasattr(ihara_towers, "padic_engine")}
analyze = ihara_towers.analyze
checks["cached"] = vars(ihara_towers)["analyze"] is analyze
checks["ihara alone"] = "ihara_towers.ihara" in loaded() and not loaded() & {
    "ihara_towers.mahler", "ihara_towers.padic_engine"}
from ihara_towers import padic_engine
checks["submodule import"] = padic_engine is sys.modules["ihara_towers.padic_engine"]
checks["same object"] = ihara_towers.padic_report is padic_engine.padic_report
print(json.dumps(checks))
"""


def test_names_load_their_module_on_first_use():
    checks = json.loads(_fresh_python(NAMESPACE_SCRIPT))
    assert checks == dict.fromkeys(checks, True) and len(checks) == 7


COMMAND_SCRIPT = """
import contextlib, io, json, sys
from ihara_towers.towers_cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
watched = ("ihara_towers.mahler", "ihara_towers.padic_engine", "multiprocessing")
print(json.dumps({"code": code, "loaded": [m for m in watched if m in sys.modules]}))
"""


def test_each_command_loads_only_what_it_runs(tmp_path):
    path = str(tmp_path / "g.json")
    _fresh_python(COMMAND_SCRIPT, "generate", "fibonacci", "--output", path)
    for argv, loaded in [
        (["table", path], []),
        (["verify", path, "--jobs", "1"], []),
        (["asymptotics", path], ["ihara_towers.mahler"]),
        (["padic", path, "--prime", "5"], ["ihara_towers.padic_engine"]),
    ]:
        assert json.loads(_fresh_python(COMMAND_SCRIPT, *argv)) == {"code": 0, "loaded": loaded}, argv


SRC = Path(ihara_towers.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    """The (module, name) pairs of the benchmark tracer's TRACED table, read
    from its source, so that the test imports nothing from the benchmark."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return {(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts}
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_every_traced_name_resolves():
    # the tracer looks each name up when it installs: a missing one fails every traced run
    traced = _traced()
    assert len(traced) > 20
    for module, name in traced:
        assert hasattr(importlib.import_module(f"ihara_towers.{module}"), name), (module, name)


def test_every_top_level_definition_is_used_exported_or_traced():
    # A name counts as used when some src/ statement other than its own
    # definition mentions it as a name or an attribute; module hooks such as
    # __getattr__ are called by the import system.
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own:
                defined.append((path.stem, own))
            for node in ast.walk(stmt):
                ref = (node.id if isinstance(node, ast.Name)
                       else node.attr if isinstance(node, ast.Attribute) else None)
                if ref and ref != own:
                    used.add(ref)
    reached = _traced() | {(m, name) for m, names in ihara_towers._EXPORTS.items() for name in names}
    unused = [(module, name) for module, name in defined
              if name not in used and (module, name) not in reached
              and not (name.startswith("__") and name.endswith("__"))]
    assert len(defined) > 100 and unused == []
