"""The package namespace: every exported name, loaded on first use; every
top-level definition in src/ used by the package, exported or traced; and
every named method or property used, an override or kept for a stated reason."""

import ast
import builtins
import importlib
import json
import os
import subprocess
import sys
from collections import namedtuple
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
    "polyring": ["IntPoly", "LaurentPoly", "divide_exact", "is_self_reciprocal",
                 "poly_matrix_det", "resultant"],
    "voltage_cover": ["VoltagedGraph", "derived_graph", "fundamental_cycle_voltages",
                      "monodromy_index", "voltaged_graph"],
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


# Only what the command loads counts: a start-up hook may import a watched
# module before towers_cli does.
COMMAND_SCRIPT = """
import contextlib, io, json, sys
before = set(sys.modules)
from ihara_towers.towers_cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
watched = ("dataclasses", "fractions", "ihara_towers.mahler", "ihara_towers.padic_engine",
           "ihara_towers.primes", "multiprocessing")
print(json.dumps({"code": code,
                  "loaded": [m for m in watched if m in sys.modules and m not in before]}))
"""


def test_each_command_loads_only_what_it_runs(tmp_path):
    path = str(tmp_path / "g.json")
    _fresh_python(COMMAND_SCRIPT, "generate", "fibonacci", "--output", path)
    for argv, loaded in [
        (["table", path], []),
        (["verify", path, "--jobs", "1"], []),
        (["analyze", path, "--prime", "2", "--prime", "5"],
         ["ihara_towers.mahler", "ihara_towers.primes"]),
        (["asymptotics", path], ["ihara_towers.mahler"]),
        (["padic", path, "--prime", "5"], ["ihara_towers.padic_engine", "ihara_towers.primes"]),
    ]:
        assert json.loads(_fresh_python(COMMAND_SCRIPT, *argv)) == {"code": 0, "loaded": loaded}, argv


def _record_examples():
    """One instance of every record class in src/, from a run on the
    Fibonacci tower (J = -1 - 3t - t**2)."""
    from ihara_towers import mahler, padic_engine
    from ihara_towers.ihara import analyze, verify_tower
    from ihara_towers.towers_cli import generate_family

    vg = generate_family("fibonacci", [])
    ta = analyze(vg)
    report = padic_engine.padic_report(ta, 2, 12)
    structure = report.structure
    return [
        vg.base.edge_pairs[0], vg.base, vg, ta, ta.ihara, ta.j_poly, verify_tower(vg, 4),
        mahler.mahler_padic(ta.j_poly, 5), mahler.mahler_archimedean(ta.j_poly),
        mahler.archimedean_asymptotic(ta), mahler.padic_asymptotic_no_unit_roots(ta, 3),
        padic_engine.newton_polygon(ta.j_poly, 5), structure.factors[0], structure,
        report.per_n[1], report, padic_engine.sequence_classes(ta, 2, 12)[0],
        padic_engine.friedman_laws(ta.j_poly, 7, (2, 3), bound=500)[2],
    ]


def test_records_are_immutable_named_tuples():
    import copy
    import pickle

    modules = [importlib.import_module(f"ihara_towers.{module}")
               for module in _src_texts() if not module.startswith("__")]
    records = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, tuple)
               and cls.__module__ == module.__name__}
    examples = _record_examples()
    assert len(records) == 18 and {type(x) for x in examples} == records
    for x in examples:
        name, fields = type(x).__name__, type(x)._fields
        for attr in (fields[0], "not_a_field"):
            try:
                setattr(x, attr, None)
                assert False, (name, attr)
            except AttributeError:
                pass
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert twin == x and type(twin) is type(x), name
        values = tuple(getattr(x, f) for f in fields)
        assert repr(x) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
        if name == "PadicReport":
            # per_n is a dict, which perfbench/selftest.py changes in place
            continue
        assert list(_mutable_parts(x, name)) == [], name
        assert hash(x) == hash(values), name


def _mutable_parts(x, path):
    """The paths below x to a value that could change: anything but an int,
    float, str, None or a tuple of such values with no __dict__."""
    if isinstance(x, tuple) and not hasattr(x, "__dict__"):
        for i, value in enumerate(x):
            yield from _mutable_parts(value, f"{path}[{i}]")
    elif type(x) not in (int, float, str, bool, type(None)):
        yield path, type(x).__name__


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


# Members that no src/ statement names but that are kept, each with its reason.
KEPT_MEMBERS = {
    ("padic_engine", "UnitRootStructure.unit_root_count"):
        "the number of unit roots of J mod p, a public paper quantity the tests assert",
    ("mahler", "PadicAsymptotic.predicted_ord"):
        "ord_p(kappa_n) by the p-adic asymptotic law, a public paper quantity the tests assert",
}


def _refs(nodes, own):
    """The names and attributes that nodes mention, other than those in own."""
    for node in nodes:
        for sub in ast.walk(node):
            ref = (sub.id if isinstance(sub, ast.Name)
                   else sub.attr if isinstance(sub, ast.Attribute) else None)
            if ref and ref not in own:
                yield ref


def _external_members(base):
    """The attributes of a base class defined outside the scanned sources: a
    builtin such as Exception, module.Class such as argparse.ArgumentParser,
    or a record's namedtuple("Name", "fields") with literal arguments."""
    if isinstance(base, ast.Call):
        args = [ast.literal_eval(arg) for arg in base.args]
        return set(dir(namedtuple(*args, **{k.arg: ast.literal_eval(k.value) for k in base.keywords})))
    *module, name = ast.unparse(base).split(".")
    owner = importlib.import_module(".".join(module)) if module else builtins
    return set(dir(getattr(owner, name)))


def unused_definitions(sources, reached=frozenset()):
    """The definitions in sources (module name -> source text) that nothing
    uses: (module, name) for a top-level function or class or a private
    module-level name that an assignment binds, such as a memo size, and
    (module, "Class.member") for a named method or property of a class.

    A definition is used when a statement other than its own definition names
    it, as a name or an attribute, or when its pair is in reached.  A member
    is also used when it overrides a method of a base class, whose own code
    calls it.  Dunder names, such as the module hook __getattr__, are called
    by the language and never reported.
    """
    tops, members, used, classes = [], [], set(), {}
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owns = {stmt.name}
            else:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                owns = {t.id for t in targets if isinstance(t, ast.Name) and t.id.startswith("_")}
            tops += [(module, own) for own in sorted(owns)]
            if not isinstance(stmt, ast.ClassDef):
                used.update(_refs([stmt], owns))
                continue
            own = stmt.name
            classes[own] = stmt
            used.update(_refs(stmt.bases + stmt.keywords + stmt.decorator_list, {own}))
            for item in stmt.body:
                name = item.name if isinstance(item, ast.FunctionDef) else None
                if name:
                    members.append((module, stmt, name))
                used.update(_refs([item], {own, name}))

    def inherited(cls):
        names = set()
        for base in cls.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                parent = classes[base.id]
                names |= {item.name for item in parent.body if isinstance(item, ast.FunctionDef)}
                names |= inherited(parent)
            else:
                names |= _external_members(base)
        return names

    def dunder(name):
        return name.startswith("__") and name.endswith("__")

    unused = [(module, name) for module, name in tops
              if name not in used and (module, name) not in reached and not dunder(name)]
    unused += [(module, f"{cls.name}.{name}") for module, cls, name in members
               if name not in used and (module, f"{cls.name}.{name}") not in reached
               and not dunder(name) and name not in inherited(cls)]
    return unused


def _src_texts():
    texts = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert sum(isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               for text in texts.values() for stmt in ast.parse(text).body) > 100
    return texts


def _reached():
    return (_traced() | set(KEPT_MEMBERS)
            | {(m, name) for m, names in ihara_towers._EXPORTS.items() for name in names})


def test_no_module_under_src_imports_dataclasses():
    # each record is a named tuple: a dataclass would import dataclasses,
    # inspect and ast at start-up, in every command
    imported = set()
    for text in _src_texts().values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert {"collections", "functools", "math", "operator"} <= imported
    assert "dataclasses" not in imported


def test_no_module_under_src_asserts_or_reads_debug():
    # an invariant raises a package error: python -O deletes every assert
    # and every `if __debug__:` block, so with neither in src/ the package
    # runs the same code under -O
    found = [(module, node.lineno) for module, text in _src_texts().items()
             for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Assert)
             or (isinstance(node, ast.Name) and node.id == "__debug__")]
    assert found == []


def test_every_top_level_definition_is_used_exported_or_traced():
    assert [d for d in unused_definitions(_src_texts(), _reached()) if "." not in d[1]] == []


def test_every_named_member_is_used_an_override_or_kept():
    assert [d for d in unused_definitions(_src_texts(), _reached()) if "." in d[1]] == []
    for module, member in KEPT_MEMBERS:
        cls, name = member.split(".")
        assert hasattr(getattr(importlib.import_module(f"ihara_towers.{module}"), cls), name)


PLANTED = """
_UNUSED_SIZE = 1


class X:
    def never_called(self): ...


class Y(X):
    def never_called(self): ...


class Z(namedtuple("Z", "a b", defaults=(None,))):
    def count(self): ...

    def never_called_either(self): ...


Y(), Z(0)
"""


def test_the_scan_flags_a_planted_unused_method():
    # Y.never_called overrides X's and Z.count overrides tuple.count, so only
    # _UNUSED_SIZE, X.never_called and Z.never_called_either are reported
    texts = dict(_src_texts(), planted=PLANTED)
    assert unused_definitions(texts, _reached()) == [("planted", "_UNUSED_SIZE"),
                                                     ("planted", "X.never_called"),
                                                     ("planted", "Z.never_called_either")]
