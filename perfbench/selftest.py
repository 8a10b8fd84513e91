"""Self-tests of the benchmark's own machinery: `python3 perfbench/run.py --self-test`.

Kept out of the package's pytest collection (the file name does not match
test_*.py).  Each test prints one line; the exit code is 1 if any failed.
"""

from __future__ import annotations

import json
import os
import shutil
import traceback

import checks
import run
import tracing
from workloads import WORKLOADS, Job, Plan, _named

from ihara_towers import analyze, kappa_sequence, mahler, padic_engine, towers_cli
from ihara_towers import ihara, polyring
from ihara_towers.towers_cli import graph_to_json


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def _plan(work, workload="sweep"):
    """A small plan on the named bases; graph files written to `work`."""
    named = dict(_named(3))
    graphs = {key: graph_to_json(vg) for key, vg in named.items()}
    for key, doc in graphs.items():
        (work / f"{key}.json").write_text(json.dumps(doc), encoding="utf-8")
    towers = {key: analyze(vg) for key, vg in named.items()}
    kappas = {key: kappa_sequence(ta, 60) for key, ta in towers.items()}
    jobs = [
        Job("analyze", "analyze", "bouquet-3-5", ("--prime", "2")),
        Job("table", "table", "bouquet-3-5", ("--n-max", "12")),
        Job("verify", "verify", "dumbbell-2-3", ("--n-max", "6", "--jobs", "1")),
        Job("report", "padic_report", "fibonacci", (2, 60)),
        Job("iwasawa", "iwasawa_invariants", "bouquet-3-5", (3,)),
    ]
    return Plan(workload, 0, graphs, [jobs], towers, kappas, [])


def _corrupt_kappa(outcome):
    doc = json.loads(outcome.text)
    doc["rows"][6]["kappa"] = str(int(doc["rows"][6]["kappa"]) + 1)
    outcome.text = json.dumps(doc)


def _corrupt_ord(outcome):
    row = outcome.value.per_n[5]
    outcome.value.per_n[5] = type(row)(row.lam, row.nu, row.ord + 1, row.source)


def test_corrupted_output_counts(work):
    plan = _plan(work)
    runner = run.Runner(plan, work)
    clean = run.Tally()
    rec = runner.run_round(plan.rounds[0], False, clean)
    expect(clean.failed == 0, f"clean round failed: {clean.reasons}")
    for job_id, corrupt in (("table", _corrupt_kappa), ("report", _corrupt_ord)):
        execute = runner.execute

        def corrupted(job, traced=False, execute=execute, job_id=job_id, corrupt=corrupt):
            outcome = execute(job, traced)
            if job.id == job_id:
                corrupt(outcome)
            return outcome

        runner.execute = corrupted
        tally = run.Tally()
        rec = runner.run_round(plan.rounds[0], False, tally)
        runner.execute = execute
        rate = run.workload_metrics("sweep", [(1.0, 1.0)], [rec], tally)["error_rate"]
        expect(tally.failed == 1 and tally.reasons[0].startswith(job_id),
               f"corrupted {job_id} not caught: {tally.reasons}")
        expect(rate == 1 / len(plan.rounds[0]), f"error_rate {rate}")


def test_digest_mismatch_counts(work):
    plan = _plan(work)
    job = plan.rounds[0][1]
    runner = run.Runner(plan, work, digests={job.id: "0" * 16})
    reason = runner.verify(job, runner.execute(job))
    expect(reason is not None and "digest" in reason, f"digest mismatch not caught: {reason}")


def test_wrappers_cover_every_binding(work):
    expected = {
        towers_cli: ("main", "analyze", "kappa_sequence", "pierce_lehmer_range", "resultant_row",
                     "kappa_via_formula", "spanning_tree_count", "spanning_tree_count_bruteforce",
                     "derived_graph", "monodromy_index", "mahler_archimedean",
                     "count_unit_circle_roots", "mahler_padic", "archimedean_asymptotic",
                     "padic_report"),
        ihara: ("spanning_tree_count", "resultant", "int_matrix_det", "poly_matrix_det",
                "divide_exact", "derived_graph"),
        padic_engine: ("kappa_sequence", "pierce_lehmer"),
        mahler: ("divide_exact",),
        polyring: ("divide_exact", "int_matrix_det", "resultant"),
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, names in expected.items():
            for name in names:
                expect(hasattr(getattr(module, name), "__wrapped__"),
                       f"{module.__name__}.{name} is not traced")
        expect(not hasattr(padic_engine.valuation, "__wrapped__"), "valuation is traced")
        expect(not hasattr(polyring.IntPoly.__mul__, "__wrapped__"), "IntPoly is traced")
    finally:
        tracer.uninstall()
    for module, names in expected.items():
        for name in names:
            expect(not hasattr(getattr(module, name), "__wrapped__"),
                   f"{module.__name__}.{name} not restored")


def test_traced_outputs_match(work):
    plan = _plan(work)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner = run.Runner(plan, work, tracer)
        job = plan.rounds[0][1]  # table --n-max 12
        plain, traced = runner.execute(job), runner.execute(job, traced=True)
    finally:
        tracer.uninstall()
    expect(plain.text == traced.text, "traced output differs")
    expect(runner.verify(job, traced) is None, "traced output fails its check")
    profile = tracing.Profile()
    profile.add_tracer(tracer)
    names = tracer.names
    for index, start, end, parent, outer in tracer.spans:
        if names[index] == "ihara.pierce_lehmer_range":
            expect(names[tracer.spans[parent][0]] in ("towers_cli.main", "ihara.kappa_sequence"),
                   "pierce_lehmer_range span has the wrong parent")
    for name, inclusive in profile.inclusive.items():
        expect(profile.self_time[name] <= inclusive + 1e-9, f"{name}: self time above inclusive")
    expect(profile.calls["towers_cli.main"] == 1, "expected one main span")
    # table sweeps twice: once directly, once inside kappa_sequence
    expect(profile.counters["ihara.pierce_lehmer_range.layers"] == 24, "layer counter")


def test_tree_count(work):
    fib = [0, 1]
    while len(fib) < 10:
        fib.append(fib[-1] + fib[-2])
    doc = graph_to_json(dict(_named(3))["fibonacci"])
    for n in range(1, 8):
        expect(checks.tree_count(doc, n) == n * fib[n] ** 2, f"tree_count at n={n}")


def test_benchmark_json_matches(work):
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    expect([w["name"] for w in doc["workloads"]] == list(WORKLOADS), "workloads differ")
    expect([(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END),
           "end-to-end metrics differ")
    expect([(m["name"], m["unit"]) for m in doc["per_layer"]]
           == [(name, run.unit_of(name)) for name in run.PER_LAYER], "per-layer metrics differ")


def report_known_defect():
    j = analyze(dict(_named(1))["bouquet-3-5"]).j_poly
    try:
        padic_engine.friedman_laws(j, 3, (2, 5))
    except AssertionError as exc:
        return f"still present: {exc}"
    return "no longer reproduces"


def main() -> int:
    work = run.WORK / f"selftest-{os.getpid()}"
    failed = 0
    try:
        for test in (test_corrupted_output_counts, test_digest_mismatch_counts,
                     test_wrappers_cover_every_binding, test_traced_outputs_match,
                     test_tree_count, test_benchmark_json_matches):
            work.mkdir(parents=True)
            try:
                test(work)
                print(f"ok      {test.__name__}")
            except Exception:  # report every test, then fail the run
                failed += 1
                print(f"FAILED  {test.__name__}\n{traceback.format_exc()}")
            finally:
                shutil.rmtree(work, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    print(f"info    known friedman_laws defect: {report_known_defect()}")
    print(f"{'FAILED' if failed else 'passed'}: {failed} self-tests failed")
    return 1 if failed else 0

