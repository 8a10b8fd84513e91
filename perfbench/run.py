#!/usr/bin/env python3
"""Benchmark of the ihara_towers package.

    python3 perfbench/run.py --workload {cli,sweep,verify,padic} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-digests

The package is imported from `src/` beside this directory, never from an
installed copy; without it the benchmark exits with code 2.  Inputs come
from the seed (see workloads.py).  A run sets up three times in fresh
interpreters (import, graph files, kappas) and reports the median as
`setup_s`, then runs rounds of jobs until `--seconds` of rounds have been
timed, checks every output outside the timed region (checks.py), and
prints its metrics.  The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics` -- the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.

Timed jobs run in rounds of one fixed layout.  `wall_s` is the time of a
typical round (per job slot, the median over the rounds, summed) and
`setup_s` the median of the set-ups, both scaled to a fixed machine speed
(see REFERENCE_S); the raw figures are printed as raw_wall_s and
raw_setup_s.

A traced run wraps the package's public functions (tracing.py) and runs
every round twice, untraced and traced, alternating which goes first; the
ratio of the two is `trace.overhead_frac`.  Per-layer times and counts are
per traced round, times scaled like `wall_s`.  `--workload all` runs the four workloads untraced, one
process each, and prints every metric, including the workload-specific
ones, by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"
MAX_BITS_ENV = "IHARA_TOWERS_MAX_BITS"  # a bit cap changes behaviour, so it is cleared
DEFAULT_SEED = 1
DEFAULT_SECONDS = 15
SETUP_REPEATS = 3
CHILD_TIMEOUT = 150

# Times are scaled to a fixed machine speed.  A reference task runs between
# rounds and around each set-up, and a time t measured while the reference
# took r seconds is reported as t * REFERENCE_S[kind] / r.  On a shared
# machine the speed drifts by 20% and more over minutes; the program and a
# reference doing the same kind of work slow down together, so the scaled
# figures move with the program only.  The reference of the cli workload is
# a fresh interpreter importing sympy (start-up and import dominate there);
# elsewhere it mixes big-integer arithmetic, Bareiss elimination, Fraction
# and dict updates and a plain loop, the operations the package spends its
# time in.  Both are fixed code outside the package.  Raw times are
# reported as raw_*.
REFERENCE_S = {"process": 0.35, "loop": 0.065}
REFERENCE_GRAPH = {"vertices": ["v0", "v1"],
                   "edges": [{"from": "v0", "to": "v0", "voltage": 2},
                             {"from": "v0", "to": "v1", "voltage": 0},
                             {"from": "v1", "to": "v1", "voltage": 3}]}

LIBRARY_KINDS = ("padic_report", "iwasawa_invariants", "washington_invariants", "friedman_laws")
COMMAND = {"verify_bruteforce": "verify"}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# Time of a typical round spent in each kind of job, for the workload that runs it.
KIND_METRICS = {
    "cli": (("analyze_s", ("analyze",)), ("table_s", ("table",)), ("verify_s", ("verify",)),
            ("padic_s", ("padic",)), ("asymptotics_s", ("asymptotics",))),
    "sweep": (("analyze_s", ("analyze",)), ("table_s", ("table",)),
              ("asymptotics_s", ("asymptotics",))),
    "verify": (("verify_s", ("verify",)), ("verify_bruteforce_s", ("verify_bruteforce",))),
    "padic": (("padic_report_s", ("padic_report",)),
              ("laws_s", ("iwasawa_invariants", "washington_invariants"))),
}

PER_LAYER = (
    "towers_cli.import_s", "towers_cli.import_sympy_s",
    "towers_cli.main.s", "towers_cli.main.self_s", "towers_cli.main.calls",
    "ihara.analyze.s", "ihara.analyze.calls", "ihara.ihara_polynomial.s",
    "polyring.poly_matrix_det.s", "polyring.divide_exact.s", "polyring.divide_exact.calls",
    "ihara.pierce_lehmer_range.s", "ihara.pierce_lehmer_range.calls",
    "ihara.pierce_lehmer_range.layers", "ihara.kappa_sequence.s",
    "polyring.int_matrix_det.s", "polyring.int_matrix_det.calls",
    "ihara.pierce_lehmer.s", "ihara.pierce_lehmer.calls",
    "ihara.resultant_row.s", "ihara.resultant_row.calls",
    "polyring.resultant.s", "polyring.resultant.calls", "ihara.delta_bits_max",
    "graph_core.spanning_tree_count.s", "graph_core.spanning_tree_count.calls",
    "graph_core.spanning_tree_count.vertices",
    "voltage_cover.derived_graph.s", "voltage_cover.derived_graph.calls",
    "graph_core.spanning_tree_count_bruteforce.s", "graph_core.spanning_tree_count_bruteforce.calls",
    "graph_core.spanning_tree_count_bruteforce.subsets",
    "graph_core.spanning_tree_count_bruteforce.useful_frac",
    "voltage_cover.monodromy_index.s", "mahler.mahler_archimedean.s",
    "mahler.count_unit_circle_roots.s", "mahler.mahler_padic.s", "mahler.archimedean_asymptotic.s",
    "padic_engine.padic_report.s", "padic_engine.padic_report.self_s",
    "padic_engine.padic_report.calls", "padic_engine.padic_report.layers",
    "padic_engine.padic_report.structural_frac",
    "padic_engine.unit_root_structure.s", "padic_engine.unit_root_structure.calls",
    "padic_engine.factor_mod_p.s", "padic_engine.factor_mod_p.calls",
    "padic_engine.multiplicative_order.s", "padic_engine.multiplicative_order.calls",
    "padic_engine.nu_structural.s", "padic_engine.nu_structural.calls",
    "padic_engine.ord_delta_exact.s", "padic_engine.ord_delta_exact.calls",
    "padic_engine.iwasawa_invariants.s", "padic_engine.washington_invariants.s",
    "padic_engine.friedman_laws.s",
    "towers_cli.self_s", "ihara.self_s", "polyring.self_s", "graph_core.self_s",
    "voltage_cover.self_s", "mahler.self_s", "padic_engine.self_s",
    "trace.untraced_s", "trace.overhead_frac", "trace.rounds",
)

# The layer each workload is built to stress: the share of self time that
# should be the largest on it (name prefixes of traced functions).
TARGET_LAYER = {
    "cli": ("towers_cli.import",),
    "sweep": ("ihara.pierce_lehmer", "polyring.int_matrix_det"),
    "verify": ("graph_core.spanning_tree_count",),
    "padic": ("padic_engine.",),
}

KNOWN_DEFECT = (
    "friedman_laws raises a bare AssertionError when the unit part at an observer "
    "prime is ramified (repro: friedman_laws(analyze(bouquet(3, 5)).j_poly, 3, (2, 5)) "
    "-> 'Friedman law failed at n=2 for prime 2')"
)


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def reference_kind(workload: str) -> str:
    return "process" if workload == "cli" else "loop"


def reference(kind: str) -> float:
    """Seconds taken by the fixed reference task of the given kind."""
    import checks  # imported before the clock starts

    start = time.perf_counter()
    if kind == "process":
        # piped output: without pipes, a wait with a timeout polls every 50 ms
        subprocess.run([sys.executable, "-c", "import sympy"], env=child_env(), check=True,
                       capture_output=True, timeout=CHILD_TIMEOUT)
    else:
        x, acc = 3 ** 2000, 0
        for i in range(1, 4000):
            acc += (x * i) // (i + 1) % 1000003
        for i in range(200000):
            acc += i & 7
        frac, counts = Fraction(0), {}
        for i in range(1, 9000):
            frac += Fraction(i % 7, i % 11 + 1)
            counts[i % 97] = counts.get(i % 97, 0) + i
        checks.tree_count(REFERENCE_GRAPH, 32)
    return time.perf_counter() - start


def workload_unit(name: str) -> str:
    if name in ("error_rate", "speed"):
        return "ratio"
    return "count" if name.endswith("samples") else "s"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != MAX_BITS_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def machine() -> dict:
    import sympy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "sympy": sympy.__version__, "platform": platform.platform()}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    rc: int = 0  # exit code; None when the job raised
    text: str = ""  # standard output of a CLI job
    value: object = None  # return value of a library call
    error: str = ""


@dataclass
class Tally:
    """Jobs attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def add(self, job, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{job.id}: {reason}")


@dataclass
class RoundRecord:
    seconds: float
    traced: bool
    job_seconds: list  # (kind, seconds)
    speed: float  # nominal / measured reference time around the round


class Runner:
    """Executes and checks the jobs of one plan."""

    def __init__(self, plan, work: Path, tracer=None, digests=None):
        import checks
        from ihara_towers import padic_engine, towers_cli

        self.plan, self.work, self.tracer = plan, work, tracer
        self.checker = checks.Checker(plan)
        self.digests = digests  # job id -> sha256 of the output, or None
        self.child_docs = []  # span tables of traced CLI children
        self._kind = reference_kind(plan.workload)
        self._reference = None  # reference time at the end of the last round
        self._cli, self._padic = towers_cli, padic_engine
        self._digest_text = checks.digest_text

    def _argv(self, job):
        return [COMMAND.get(job.kind, job.kind), str(self.work / f"{job.graph}.json"), *job.options]

    def execute(self, job, traced=False) -> Outcome:
        if self.plan.workload == "cli":
            return self._subprocess(job, traced)
        if self.tracer is not None:
            self.tracer.enabled = traced
        try:
            if job.kind in LIBRARY_KINDS:
                return self._library(job)
            return self._in_process(job)
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False

    def _in_process(self, job):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self._cli.main(self._argv(job))  # looked up per call: the traced binding
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            return Outcome(time.perf_counter() - start, None, error=repr(exc))
        return Outcome(time.perf_counter() - start, rc, out.getvalue(), error=err.getvalue())

    def _library(self, job):
        ta = self.plan.towers[job.graph]
        func = getattr(self._padic, job.kind)
        if job.kind == "padic_report":
            p, n_max = job.options
            call = lambda: func(ta, p, n_max, kappas=self.plan.kappas[job.graph])  # noqa: E731
        elif job.kind == "friedman_laws":
            p, gens, bound = job.options
            call = lambda: func(ta.j_poly, p, gens, bound=bound)  # noqa: E731
        else:
            call = lambda: func(ta.j_poly, *job.options)  # noqa: E731
        start = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            return Outcome(time.perf_counter() - start, None, error=repr(exc))
        return Outcome(time.perf_counter() - start, 0, value=value)

    def _subprocess(self, job, traced):
        if traced:
            spans = self.work / f"spans-{job.id}.json"
            cmd = [sys.executable, str(BENCH / "child.py"), str(spans), *self._argv(job)]
        else:
            cmd = [sys.executable, "-m", "ihara_towers", *self._argv(job)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                                  timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            return Outcome(time.perf_counter() - start, None, error="timed out")
        seconds = time.perf_counter() - start
        if traced and spans.exists():
            with open(spans, "r", encoding="utf-8") as handle:
                self.child_docs.append(json.load(handle))
            spans.unlink()
        return Outcome(seconds, proc.returncode, proc.stdout, error=proc.stderr)

    def digest(self, job, outcome) -> str:
        return sha(self._digest_text(job, outcome.text, outcome.value))

    def verify(self, job, outcome):
        """None when the output is right, else the reason it is not."""
        if outcome.rc is None:
            return outcome.error
        reason = self.checker.check(job, outcome.rc, outcome.text, outcome.value)
        if reason is not None:
            return reason + (f" ({outcome.error.strip()[-200:]})" if outcome.error.strip() else "")
        if self.digests is not None and job.id in self.digests:
            if self.digests[job.id] != self.digest(job, outcome):
                return "output differs from the digest recorded for this seed"
        return None

    def run_round(self, jobs, traced, tally) -> RoundRecord:
        """Time one round between two reference timings, then check its
        outputs outside the timed region."""
        before = self._reference if self._reference is not None else reference(self._kind)
        start = time.perf_counter()
        outcomes = [self.execute(job, traced) for job in jobs]
        seconds = time.perf_counter() - start
        self._reference = reference(self._kind)
        for job, outcome in zip(jobs, outcomes):
            tally.add(job, self.verify(job, outcome))
        return RoundRecord(seconds, traced, [(j.kind, o.seconds) for j, o in zip(jobs, outcomes)],
                           2 * REFERENCE_S[self._kind] / (before + self._reference))


def run_probe(runner, tally):
    """The known-defect probe: seeded friedman_laws jobs, drawn without
    looking at outcomes and run untraced after the rounds.  Failures that
    match the known defect are counted apart from the workload's jobs; any
    other failure counts in `tally`.  Returns (known failures, seconds)."""
    known, seconds = 0, 0.0
    for job in runner.plan.probe:
        outcome = runner.execute(job)
        seconds += outcome.seconds
        if outcome.rc is None and outcome.error.startswith("AssertionError('Friedman law failed"):
            known += 1
            continue
        tally.add(job, runner.verify(job, outcome))
    return known, seconds


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def setup_only(args) -> int:
    """Build the plan and write graph files and plan; timed by the parent."""
    import workloads

    plan = workloads.build(args.workload, args.seed)
    work = Path(args.work)
    for key, doc in plan.graphs.items():
        (work / f"{key}.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    with open(work / "plan.pickle", "wb") as handle:
        pickle.dump(plan, handle)
    return 0


def timed_setup(workload, seed, work):
    """Set up SETUP_REPEATS times in fresh interpreters; returns the plan and
    (seconds, speed) per set-up."""
    kind, samples = reference_kind(workload), []
    for _ in range(SETUP_REPEATS):
        before = reference(kind)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--setup-only",
                               "--workload", workload, "--seed", str(seed), "--work", str(work)],
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        samples.append((seconds, 2 * REFERENCE_S[kind] / (before + reference(kind))))
    with open(work / "plan.pickle", "rb") as handle:  # written by our own set-up child
        plan = pickle.load(handle)
    return plan, samples


def import_times(samples=SETUP_REPEATS):
    """Fresh-interpreter import times of sympy and the package (medians)."""
    docs = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "--import-only"],
                              capture_output=True, text=True, env=child_env(),
                              timeout=CHILD_TIMEOUT, check=True)
        docs.append(json.loads(proc.stdout))
    return (statistics.median(d["import_s"] for d in docs),
            statistics.median(d["import_sympy_s"] for d in docs))


def load_digests(workload, seed):
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle).get(workload)


def measure(workload, seed, seconds, trace, work):
    """Set up, run rounds for `seconds`, check; returns the result document."""
    import tracing

    plan, setup_samples = timed_setup(workload, seed, work)
    tracer = None
    if trace and workload != "cli":  # traced CLI commands trace themselves (child.py)
        tracer = tracing.Tracer()
        tracer.install()
    runner = Runner(plan, work, tracer, load_digests(workload, seed))
    tally, records = Tally(), []
    spent = 0.0
    try:
        for r, jobs in enumerate(plan.rounds):
            if spent >= seconds:
                break
            for traced in ((False, True) if r % 2 == 0 else (True, False)) if trace else (False,):
                records.append(runner.run_round(jobs, traced, tally))
                spent += records[-1].seconds
    finally:
        if tracer is not None:
            tracer.uninstall()
    probe_known, probe_s = run_probe(runner, tally)
    untraced = [rec for rec in records if not rec.traced]
    result = {
        "workload": workload, "seed": seed, "trace": trace, "machine": machine(),
        "attempted": tally.attempted, "failed": tally.failed, "reasons": tally.reasons,
        "rounds": len(untraced), "rounds_prepared": len(plan.rounds),
        "setup_samples": setup_samples,
        "end_to_end": end_to_end(workload, setup_samples, untraced),
        "workload_metrics": workload_metrics(workload, setup_samples, untraced, tally),
    }
    if plan.probe:
        result["known_defect"] = {"description": KNOWN_DEFECT, "jobs": len(plan.probe),
                                  "failed": probe_known, "share": probe_known / len(plan.probe)}
    if trace:
        layers, shares = per_layer(records, tracer, runner.child_docs)
        layers["padic_engine.friedman_laws.s"] = probe_s * statistics.median(
            rec.speed for rec in records if rec.traced)
        result["per_layer"], result["self_shares"] = layers, shares
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-{seed}.json"
        if tracer is not None:
            tracer.dump(spans_path)
        else:
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump({"children": runner.child_docs}, handle, separators=(",", ":"))
    return result


def typical_round(rounds, kinds=None, scaled=True):
    """Time of a typical round: for each job slot (rounds share one layout),
    the median of that job's time over the rounds, summed over the slots.

    Job costs vary with the drawn input and have a heavy tail; a median per
    slot keeps one slow input or a noisy moment from moving the figure."""
    slots = zip(*([(kind, s * (rec.speed if scaled else 1.0)) for kind, s in rec.job_seconds]
                  for rec in rounds))
    return sum(statistics.median(s for _, s in slot) for slot in slots
               if kinds is None or slot[0][0] in kinds)


def end_to_end(workload, setup_samples, rounds):
    rusage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(s * speed for s, speed in setup_samples),
        "wall_s": typical_round(rounds),
        "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024.0,
    }


def workload_metrics(workload, setup_samples, rounds, tally):
    """The workload's own metrics (scaled times, except the raw_ ones)."""
    out = {name: typical_round(rounds, kinds) for name, kinds in KIND_METRICS[workload]}
    if workload == "cli":
        out["cli_cmd_p50_s"] = statistics.median(
            s * rec.speed for rec in rounds for _, s in rec.job_seconds)
        out["cli_cmd_samples"] = sum(len(rec.job_seconds) for rec in rounds)
    out["raw_setup_s"] = statistics.median(s for s, _ in setup_samples)
    out["raw_wall_s"] = typical_round(rounds, scaled=False)
    out["speed"] = statistics.median(rec.speed for rec in rounds)
    out["error_rate"] = tally.failed / tally.attempted
    return out


def per_layer(records, tracer, child_docs):
    """Per-layer metrics per traced round, and the self-time shares."""
    import tracing

    profile = tracing.Profile()
    traced = [rec for rec in records if rec.traced]
    untraced = [rec for rec in records if not rec.traced]
    rounds = len(traced)
    if tracer is not None:
        profile.add_tracer(tracer)
        imports, sympy_imports = import_times()
        import_total = 0.0  # paid once per process, not per round
    else:
        for doc in child_docs:
            profile.add(doc["names"], doc["spans"], doc["counters"], doc["gauges"])
        imports = statistics.median(doc["import_s"] for doc in child_docs)
        sympy_imports = statistics.median(doc["import_sympy_s"] for doc in child_docs)
        import_total = sum(doc["import_s"] for doc in child_docs)
    traced_s = sum(rec.seconds for rec in traced)
    values = {
        "towers_cli.import_s": imports,
        "towers_cli.import_sympy_s": sympy_imports,
        "ihara.delta_bits_max": profile.gauges["ihara.delta_bits_max"],
        "trace.untraced_s": (traced_s - import_total - sum(profile.self_time.values())) / rounds,
        "trace.overhead_frac": traced_s / sum(rec.seconds for rec in untraced) - 1.0,
        "trace.rounds": rounds,
    }
    subsets = profile.counters["graph_core.spanning_tree_count_bruteforce.subsets"]
    trees = profile.counters["graph_core.spanning_tree_count_bruteforce.trees"]
    values["graph_core.spanning_tree_count_bruteforce.useful_frac"] = trees / subsets if subsets else 0.0
    layers = profile.counters["padic_engine.padic_report.layers"]
    structural = profile.counters["padic_engine.padic_report.structural_rows"]
    values["padic_engine.padic_report.structural_frac"] = structural / layers if layers else 0.0
    modules = profile.module_self()
    for name in PER_LAYER:
        if name in values:
            continue
        head, _, stat = name.rpartition(".")
        if not head.count("."):  # "<module>.self_s"
            values[name] = modules[head] / rounds
        elif stat == "s":
            values[name] = profile.inclusive[head] / rounds
        elif stat == "self_s":
            values[name] = profile.self_time[head] / rounds
        elif stat == "calls":
            values[name] = profile.calls[head] / rounds
        else:
            values[name] = profile.counters[name] / rounds
    speed = statistics.median(rec.speed for rec in traced)
    for name in PER_LAYER:
        if unit_of(name) == "s":
            values[name] *= speed
    # self-time shares of the traced rounds, by traced function
    self_time = dict(profile.self_time)
    if import_total:
        self_time["towers_cli.import"] = import_total
    shares = {name: value / traced_s for name, value in self_time.items()}
    return values, shares


def target_summary(workload, shares):
    """(target share, largest other layer, its share); other layers are
    modules, with the target's functions taken out."""
    prefixes = TARGET_LAYER[workload]
    target = sum(v for k, v in shares.items() if k.startswith(prefixes))
    others = {}
    for name, value in shares.items():
        if not name.startswith(prefixes):
            module = "towers_cli.import" if name == "towers_cli.import" else name.split(".")[0]
            others[module] = others.get(module, 0.0) + value
    other, other_share = max(others.items(), key=lambda kv: kv[1], default=("none", 0.0))
    return target, other, other_share


def print_result(result):
    w = result["workload"]
    print(f"# perfbench workload={w} seed={result['seed']} trace={result['trace']} "
          f"rounds={result['rounds']}/{result['rounds_prepared']} machine={result['machine']}")
    for name, unit in END_TO_END:
        print(f"{w:7s} {name:28s} {result['end_to_end'][name]:12.6g} {unit}")
    for name, value in result["workload_metrics"].items():
        print(f"{w:7s} {name:28s} {value:12.6g} {workload_unit(name)}")
    defect = result.get("known_defect")
    if defect:
        print(f"{w:7s} {'known_defect_share':28s} {defect['share']:12.6g} ratio  "
              f"({defect['failed']}/{defect['jobs']} seeded friedman_laws jobs; {defect['description']})")
    for reason in result["reasons"]:
        print(f"FAILED {reason}")
    if result["trace"]:
        for name in PER_LAYER:
            print(f"{w:7s} {name:52s} {result['per_layer'][name]:12.6g} {unit_of(name)}")
        top = sorted(result["self_shares"].items(), key=lambda kv: -kv[1])[:8]
        print(f"# self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
        target, other, other_share = target_summary(w, result["self_shares"])
        print(f"# target layer {'+'.join(TARGET_LAYER[w])}: {target:.1%} of traced time; "
              f"largest other layer {other}: {other_share:.1%}")


def final_line(result):
    if result["trace"]:
        metrics = {n: {"value": result["per_layer"][n], "unit": unit_of(n)} for n in PER_LAYER}
    else:
        metrics = {n: {"value": result["end_to_end"][n], "unit": u} for n, u in END_TO_END}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def run_workload(workload, seed, seconds, trace):
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload}-{seed}-trace{trace}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print_result(result)
    return result


# ---------------------------------------------------------------------------
# Whole-benchmark modes
# ---------------------------------------------------------------------------


def run_all(seed, seconds) -> int:
    """Every workload, untraced, one process each; all metrics by name and unit."""
    import workloads

    metrics, attempted, failed = {}, 0, 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        with open(OUT / f"result-{workload}-{seed}-trace0.json", "r", encoding="utf-8") as handle:
            result = json.load(handle)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, unit in END_TO_END:
            metrics[f"{workload}.{name}"] = {"value": result["end_to_end"][name], "unit": unit}
        for name, value in result["workload_metrics"].items():
            metrics[f"{workload}.{name}"] = {"value": value, "unit": workload_unit(name)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record_digests() -> int:
    """Run every prepared round of every workload at the default seed and
    write the output digests that later runs at that seed are checked against."""
    import workloads

    recorded = {}
    for workload in workloads.WORKLOADS:
        work = WORK / f"record-{workload}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            plan, _ = timed_setup(workload, DEFAULT_SEED, work)
            runner = Runner(plan, work)
            digests, tally = {}, Tally()
            for job in [job for jobs in plan.rounds for job in jobs] + plan.probe:
                outcome = runner.execute(job)
                reason = runner.verify(job, outcome)
                if reason is None:
                    digests[job.id] = runner.digest(job, outcome)
                elif job.kind != "friedman_laws":
                    tally.add(job, reason)
            if tally.failed:
                print(f"{workload}: {tally.reasons}", file=sys.stderr)
                return 1
            recorded[workload] = digests
            print(f"{workload}: {len(digests)} digests")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ihara_towers" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(MAX_BITS_ENV, None)
    sys.path.insert(0, str(SRC))
    import ihara_towers
    import workloads

    if Path(ihara_towers.__file__).resolve().parent != SRC / "ihara_towers":
        print(f"perfbench: imported {ihara_towers.__file__}, not the checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)
    if args.self_test:
        import selftest

        return selftest.main()
    if args.record_digests:
        return record_digests()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
