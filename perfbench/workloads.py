"""Seeded inputs of the four workloads.

Every workload is a closed loop with one client: its jobs run one after
another, grouped in rounds.  A round is the unit the benchmark times, and
each round of a run uses inputs of its own, so no result can be reused from
an earlier round.  Inputs are drawn from the seed and rejected only on
shape (vertex count, edge pairs, deg J, edge pairs of the top layer), never
on an outcome, which keeps the cost of a round nearly the same across seeds.

Why each workload exists:

- cli: what a shell user pays per command.  Every command is a fresh
  `python -m ihara_towers` process on a small base, so start-up and import
  dominate and nothing is cached between commands.
- sweep: in-process `analyze`, `table --n-max 64` and `asymptotics` on one
  base per deg-J band (12, 18-22, 28).  Pierce-Lehmer values and the
  polyring determinant and resultant do most of the work; no oracle runs.
  `table` crosses the Sylvester/companion switch at n = 40, `asymptotics`
  asks for one large n instead of a range, and three commands hit each graph.
- verify: `verify --mode matrix-tree --n-max 30` on 4-vertex, 6-pair bases
  (the corpus shape of acceptance criterion 2) and `verify --mode
  bruteforce-small` on bases whose top layer has 21 edge pairs
  (criterion 8).  The derived graphs and the two tree counters dominate.
- padic: library calls `padic_report` (n <= 300, primes 2..31, kappas from
  set-up), Washington laws for p, ell <= 7 and Iwasawa laws for p = 2, 3, on
  towers with deg J from 4 to 10.  padic_engine does most of the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ihara_towers.ihara import analyze, kappa_sequence
from ihara_towers.towers_cli import generate_family, graph_to_json
from ihara_towers.voltage_cover import monodromy_index, voltaged_graph

WORKLOADS = ("cli", "sweep", "verify", "padic")
PADIC_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
LAW_PRIMES = (2, 3, 5, 7)
# Iwasawa laws only at p = 2, 3: on a tower whose unit part is ramified at p
# the law is fitted from D_{p^k} up to k = s_p + 4, which at p = 5, 7 means
# n = 5^5, 7^5 and seconds of Pierce-Lehmer work per job (see CHANGES.md).
IWASAWA_PRIMES = (2, 3)
PADIC_N_MAX = 300
# padic: towers per round, drawn in equal numbers from these strata:
# (deg J range, vertex counts that reach it with voltages in [-3, 3])
TOWERS_PER_ROUND = 2
PADIC_STRATA = (((4, 4), (1, 2, 3)), ((6, 6), (2, 3)), ((8, 10), (2, 3)))
# the known-defect probe: seeded friedman_laws jobs with generators up to this bound
PROBE_JOBS, FRIEDMAN_BOUND = 8, 300

# Rounds prepared per run: about 1.4 times what 15 s of measuring uses on a
# 2-vCPU x86-64 machine, except padic, whose set-up kappas would cost more
# than its rounds.  A run ends early when its rounds run out.
ROUNDS = {"cli": 8, "sweep": 11, "verify": 11, "padic": 26}

# sweep: one base per band and round:
# (vertices, edge pairs, max |voltage|, deg J range, table --n-max, asymptotics --n-probe).
# One vertex means a bouquet, whose cost varies least with the drawn voltages.
SWEEP_BANDS = (
    (1, 3, 7, (12, 12), 64, 1000),
    (2, 4, 8, (18, 22), 64, 600),
    (1, 3, 15, (28, 28), 64, 300),
)
# verify: matrix-tree jobs per round on 4-vertex, 6-pair bases, and the layer count
MATRIX_TREE_JOBS, MATRIX_TREE_N_MAX = 2, 30


@dataclass(frozen=True)
class Job:
    id: str  # unique within a run and stable for a given seed
    kind: str  # CLI command, "verify_bruteforce", or a library function name
    graph: str  # key into Plan.graphs
    options: tuple = ()  # CLI options after the graph file, or library arguments

    def option(self, name: str) -> int:
        """The integer value of a CLI option of this job."""
        return int(self.options[self.options.index(name) + 1])


@dataclass
class Plan:
    workload: str
    seed: int
    graphs: dict  # key -> graph JSON document
    rounds: list  # list of lists of Job
    towers: dict  # key -> TowerAnalysis (padic only)
    kappas: dict  # key -> [kappa(X_1), ..., kappa(X_PADIC_N_MAX)] (padic only)
    probe: list  # friedman_laws jobs of the known-defect probe (padic only)


def random_base(rng: random.Random, vertices: int, pairs: int, vmax: int):
    """Connected voltaged base of the given shape with monodromy index 1.

    A spanning path of random tree edges comes first, so the base is
    connected; pairs > vertices makes the Euler characteristic negative.
    """
    while True:
        edges = [(rng.randrange(w), w, rng.randint(-vmax, vmax)) for w in range(1, vertices)]
        while len(edges) < pairs:
            edges.append((rng.randrange(vertices), rng.randrange(vertices),
                          rng.randint(-vmax, vmax)))
        vg = voltaged_graph(vertices, edges, labels=tuple(f"v{i}" for i in range(vertices)))
        if monodromy_index(vg) == 1:
            return vg


def base_with_degree(rng, vertices, pairs, vmax, degrees):
    """A random base of the shape whose J has a degree in the closed range."""
    lo, hi = degrees
    while True:
        if vertices == 1:
            # deg J = 2 max|a| - 2 for a bouquet: put the largest voltage on one loop
            loops = [rng.choice((-vmax, vmax))] + [rng.randint(-vmax, vmax) for _ in range(pairs - 1)]
            vg = voltaged_graph(1, [(0, 0, a) for a in loops], labels=("v0",))
            if monodromy_index(vg) != 1:
                continue
        else:
            vg = random_base(rng, vertices, pairs, vmax)
        ta = analyze(vg)
        if lo <= ta.j_poly.degree <= hi:
            return vg, ta


def _named(count):
    """The first `count` named small bases."""
    named = [("bouquet-3-5", generate_family("bouquet", [3, 5])),
             ("dumbbell-2-3", generate_family("dumbbell", [2, 3])),
             ("fibonacci", generate_family("fibonacci", []))]
    return named[:count]


def build_cli(rng, seed):
    graphs = {key: graph_to_json(vg) for key, vg in _named(3)}
    for i in range(ROUNDS["cli"] - len(graphs)):
        v = rng.randint(1, 2)
        vg, _ = base_with_degree(rng, v, v + rng.randint(1, 2), 4, (2, 8))
        graphs[f"small{i}"] = graph_to_json(vg)
    keys = list(graphs)
    rng.shuffle(keys)
    rounds = []
    for r, key in enumerate(keys):
        p1, p2 = rng.sample(LAW_PRIMES, 2)
        rounds.append([
            Job(f"r{r}.analyze", "analyze", key, ("--prime", str(p1), "--prime", str(p2))),
            Job(f"r{r}.table", "table", key, ("--n-max", str(rng.randint(10, 20)))),
            Job(f"r{r}.verify", "verify", key,
                ("--n-max", str(rng.randint(6, 12)), "--jobs", "1")),
            Job(f"r{r}.padic", "padic", key,
                ("--prime", str(rng.choice(PADIC_PRIMES[:6])), "--n-max", str(rng.randint(40, 80)))),
            Job(f"r{r}.asymptotics", "asymptotics", key, ("--n-probe", str(rng.randint(20, 40)))),
        ])
    return Plan("cli", seed, graphs, rounds, {}, {}, [])


def build_sweep(rng, seed):
    graphs, rounds = {}, []
    for r in range(ROUNDS["sweep"]):
        jobs = []
        for b, (v, pairs, vmax, degrees, n_max, n_probe) in enumerate(SWEEP_BANDS):
            key = f"r{r}b{b}"
            vg, _ = base_with_degree(rng, v, pairs, vmax, degrees)
            graphs[key] = graph_to_json(vg)
            jobs += [
                Job(f"{key}.analyze", "analyze", key, ("--prime", str(rng.choice(LAW_PRIMES)))),
                Job(f"{key}.table", "table", key, ("--n-max", str(n_max))),
                Job(f"{key}.asymptotics", "asymptotics", key, ("--n-probe", str(n_probe))),
            ]
        rounds.append(jobs)
    return Plan("sweep", seed, graphs, rounds, {}, {}, [])


def build_verify(rng, seed):
    graphs, rounds = {}, []
    for r in range(ROUNDS["verify"]):
        jobs = []
        for i in range(MATRIX_TREE_JOBS):
            graphs[f"r{r}mt{i}"] = graph_to_json(random_base(rng, 4, 6, 6))
            jobs.append(Job(f"r{r}.verify{i}", "verify", f"r{r}mt{i}",
                            ("--mode", "matrix-tree", "--n-max", str(MATRIX_TREE_N_MAX),
                             "--jobs", "1")))
        # top layer: 7 copies of 3 edge pairs = 21 pairs
        graphs[f"r{r}bf"] = graph_to_json(random_base(rng, 2, 3, 6))
        jobs.append(Job(f"r{r}.bruteforce", "verify_bruteforce", f"r{r}bf",
                        ("--mode", "bruteforce-small", "--n-max", "7", "--jobs", "1")))
        rounds.append(jobs)
    return Plan("verify", seed, graphs, rounds, {}, {}, [])


def build_padic(rng, seed):
    towers = {key: (vg, analyze(vg)) for key, vg in _named(2)}
    for i in range(ROUNDS["padic"] * TOWERS_PER_ROUND - len(towers)):
        degrees, vertex_counts = PADIC_STRATA[i % len(PADIC_STRATA)]
        v = rng.choice(vertex_counts)
        towers[f"t{i}"] = base_with_degree(rng, v, v + rng.randint(1, 2), 3, degrees)
    keys = list(towers)
    rng.shuffle(keys)
    graphs = {key: graph_to_json(vg) for key, (vg, _) in towers.items()}
    analyses = {key: ta for key, (_, ta) in towers.items()}
    kappas = {key: kappa_sequence(ta, PADIC_N_MAX) for key, ta in analyses.items()}
    rounds = []
    for r in range(ROUNDS["padic"]):
        jobs = []
        for key in keys[TOWERS_PER_ROUND * r: TOWERS_PER_ROUND * (r + 1)]:
            jobs += [Job(f"{key}.report{p}", "padic_report", key, (p, PADIC_N_MAX))
                     for p in PADIC_PRIMES]
            jobs += [Job(f"{key}.iwasawa{p}", "iwasawa_invariants", key, (p,))
                     for p in IWASAWA_PRIMES]
            jobs += [Job(f"{key}.washington{p}_{ell}", "washington_invariants", key, (p, ell))
                     for p in LAW_PRIMES for ell in LAW_PRIMES if p != ell]
        rounds.append(jobs)
    probe = []
    for i in range(PROBE_JOBS):
        key = rng.choice(keys)
        p = rng.choice(LAW_PRIMES)
        gens = tuple(sorted(rng.sample([q for q in LAW_PRIMES if q != p], 2)))
        probe.append(Job(f"probe{i}.{key}.friedman{p}", "friedman_laws", key,
                         (p, gens, FRIEDMAN_BOUND)))
    return Plan("padic", seed, graphs, rounds, analyses, kappas, probe)


def build(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    return {"cli": build_cli, "sweep": build_sweep, "verify": build_verify,
            "padic": build_padic}[workload](rng, seed)
