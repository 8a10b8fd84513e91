"""Output checks, run outside the timed region and with tracing paused.

Each output is compared with a source that does not share the code path
under test:

- tree counts come from `tree_count` below, a matrix-tree determinant that
  builds each layer's Laplacian straight from the graph file and shares no
  code with graph_core or voltage_cover;
- `table`: n * kappa = +-kappa(X) * resultant on every row, kappa against
  `tree_count` for small n, and D_d | D_n for d | n;
- `analyze`: kappa against `tree_count` of the base;
- `verify`: its `ok` field and exit code;
- `padic` rows: ord against the valuation of the tree count (small n, CLI)
  or of the kappas from set-up (library), and the four terms summing to it;
- `asymptotics`: log kappa against `tree_count` (small layers) or against
  the root product of J in floating point (large n);
- Iwasawa, Washington and Friedman laws against `ord_delta_exact` past
  their thresholds.

A check returns None when the output is right and a reason when it is not.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from ihara_towers.padic_engine import ord_delta_exact, valuation

SMALL_N = 4  # layers checked against tree_count
EXACT_LOG_VERTICES = 120  # largest layer whose log kappa is checked exactly
LOG_TOLERANCE = 1e-6  # relative, for the floating-point root product


def tree_count(doc: dict, n: int = 1) -> int:
    """Spanning trees of layer n of the graph document, by the matrix-tree
    theorem: a fraction-free determinant with row pivoting of the reduced
    Laplacian, built directly from the voltaged edges."""
    index = {name: i for i, name in enumerate(doc["vertices"])}
    size = len(index) * n
    lap = [[0] * size for _ in range(size)]
    for edge in doc["edges"]:
        u, v, a = index[edge["from"]], index[edge["to"]], edge["voltage"]
        for s in range(n):
            x, y = u * n + s, v * n + (s + a) % n
            if x != y:
                lap[x][y] -= 1
                lap[y][x] -= 1
                lap[x][x] += 1
                lap[y][y] += 1
    m = [row[1:] for row in lap[1:]]
    sign, prev = 1, 1
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk, mk = m[k][k], m[k]
        for i in range(k + 1, len(m)):
            mi, mik = m[i], m[i][k]
            m[i] = [0] * (k + 1) + [(mi[j] * pk - mik * mk[j]) // prev
                                    for j in range(k + 1, len(m))]
        prev = pk
    return sign * m[-1][-1] if m else 1


def _ord(value: int, p: int) -> int:
    return valuation(value, p) if value % p == 0 else 0


class Checker:
    """Checks the jobs of one run; caches per-graph reference values."""

    def __init__(self, plan):
        self.plan = plan
        self._counts = {}
        self._analyzed = {}  # graph key -> parsed analyze output

    def count(self, key: str, n: int) -> int:
        if (key, n) not in self._counts:
            self._counts[key, n] = tree_count(self.plan.graphs[key], n)
        return self._counts[key, n]

    def check(self, job, rc, text, value):
        if rc != 0:
            return f"exit code {rc}"
        method = getattr(self, "_" + job.kind)
        try:
            return method(job, text, value)
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
            return f"unreadable output: {exc!r}"

    # --- CLI commands -------------------------------------------------------

    def _analyze(self, job, text, value):
        doc = json.loads(text)
        graph = self.plan.graphs[job.graph]
        if int(doc["kappa"]) != self.count(job.graph, 1):
            return "analyze kappa differs from the matrix-tree count"
        if doc["chi"] != len(graph["vertices"]) - len(graph["edges"]):
            return "analyze chi is wrong"
        if doc["monodromy_index"] != 1:
            return "analyze monodromy index is not 1"
        self._analyzed[job.graph] = doc
        return None

    def _table(self, job, text, value):
        rows = json.loads(text)["rows"]
        if [row["n"] for row in rows] != list(range(1, job.option("--n-max") + 1)):
            return "table rows are not n = 1..n_max"
        base = self.count(job.graph, 1)
        deltas = [int(row["delta"]) for row in rows]
        for row in rows:
            n, kappa, res = row["n"], int(row["kappa"]), int(row["resultant"])
            if abs(n * kappa) != abs(base * res):
                return f"n * kappa != +-kappa(X) * resultant at n={n}"
            if n <= SMALL_N and kappa != self.count(job.graph, n):
                return f"table kappa differs from the matrix-tree count at n={n}"
            for d in range(1, n):
                if n % d == 0 and deltas[n - 1] % deltas[d - 1]:
                    return f"D_{d} does not divide D_{n}"
        return None

    def _verify(self, job, text, value):
        doc = json.loads(text)
        if doc["ok"] is not True or doc["n_max"] != job.option("--n-max"):
            return "verify did not report ok"
        return None

    _verify_bruteforce = _verify

    def _padic(self, job, text, value):
        doc = json.loads(text)
        p = job.option("--prime")
        rows = doc["rows"]
        if [row["n"] for row in rows] != list(range(1, job.option("--n-max") + 1)):
            return "padic rows are not n = 1..n_max"
        for row in rows:
            n, ord_ = row["n"], int(row["ord"])
            total = (Fraction(row["mu_term"]) + int(row["lambda"]) * _ord(n, p)
                     + Fraction(row["nu"]) + Fraction(row["c"]))
            if total != ord_:
                return f"padic terms do not sum to ord at n={n}"
            if n <= SMALL_N and ord_ != _ord(self.count(job.graph, n), p):
                return f"padic ord differs from the matrix-tree count at n={n}"
        return None

    def _asymptotics(self, job, text, value):
        doc = json.loads(text)
        n = job.option("--n-probe")
        if doc["n_probe"] != n:
            return "asymptotics answered another n"
        actual = doc["actual_log_kappa"]
        if doc["applicable"] and not math.isclose(
            doc["gap"], abs(actual - doc["predicted_log_kappa"]), rel_tol=1e-9, abs_tol=1e-9
        ):
            return "asymptotics gap is not |actual - predicted|"
        if len(self.plan.graphs[job.graph]["vertices"]) * n <= EXACT_LOG_VERTICES:
            expected = math.log(self.count(job.graph, n))
            tolerance = 1e-9
        else:
            expected = self._log_kappa_from_roots(job.graph, n)
            tolerance = LOG_TOLERANCE
        if not math.isclose(actual, expected, rel_tol=tolerance, abs_tol=tolerance):
            return f"asymptotics log kappa {actual} != {expected}"
        return None

    def _log_kappa_from_roots(self, key, n):
        """log kappa(X_n) = log kappa(X) + (e-1) log n + log|D_n / D_1|, with
        log|D_n| = n log|lead J| + sum over roots of log|alpha^n - 1|.

        Uses J, e and D_1 from the round's checked `analyze` output."""
        doc = self._analyzed[key]
        coeffs = [int(c) for c in doc["j_poly"]]
        log_delta = n * math.log(abs(coeffs[-1]))
        for alpha in np.roots([float(c) for c in reversed(coeffs)]):
            r = abs(alpha)
            if r > 1:  # |alpha^n - 1| = r^n |1 - alpha^-n|
                log_delta += n * math.log(r) + math.log(abs(1 - alpha ** -n))
            else:
                log_delta += math.log(abs(alpha ** n - 1))
        return (math.log(int(doc["kappa"])) + (doc["e"] - 1) * math.log(n)
                + log_delta - math.log(abs(int(doc["delta1"]))))

    # --- library calls --------------------------------------------------------

    def _padic_report(self, job, text, report):
        p, n_max = job.options
        kappas = self.plan.kappas[job.graph]
        if any(kappas[n - 1] != self.count(job.graph, n) for n in range(1, SMALL_N + 1)):
            return "set-up kappas differ from the matrix-tree count"
        if sorted(report.per_n) != list(range(1, n_max + 1)):
            return "padic_report rows are not n = 1..n_max"
        for n, row in report.per_n.items():
            if row.ord != _ord(kappas[n - 1], p):
                return f"padic_report ord differs from ord_p(kappa) at n={n}"
            if report.mu * n + row.lam * _ord(n, p) + row.nu + report.c != row.ord:
                return f"padic_report terms do not sum to ord at n={n}"
            if row.source not in ("structural", "oracle"):
                return f"padic_report source {row.source!r}"
        return None

    def _iwasawa_invariants(self, job, text, value):
        (p,) = job.options
        mu, lam, nu, k0 = value
        j = self.plan.towers[job.graph].j_poly
        for k in range(k0, k0 + 3):
            if ord_delta_exact(j, p, p ** k) != mu * p ** k + lam * k + nu:
                return f"Iwasawa law fails at k={k}"
        return None

    def _washington_invariants(self, job, text, value):
        p, ell = job.options
        mu, nu, k0 = value
        j = self.plan.towers[job.graph].j_poly
        for k in range(k0, k0 + 3):
            if ord_delta_exact(j, p, ell ** k) != mu * ell ** k + nu:
                return f"Washington law fails at k={k}"
        return None

    def _friedman_laws(self, job, text, laws):
        p, gens, bound = job.options
        j = self.plan.towers[job.graph].j_poly
        for observer, law in laws.items():
            # the smallest semigroup element past every threshold
            exps = law.min_exponents
            n = math.prod(g ** k for g, k in zip(gens, exps))
            k_obs = exps[gens.index(observer)] if observer in gens else 0
            if n <= bound and ord_delta_exact(j, observer, n) != law.mu * n + law.lam * k_obs + law.nu:
                return f"Friedman law for {observer} fails at n={n}"
        return None


def digest_text(job, text, value):
    """The canonical form of an output that digests are taken of."""
    if value is None:
        return text
    if job.kind == "padic_report":
        rows = [(n, r.lam, str(r.nu), r.ord, r.source) for n, r in sorted(value.per_n.items())]
        return repr((value.prime, value.mu, value.c, value.R, rows))
    if job.kind == "friedman_laws":
        return repr(sorted((k, law.mu, law.lam, str(law.nu), law.min_exponents)
                           for k, law in value.items()))
    return repr(value)
