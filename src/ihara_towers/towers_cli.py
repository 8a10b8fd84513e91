"""Command-line front end: graph files, generators, analysis and reports.

The --help description, which states the graph-file format and the exit
codes, is _DESCRIPTION.  Every command writes its result through
_emit(args, doc, rows), the one place that encodes and writes one: doc as
indented JSON, or rows as CSV (table and padic) when --format csv is set, or
when --format is not given and the --output path ends in .csv.  An --output
file gets the text as it is; stdout gets it with a final newline.  Errors,
usage and a verify mismatch go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .errors import (
    HypothesisViolation,
    PrecisionExhausted,
    ResourceLimit,
    TowerError,
    VerificationMismatch,
)
from .ihara import (
    _bit_cap,
    _kappa_from_delta,
    _resultant_from_delta,
    analyze,
    kappa_via_formula,
    pierce_lehmer_range,
    verify_tower,
)
from .voltage_cover import VoltagedGraph, voltaged_graph

_DESCRIPTION = """Command-line front end: graph files, generators, analysis and reports.

Graph files are JSON documents

    {"vertices": ["v0", ...],
     "edges": [{"from": "v0", "to": "v1", "voltage": 3}, ...]}

with one entry per edge pair (the stored orientation).  Vertex names must be
strings and voltages JSON integers; other values are rejected, not coerced.
Exact integers are serialized as decimal strings so reports re-parse
losslessly.

Exit codes are a stable contract for scripting: 0 success, 2 hypothesis
violation (vanishing Euler characteristic or disconnected tower), 3
verification mismatch, 4 resource or precision exhaustion.
"""

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_MISMATCH = 3
EXIT_RESOURCE = 4


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------


def graph_to_json(vg: VoltagedGraph) -> dict:
    names = [str(v) for v in vg.base.vertices]
    edges = [
        {"from": names[e.origin], "to": names[e.terminus], "voltage": a}
        for e, a in zip(vg.base.edge_pairs, vg.voltages)
    ]
    return {"vertices": names, "edges": edges}


def _required(obj: dict, key: str, what: str):
    if key not in obj:
        raise ValueError(f'{what} has no "{key}" key')
    return obj[key]


def graph_from_json(doc: dict) -> VoltagedGraph:
    """Parse a graph document; a missing key raises ValueError, and a value of
    the wrong type is rejected, never coerced (a voltage 1.7, true or "3"
    raises ValueError)."""
    if not isinstance(doc, dict):
        raise ValueError("a graph document must be a JSON object")
    names, edges = (_required(doc, key, "the graph document") for key in ("vertices", "edges"))
    if not (isinstance(names, list) and isinstance(edges, list)):
        raise ValueError('"vertices" and "edges" must be lists')
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"vertex name {name!r} is not a string")
    if len(set(names)) != len(names):
        raise ValueError("vertex names must be unique")
    index = {name: i for i, name in enumerate(names)}
    triples = []
    for edge in edges:
        if not isinstance(edge, dict):
            raise ValueError(f"edge {edge!r} is not an object")
        u, v, a = (_required(edge, key, f"edge {edge!r}") for key in ("from", "to", "voltage"))
        if not (isinstance(u, str) and isinstance(v, str) and u in index and v in index):
            raise ValueError(f"edge endpoint {u!r} or {v!r} is not a vertex")
        if not isinstance(a, int) or isinstance(a, bool):
            raise ValueError(f"voltage {a!r} is not an integer")
        triples.append((index[u], index[v], a))
    return voltaged_graph(len(names), triples, labels=tuple(names))


def load_graph(path: str) -> VoltagedGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return graph_from_json(json.load(handle))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _bouquet(family: str, params) -> VoltagedGraph:
    if not params:
        raise ValueError("bouquet needs at least one loop voltage")
    return voltaged_graph(1, [(0, 0, a) for a in params], labels=("v0",))


def _dumbbell(family: str, params) -> VoltagedGraph:
    if len(params) != 2:
        raise ValueError(f"{family} needs exactly two loop voltages")
    k, l = params
    return voltaged_graph(2, [(0, 0, k), (0, 1, 0), (1, 1, l)], labels=("v0", "v1"))


def _petersen(family: str, params) -> VoltagedGraph:
    if len(params) != 1:
        raise ValueError("petersen needs one parameter")
    return _dumbbell("dumbbell", [1, params[0]])


def _fibonacci(family: str, params) -> VoltagedGraph:
    if params:
        raise ValueError("fibonacci takes no parameters")
    return _bouquet("bouquet", [1, 2])


# Family name -> builder(name, params); an alias names the builder it shares.
_FAMILIES = {"bouquet": _bouquet, "circulant-base": _bouquet, "dumbbell": _dumbbell,
             "petersen": _petersen, "igraph": _dumbbell, "fibonacci": _fibonacci}


def _integer_parameter(x) -> int:
    """An int, or a decimal string, as an int; a float, a bool or any other
    value is rejected, never coerced (as in graph_from_json)."""
    digits = x.removeprefix("-") if isinstance(x, str) else ""
    if isinstance(x, int) and not isinstance(x, bool) or digits.isascii() and digits.isdigit():
        return int(x)
    raise ValueError(f"parameter {x!r} is not an integer")


def generate_family(family: str, params) -> VoltagedGraph:
    params = [_integer_parameter(x) for x in params]
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return _FAMILIES[family](family, params)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _emit(args, doc: dict, rows=None) -> int:
    """Write a command's result, the one way every command does.

    doc is written as indented JSON; a command that passes rows (a list of
    dicts whose keys make the header) writes them as CSV instead when
    --format csv is set, or when --format is not given and the --output path
    ends in .csv.  An --output file gets the text as it is; stdout gets it
    with a final newline.
    """
    inferred = "csv" if (args.output or "").endswith(".csv") else "json"
    if rows is not None and (args.format or inferred) == "csv":
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    return _emit(args, graph_to_json(generate_family(args.family, args.params)))


def cmd_analyze(args) -> int:
    from .mahler import mahler_archimedean, mahler_padic

    ta = analyze(load_graph(args.graph))
    arch = mahler_archimedean(ta.j_poly)
    doc = {
        "chi": ta.chi,
        "kappa": str(ta.kappa_base),
        "monodromy_index": 1,  # analyze raises HypothesisViolation for any other index
        "ihara": {"low": ta.ihara.low, "coeffs": [str(c) for c in ta.ihara.body.coeffs]},
        "b": ta.b,
        "e": ta.e,
        "j_poly": [str(c) for c in ta.j_poly.coeffs],
        "delta1": str(ta.delta1),
        "padic_measure_exponents": {
            str(p): mahler_padic(ta.j_poly, p).exponent for p in args.primes
        },
        "mahler_archimedean": arch.value,
        "unit_circle_roots": 0,  # index 1 and J(1) != 0 leave J none (see mahler)
    }
    return _emit(args, doc)


def cmd_table(args) -> int:
    ta = analyze(load_graph(args.graph))
    deltas = pierce_lehmer_range(ta.j_poly, args.n_max)
    cap = _bit_cap()
    kappas = [_kappa_from_delta(ta, n, deltas[n - 1], cap) for n in range(1, args.n_max + 1)]
    rows = [
        {
            "n": n,
            "kappa": str(kappas[n - 1]),
            "resultant": str(_resultant_from_delta(ta, n, deltas[n - 1], cap)),
            "delta": str(deltas[n - 1]),
        }
        for n in range(1, args.n_max + 1)
    ]
    return _emit(args, {"rows": rows}, rows)


def cmd_verify(args) -> int:
    report = verify_tower(load_graph(args.graph), args.n_max, args.mode, jobs=args.jobs)
    mismatch = None
    if report.first_mismatch:
        n, formula, oracle = report.first_mismatch
        mismatch = {"n": n, "formula": str(formula), "oracle": str(oracle)}
    _emit(args, {"n_max": args.n_max, "mode": args.mode, "ok": report.ok,
                 "first_mismatch": mismatch})
    if not mismatch:
        return EXIT_OK
    print(f"mismatch at n={n}: formula {formula} != oracle {oracle}", file=sys.stderr)
    return EXIT_MISMATCH


def cmd_padic(args) -> int:
    from .padic_engine import padic_report

    report = padic_report(analyze(load_graph(args.graph)), args.prime, args.n_max)
    rows = [
        {
            "n": n,
            "ord": str(row.ord),
            "mu_term": str(report.mu * n),
            "lambda": str(row.lam),
            "nu": str(row.nu),
            "c": str(report.c),
            "source": row.source,
        }
        for n, row in report.per_n.items()  # layers 1..n_max, in order
    ]
    doc = {
        "prime": report.prime,
        "mu": str(report.mu),
        "c": str(report.c),
        "R": report.R,
        "ramified": report.structure.ramified,
        "rows": rows,
    }
    return _emit(args, doc, rows)


def cmd_asymptotics(args) -> int:
    from .mahler import archimedean_asymptotic, log_big

    ta = analyze(load_graph(args.graph))
    law = archimedean_asymptotic(ta)
    n = args.n_probe
    actual = log_big(kappa_via_formula(ta, n))
    predicted = law.predicted_log_kappa(n)
    doc = {
        "m_inf": law.rate,
        "applicable": True,  # the law holds on every analyzed tower (see mahler)
        "n_probe": n,
        "predicted_log_kappa": predicted,
        "actual_log_kappa": actual,
        "gap": abs(actual - predicted),
    }
    return _emit(args, doc)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _int_argument(text: str) -> int:
    """An integer argument, with generate_family's rule: argparse's int()
    would also take spaces, underscores, a plus sign and non-ASCII digits."""
    try:
        return _integer_parameter(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    main() call.  Sharing is safe: parse_args returns a fresh Namespace each
    call, the append action of --prime copies its default list before it
    appends, and error() looks up sys.stderr when it runs.  Callers must not
    change the parser it returns."""
    parser = _Parser(prog="ihara-towers", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a base graph for a named family")
    gen.add_argument("family", choices=list(_FAMILIES))
    gen.add_argument("params", nargs="*", type=_int_argument)
    gen.add_argument("--output")
    gen.set_defaults(func=cmd_generate)

    ana = sub.add_parser("analyze", help="summary of one voltaged graph")
    ana.add_argument("graph")
    ana.add_argument("--prime", dest="primes", action="append", type=_int_argument, default=[])
    ana.add_argument("--output")
    ana.set_defaults(func=cmd_analyze)

    tab = sub.add_parser("table", help="kappa / resultant / delta rows")
    tab.add_argument("graph")
    tab.add_argument("--n-max", type=_int_argument, default=10)
    tab.add_argument("--format", choices=["json", "csv"])
    tab.add_argument("--output")
    tab.set_defaults(func=cmd_table)

    ver = sub.add_parser("verify", help="formula path against an independent count")
    ver.add_argument("graph")
    ver.add_argument("--n-max", type=_int_argument, default=10)
    ver.add_argument("--mode", choices=["matrix-tree", "bruteforce-small"],
                     default="matrix-tree")
    ver.add_argument("--jobs", type=_int_argument, default=1)
    ver.add_argument("--output")
    ver.set_defaults(func=cmd_verify)

    pad = sub.add_parser("padic", help="per-layer p-adic valuation decomposition")
    pad.add_argument("graph")
    pad.add_argument("--prime", type=_int_argument, required=True)
    pad.add_argument("--n-max", type=_int_argument, default=100)
    pad.add_argument("--format", choices=["json", "csv"])
    pad.add_argument("--output")
    pad.set_defaults(func=cmd_padic)

    asy = sub.add_parser("asymptotics", help="exponential growth law check")
    asy.add_argument("graph")
    asy.add_argument("--n-probe", type=_int_argument, default=100)
    asy.add_argument("--output")
    asy.set_defaults(func=cmd_asymptotics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except VerificationMismatch as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (PrecisionExhausted, ResourceLimit) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (TowerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
