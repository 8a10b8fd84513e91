"""One traced CLI command in a fresh interpreter.

    python perfbench/child.py SPANS_JSON ARG...
    python perfbench/child.py --import-only

Times `import sympy` and the package import, installs the tracer, runs
`towers_cli.main(ARG...)` and writes the spans and import times to
SPANS_JSON.  The exit code is the command's.  With --import-only it
prints the two import times as JSON and exits.  The package must be
importable (the benchmark sets PYTHONPATH to the checkout's src/).
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import sympy  # noqa: F401  (timed on its own: the largest part of the import)

    sympy_done = time.perf_counter()
    from ihara_towers import towers_cli

    import_done = time.perf_counter()
    times = {"import_s": import_done - start, "import_sympy_s": sympy_done - start}
    if spans_path == "--import-only":
        print(json.dumps(times))
        return 0
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        code = towers_cli.main(argv)
    finally:
        tracer.enabled = False
        sys.stdout.flush()
        tracer.dump(spans_path, times)
    return code


if __name__ == "__main__":
    sys.exit(main())
