"""Traced stand-in for `python -m tsr.cli ARGV...`, one per process.

Usage: python bench/cli_shim.py OUT.json ARGV...

Times ``import tsr.cli`` in this fresh process, installs the tracer,
runs ``tsr.cli.main(ARGV)`` with its stdout untouched, writes the
timings, the layer totals and the spans to OUT.json and exits with
main's exit code.
"""

import json
import resource
import sys
from time import perf_counter

t0 = perf_counter()
import tsr.cli  # noqa: E402

import_s = perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t1 = perf_counter()
    tracer = Tracer()
    tracer.install()
    install_s = perf_counter() - t1
    t1 = perf_counter()
    tracer.begin(0)
    try:
        code = tsr.cli.main(argv)
    finally:
        tracer.finish()
        main_s = perf_counter() - t1
    sys.stdout.flush()
    doc = {"import_s": import_s, "install_s": install_s, "main_s": main_s,
           "code": code,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "raw": tracer.raw(), "spans": tracer.spans()}
    with open(out, "w") as fh:
        fh.write(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
