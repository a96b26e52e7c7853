"""Benchmark of the tsr library and command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``cli-fixtures``: fresh ``python -m tsr.cli`` processes on the bundled
  fixtures, stdout compared with pinned outputs and tests/expected;
* ``reduce-families``: reduce, replay and compare on generated complexes;
* ``bredon-families``: Bredon complex, block split and Smith normal form
  on generated complexes with closed-form homology;
* ``census-oracles``: Poincare series of random censuses, the graph
  cohomology oracle and the brute-force group-homology oracle.

One client runs one operation at a time (a closed loop) over whole
seeded decks, each a fixed mix of ops in seeded order, until
``--seconds`` have passed; every answer is checked outside the timer.

Times are reported in reference seconds.  On a shared machine the
speed of all code drifts together, by up to 2x within seconds, so a
fixed integer loop is timed just before and just after every timed op
(and every set-up process), and the op's wall time is scaled to the
speed at which that loop takes REF_NOMINAL_S.  The run is pinned to one
CPU, which its child processes inherit, so the loop and the ops it
brackets run on the same CPU.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A detail
object precedes it: failures, the tail percentile, the set-up samples
and, under ``wall_clock``, the end-to-end metrics in wall seconds.
``correct`` is false when any op failed.

``--trace 1`` runs two decks untraced, then the same two decks with
timing wrappers on tsr's public functions (tracer.py), then the
scaling curves (in reference seconds), the cold-process probes and the
count of the D2 embedding-rotation defect (workloads.oracle_mismatches);
it writes the spans to .bench_trace/<workload>.jsonl.  Per-layer times
are wall seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

WORKLOADS = ("cli-fixtures", "reduce-families", "bredon-families", "census-oracles")
#: Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_SAMPLES = 5
#: Decks each pass of the traced run covers (same decks in both passes).
TRACE_DECKS = 2
TAIL_LADDER = (99, 95, 90, 75, 50)
#: Iterations of the reference loop, and the wall time it is scaled to.
REF_LOOP = 20000
REF_NOMINAL_S = 0.002
E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
             "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_workload(name: str, seed: int):
    if not (SRC / "tsr" / "__init__.py").is_file():
        die(f"no tsr sources under {SRC}")
    if not (ROOT / "tests" / "expected").is_dir():
        die("no tests/expected in the checkout")
    sys.path.insert(0, str(SRC))
    if name == "cli-fixtures":
        from clifix import CliFixtures
        return CliFixtures(seed)
    from workloads import WORKLOADS as IN_PROCESS
    return IN_PROCESS[name](seed)


# --------------------------------------------------------------------------
# Timed passes


def reference_time() -> float:
    """Wall time of a fixed integer loop that allocates nothing the
    garbage collector tracks: how fast this machine runs right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return perf_counter() - t0


def to_reference(wall: float, before: float, after: float) -> float:
    """Wall seconds scaled to the machine speed at which the reference
    loop takes REF_NOMINAL_S, from its times just before and after."""
    return wall * 2 * REF_NOMINAL_S / (before + after)


@dataclass
class Pass:
    durations: list[float] = field(default_factory=list)  # reference seconds
    wall: list[float] = field(default_factory=list)  # wall seconds
    failures: list[tuple[str, str]] = field(default_factory=list)
    decks: int = 0
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.durations)


def run_pass(wl, seconds: float | None = None, decks: int | None = None,
             tracer=None) -> Pass:
    """Run whole decks until ``seconds`` have passed, or ``decks`` of
    them; whole decks keep the op mix, and so the percentiles, exact.
    Time each op alone and check its answer afterwards."""
    p = Pass()
    t_begin = perf_counter()
    while decks is None or p.decks < decks:
        for op in wl.deck(p.decks):
            before = reference_time()
            if tracer is not None:
                tracer.begin(p.attempted)
            t0 = perf_counter()
            try:
                result, err = op.run(), None
            except Exception as exc:  # an op that raises is a failed op
                result, err = None, f"raised {exc!r}"
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.finish()
            p.wall.append(dt)
            p.durations.append(to_reference(dt, before, reference_time()))
            if err is None:
                try:
                    err = op.check(result)
                except Exception as exc:
                    err = f"check raised {exc!r}"
            if err is not None:
                p.failures.append((op.label, err))
        p.decks += 1
        if decks is None and perf_counter() - t_begin >= seconds:
            break
    p.wall_s = perf_counter() - t_begin
    return p


def tail(durations: list[float], pct: int) -> tuple[float, int, int]:
    """(mean time of the ops beyond it, percentile, ops beyond it) at
    the highest percentile of the ladder, not above ``pct``, with at
    least ten ops beyond it.  Whole decks put the percentile at the edge
    between two instance sizes, where the time at the percentile is the
    slowest of a few runs of one size and jumps from run to run; the
    mean of the ops beyond it varies about half as much."""
    d = sorted(durations)
    n = len(d)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if p <= pct and (n - rank >= 10 or p == TAIL_LADDER[-1]):
            return statistics.fmean(d[rank:] or d[-1:]), p, n - rank
    raise AssertionError("unreachable")


def e2e_metrics(p: Pass, tail_pct: int, setup_s: float, rss_mb: float,
                durations: list[float] | None = None):
    """The six end-to-end metrics, over reference seconds unless other
    ``durations`` (wall seconds) are given."""
    d = p.durations if durations is None else durations
    passed = p.attempted - len(p.failures)
    value, pct, beyond = tail(d, tail_pct)
    metrics = {"setup_s": setup_s,
               "op_p50_s": statistics.median(d),
               "op_tail_s": value,
               "ops_per_s": passed / sum(d),
               "peak_rss_mb": rss_mb,
               "ok_ratio": passed / p.attempted}
    return metrics, {"tail_percentile": pct, "ops_beyond_tail": beyond}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


# --------------------------------------------------------------------------
# Set-up time, measured in fresh processes


def setup_probe(name: str, seed: int) -> None:
    """What a run does before its first timed op: imports, the first
    deck's inputs, one untimed warm-up."""
    wl = load_workload(name, seed)
    wl.deck(0)
    wl.warmup()
    print("ready", flush=True)


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes: (reference seconds, wall seconds)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES):
        before = reference_time()
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            wall.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            die(f"set-up probe failed with exit code {proc.returncode}")
        scaled.append(to_reference(wall[-1], before, reference_time()))
    return scaled, wall


# --------------------------------------------------------------------------
# Per-layer measurements of the traced run


def fresh_python(code: str) -> str:
    from clifix import child_env
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, check=True)
    return proc.stdout


def cold_probes(reps: int = 5) -> dict[str, float]:
    """Interpreter start (the floor), numpy import and the first B'
    check, each in fresh processes."""
    interp = []
    for _ in range(reps):
        t0 = perf_counter()
        fresh_python("pass")
        interp.append(perf_counter() - t0)
    timed = ("import time\nt = time.perf_counter()\n{stmt}\n"
             "print(time.perf_counter() - t)")
    numpy_s = [float(fresh_python(timed.format(stmt="import numpy")))
               for _ in range(reps)]
    bprime = [float(fresh_python(
        "from tsr import reduction as R\n"
        + timed.format(stmt="R.check_condition_B_prime('S4', 'D4', 2)")))
        for _ in range(reps)]
    return {"cli.interp_s": statistics.median(interp),
            "cli.numpy_import_s": statistics.median(numpy_s),
            "reduction.bprime_first_call_s": statistics.median(bprime)}


def cli_main_probes(shim_dir: Path) -> tuple[dict[str, float], list[float]]:
    """First in-process tsr.cli.main call per subcommand, each in a
    fresh shim process; also returns the shim's `import tsr.cli` times."""
    from clifix import CLI_COMMANDS, CliFixtures
    cli = CliFixtures(0)
    out = shim_dir / "probe.json"
    mains, imports = {}, []
    for argv in CLI_COMMANDS:
        if f"cli.main.{argv[0]}_s" in mains:
            continue
        proc = subprocess.run(cli.command(argv, out), cwd=ROOT, env=cli.env,
                              capture_output=True)
        if proc.returncode != 0:
            die(f"shim failed on {argv}: {proc.stderr[-300:]!r}")
        doc = json.loads(out.read_text())
        mains[f"cli.main.{argv[0]}_s"] = doc["main_s"]
        imports.append(doc["import_s"])
    out.unlink()
    return mains, imports


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


#: Sizes of the scaling curves: D3-C2 path edges for the reducer, and
#: D3-C2 path edges for the SNF of the Bredon psi1 (rows 3n + 3).
REDUCE_SCALING_EDGES = (40, 80, 160)
SNF_SCALING_EDGES = (16, 32, 64)


def scaling_curves(reps: int = 3) -> dict:
    import random

    import families as F
    import numpy as np
    from tsr import bredon as B, reduction as R

    def median_time(fn):
        times = []
        for _ in range(reps):
            before = reference_time()
            t0 = perf_counter()
            fn()
            times.append(to_reference(perf_counter() - t0, before, reference_time()))
        return statistics.median(times)

    rng = random.Random(0)
    red = []
    for n in REDUCE_SCALING_EDGES:
        cx = F.d3_c2_path(n, rng)
        red.append({"edges": n, "cells": len(cx.cells),
                    "reduce_s": median_time(lambda: R.reduce_complex(cx, 2))})
    snf = []
    for n in SNF_SCALING_EDGES:
        psi1 = np.array(B.bredon_complex(F.d3_c2_path(n, rng)).psi1, dtype=object)
        snf.append({"edges": n, "shape": list(psi1.shape),
                    "snf_s": median_time(lambda: B.smith_normal_form(psi1))})
    return {
        "reduction.scaling_exponent": loglog_slope(
            [r["cells"] for r in red], [r["reduce_s"] for r in red]),
        "bredon.snf_scaling_exponent": loglog_slope(
            [r["shape"][0] for r in snf], [r["snf_s"] for r in snf]),
        "curves": {"reduce_d3_c2_path": red, "snf_d3_c2_path_psi1": snf},
    }


def traced_run(wl, args) -> tuple[dict, dict, Pass]:
    """Per-layer metrics and the tracing overhead; writes the spans.
    The returned pass holds the ops of both passes, all checked."""
    from tracer import Tracer, layer_metrics, merge_raw, write_jsonl

    cli = wl.name == "cli-fixtures"
    TRACE_DIR.mkdir(exist_ok=True)
    shim_dir = TRACE_DIR / f"shim-{wl.name}-{args.seed}"
    shim_dir.mkdir(exist_ok=True)
    wl.deck(0)
    wl.warmup()
    setup_plain = perf_counter() - T_START
    plain = run_pass(wl, decks=TRACE_DECKS)
    rss_plain = peak_rss_mb(children=cli)

    tracer = Tracer()
    t0 = perf_counter()
    if cli:
        wl.shim_dir = shim_dir
    else:
        tracer.install()
    install_s = perf_counter() - t0
    traced = run_pass(wl, decks=TRACE_DECKS, tracer=None if cli else tracer)
    rss_traced = peak_rss_mb(children=cli)
    if cli:
        raw, spans, installs, op = {}, [], [], 0
        for k in range(TRACE_DECKS):
            for j in range(len(wl.deck(k))):
                doc = json.loads(wl.shim_out(k, j).read_text())
                merge_raw(raw, doc["raw"])
                base = len(spans)
                spans += [[name, start, end, parent + base if parent >= 0 else -1, op]
                          for name, start, end, parent, _ in doc["spans"]]
                installs.append(doc["install_s"])
                op += 1
        install_s = statistics.median(installs)
        wl.shim_dir = None
    else:
        tracer.uninstall()
        raw, spans = tracer.raw(), tracer.spans()

    layers = layer_metrics(raw)
    mains, imports = cli_main_probes(shim_dir)
    shutil.rmtree(shim_dir)
    layers.update(mains)
    layers["cli.import_s"] = statistics.median(imports)
    layers.update(cold_probes())
    curves = scaling_curves()
    layers["reduction.scaling_exponent"] = curves["reduction.scaling_exponent"]
    layers["bredon.snf_scaling_exponent"] = curves["bredon.snf_scaling_exponent"]
    from workloads import oracle_mismatches
    layers["reduction.oracle_mismatches"] = oracle_mismatches()

    m_plain, _ = e2e_metrics(plain, wl.tail_pct, setup_plain, rss_plain)
    m_traced, _ = e2e_metrics(traced, wl.tail_pct, setup_plain + install_s, rss_traced)
    for name in E2E_UNITS:
        layers[f"trace.overhead.{name}"] = m_traced[name] - m_plain[name]

    detail = {"scaling": curves["curves"], "untraced": m_plain, "traced": m_traced,
              "spans": len(spans)}
    header = {"workload": wl.name, "seed": args.seed, "metrics": layers, **detail}
    write_jsonl(TRACE_DIR / f"{wl.name}.jsonl", header, spans)
    return layers, detail, Pass(plain.durations + traced.durations,
                                plain.wall + traced.wall,
                                plain.failures + traced.failures)


# --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    # One CPU for the harness, its children and the reference loop, so
    # the loop measures the speed of the CPU the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = load_workload(args.workload, args.seed)
    if args.trace:
        metrics, detail, checked = traced_run(wl, args)
        units = {}
    else:
        samples, wall = measure_setup(args.workload, args.seed)
        wl.deck(0)
        wl.warmup()
        checked = run_pass(wl, seconds=args.seconds)
        rss = peak_rss_mb(children=wl.name == "cli-fixtures")
        metrics, detail = e2e_metrics(checked, wl.tail_pct,
                                      statistics.median(samples), rss)
        detail.update(
            wall_clock=e2e_metrics(checked, wl.tail_pct, statistics.median(wall),
                                   rss, durations=checked.wall)[0],
            setup_samples_s=samples, decks=checked.decks, wall_s=checked.wall_s)
        units = E2E_UNITS
    detail.update(workload=wl.name, seed=args.seed, attempted=checked.attempted,
                  failed=len(checked.failures), failures=checked.failures[:20])
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not checked.failures,
        "attempted": checked.attempted,
        "failed": len(checked.failures),
        "metrics": {k: {"value": v, "unit": units.get(k) or layer_unit(k)}
                    for k, v in metrics.items()},
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.startswith("trace.overhead."):
        return E2E_UNITS[name.removeprefix("trace.overhead.")]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_move")):
        return "ratio"
    if name.endswith("_exponent"):
        return "exponent"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
