"""The cli-fixtures workload: each op is a fresh `tsr` process.

This module imports nothing from tsr, so the harness process does not
pay for the library it times in child processes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from op import Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = ROOT / "tests" / "expected"


def child_env() -> dict:
    """The inherited environment with the checkout's sources first on
    PYTHONPATH; replacing the whole environment would drop the rest."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


CLI_COMMANDS = [
    # the twelve acceptance-criterion-10 commands
    ["validate", "--input", "sl3z_soule.json"],
    ["extract", "--prime", "2", "--input", "sl3z_soule.json"],
    ["reduce", "--prime", "2", "--input", "sl3z_soule.json"],
    ["reduce", "--prime", "2", "--input", "path_c2_d3_c2.json", "--json"],
    ["poincare", "--prime", "3", "--census", '{"λ6":1,"μ3":2}', "--degrees", "12"],
    ["poincare", "--prime", "2", "--census", '{"lambda4":2}', "--json"],
    ["bredon", "--input", "graphtwo.json"],
    ["khomology", "--census", '{"z2":1,"lambda4":1,"beta1":1}'],
    ["chenruan", "--census", '{"lambda4":1}', "--real", "--quotient-dims", "[1]"],
    ["e2page", "--census", '{"beta1":1,"v":1}', "--chi-xs", "1"],
    ["oracle", "--prime", "2", "--input", "graphfive.json", "--degrees", "8"],
    ["classify", "--prime", "2", "--input", "graphfive.json"],
    # plus two more reductions pinned in tests/expected
    ["reduce", "--prime", "2", "--input", "sl3z_intermediate.json"],
    ["reduce", "--prime", "3", "--input", "bianchi_edge3.json"],
]

#: stdout of each command as the benchmark was written; a change to any
#: of them is a change of behaviour, not of speed.
CLI_EXPECTED = BENCH / "cli_expected.json"


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def _expected_reduction(argv: list[str]) -> tuple[str, str]:
    """(log, reduced complex) pinned in tests/expected for a reduce argv."""
    name = argv[argv.index("--input") + 1].removesuffix(".json")
    ell = argv[argv.index("--prime") + 1]
    return ((EXPECTED / f"{name}.log.p{ell}.jsonl").read_text(),
            (EXPECTED / f"{name}.reduced.p{ell}.json").read_text())


def check_reduce(argv: list[str], out: str) -> str | None:
    """Compare `tsr reduce` stdout with tests/expected."""
    log, reduced = _expected_reduction(argv)
    if "--json" in argv:
        want = {"complex": json.loads(reduced),
                "moves": [json.loads(line) for line in log.splitlines()]}
        same = json.loads(out) == want
    else:
        same = out == f"moves: {len(log.splitlines())}\n{log}log verified\n{reduced}"
    return None if same else "reduce output differs from tests/expected"


class CliFixtures:
    """Each op is a fresh `python -m tsr.cli ...` process: the wait a
    user sees for one command, cold start included.  In the traced run
    each op is a fresh cli_shim.py process instead, which writes its
    timings and spans to ``shim_out(k, j)``."""

    name = "cli-fixtures"
    tail_pct = 75

    def __init__(self, seed: int):
        self.seed = seed
        self.pinned = json.loads(CLI_EXPECTED.read_text())
        self.env = child_env()
        self.shim_dir: Path | None = None

    def warmup(self) -> None:
        """None: users pay the cold start on every command."""

    def shim_out(self, k: int, j: int) -> Path:
        return self.shim_dir / f"deck{k}-op{j}.json"

    def command(self, argv: list[str], out: Path | None = None) -> list[str]:
        if out is None:
            return [sys.executable, "-m", "tsr.cli", *argv]
        return [sys.executable, str(BENCH / "cli_shim.py"), str(out), *argv]

    def _check(self, argv):
        def check(proc):
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr[-200:]!r}"
            out = proc.stdout.decode()
            if out != self.pinned[cli_key(argv)]:
                return "stdout differs from the pinned output"
            return check_reduce(argv, out) if argv[0] == "reduce" else None
        return check

    def deck(self, k: int) -> list[Op]:
        order = list(range(len(CLI_COMMANDS)))
        random.Random(f"{self.seed}:{self.name}:{k}").shuffle(order)
        ops = []
        for j, i in enumerate(order):
            argv = CLI_COMMANDS[i]
            out = self.shim_out(k, j) if self.shim_dir else None
            cmd = self.command(argv, out)
            ops.append(Op(cli_key(argv),
                          lambda cmd=cmd: subprocess.run(
                              cmd, cwd=ROOT, env=self.env, capture_output=True),
                          self._check(argv)))
        return ops
