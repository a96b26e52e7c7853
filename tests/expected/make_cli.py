"""Regenerate cli.json: stdout, stderr and exit code of each pinned
command on each bundled fixture, and of the README's census commands,
each run as a fresh ``tsr`` process.

    PYTHONPATH=src python tests/expected/make_cli.py

tests/test_cli.py compares every entry; a change to any output shows as
a diff of cli.json.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = sorted(p.name for p in (ROOT / "src" / "tsr" / "fixtures").glob("*.json"))
COMMANDS = [["validate"]] + [[cmd, "--prime", p] for cmd in ("extract", "reduce", "classify")
                             for p in ("2", "3")] + [["bredon"]] + [
    ["oracle", "--prime", p] for p in ("2", "3")] + [
    [cmd, "--prime", p, "--json"] for cmd in ("reduce", "oracle") for p in ("2", "3")] + [
    ["bredon", "--json"]]
#: The census commands of the README, whose arguments hold no spaces.
CENSUS_COMMANDS = [
    ["poincare", "--prime", "3", "--census", '{"λ6":1,"μ3":2}', "--degrees", "10"],
    ["khomology", "--census", '{"z2":1,"lambda4":1,"lambda6":1,"lambda6star":1,"beta1":1}'],
    ["chenruan", "--census", '{"λ4":2,"λ4*":1,"λ6":1,"λ6*":1,"μ2":2}',
     "--quotient-dims", "[1,0,0]"],
    ["e2page", "--census", '{"beta1":1,"v":1,"c":0}', "--chi-xs", "1"],
]


def main() -> None:
    corpus = {}
    runs = [[*cmd, "--input", name] for name in FIXTURES for cmd in COMMANDS]
    for argv in runs + CENSUS_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "tsr.cli", *argv],
                              capture_output=True, text=True, cwd=ROOT)
        corpus[" ".join(argv)] = {"exit": proc.returncode, "stdout": proc.stdout,
                                  "stderr": proc.stderr}
    out = Path(__file__).with_name("cli.json")
    out.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
