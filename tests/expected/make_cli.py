"""Regenerate cli.json: stdout, stderr and exit code of each pinned
command on each bundled fixture, of the README's census commands, of
``bredon`` on the 2-cell documents beside this file, and of one command
per kind of refusal, each run as a fresh ``tsr`` process from the
repository root.

    PYTHONPATH=src python tests/expected/make_cli.py

Every refusal exits 1 with one ``error:`` line.  No input reaches exit
2: it is only for internal invariants, so the corpus pins none.

tests/test_cli.py compares every entry; a change to any output shows as
a diff of cli.json.  It splits each key on spaces, so no argument holds
one.
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
#: Documents beside this file whose C1 faces reach the oriented boundary
#: walk: a strip of six triangles on C2 vertices and edges, and one face
#: whose boundary passes its D3 vertex twice (two triangles sharing it).
#: Their paths are relative to the repository root.
FACE_DOCUMENTS = ["tests/expected/c1_strip.json", "tests/expected/c1_bowtie.json"]
FACE_COMMANDS = [["bredon"], ["bredon", "--json"]]
#: One refusal of each kind, on the documents beside this file (a
#: non-rigid one, a repeated key, and the D2-C3-D2 and C3-D3-C3 paths,
#: whose C3 is no subgroup of D2 and D3 no subgroup of C3), on census
#: and option values, on a missing file and on absurd degree bounds.
ERROR_COMMANDS = [
    ["validate", "--input", "tests/expected/nonrigid.json"],
    ["validate", "--input", "tests/expected/twice.json"],
    ["bredon", "--input", "tests/expected/d2_c3_d2.json"],
    ["oracle", "--prime", "3", "--min-degree", "1", "--degrees", "2",
     "--input", "tests/expected/c3_d3_c3.json"],
    ["poincare", "--prime", "2", "--census", '{"lambda_4":1}'],
    ["poincare", "--prime", "2"],
    ["chenruan", "--census", "{}", "--quotient-dims", '{"0":1}'],
    ["e2page", "--census", "{}", "--chi-xs", "1", "--xs-rows", '{"BOGUS":1}'],
    ["validate", "--input", "nope.json"],
    ["oracle", "--prime", "2", "--input", "graphfive.json", "--degrees", "100000000000000"],
    ["poincare", "--prime", "2", "--census", '{"lambda4":1}', "--degrees", "100000000000000"],
]


def argvs() -> list[list[str]]:
    """The argv of every corpus entry, in the corpus's order."""
    runs = [[*cmd, "--input", name] for name in FIXTURES for cmd in COMMANDS]
    faces = [[*cmd, "--input", path] for path in FACE_DOCUMENTS for cmd in FACE_COMMANDS]
    return runs + CENSUS_COMMANDS + faces + ERROR_COMMANDS


def main() -> None:
    corpus = {}
    for argv in argvs():
        proc = subprocess.run([sys.executable, "-m", "tsr.cli", *argv],
                              capture_output=True, text=True, cwd=ROOT)
        corpus[" ".join(argv)] = {"exit": proc.returncode, "stdout": proc.stdout,
                                  "stderr": proc.stderr}
    out = Path(__file__).with_name("cli.json")
    out.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
