"""Regenerate cli.json: stdout, stderr and exit code of each pinned
command on each bundled fixture, each run as a fresh ``tsr`` process.

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
    ["oracle", "--prime", p] for p in ("2", "3")]


def main() -> None:
    corpus = {}
    for name in FIXTURES:
        for cmd in COMMANDS:
            argv = [*cmd, "--input", name]
            proc = subprocess.run([sys.executable, "-m", "tsr.cli", *argv],
                                  capture_output=True, text=True, cwd=ROOT)
            corpus[" ".join(argv)] = {"exit": proc.returncode, "stdout": proc.stdout,
                                      "stderr": proc.stderr}
    out = Path(__file__).with_name("cli.json")
    out.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
