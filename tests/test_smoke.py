"""``tsr`` end to end: each row is one fresh ``python -m tsr.cli`` process
in a new directory, where fixture names go through the bundled-fixture
lookup.  A row gives the argv, the exit code, the stdout check (None, the
exact text, or a predicate of the text and the row's generated document),
the exact stderr, the timeout, the stdin and a cap on the process's
address space in bytes (so a refused allocation fails at once, whatever
the machine's overcommit policy).  An argument ``@name`` is
``DOCUMENTS[name]``, built once per module and written into the directory.

Only the standard library and ``tsr`` are imported, so from outside the
checkout with no ``PYTHONPATH`` the rows check the installed package.
"""

import functools
import json
import resource
from collections import namedtuple

import pytest

from documents import (FIXTURES, book, circles, coprime, d3_c2_circle, d3_c2_path,
                       escaped_ids, graphfive_copies, run_cli, star, strip, wound_loop)
from tsr.bredon import bredon_complex, homology
from tsr.complexes import parse_complex, serialize_complex
from tsr.reduction import reduce_complex

DOCUMENTS = {
    "circles": lambda: circles(20_000),
    "graphfive1000": lambda: graphfive_copies(1000),
    "strip500": lambda: strip(500),
    "strip2000": lambda: strip(2000),
    "d3c2path8000": lambda: d3_c2_path(8000),
    "circle20000": lambda: d3_c2_circle(20_000),
    "escaped": escaped_ids,
    "wound100000": lambda: wound_loop(100_000),
    "wound1e12": lambda: wound_loop(10 ** 12),
    "star20000": lambda: star(20_000),
    "book20000": lambda: book(20_000),
    "coprime1000": lambda: coprime(1000),
}


@functools.cache
def text(name: str) -> str:
    return DOCUMENTS[name]()


@functools.cache
def _total(doc: str) -> list[str]:
    return [str(h) for h in homology(bredon_complex(parse_complex(doc)).chain())]


def total(out: str, doc: str) -> bool:
    # the printed total, the sum of the three block homologies, is the
    # homology of the assembled total
    if out.startswith("{"):
        return json.loads(out)["total"] == _total(doc)
    return out.splitlines()[-1] == "total: " + ", ".join(
        f"H_{i} = {h}" for i, h in enumerate(_total(doc)))


@functools.cache
def _reduced(doc: str):
    reduced, log = reduce_complex(parse_complex(doc), 2)
    return serialize_complex(reduced), log


def reduced(out: str, doc: str) -> bool:
    # the fixpoint and the log that reduce_complex gives in process
    fixpoint, log = _reduced(doc)
    if out.startswith("{"):
        return out == json.dumps({"complex": json.loads(fixpoint),
                                  "moves": [json.loads(m.to_json()) for m in log.moves]},
                                 indent=2, sort_keys=True) + "\n"
    return out == f"moves: {len(log.moves)}\n{log.to_jsonl()}log verified\n{fixpoint}"


def json_dumps(out: str, doc: str) -> bool:
    # extract prints json.dumps(indent=2) of the sorted document, in ASCII
    d = json.loads(doc)
    return out == json.dumps(dict(
        rigid=True, cells=sorted(d["cells"], key=lambda c: (c["dim"], c["id"])),
        incidences=sorted(d["incidences"], key=lambda i: (i["face"], i["coface"]))),
        indent=2) + "\n"


def shapes(least_ids, shape: str) -> str:
    # classify prints one line per component, sorted by its least id
    return "".join(f"{i}: {shape}\n" for i in sorted(least_ids))


GRAPHFIVE = FIXTURES.joinpath("graphfive.json").read_bytes()
Row = namedtuple("Row", "argv code out err timeout stdin memory",
                 defaults=(0, None, "", None, None, None))

ROWS = [
    # the subcommands on bundled fixtures, named from an empty directory
    Row(["validate", "--input", "sl3z_soule.json"], out="OK\n"),
    Row(["extract", "--prime", "2", "--input", "sl3z_soule.json"]),
    Row(["reduce", "--prime", "2", "--input", "sl3z_soule.json"]),
    Row(["classify", "--prime", "3", "--input", "sl3z_soule.json"]),
    Row(["bredon", "--input", "graphtwo.json"]),
    Row(["oracle", "--prime", "2", "--input", "graphfive.json"]),
    Row(["poincare", "--prime", "2", "--census", '{"lambda4":2}']),
    Row(["poincare", "--prime", "3", "--census", '{"lambda6":3,"mu3":2}', "--degrees", "2000"]),
    Row(["e2page", "--census", '{"beta1":2,"v":3}', "--chi-xs", "1", "--xs-rows", '{"E11":2}']),
    Row(["chenruan", "--census", "{}", "--quotient-dims", '{"0": 1}'], code=1, out="",
        err="error: --quotient-dims must be a JSON list\n"),
    # any readable path, a pipe among them; a directory is no file, neither
    # here nor among the fixtures
    Row(["validate", "--input", "/dev/stdin"], out="OK\n", stdin=GRAPHFIVE),
    Row(["bredon", "--input", "/dev/stdin"], stdin=GRAPHFIVE),
    Row(["poincare", "--prime", "2", "--census", "/dev/stdin"], stdin=b'{"lambda4":2}',
        out="P^2(t) = (-4*t^3) / (t - 1)\nq:   3 4 5 6 7 8 9 10\ndim: 4 4 4 4 4 4 4  4\n"),
    Row(["validate", "--input", "."], code=1, out="", err="error: input file not found: .\n"),
    # 20,000 circles: parsing, extraction, reduction and components are linear
    Row(["validate", "--input", "@circles"], out="OK\n", timeout=20),
    Row(["extract", "--prime", "2", "--input", "@circles"], out=json_dumps, timeout=20),
    Row(["reduce", "--prime", "2", "--input", "@circles"], out=reduced, timeout=20),
    Row(["reduce", "--json", "--prime", "2", "--input", "@circles"], out=reduced, timeout=20),
    # each circle's least id is its edge's
    Row(["classify", "--prime", "2", "--input", "@circles"], timeout=20,
        out=shapes([f"e{i}" for i in range(20_000)], "Circle")),
    # and so is the graph-of-groups reading that Bredon and the oracle share
    Row(["bredon", "--input", "@circles"], out=total, timeout=20),
    Row(["bredon", "--json", "--input", "@circles"], out=total, timeout=20),
    Row(["oracle", "--prime", "2", "--input", "@circles"], timeout=20),
    # the oracle eliminates each distinct map once, not once per degree
    Row(["oracle", "--prime", "2", "--degrees", "200", "--input", "@circles"], timeout=10),
    # each θ component's Z/2 is read off the elimination's core, not an SNF
    Row(["bredon", "--input", "@graphfive1000"], out=total, timeout=20),
    # each θ copy's least id is its edge a's
    Row(["classify", "--prime", "2", "--input", "@graphfive1000"], timeout=20,
        out=shapes([f"a_{k}" for k in range(1000)], "GraphFive")),
    # 2-cells; the elimination keeps echelon form, so its pivot rows do not fill
    Row(["bredon", "--input", "@strip500"], out=total, timeout=5),
    Row(["bredon", "--input", "@strip2000"], out=total, timeout=5),
    # 19,999 merges, 19,994 of them taking a cell an earlier one made: a
    # merged id that ends in "+" is kept, so ids, log and memory stay linear
    Row(["reduce", "--prime", "2", "--input", "@circle20000"], out=reduced, timeout=20,
        memory=300 * 2 ** 20),
    Row(["reduce", "--json", "--prime", "2", "--input", "@circle20000"], out=reduced,
        timeout=20, memory=300 * 2 ** 20),
    # the one large document with a 3-torsion block
    Row(["bredon", "--input", "@d3c2path8000"], out=total, timeout=20),
    Row(["extract", "--prime", "2", "--input", "@escaped"], out=json_dumps),
    # the 2-cell boundary walk keeps a cursor per vertex: linear in the uses
    Row(["bredon", "--input", "@wound100000"], timeout=5, out=(
        "orbit block: H_0 = Z, H_1 = Z/100000, H_2 = 0\n"
        "2-torsion block: H_0 = 0, H_1 = 0, H_2 = 0\n"
        "3-torsion block: H_0 = 0, H_1 = 0, H_2 = 0\n"
        "total: H_0 = Z, H_1 = Z/100000, H_2 = 0\n")),
    # a dense row, the hub's that sorts first or the spine's, is eliminated
    # last, against sparse pivots, instead of filling every row after it
    Row(["bredon", "--input", "@star20000"], timeout=10, out=(
        "orbit block: H_0 = Z, H_1 = 0, H_2 = 0\n"
        "2-torsion block: H_0 = Z, H_1 = 0, H_2 = 0\n"
        "3-torsion block: H_0 = Z, H_1 = 0, H_2 = 0\n"
        "total: H_0 = Z^3, H_1 = 0, H_2 = 0\n")),
    # the oracle's rank numbers the hub's column, which every row holds, last
    Row(["oracle", "--prime", "2", "--input", "@star20000", "--degrees", "5"], timeout=10,
        out="q:   3 4 5\ndim: 1 1 1\n"),
    Row(["bredon", "--input", "@book20000"], timeout=10, out=(
        "orbit block: H_0 = Z, H_1 = 0, H_2 = 0\n"
        "2-torsion block: H_0 = 0, H_1 = 0, H_2 = 0\n"
        "3-torsion block: H_0 = 0, H_1 = 0, H_2 = 0\n"
        "total: H_0 = Z, H_1 = 0, H_2 = 0\n")),
    # psi2 has content 1 and no unit entry: it is diagonalised sparsely,
    # down to one divisor of 478 digits
    Row(["bredon", "--input", "@coprime1000"], timeout=10, out=(
        f"orbit block: H_0 = Z, H_1 = Z/{3 ** 1000 - 2 ** 1000}, H_2 = 0\n"
        "2-torsion block: H_0 = 0, H_1 = 0, H_2 = 0\n"
        "3-torsion block: H_0 = 0, H_1 = 0, H_2 = 0\n"
        f"total: H_0 = Z, H_1 = Z/{3 ** 1000 - 2 ** 1000}, H_2 = 0\n")),
    # a face's uses are one list of its incidences' multiplicities: one
    # of 10^12 is refused when it is allocated, not after 10^12 appends
    Row(["bredon", "--input", "@wound1e12"], code=1, out="", err="error: out of memory\n",
        timeout=5, memory=2 ** 31),
]


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(row.argv) for row in ROWS])
def test_row(row, tmp_path):
    names = [a[1:] for a in row.argv if a.startswith("@")]
    for name in names:
        (tmp_path / name).write_text(text(name))
    cap = row.memory and (lambda: resource.setrlimit(resource.RLIMIT_AS, (row.memory,) * 2))
    code, out, err = run_cli(*(a.lstrip("@") for a in row.argv), cwd=tmp_path,
                             input=row.stdin, timeout=row.timeout, preexec_fn=cap)
    assert (code, err.decode()) == (row.code, row.err)
    if isinstance(row.out, str):
        assert out.decode() == row.out
    elif row.out:
        assert row.out(out.decode(), text(*names)), out[-300:]
