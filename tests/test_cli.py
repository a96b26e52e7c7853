"""CLI behaviour: commands, exit codes, determinism, JSON round trips."""

import ast
import builtins
import contextlib
import errno
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr.cli import main
from tsr.complexes import Incidence, OrbitCell, OrbitComplex, parse_complex, serialize_complex
from tsr.reduction import reduce_complex
from tsr.series import SubgroupCensus

from documents import deep_json, non_rigid, run_cli, two_vertex_path, wound_loop

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "tsr" / "fixtures"


def test_validate_fixture():
    code, out, _ = run_cli("validate", "--input", "sl3z_soule.json")
    assert code == 0
    assert out.decode().strip() == "OK"


def test_validate_missing_file():
    code, _, err = run_cli("validate", "--input", "nope.json")
    assert code == 1
    assert b"not found" in err


def _raw_e_document(tmp_path):
    """A document whose one cell id is a raw é, written as UTF-8."""
    doc = tmp_path / "doc.json"
    doc.write_bytes(json.dumps({"rigid": True, "cells": [
        {"id": "é", "dim": 0, "stabilizer": "C2", "self_identified": False}],
        "incidences": []}, ensure_ascii=False).encode())
    return doc


def _stdout_in_any_locale(argv) -> bytes:
    """The stdout of a command that exits 0 with an empty stderr, and with
    the same stdout, under the C locale and the default one."""
    c_locale = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    runs = [run_cli(*argv, env=env) for env in (c_locale, os.environ)]
    assert [(code, err) for code, _, err in runs] == [(0, b"")] * 2, argv
    assert runs[0][1] == runs[1][1], argv
    return runs[0][1]


def test_files_are_read_as_utf8_in_any_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259, section 8.1): a raw é in a document's id and a
    # Greek key in a census file read alike under the C locale
    census = tmp_path / "census.json"
    census.write_bytes('{"λ4": 1}'.encode())
    _stdout_in_any_locale(["extract", "--prime", "2", "--input", str(_raw_e_document(tmp_path))])
    _stdout_in_any_locale(["poincare", "--prime", "2", "--census", str(census)])


def test_stdout_is_utf8_in_any_locale(tmp_path):
    # the reports' ⊕ and a raw é id print alike under the C locale, where
    # the locale's ascii codec refused them
    assert "⊕" in _stdout_in_any_locale(["bredon", "--input", "graphfive.json"]).decode()
    assert "⊕" in _stdout_in_any_locale(["khomology", "--census", '{"d2":2}']).decode()
    out = _stdout_in_any_locale(["classify", "--prime", "2",
                                 "--input", str(_raw_e_document(tmp_path))])
    assert out.decode() == "é: Point\n"


def test_unknown_flag_exits_one():
    code, _, err = run_cli("validate", "--wat")
    assert code == 1


def test_schema_error_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rigid": true}')
    code, _, err = run_cli("validate", "--input", str(bad))
    assert code == 1
    assert b"error" in err


def test_reduce_text_output():
    code, out, _ = run_cli("reduce", "--prime", "2",
                           "--input", "path_c2_d3_c2.json")
    assert code == 0
    text = out.decode()
    assert "moves: 1" in text
    assert "log verified" in text
    assert '"stabilizer": "C2"' in text


def test_reduce_json_roundtrip():
    code, out, _ = run_cli("reduce", "--prime", "2", "--json",
                           "--input", "path_c2_d3_c2.json")
    assert code == 0
    doc = json.loads(out)
    cx = parse_complex(json.dumps(doc["complex"]))
    assert len(cx.cells) == 3
    assert doc["moves"][0]["kind"] == "merge"


#: Ids that need JSON escapes (a lone surrogate among them), non-ASCII
#: and astral ones, and "+", with which merged ids end.
_IDS = st.text(st.sampled_from('"\\\x01\xe9\u2028\U0001f600\ud800+ab'), min_size=1, max_size=4)


@st.composite
def circle_beside_path(draw) -> OrbitComplex:
    """A D3-C2 circle of 2 to 5 edges beside a D3-C2 path of 1 to 4, its
    ids drawn from _IDS: reduced at ell = 2, the path is cut and the
    circle merged into one loop."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    ids = draw(st.lists(_IDS, min_size=2 * (n + m) + 1, max_size=2 * (n + m) + 1, unique=True))
    vs, es = ids[:n + m + 1], ids[n + m + 1:]
    return OrbitComplex(
        tuple(OrbitCell(v, 0, "D3") for v in vs) + tuple(OrbitCell(e, 1, "C2") for e in es),
        tuple(Incidence(vs[(k + t) % n], es[k]) for k in range(n) for t in (0, 1))
        + tuple(Incidence(vs[k + t], es[k]) for k in range(n, n + m) for t in (0, 1)))


@settings(max_examples=100, deadline=None)
@given(circle_beside_path())
def test_reduce_json_writes_the_bytes_of_json_dumps(fuzz_input, cx):
    # reduce --json writes its document from texts; json.dumps of the
    # parsed complex and moves is the reference
    reduced, log = reduce_complex(cx, 2)
    assert {m.kind for m in log.moves} == {"cut", "merge"}
    fuzz_input.write_text(serialize_complex(cx))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["reduce", "--json", "--prime", "2", "--input", str(fuzz_input)]) == 0
    assert out.getvalue() == json.dumps({
        "complex": json.loads(serialize_complex(reduced)),
        "moves": [json.loads(m.to_json()) for m in log.moves]}, indent=2, sort_keys=True) + "\n"


def test_poincare_inline_census():
    code, out, _ = run_cli("poincare", "--prime", "3",
                           "--census", '{"λ6":1,"μ3":2}', "--degrees", "10")
    assert code == 0
    text = out.decode()
    assert "q:" in text and "dim:" in text
    assert "2 1 0 1" in " ".join(text.split())


def test_poincare_census_file(tmp_path):
    census = tmp_path / "census.json"
    census.write_text('{"lambda4": 1}')
    code, out, _ = run_cli("poincare", "--prime", "2",
                           "--census", str(census), "--degrees", "6")
    assert code == 0
    assert "(-2*t^3) / (t - 1)" in out.decode()


def test_poincare_bad_census():
    code, _, err = run_cli("poincare", "--prime", "2",
                           "--census", '{"mu3": 1}')
    assert code == 1


def test_bredon_report():
    code, out, _ = run_cli("bredon", "--input", "graphfive.json")
    assert code == 0
    text = out.decode()
    assert "2-torsion block: H_0 = Z^3 ⊕ Z/2" in text


def test_khomology_report():
    code, out, _ = run_cli(
        "khomology", "--census",
        '{"z2":1,"lambda4":1,"lambda6":1,"lambda6star":1,"beta1":1}')
    assert code == 0
    assert out.decode() == "K_0 = Z^3\nK_1 = Z^3\n"


def test_khomology_large_prime_torsion():
    # the torsion chain is normalised by gcd and lcm, not by factoring, so
    # a large prime coefficient returns at once
    code, out, err = run_cli("khomology", "--census", "{}", "--h1-torsion", "1000000000000000003",
                             timeout=20)
    assert code == 0, err
    assert out == "K_0 = Z\nK_1 = Z/1000000000000000003\n".encode()


@pytest.mark.parametrize("flags", [
    ["--census", '{"beta1": -3}'],
    ["--h1-torsion=-2,0,1"],
    ["--h1-torsion=abc"],
])
def test_khomology_invalid_h1_exits_one(flags):
    # a --census in flags comes later, so it replaces the valid one
    code, out, err = run_cli("khomology", "--census", '{"beta1":2}', *flags)
    lines = err.decode().splitlines()
    assert code == 1, err.decode()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    if flags == ["--h1-torsion=abc"]:  # a coefficient that is no integer names its option
        assert lines == ["error: --h1-torsion must be comma-separated integers"]
    assert out == b""


def test_chenruan_real():
    code, out, _ = run_cli("chenruan", "--census", '{"lambda4":1}', "--real",
                           "--quotient-dims", "[1]")
    assert code == 0
    assert "d=0: 2" in out.decode() and "d=1: 1" in out.decode()


def test_e2page():
    code, out, _ = run_cli("e2page", "--census", '{"beta1":2,"v":3}',
                           "--chi-xs", "1")
    assert code == 0
    assert "a3 = 4" in out.decode()


DEEP_OBJECT = '{"a":' * 3000 + "1" + "}" * 3000


@pytest.mark.parametrize("argv", [
    ["e2page", "--chi-xs", "1", "--xs-rows", "[1]"],
    ["e2page", "--chi-xs", "1", "--xs-rows", '{"E01": "x"}'],
    ["e2page", "--chi-xs", "1", "--xs-rows", '{"E01": 1.5}'],
    ["e2page", "--chi-xs", "1", "--xs-rows", '{"E01": -1}'],
    ["e2page", "--chi-xs", "1", "--xs-rows", '{"E11": true}'],
    ["e2page", "--chi-xs", "1", "--xs-rows", '{"BOGUS": 3}'],
    ["e2page", "--chi-xs", "1", "--xs-rows", '{"E01": 1, "E01": 2}'],
    ["chenruan", "--quotient-dims", "[[1]]"],
    ["chenruan", "--quotient-dims", '{"0": 1.5}'],
    ["chenruan", "--quotient-dims", '{"x": 1}'],
    ["chenruan", "--quotient-dims", '{"0": 1, "00": 2}'],
    ["chenruan", "--quotient-dims", '{"0": 1, "0": 2}'],
    ["chenruan", "--quotient-dims", '{"\u0663": 1}'],
    ["chenruan", "--quotient-dims", '{"\uff11": 1}'],
    ["poincare", "--prime", "2", "--census", "[1]"],
    ["poincare", "--prime", "2", "--census", DEEP_OBJECT],
    ["chenruan", "--quotient-dims", DEEP_OBJECT],
    ["e2page", "--chi-xs", "1", "--xs-rows", DEEP_OBJECT],
    ["chenruan", "--quotient-dims", '{"0": 1}'],  # only a list is read
])
def test_malformed_json_option_exits_one(argv):
    # a --census in argv comes later, so it replaces the valid one
    code, out, err = run_cli(argv[0], "--census", '{"lambda4":1}', *argv[1:])
    lines = err.decode().splitlines()
    assert code == 1, err.decode()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert b"Traceback" not in err and b"not found" not in err and out == b""


def test_deeply_nested_document_exits_one(tmp_path):
    (tmp_path / "deep.json").write_text(deep_json())
    code, out, err = run_cli("validate", "--input", str(tmp_path / "deep.json"))
    assert code == 1 and out == b""
    assert err.decode().splitlines() == ["error: invalid JSON: nested too deeply"]


@pytest.mark.parametrize("argv", [
    ["reduce", "--prime", "2", "--input", "sl3z_soule.json"],
    ["classify", "--prime", "2", "--input", "graphfive.json"],
    ["extract", "--prime", "2", "--input", "sl3z_soule.json"],
])
def test_a_command_checks_its_complex_once(monkeypatch, capsys, argv):
    # the parsed document; the torsion subcomplex, its components and the
    # reduction results wrap indices that are not checked again
    calls = []
    init = OrbitComplex.__init__

    def counted(self, *args):
        calls.append(self)
        init(self, *args)

    monkeypatch.setattr(OrbitComplex, "__init__", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_reduce_exits_two_when_the_replay_diverges(monkeypatch, capsys):
    # a replay one multiplicity off the fixpoint compares unequal
    import tsr.reduction

    def replay(cx, log, ell):
        reduced = tsr.reduction.reduce_complex(cx, ell)[0]
        inc = reduced.incidences[0]
        return OrbitComplex(reduced.cells, (inc._replace(multiplicity=inc.multiplicity + 1),)
                            + reduced.incidences[1:])

    monkeypatch.setattr(tsr.reduction, "replay", replay)
    assert main(["reduce", "--prime", "2", "--input", "sl3z_soule.json"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "internal invariant failure: "
                              "reduction log replay diverged from the fixpoint\n")


@pytest.mark.parametrize("inline", [True, False])
def test_repeated_census_key_exits_one(tmp_path, inline):
    census = '{"lambda4": 1, "lambda4": 2}'
    if not inline:
        (tmp_path / "census.json").write_text(census)
        census = str(tmp_path / "census.json")
    code, out, err = run_cli("poincare", "--prime", "2", "--census", census)
    lines = err.decode().splitlines()
    assert code == 1, err.decode()
    assert len(lines) == 1 and lines[0].startswith("error:") and "twice" in lines[0], lines
    assert out == b""


GREEK_CENSUS_KEYS = ["λ4", "λ4*", "λ6", "λ6*", "μ2", "μ3", "μT", "β1", "β2"]
DROPPED_CENSUS_KEYS = ["lambda_4", "lambda_4*", "λ4star", "lambda_6", "lambda_6*",
                       "λ6star", "mu_2", "mu_3", "mu_T", "μ_T", "β¹", "β²"]


@pytest.mark.parametrize("key", list(SubgroupCensus.FIELDS)
                         + GREEK_CENSUS_KEYS + DROPPED_CENSUS_KEYS)
def test_census_spellings(capsys, key):
    # the field names and nine Greek spellings are accepted; nothing else is
    code = main(["poincare", "--prime", "2", "--census", json.dumps({key: 0})])
    out, err = capsys.readouterr()
    if key in DROPPED_CENSUS_KEYS:
        assert (code, out, err) == (1, "", f"error: unknown census field {key!r}\n")
    else:
        assert (code, err) == (0, ""), err


def test_census_is_required(capsys):
    assert main(["poincare", "--prime", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line == "error: the following arguments are required: --census"


def test_repeated_document_key_exits_one(tmp_path):
    (tmp_path / "c.json").write_text('{"rigid": true, "rigid": false, "cells": [], '
                                     '"incidences": []}')
    code, out, err = run_cli("validate", "--input", str(tmp_path / "c.json"))
    assert code == 1 and out == b""
    assert err.decode().splitlines() == ["error: key 'rigid' appears twice"]


def test_bredon_refuses_a_three_cell(tmp_path, capsys):
    # the Bredon complex has chains in dimensions 0, 1 and 2 only
    (tmp_path / "c.json").write_text('{"rigid": true, "cells": [{"id": "t", "dim": 3, '
                                     '"stabilizer": "C1", "self_identified": false}], '
                                     '"incidences": []}')
    assert main(["bredon", "--input", str(tmp_path / "c.json")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["error: complex dimension must be <= 2"]


@pytest.mark.parametrize("tags,argv,message", [
    # the oracle runs on the 3-torsion subcomplex, which keeps D3 in C3;
    # H^1 and H^2 of D3 vanish at ell = 3, so only the table refuses it
    (("C3", "D3"), ["oracle", "--prime", "3", "--min-degree", "1", "--degrees", "2"],
     "error: unsupported inclusion 'D3' in 'C3'"),
    (("D2", "C3"), ["bredon"], "error: unsupported inclusion 'C3' in 'D2'"),
])
def test_non_inclusion_exits_one(tmp_path, tags, argv, message):
    (tmp_path / "c.json").write_text(two_vertex_path(*tags))
    code, out, err = run_cli(*argv, "--input", str(tmp_path / "c.json"))
    assert code == 1 and out == b""
    assert err.decode().splitlines() == [message]


@pytest.mark.parametrize("argv", [
    ["reduce", "--prime", "2", "--input", "sl3z_soule.json"],
    ["poincare", "--prime", "3", "--census", '{"lambda6":3,"mu3":2}', "--degrees", "2000"],
])
def test_closed_stdout_exits_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "tsr.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode in (0, 1, 2)
    assert b"Traceback" not in proc.stderr and len(proc.stderr.splitlines()) <= 1, proc.stderr


def test_oracle_command():
    code, out, _ = run_cli("oracle", "--prime", "3",
                           "--input", "bianchi_edge3.json", "--degrees", "6")
    assert code == 0
    assert "2 1 0 1" in " ".join(out.decode().split())


def test_classify_command():
    code, out, _ = run_cli("classify", "--prime", "2", "--input", "graphtwo.json")
    assert code == 0
    assert "GraphTwo" in out.decode()


def test_golden_corpus(capsys, monkeypatch):
    # every entry of tests/expected/cli.json, regenerated by make_cli.py;
    # the paths of the documents beside it are relative to the repository
    # root; 12 of the entries are refusals, each exit 1
    corpus = json.loads((Path(__file__).parent / "expected" / "cli.json").read_text())
    assert len(corpus) == 167
    monkeypatch.chdir(FIXTURES.parents[2])
    wrong = []
    for command, expected in corpus.items():
        code = main(command.split())
        out, err = capsys.readouterr()
        if {"exit": code, "stdout": out, "stderr": err} != expected:
            wrong.append(command)
    assert wrong == []


def test_golden_corpus_holds_the_generators_commands():
    # make_cli.py imported, not run: a command added to it but never
    # regenerated into cli.json, or one left behind there, shows here
    expected = Path(__file__).parent / "expected"
    spec = importlib.util.spec_from_file_location("make_cli", expected / "make_cli.py")
    make_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_cli)
    corpus = json.loads((expected / "cli.json").read_text(encoding="utf-8"))
    assert [" ".join(argv) for argv in make_cli.argvs()] == list(corpus)


def test_main_callable_directly(capsys):
    assert main(["validate", "--input", str(FIXTURES / "graphfive.json")]) == 0
    assert capsys.readouterr().out.strip() == "OK"


@pytest.mark.parametrize("argv", [
    ["validate", "--input", "a" * 5000],
    ["poincare", "--prime", "2", "--census", "a" * 5000],
], ids=["input", "census"])
def test_os_error_exits_one_with_one_line(capsys, argv):
    # a path longer than any file name makes open raise OSError
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: [Errno {errno.ENAMETOOLONG}] ")


@pytest.mark.parametrize("degrees,message", [
    (10**14, "error: out of memory"),
    (10**19, "error: Python int too large to convert to C ssize_t"),
])
def test_absurd_degree_bound_exits_one_with_one_line(capsys, degrees, message):
    # the oracle sorts the degrees it is given: a list of 10^14 of them
    # cannot be allocated, and 10^19 is no list length at all
    argv = ["oracle", "--prime", "2", "--input", "graphfive.json", "--degrees", str(degrees)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_face_multiplicity_past_a_list_length_exits_one_with_one_line(capsys, tmp_path):
    # a face's uses are one list: a multiplicity that no list length holds
    # is refused before anything is allocated (10^12 is the smoke row's
    # out-of-memory case, run there as a process with a capped address space)
    path = tmp_path / "wound.json"
    path.write_text(wound_loop(10 ** 20))
    assert main(["bredon", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: cannot fit 'int' into an index-sized integer"]


def test_non_rigid_document_is_refused_by_every_command(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(non_rigid("graphfive.json"))
    for argv in (["validate"], ["extract", "--prime", "2"], ["reduce", "--prime", "2"],
                 ["classify", "--prime", "2"], ["bredon"], ["oracle", "--prime", "2"]):
        code, out, err = run_cli(*argv, "--input", str(path))
        assert (code, out) == (1, b""), argv
        assert err.decode().splitlines() == ["error: $.rigid: rigid must be true"], argv


def test_block_split_error_exits_two(monkeypatch, capsys):
    import tsr.bredon

    def fail(bc):
        raise tsr.bredon.BlockSplitError("not block diagonal")

    monkeypatch.setattr(tsr.bredon, "split_blocks", fail)
    assert main(["bredon", "--input", "graphtwo.json"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["internal invariant failure: not block diagonal"]


def test_extract_outputs_canonical_json():
    code, out, _ = run_cli("extract", "--prime", "3",
                           "--input", "path_c2_d3_c2.json")
    assert code == 0
    cx = parse_complex(out.decode())
    assert [(c.id, c.stabilizer) for c in cx.cells] == [("v2", "D3")]


def test_extract_takes_no_json_flag(capsys):
    # its output is JSON already
    assert main(["extract", "--json", "--prime", "2", "--input", "graphtwo.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: unrecognized arguments: --json"]


#: Modules no tsr process needs: numpy left the runtime for its import
#: time, dataclasses would pull in inspect, ast, dis and tokenize, and
#: the records are collections.namedtuple classes, so typing is not needed.
UNUSED_MODULES = ("numpy", "dataclasses", "inspect", "typing")

#: Nor does a cold CLI run load pathlib: files are read with os and open.
#: argparse itself loads shutil and locale on every run (CPython 3.11:
#: each add_argument builds a HelpFormatter to check its metavar, and
#: the first translated message makes gettext import locale).
CLI_UNUSED_MODULES = UNUSED_MODULES + ("pathlib",)


def _bare_python(code, *args):
    """Run code in a fresh ``python -S`` process, with the directory that
    holds tsr first on its path: without site, no .pth file imports a
    module (typing among them) before tsr starts."""
    setup = f"import sys; sys.path.insert(0, {str(FIXTURES.parents[1])!r})\n"
    return subprocess.run([sys.executable, "-S", "-c", setup + code, *args],
                          capture_output=True, text=True)


def test_runtime_does_not_import_numpy():
    # the module names come from a glob: pkgutil.iter_modules imports inspect
    proc = _bare_python(
        "import importlib, pathlib, tsr\n"
        "names = [p.stem for p in pathlib.Path(tsr.__file__).parent.glob('*.py')\n"
        "         if p.stem != '__init__']\n"
        "for name in names:\n"
        "    importlib.import_module('tsr.' + name)\n"
        f"print(len(names), *(m in sys.modules for m in {UNUSED_MODULES}))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["7", "False", "False", "False", "False"]


def _modules_after(argv):
    """The tsr modules, and those of CLI_UNUSED_MODULES, loaded in a
    fresh process by main(argv)."""
    proc = _bare_python(
        "import json\n"
        "from tsr.cli import main\n"
        "try:\n"
        "    main(json.loads(sys.argv[1]))\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('tsr.')"
        f" or m in {CLI_UNUSED_MODULES})), file=sys.stderr)\n", json.dumps(argv))
    return set(json.loads(proc.stderr.splitlines()[-1]))


@pytest.mark.parametrize("argv,absent", [
    (["--version"], {"groups", "series", "bredon", "_modp"}),
    (["validate", "--input", "sl3z_soule.json"], {"groups", "series", "bredon", "_modp"}),
    (["extract", "--prime", "2", "--input", "sl3z_soule.json"],
     {"groups", "series", "bredon", "_modp"}),
    (["classify", "--prime", "2", "--input", "graphfive.json"],
     {"groups", "series", "bredon", "_modp"}),
    (["reduce", "--prime", "2", "--input", "sl3z_soule.json"],
     {"groups", "series", "bredon", "_modp"}),
    (["poincare", "--prime", "2", "--census", '{"lambda4":2}'],
     {"groups", "reduction", "bredon", "_modp"}),
    (["e2page", "--census", '{"beta1":1,"v":1}', "--chi-xs", "1"],
     {"groups", "reduction", "bredon", "_modp"}),
    (["oracle", "--prime", "2", "--input", "graphfive.json"],
     {"groups", "reduction", "bredon"}),
    (["bredon", "--input", "graphtwo.json"], {"groups", "series", "reduction"}),
    (["khomology", "--census", '{"beta1":2}'], {"groups"}),
    (["chenruan", "--census", '{"lambda4":1}', "--quotient-dims", "[1]"], {"groups"}),
])
def test_subcommand_imports_only_what_it_runs(argv, absent):
    loaded = _modules_after(argv)
    assert "tsr.cli" in loaded
    assert not loaded & {f"tsr.{name}" for name in absent}, loaded
    assert not loaded & set(CLI_UNUSED_MODULES), loaded


def test_bredon_import_loads_no_fractions():
    # the representation blocks are pinned integers: no Q(w) arithmetic
    code = ("import sys, tsr.bredon\n"
            "print(sorted(m for m in ('fractions', 'tsr.groups', 'tsr.series', 'dataclasses',"
            " 'inspect')"
            " if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _module_bindings(tree: ast.Module) -> set[str]:
    """Builtins and the names a module binds at its top level, by an
    import (one under ``if TYPE_CHECKING:`` counts), a def or an
    assignment."""
    names, stack = set(dir(builtins)), list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, ast.If):
            stack += node.body + node.orelse
    return names


def _annotations(tree: ast.Module):
    """(owner, annotation) for every function annotation and every
    class-field annotation; string annotations are parsed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            args = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
            anns = [x.annotation for x in args if x is not None] + [node.returns]
        elif isinstance(node, ast.ClassDef):
            anns = [s.annotation for s in node.body if isinstance(s, ast.AnnAssign)]
        else:
            continue
        for ann in anns:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                ann = ast.parse(ann.value, mode="eval").body
            if ann is not None:
                yield node.name, ann


def test_annotations_name_only_module_level_bindings():
    # typing.get_type_hints resolves annotations in the module's globals
    unbound = []
    for path in sorted(FIXTURES.parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = _module_bindings(tree)
        unbound += [(path.stem, owner, n.id) for owner, ann in _annotations(tree)
                    for n in ast.walk(ann) if isinstance(n, ast.Name) and n.id not in bound]
    assert unbound == []


# --------------------------------------------------------------------------
# Fuzzing main() in process

FIXTURE_DOCS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
CENSUS_FIELDS = list(SubgroupCensus.FIELDS)
#: Values a mutated field or a census entry may take: wrong types, small
#: integers of either sign, catalog tags and unknown strings.
JUNK = st.sampled_from([None, True, False, -1, 0, 1, 2, 3, 1.5, [], {}, [1],
                        "C1", "C2", "C3", "D2", "D3", "A4", "S4", "X", ""])


@st.composite
def mutated_documents(draw):
    """A bundled fixture with at most one field of the document, of a
    cell or of an incidence dropped, set to junk or to another cell's id."""
    doc = json.loads(json.dumps(draw(st.sampled_from(FIXTURE_DOCS))))
    part = draw(st.sampled_from(("cells", "incidences", "document")))
    record = doc if part == "document" or not doc[part] else draw(st.sampled_from(doc[part]))
    key = draw(st.sampled_from(sorted(record) + ["extra"]))
    action = draw(st.sampled_from(("junk", "drop", "id", "keep")))
    if action == "drop":
        record.pop(key, None)
    elif action == "junk":
        record[key] = draw(JUNK)
    elif action == "id":
        record[key] = draw(st.sampled_from([c["id"] for c in doc["cells"]] or [""]))
    return json.dumps(doc)


def json_options():
    """Inline JSON option strings: objects, lists and scalars of junk,
    with census field names as keys, and text that is no JSON."""
    keys = st.sampled_from(CENSUS_FIELDS + ["E01", "E11", "E03", "E13", "H2Xsprime",
                                            "0", "1", "2", "x", "λ6", "μ3"])
    docs = st.one_of(st.dictionaries(keys, JUNK, max_size=4), st.lists(JUNK, max_size=3), JUNK)
    return st.one_of(docs.map(json.dumps), st.sampled_from(["", "{", "[1", "nope"]))


@st.composite
def cli_argvs(draw, path):
    """argv for one subcommand, with its options drawn from valid and
    invalid values, at times with an option left out or one too many."""
    cmd = draw(st.sampled_from(("validate", "extract", "reduce", "poincare", "bredon",
                                "khomology", "chenruan", "e2page", "oracle", "classify")))
    small = st.integers(-3, 12).map(str)
    options = {"--json": None}
    if cmd in ("validate", "extract", "reduce", "bredon", "oracle", "classify"):
        options["--input"] = path
    if cmd in ("extract", "reduce", "poincare", "oracle", "classify"):
        options["--prime"] = draw(st.sampled_from(("2", "3", "5", "x"))
                                  if draw(st.integers(0, 9)) == 9 else st.sampled_from(("2", "3")))
    if cmd in ("poincare", "khomology", "chenruan", "e2page"):
        census = st.dictionaries(st.sampled_from(CENSUS_FIELDS), st.integers(0, 3), max_size=5)
        options["--census"] = draw(st.one_of(census.map(json.dumps), json_options()))
    if cmd in ("poincare", "oracle"):
        options["--degrees"] = draw(small)
    if cmd == "oracle":
        options["--min-degree"] = draw(small)
    if cmd == "khomology":
        options["--h1-torsion"] = draw(st.lists(small, max_size=3).map(",".join))
    if cmd == "chenruan":
        options["--quotient-dims"] = draw(json_options())
        options["--real"] = None
    if cmd == "e2page":
        options["--chi-xs"] = draw(small)
        options["--xs-rows"] = draw(json_options())
    argv = [cmd]
    for flag, value in options.items():
        if draw(st.integers(0, 9)) == 9:  # left out
            continue
        if value is None:
            if draw(st.booleans()):
                argv.append(flag)
        else:
            argv += [flag, value]
    if draw(st.integers(0, 19)) == 19:
        argv.append(draw(st.sampled_from(("--wat", "--prime", "--degrees=x"))))
    return argv


@pytest.fixture(scope="module")
def fuzz_input(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_main_exits_with_a_code_and_one_line(fuzz_input, data):
    # any document, census or flag combination ends with exit code 0, 1
    # or 2 and at most one line on stderr, and raises nothing
    fuzz_input.write_text(data.draw(mutated_documents()))
    argv = data.draw(cli_argvs(str(fuzz_input)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
