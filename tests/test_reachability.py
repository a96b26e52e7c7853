"""No public function without a caller, and no module but the complex
and the reducer reading the complex's index: two walks over the source
of ``tsr``.

The first walk goes from what a ``tsr`` process runs.

The walk starts from every subcommand handler (``cli._cmd_*``), from
``cli.main`` and ``cli.build_parser``, and from what runs at import:
module-level statements, class bodies, decorators and default values.
From each function or method it reaches it follows every name and
every attribute name in its body to every module-level function, class
or method of that name, in any module; a class it reaches brings in its
dunder methods, which Python calls implicitly.  ``tsr.groups`` is left
out, as no other module imports it: it is the reference the runtime is
checked against, and its callers are the tests.

Matching is by name only, so it can miss an unreached method whose
name collides with another name: ``OrbitComplex.faces`` counts as
reached through the field of ``BredonComplex``, and
``BredonComplex.psi1`` through the field of ``IntegerChainComplex``.
What the walk lists is unreached; what it does not list may still be.
The list must equal ``ALLOWED``, which only shrinks: a new public name
without a caller fails the test, and so does a name that gains one.

The second walk lists each use of an attribute of ``OrbitComplex``'s
index or of its editing (``PRIVATE``) outside ``tsr.complexes`` and
``tsr.reduction``, the reducer, which edits the complexes it derives.
Every other module reads a complex through its records, ``cell()``,
``faces()``, ``cofaces()`` and ``edge_end_assignments``, the one
cellular reading.
"""

import ast
from pathlib import Path

import tsr

SRC = Path(tsr.__file__).parent

#: The public functions and methods that no ``tsr`` process reaches.
ALLOWED = {
    # the paper's closed forms, not yet checked from a complex (ROADMAP items 5, 17)
    "bredon.bredon_homology_formula",
    "series.coxeter_homology",
    "series.dihedral_mod_ell_homology",
    "series.farrell_tate_sl2_dims",
    "series.sl2_mod2_dims",
    "series.triangle_group_homology",
    # read by bench/ and the tests
    "series.canonical_series",
    # the reference that the tests check series._weighted against
    "series.RationalSeries.scale",
    # the brute-force group homology's kernel, which moves with tsr.groups (item 9)
    "_modp.nullspace_mod",
    # library entries the CLI does not use
    "reduction.apply_move",
    "reduction.scripted_merge",
    "complexes.OrbitComplex.cell",
    "complexes.OrbitComplex.cofaces",
    # an argparse hook, called by name from inside argparse
    "cli._Parser.error",
}


#: The attributes of OrbitComplex's index and of its editing.
PRIVATE = {"_cells", "_faces", "_cofaces", "_records", "_add", "_drop", "_settle",
           "_derived", "_link"}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py")) if path.stem != "groups"}


def _names(nodes) -> set[str]:
    """Every name and attribute name in the nodes' subtrees."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _import_time(body):
    """The nodes of a module or class body that run when it runs: all but
    the bodies of its functions."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from stmt.decorator_list
            yield from stmt.args.defaults + [d for d in stmt.args.kw_defaults if d]
        elif isinstance(stmt, ast.ClassDef):
            yield from stmt.decorator_list + stmt.bases + stmt.keywords
            yield from _import_time(stmt.body)
        else:
            yield stmt


def unreached(modules: dict[str, ast.Module]) -> list[str]:
    """The public module-level functions and methods, as module.qualname,
    that the walk from the CLI and from import time does not reach."""
    defs: dict[str, list[tuple[str, list]]] = {}  # name -> (qualname, nodes to follow)
    public, roots = [], []
    for mod, tree in modules.items():
        roots += _import_time(tree.body)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions = [(f"{mod}.{stmt.name}", stmt)]
                if mod == "cli" and (stmt.name.startswith("_cmd_")
                                     or stmt.name in ("main", "build_parser")):
                    roots.append(stmt)
            elif isinstance(stmt, ast.ClassDef):
                functions = [(f"{mod}.{stmt.name}.{s.name}", s) for s in stmt.body
                             if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                dunders = [f for _, f in functions
                           if f.name.startswith("__") and f.name.endswith("__")]
                defs.setdefault(stmt.name, []).append((f"{mod}.{stmt.name}", dunders))
            else:
                continue
            for qualname, f in functions:
                defs.setdefault(f.name, []).append((qualname, [f]))
                if not f.name.startswith("_"):
                    public.append(qualname)
    reached, seen = set(), set()
    todo = list(_names(roots))
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for qualname, nodes in defs.get(name, ()):
                reached.add(qualname)
                todo += _names(nodes)
    return sorted(set(public) - reached)


def test_every_public_function_has_a_caller_or_is_allowed():
    assert unreached(_modules()) == sorted(ALLOWED)


def test_the_walk_finds_a_public_function_without_a_caller():
    # a public front that nothing in src/ calls, as bredon.elementary_divisors was
    modules = _modules()
    modules["bredon"].body += ast.parse(
        "def elementary_divisors(mat):\n"
        "    return smith_normal_form(mat)\n").body
    assert unreached(modules) == sorted(ALLOWED | {"bredon.elementary_divisors"})


def private_uses(modules: dict[str, ast.Module]) -> list[str]:
    """module:line attribute of each use of a PRIVATE attribute outside
    complexes and reduction."""
    return sorted(f"{mod}:{n.lineno} {n.attr}" for mod, tree in modules.items()
                  if mod not in ("complexes", "reduction") for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in PRIVATE)


def test_only_the_complex_and_the_reducer_read_its_index():
    assert private_uses(_modules()) == []


def test_the_walk_finds_a_read_of_the_index():
    # a module reading a complex's faces behind its back, as bredon_complex did
    modules = _modules()
    modules["series"].body += ast.parse(
        "def _uses(cx, face_id):\n"
        "    return cx._faces.get(face_id, ())\n").body
    assert private_uses(modules) == ["series:2 _faces"]
