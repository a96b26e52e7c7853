"""No public function without a caller: a walk over the source of
``tsr`` from what a ``tsr`` process runs.

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
