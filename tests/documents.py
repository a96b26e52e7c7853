"""The documents the tests generate, one generator each, the one
runner of ``tsr`` as a fresh process, a complex's cells of one
dimension, the one map of a dense or dict matrix into the elimination
kernels' clean rows, and the dense Smith normal form that the sparse
elimination is checked against.  Only the standard library and ``tsr``
are imported: the source tree's or an installed package's."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import tsr
from tsr._modp import _row
from tsr.complexes import parse_complex

FIXTURES = Path(tsr.__file__).parent / "fixtures"


def load(name: str):
    """The bundled fixture name, parsed."""
    return parse_complex(FIXTURES.joinpath(name).read_text())


def cells_of_dim(cx, d: int) -> list:
    """The cells of dimension d, in record order."""
    return [c for c in cx.cells if c.dim == d]


def clean(mat, p: int = 0) -> list[dict[int, int]]:
    """The rows of a dense or dict matrix as the kernels take them: fresh
    {column: entry} dicts of nonzero Python ints, reduced mod p if p > 0."""
    return [_row(r, p) for r in mat]


def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(U, D, V) with U, V unimodular, D = U @ mat @ V diagonal with a
    divisibility chain, each as a list of rows.  Exact integer arithmetic
    throughout; the reference the sparse elimination is tested against."""
    a = [[int(x) for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ValueError("expected a matrix")
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def axpy(x, q, y):  # the row x + q * y
        return [s + q * t for s, t in zip(x, y)]

    k = 0
    while k < min(rows, cols):
        # locate a pivot of least magnitude, the first in row-major order
        nonzero = [(abs(a[i][j]), i, j) for i in range(k, rows)
                   for j in range(k, cols) if a[i][j]]
        if not nonzero:
            break
        _, bi, bj = min(nonzero)
        a[k], a[bi] = a[bi], a[k]
        u[k], u[bi] = u[bi], u[k]
        for m in (a, v):
            for row in m:
                row[k], row[bj] = row[bj], row[k]
        piv = a[k][k]
        dirty = False
        for i in range(k + 1, rows):
            q = a[i][k] // piv
            if q:
                a[i] = axpy(a[i], -q, a[k])
                u[i] = axpy(u[i], -q, u[k])
            dirty = dirty or a[i][k] != 0
        for j in range(k + 1, cols):
            q = a[k][j] // piv
            if q:
                for m in (a, v):
                    for row in m:
                        row[j] -= q * row[k]
            dirty = dirty or a[k][j] != 0
        if dirty:
            continue
        # enforce divisibility of the remaining block
        offender = next((i for i in range(k + 1, rows)
                         if any(a[i][j] % piv for j in range(k + 1, cols))), None)
        if offender is not None:
            a[k] = axpy(a[k], 1, a[offender])
            u[k] = axpy(u[k], 1, u[offender])
            continue
        if piv < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        k += 1
    return u, a, v


#: PYTHONPATH with its relative entries (such as ``PYTHONPATH=src``) made
#: absolute, so that a process run from any directory imports this tsr.
PYTHONPATH = os.pathsep.join(os.path.abspath(p) for p in
                             os.environ.get("PYTHONPATH", "").split(os.pathsep) if p)


def run_cli(*argv, env=os.environ, **kwargs):
    """(exit code, stdout, stderr) of ``python -m tsr.cli argv`` as a fresh
    process; kwargs (cwd, input, timeout) go to subprocess.run."""
    proc = subprocess.run([sys.executable, "-m", "tsr.cli", *argv], capture_output=True,
                          env=dict(env, PYTHONPATH=PYTHONPATH), **kwargs)
    return proc.returncode, proc.stdout, proc.stderr


def circles(n: int) -> str:
    """n C2 loops e0.. of multiplicity 2, each on its own C2 vertex v0.."""
    return json.dumps({
        "rigid": True,
        "cells": [{"id": f"{k}{i}", "dim": d, "stabilizer": "C2", "self_identified": False}
                  for i in range(n) for k, d in (("v", 0), ("e", 1))],
        "incidences": [{"face": f"v{i}", "coface": f"e{i}", "multiplicity": 2}
                       for i in range(n)]})


def strip(n: int) -> str:
    """n C1 triangles on C2 vertices and edges, spelled v0, v1, v10, ...
    once sorted (no zero padding)."""
    def cell(i, d):
        return {"id": i, "dim": d, "stabilizer": ("C2", "C2", "C1")[d], "self_identified": False}

    return json.dumps({
        "rigid": True,
        "cells": [cell(f"v{k}", 0) for k in range(n + 2)]
        + [cell(f"e{k}_{s}", 1) for s in (1, 2) for k in range(n + 2 - s)]
        + [cell(f"f{k}", 2) for k in range(n)],
        "incidences": [{"face": f"v{k + t}", "coface": f"e{k}_{s}"}
                       for s in (1, 2) for k in range(n + 2 - s) for t in (0, s)]
        + [{"face": e, "coface": f"f{k}"} for k in range(n)
           for e in (f"e{k}_1", f"e{k + 1}_1", f"e{k}_2")]})


def graphfive_copies(n: int) -> str:
    """n copies of the graphfive fixture, ids suffixed _0, _1, ... per copy."""
    doc = json.loads(FIXTURES.joinpath("graphfive.json").read_text())
    doc["cells"] = [dict(c, id=f"{c['id']}_{k}") for k in range(n) for c in doc["cells"]]
    doc["incidences"] = [dict(i, face=f"{i['face']}_{k}", coface=f"{i['coface']}_{k}")
                         for k in range(n) for i in doc["incidences"]]
    return json.dumps(doc)


def d3_c2_path(n: int) -> str:
    """n + 1 D3 vertices v0..vn joined in a line by the n C2 edges e0..e(n-1),
    a document with a 3-torsion block."""
    return json.dumps({
        "rigid": True,
        "cells": [{"id": f"v{k}", "dim": 0, "stabilizer": "D3", "self_identified": False}
                  for k in range(n + 1)]
        + [{"id": f"e{k}", "dim": 1, "stabilizer": "C2", "self_identified": False}
           for k in range(n)],
        "incidences": [{"face": f"v{k + t}", "coface": f"e{k}"}
                       for k in range(n) for t in (0, 1)]})


def d3_c2_circle(n: int) -> str:
    """n >= 2 D3 vertices v0..v(n-1) joined in a circle by the n C2 edges
    e0..e(n-1), ek from vk to v(k+1 mod n); at ell = 2 it merges into one
    loop, nearly every merge taking a cell an earlier one made."""
    return json.dumps({
        "rigid": True,
        "cells": [{"id": f"v{k}", "dim": 0, "stabilizer": "D3", "self_identified": False}
                  for k in range(n)]
        + [{"id": f"e{k}", "dim": 1, "stabilizer": "C2", "self_identified": False}
           for k in range(n)],
        "incidences": [{"face": f"v{(k + t) % n}", "coface": f"e{k}"}
                       for k in range(n) for t in (0, 1)]})


def wound_loop(m: int) -> str:
    """A C1 face f whose boundary winds the C1 loop e on the C1 vertex v m
    times: one incidence of multiplicity m, so H_1 of the total is Z/m."""
    return json.dumps({
        "rigid": True,
        "cells": [{"id": i, "dim": d, "stabilizer": "C1", "self_identified": False}
                  for d, i in enumerate("vef")],
        "incidences": [{"face": "v", "coface": "e", "multiplicity": 2},
                       {"face": "e", "coface": "f", "multiplicity": m}]})


def two_vertex_path(vtag: str, etag: str) -> str:
    """vtag - etag - vtag: the vertices a and b on the edge e."""
    cells = [{"id": i, "dim": d, "stabilizer": t, "self_identified": False}
             for i, d, t in (("a", 0, vtag), ("b", 0, vtag), ("e", 1, etag))]
    return json.dumps({"rigid": True, "cells": cells, "incidences": [
        {"face": "a", "coface": "e"}, {"face": "b", "coface": "e"}]})


def escaped_ids() -> str:
    """A C2 loop on a self-identified vertex, and a lone vertex v, whose
    ids need every JSON escape: a quote, a backslash, a control character,
    non-ASCII, a character outside the BMP and a lone surrogate."""
    esc = "q\"b\\s\x01é\U0001f600\ud800"
    return json.dumps({
        "rigid": True,
        "cells": [{"id": i, "dim": d, "stabilizer": "C2", "self_identified": d == 0}
                  for i, d in ((esc, 0), (esc + "e", 1), ("v", 0))],
        "incidences": [{"face": esc, "coface": esc + "e", "multiplicity": 2}]})


def non_rigid(name: str) -> str:
    """The bundled fixture's document with its rigid key set to false."""
    text = FIXTURES.joinpath(name).read_text()
    assert text.count('"rigid": true') == 1
    return text.replace('"rigid": true', '"rigid": false')


def deep_json() -> str:
    """100,000 opening brackets: deeper than any JSON parser recurses."""
    return "[" * 100_000


def star(n: int, hub_first: bool = True) -> str:
    """One D3 hub joined by the n C2 spokes e0.. to the n C2 leaves v0..;
    the hub is spelled "a", sorting before every leaf, or "z", after."""
    hub = "a" if hub_first else "z"
    return json.dumps({
        "rigid": True,
        "cells": [{"id": hub, "dim": 0, "stabilizer": "D3", "self_identified": False}]
        + [{"id": f"{k}{i}", "dim": d, "stabilizer": "C2", "self_identified": False}
           for i in range(n) for k, d in (("v", 0), ("e", 1))],
        "incidences": [{"face": v, "coface": f"e{i}"} for i in range(n) for v in (hub, f"v{i}")]})


def book(n: int) -> str:
    """n C1 bigons f0.. on the C1 vertices a and b: each bounded by the
    spine edge x, which sorts before the pages' edges y0.., and its own
    page edge."""
    cell = lambda i, d: {"id": i, "dim": d, "stabilizer": "C1", "self_identified": False}
    return json.dumps({
        "rigid": True,
        "cells": [cell("a", 0), cell("b", 0), cell("x", 1)]
        + [cell(f"{k}{i}", d) for i in range(n) for k, d in (("y", 1), ("f", 2))],
        "incidences": [{"face": v, "coface": e} for e in ["x"] + [f"y{i}" for i in range(n)]
                       for v in "ab"]
        + [{"face": e, "coface": f"f{i}"} for i in range(n) for e in ("x", f"y{i}")]})


def coprime(n: int) -> str:
    """One C1 vertex v, the n C1 loops a0.. on it and the n C1 faces f0..,
    fi bounded by ai^2 a(i+1)^3, indices mod n: H_1 of the total is
    Z/|2^n - (-3)^n|, the determinant of that circulant."""
    cell = lambda i, d: {"id": i, "dim": d, "stabilizer": "C1", "self_identified": False}
    uses = Counter()
    for i in range(n):
        uses[f"a{i}", f"f{i}"] += 2
        uses[f"a{(i + 1) % n}", f"f{i}"] += 3
    return json.dumps({
        "rigid": True,
        "cells": [cell("v", 0)] + [cell(f"{k}{i}", d) for i in range(n)
                                   for k, d in (("a", 1), ("f", 2))],
        "incidences": [{"face": "v", "coface": f"a{i}", "multiplicity": 2} for i in range(n)]
        + [{"face": e, "coface": f, "multiplicity": m} for (e, f), m in uses.items()]})
