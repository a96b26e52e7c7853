"""Command-line front end: fixture management and report generation.

Exit codes: 0 success, 1 validation error (bad flags, missing or
unreadable files, schema or census problems), a closed stdout or
exhausted memory, 2 internal invariant failure.  All output is
deterministic for identical inputs.

Only ``tsr.complexes`` is imported up front; each subcommand imports
the modules it runs, so a cold process pays for no other.  The records
are ``collections.namedtuple`` classes, so no module loads ``typing``
or ``inspect`` (nor ``ast`` and ``dis``) or numpy; the tests and CI
guard the import set of every subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .complexes import (ComplexSchemaError, _unique_keys, classify_component,
                        connected_components, parse_complex, serialize_complex,
                        torsion_subcomplex)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); flag errors are exit 1
        raise CliError(message)


def _read_input(args) -> str:
    path = Path(args.input)
    if path.is_file():
        return path.read_text()
    candidate = Path(__file__).parent / "fixtures" / args.input
    if candidate.is_file():
        return candidate.read_text()
    raise CliError(f"input file not found: {args.input}")


def _load_complex(args):
    return parse_complex(_read_input(args))


def _load_census(args):
    from .series import CensusError, SubgroupCensus
    text = args.census
    if not text.lstrip().startswith(("{", "[")):  # a path, not inline JSON
        path = Path(text)
        if not path.is_file():
            raise CliError(f"census file not found: {text}")
        text = path.read_text()
    doc = _json_option(text, "--census")
    if not isinstance(doc, dict):
        raise CensusError("census must be a JSON object")
    return SubgroupCensus.from_dict(doc)


def _json_option(text: str, flag: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ComplexSchemaError as exc:  # a repeated key
        raise CliError(f"{flag}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid {flag} JSON: {exc.msg}")
    except RecursionError:
        raise CliError(f"invalid {flag} JSON: nested too deeply") from None


def _emit_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _series_table(coeffs, lo: int) -> str:
    qs = list(range(lo, len(coeffs)))
    cells = [str(int(coeffs[q])) for q in qs]
    width = [max(len(str(q)), len(c)) for q, c in zip(qs, cells)]
    row_q = " ".join(str(q).rjust(w) for q, w in zip(qs, width))
    row_d = " ".join(c.rjust(w) for c, w in zip(cells, width))
    return f"q:   {row_q}\ndim: {row_d}"


# --------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args) -> None:
    cx = _load_complex(args)
    if args.json:
        _emit_json({"status": "OK", "cells": len(cx.cells),
                    "incidences": len(cx.incidences)})
    else:
        print("OK")


def _cmd_extract(args) -> None:
    cx = torsion_subcomplex(_load_complex(args), args.prime)
    sys.stdout.write(serialize_complex(cx))


def _cmd_reduce(args) -> None:
    from .reduction import reduce_complex, replay
    cx = _load_complex(args)
    reduced, log = reduce_complex(cx, args.prime)
    # both come from one torsion subcomplex by the same edits, so they
    # agree record by record, in order
    if replay(cx, log, args.prime) != reduced:
        raise AssertionError("reduction log replay diverged from the fixpoint")
    text = serialize_complex(reduced)
    if args.json:
        _emit_json({
            "complex": json.loads(text),
            "moves": [json.loads(m.to_json()) for m in log.moves],
        })
    else:
        print(f"moves: {len(log.moves)}")
        sys.stdout.write(log.to_jsonl())
        print("log verified")
        sys.stdout.write(text)


def _cmd_poincare(args) -> None:
    from .series import poincare_2torsion, poincare_3torsion
    census = _load_census(args)
    series = poincare_2torsion(census) if args.prime == 2 else poincare_3torsion(census)
    coeffs = series.expand(args.degrees)
    if args.json:
        _emit_json({
            "prime": args.prime,
            "series": str(series),
            "coefficients": {str(q): int(c) for q, c in enumerate(coeffs)},
        })
    else:
        print(f"P^{args.prime}(t) = {series}")
        print(_series_table(coeffs, 3 if args.degrees >= 3 else 0))


def _cmd_bredon(args) -> None:
    from .bredon import bredon_complex, homology, split_blocks
    cx = _load_complex(args)
    bc = bredon_complex(cx)
    blocks = split_blocks(bc)
    named = [("orbit", blocks.trivial), ("2-torsion", blocks.two),
             ("3-torsion", blocks.three)]
    total = homology(bc.total)
    if args.json:
        doc = {"total": [str(h) for h in total], "dims": list(bc.total.dims)}
        for name, rows in (("psi1", bc.total.psi1), ("psi2", bc.total.psi2)):
            doc[name] = [[i, j, x] for i, row in enumerate(rows) for j, x in sorted(row.items())]
        for name, chain in named:
            doc[name.replace("-", "_")] = [str(h) for h in homology(chain)]
        _emit_json(doc)
    else:
        for name, chain in named:
            hs = homology(chain)
            print(f"{name} block: " + ", ".join(f"H_{i} = {h}" for i, h in enumerate(hs)))
        print("total: " + ", ".join(f"H_{i} = {h}" for i, h in enumerate(total)))


def _cmd_khomology(args) -> None:
    from .bredon import k_homology
    census = _load_census(args)
    try:
        torsion = tuple(int(t) for t in args.h1_torsion.split(",") if t.strip())
    except ValueError:
        raise CliError("--h1-torsion must be comma-separated integers") from None
    result = k_homology(census, torsion)
    if args.json:
        _emit_json({k: str(v) for k, v in result.items()})
    else:
        print(f"K_0 = {result['K0']}")
        print(f"K_1 = {result['K1']}")


def _cmd_chenruan(args) -> None:
    from .bredon import chen_ruan_dims
    census = _load_census(args)
    qdims = _json_option(args.quotient_dims, "--quotient-dims")
    if not isinstance(qdims, list):
        raise CliError("--quotient-dims must be a JSON list")
    dims = chen_ruan_dims(census, qdims, complexified=not args.real)
    if args.json:
        _emit_json({str(d): dims[d] for d in sorted(dims)})
    else:
        label = "real" if args.real else "complexified"
        print(f"orbifold cohomology dimensions ({label}):")
        for d in sorted(dims):
            print(f"  d={d}: {dims[d]}")


def _cmd_e2page(args) -> None:
    from .series import e2_page
    census = _load_census(args)
    xs_rows = _json_option(args.xs_rows, "--xs-rows")
    if not isinstance(xs_rows, dict):
        raise CliError("--xs-rows must be a JSON object")
    page = e2_page(census, args.chi_xs, xs_rows)
    if args.json:
        _emit_json({
            "a1": page.a1, "a2": page.a2, "a3": page.a3,
            "rows": {f"q=4k+{r}": list(page.row(r)) for r in range(4)},
        })
    else:
        print(f"a1 = {page.a1}, a2 = {page.a2}, a3 = {page.a3}")
        for r in (3, 2, 1, 0):
            print(f"q = 4k+{r}: " + "  ".join(str(x) for x in page.row(r)))
        print("columns: n = 0, 1, 2")


def _cmd_oracle(args) -> None:
    from .series import equivariant_graph_cohomology_oracle
    cx = torsion_subcomplex(_load_complex(args), args.prime)
    lo = max(args.min_degree, 1)
    if args.degrees < lo:
        raise CliError("--degrees must be at least the minimum degree")
    dims = equivariant_graph_cohomology_oracle(cx, args.prime, range(lo, args.degrees + 1))
    if args.json:
        _emit_json({str(q): dims[q] for q in sorted(dims)})
    else:
        coeffs = [0] * (args.degrees + 1)
        for q, d in dims.items():
            coeffs[q] = d
        print(_series_table(coeffs, lo))


def _cmd_classify(args) -> None:
    from .reduction import reduce_complex
    reduced, _ = reduce_complex(_load_complex(args), args.prime)
    rows = []
    for comp in connected_components(reduced):
        least = min(c.id for c in comp.cells)
        rows.append((least, classify_component(comp)))
    if args.json:
        _emit_json({least: kind for least, kind in rows})
    else:
        for least, kind in rows:
            print(f"{least}: {kind}")


def build_parser() -> _Parser:
    parser = _Parser(prog="tsr", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tsr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, prime=False, input_file=False, census=False,
            degrees=None):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if prime:
            p.add_argument("--prime", type=int, choices=(2, 3), required=True)
        if input_file:
            p.add_argument("--input", required=True,
                           help="complex JSON file, or the name of a bundled fixture")
        if census:
            p.add_argument("--census", required=True,
                           help="census JSON file or inline object")
        if degrees is not None:
            p.add_argument("--degrees", type=int, default=degrees)
        return p

    add("validate", _cmd_validate, "check a complex document", input_file=True)
    add("extract", _cmd_extract, "extract the torsion subcomplex",
        prime=True, input_file=True)
    add("reduce", _cmd_reduce, "reduce the torsion subcomplex",
        prime=True, input_file=True)
    add("poincare", _cmd_poincare, "Poincare series from a census",
        prime=True, census=True, degrees=10)
    add("bredon", _cmd_bredon, "Bredon chain complex homology of a reduced complex",
        input_file=True)
    p = add("khomology", _cmd_khomology, "equivariant K-homology from a census",
            census=True)
    p.add_argument("--h1-torsion", default="",
                   help="comma-separated torsion coefficients of the orbit-space H1")
    p = add("chenruan", _cmd_chenruan, "orbifold cohomology dimensions",
            census=True)
    p.add_argument("--real", action="store_true",
                   help="real sectors instead of the complexified default")
    p.add_argument("--quotient-dims", default="[]",
                   help="quotient-space dims as a JSON list indexed by degree")
    p = add("e2page", _cmd_e2page, "assemble the spectral-sequence page",
            census=True)
    p.add_argument("--chi-xs", type=int, required=True,
                   help="Euler characteristic of the torsion subcomplex quotient")
    p.add_argument("--xs-rows", default="{}",
                   help='JSON object with E01, E11, E03, E13, H2Xsprime (default 0)')
    p = add("oracle", _cmd_oracle, "equivariant cohomology dims of a 1-dim complex",
            prime=True, input_file=True, degrees=10)
    p.add_argument("--min-degree", type=int, default=3)
    add("classify", _cmd_classify, "classify reduced component shapes",
        prime=True, input_file=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:  # stdout closed early, as by `| head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, OSError, OverflowError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # as for an absurd --degrees bound; it has no message
        print("error: out of memory", file=sys.stderr)
        return 1
    except AssertionError as exc:  # bredon.BlockSplitError among them
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
