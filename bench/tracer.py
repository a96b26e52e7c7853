"""Timing wrappers installed from outside around tsr's public functions.

The traced run wraps every public module-level function and public
method of the seven tsr modules, and rebinds each wrapper in every tsr
namespace that binds the original (``tsr.bredon.homology`` and
``tsr.cli.homology`` alike; a method once, on its class), so no call
bypasses it.  Spans (name, start, end, parent, op id) are kept in flat
arrays in memory and written out at exit.

Two kinds of callee are handled differently, because a span each would
cost more than the call it measures:

* ``UNWRAPPED``: per-element permutation helpers called millions of
  times inside one group search; they are not layer boundaries.
* ``LEAVES``: hot lookups counted and timed in aggregate (calls, time,
  records scanned).  Their time is still charged to the enclosing
  span's children, so self times exclude it.

Calls made while a leaf runs, or while tracing is off (input
generation, answer checks), go straight to the original.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "complexes", "reduction", "groups", "bredon", "_modp", "series")

UNWRAPPED = {"groups.compose", "groups.invert", "groups.identity_perm",
             "groups.perm_order", "groups.closure", "groups.generate",
             "groups.FiniteGroup.is_subgroup_of"}

LEAVES = {"complexes.OrbitComplex.cell", "complexes.OrbitComplex.faces",
          "complexes.OrbitComplex.cofaces", "groups.catalog_group",
          "series.stabilizer_cohomology_dim", "series.restriction_block",
          "_modp.SpanTracker.add", "_modp.SpanTracker.contains",
          "bredon.rep_ring", "bredon.splitting_basis"}

SPAN_FIELDS = ["name", "start", "end", "parent", "op"]

#: Non-public methods wrapped anyway, because a metric counts them.
EXTRA = {"series.RationalSeries.__init__"}


class Tracer:
    """Spans and counters of one process; ``install`` puts the wrappers
    in place, ``begin``/``finish`` bracket each traced op."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time of wrapped callees, for self time
        self.stack: list[int] = []
        self.off = 1  # > 0: wrappers call straight through
        self.op_id = -1
        self.leaves = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counters = defaultdict(int)
        self.bprime_seen: set = set()
        self.installed: list[tuple[object, str, object]] = []

    # -- counters read from the arguments of a call ------------------------

    def _count_args(self, name: str, args) -> None:
        c = self.counters
        if name in ("complexes.OrbitComplex.faces", "complexes.OrbitComplex.cofaces"):
            c["complexes.records_scanned"] += len(args[0].incidences)
        elif name == "complexes.OrbitComplex.cell":
            c["complexes.records_scanned"] += len(args[0].cells)
        elif name == "reduction.check_condition_B_prime":
            key = tuple(args[:3])
            c["reduction.bprime_hits"] += key in self.bprime_seen
            self.bprime_seen.add(key)
        elif name == "bredon.smith_normal_form":
            mat = np.asarray(args[0])
            c["bredon.snf.entries"] += mat.size
            c["bredon.snf.nonzeros"] += int(np.count_nonzero(mat))
        elif name == "_modp.rank_mod":
            c["_modp.rank_mod.entries"] += np.asarray(args[0]).size

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        t = self

        def wrapped(*args, **kwargs):
            if t.off:
                return fn(*args, **kwargs)
            t._count_args(name, args)
            idx = len(t.start)
            t.span_name.append(nid)
            t.parent.append(t.stack[-1] if t.stack else -1)
            t.op.append(t.op_id)
            t.child.append(0.0)
            t.end.append(0.0)
            t.stack.append(idx)
            t0 = perf_counter()
            t.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                t.end[idx] = t1
                t.stack.pop()
                if t.stack:
                    t.child[t.stack[-1]] += t1 - t0

        return wrapped

    def _leaf_wrapper(self, name: str, fn):
        agg = self.leaves[name]
        t = self

        def wrapped(*args, **kwargs):
            if t.off:
                return fn(*args, **kwargs)
            t._count_args(name, args)
            t.off += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                t.off -= 1
                agg[0] += 1
                agg[1] += dt
                if t.stack:
                    t.child[t.stack[-1]] += dt

        return wrapped

    def _wrap(self, name: str, fn):
        if name in LEAVES:
            return self._leaf_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    def install(self) -> None:
        """Wrap every public function and method of the tsr modules and
        rebind the wrappers in every tsr namespace that holds them."""
        mods = {m: importlib.import_module(f"tsr.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    if not attr.startswith("_") and name not in UNWRAPPED:
                        wrappers[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        name = f"{short}.{attr}.{meth}"
                        if (inspect.isfunction(fn) and name not in UNWRAPPED
                                and (not meth.startswith("_") or name in EXTRA)):
                            self.installed.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(name, fn))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self.installed.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    # -- ops ---------------------------------------------------------------

    def begin(self, op_id: int) -> None:
        self.op_id = op_id
        self.off = 0

    def finish(self) -> None:
        self.off = 1

    # -- results -----------------------------------------------------------

    def raw(self) -> dict:
        """Additive totals: per span name its calls, inclusive time (not
        counting a call nested in one of the same name) and self time;
        per leaf its calls and time; the argument counters; and the time
        rank_mod spent under the graph oracle."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_t = defaultdict(float)
        counters = defaultdict(int, self.counters)
        names, parent = self.names, self.parent
        oracle = self._ids.get("series.equivariant_graph_cohomology_oracle")
        rank = self._ids.get("_modp.rank_mod")
        for i in range(len(self.start)):
            nid = self.span_name[i]
            name = names[nid]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_t[name] += dur - self.child[i]
            p, nested, under_oracle = parent[i], False, False
            while p >= 0:
                nested = nested or self.span_name[p] == nid
                under_oracle = under_oracle or self.span_name[p] == oracle
                p = parent[p]
            if not nested:
                incl[name] += dur
            if nid == rank and under_oracle:
                counters["series.oracle_rank_s"] += dur
        return {"calls": dict(calls), "incl": dict(incl), "self": dict(self_t),
                "leaves": {k: list(v) for k, v in self.leaves.items()},
                "counters": dict(counters)}

    def spans(self) -> list[list]:
        return [[self.names[self.span_name[i]], self.start[i], self.end[i],
                 self.parent[i], self.op[i]]
                for i in range(len(self.start))]


def merge_raw(total: dict, part: dict) -> None:
    """Add one process's ``Tracer.raw`` totals into ``total``."""
    for section in ("calls", "incl", "self", "counters"):
        dst = total.setdefault(section, {})
        for k, v in part.get(section, {}).items():
            dst[k] = dst.get(k, 0) + v
    dst = total.setdefault("leaves", {})
    for k, (n, s) in part.get("leaves", {}).items():
        old = dst.get(k, [0, 0.0])
        dst[k] = [old[0] + n, old[1] + s]


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metrics of the traced pass from its additive totals.
    Metrics of the ``_modp`` module are named ``modp.*``: a metric name
    starts with a letter or digit."""
    calls, incl, self_t = raw.get("calls", {}), raw.get("incl", {}), raw.get("self", {})
    leaves, cnt = raw.get("leaves", {}), raw.get("counters", {})

    def leaf(*names, part=0):
        return sum(leaves.get(n, [0, 0.0])[part] for n in names)

    lookups = ("complexes.OrbitComplex.cell", "complexes.OrbitComplex.faces",
               "complexes.OrbitComplex.cofaces")
    moves = calls.get("reduction.apply_move", 0)
    bprime = calls.get("reduction.check_condition_B_prime", 0)
    return {
        "complexes.parse_complex_s": incl.get("complexes.parse_complex", 0.0),
        "complexes.serialize_complex_s": incl.get("complexes.serialize_complex", 0.0),
        "complexes.torsion_subcomplex_s": incl.get("complexes.torsion_subcomplex", 0.0),
        "complexes.edge_end_assignments_s":
            incl.get("complexes.edge_end_assignments", 0.0),
        "complexes.lookup_calls": leaf(*lookups),
        "complexes.records_scanned": cnt.get("complexes.records_scanned", 0),
        "reduction.reduce_complex_s": self_t.get("reduction.reduce_complex", 0.0),
        "reduction.replay_s": self_t.get("reduction.replay", 0.0),
        "reduction.merge_s": incl.get("reduction.merge", 0.0),
        "reduction.cut_s": incl.get("reduction.cut", 0.0),
        "reduction.moves": moves,
        "reduction.find_terminal_cells.calls":
            calls.get("reduction.find_terminal_cells", 0),
        "reduction.rescans_per_move":
            calls.get("reduction.find_terminal_cells", 0) / moves if moves else 0.0,
        "reduction.check_condition_B_prime.calls": bprime,
        "reduction.bprime_hit_ratio":
            cnt.get("reduction.bprime_hits", 0) / bprime if bprime else 0.0,
        "groups.subgroups_s": incl.get("groups.subgroups", 0.0),
        "groups.subgroups.calls": calls.get("groups.subgroups", 0),
        "groups.are_isomorphic_s": incl.get("groups.are_isomorphic", 0.0),
        "groups.are_isomorphic.calls": calls.get("groups.are_isomorphic", 0),
        "groups.mod_ell_homology_bruteforce_s":
            incl.get("groups.mod_ell_homology_bruteforce", 0.0),
        "bredon.bredon_complex_s": incl.get("bredon.bredon_complex", 0.0),
        "bredon.induction_matrix.calls": calls.get("bredon.induction_matrix", 0),
        "bredon.induction_matrix_s": incl.get("bredon.induction_matrix", 0.0),
        "bredon.split_blocks_s": incl.get("bredon.split_blocks", 0.0),
        "bredon.homology_s": incl.get("bredon.homology", 0.0),
        "bredon.smith_normal_form_s": self_t.get("bredon.smith_normal_form", 0.0),
        "bredon.smith_normal_form.calls": calls.get("bredon.smith_normal_form", 0),
        "bredon.snf.entries": cnt.get("bredon.snf.entries", 0),
        "bredon.snf.nonzeros": cnt.get("bredon.snf.nonzeros", 0),
        "modp.rank_mod_s": incl.get("_modp.rank_mod", 0.0),
        "modp.rank_mod.calls": calls.get("_modp.rank_mod", 0),
        "modp.rank_mod.entries": cnt.get("_modp.rank_mod.entries", 0),
        "modp.nullspace_mod_s": incl.get("_modp.nullspace_mod", 0.0),
        "modp.span_tracker_s":
            leaf("_modp.SpanTracker.add", "_modp.SpanTracker.contains", part=1),
        "series.poincare_s": incl.get("series.poincare_2torsion", 0.0)
            + incl.get("series.poincare_3torsion", 0.0),
        "series.expand_s": incl.get("series.RationalSeries.expand", 0.0),
        "series.rational_series.calls": calls.get("series.RationalSeries.__init__", 0),
        "series.graph_oracle_s":
            incl.get("series.equivariant_graph_cohomology_oracle", 0.0)
            - cnt.get("series.oracle_rank_s", 0.0),
    }


def write_jsonl(path, header: dict, spans: list[list]) -> None:
    """One header object, then one [name, start, end, parent, op] list
    per span; parent is the index of the enclosing span's line among
    the span lines (-1 for none)."""
    with open(path, "w") as fh:
        fh.write(json.dumps({**header, "span_fields": SPAN_FIELDS}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
