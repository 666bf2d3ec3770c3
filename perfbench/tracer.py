"""In-memory span tracer that instruments walshforge from outside the package.

``Tracer.installed()`` wraps the layer entry points listed in ``SPANS`` (and,
for a ``Tracer(count_calls=True)``, the scalar field operations listed in
``COUNTS``), and restores the originals on exit.  Module-level functions are
replaced in their defining module and under every other name bound to the
same object in ``walshforge`` and its submodules (``walshforge.cli`` imports
most of them by name), so calls made inside the package are caught too.
Methods are replaced on their class.

A span records name, start, end, parent span and command id.  Scalar field
operations get a call counter only, keyed by the innermost open span: a
timing wrapper would cost more than the ~1 us operation it measures.  Even a
counter adds about a third to a command that makes ~10^5 such calls, so the
counts come from a separate pass whose span times are not used.  The
per-element helpers (``genus2.e_poly``, ``classify7.eta_of_alpha``,
``boolfn.eval_g`` ...) are left unwrapped for the same reason; their time
shows as self time of the layer that calls them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute) -> metric group.  "Class.method" attributes are patched
# on the class.  Several functions may share one group (spectrum.norms).
SPANS = {
    ("field", "FieldCtx.__init__"): "field.FieldCtx",
    ("field", "FieldCtx.ensure_tables"): "field.ensure_tables",
    ("field", "FieldCtx.monomial_table"): "field.monomial_table",
    ("field", "FieldCtx.trace_bits"): "field.trace_bits",
    ("boolfn", "truth_table"): "boolfn.truth_table",
    ("boolfn", "reduce_difference"): "boolfn.reduce_difference",
    ("spectrum", "fwht"): "spectrum.fwht",
    ("spectrum", "l4_fourth"): "spectrum.norms",
    ("spectrum", "linf"): "spectrum.norms",
    ("spectrum", "parseval_ok"): "spectrum.norms",
    ("spectrum", "nonlinearity"): "spectrum.norms",
    ("spectrum", "divisibility_check"): "spectrum.norms",
    ("autocorr", "x_alpha_all"): "autocorr.x_alpha_all",
    ("autocorr", "sigma_decomposition"): "autocorr.sigma_decomposition",
    ("classify7", "classify_alpha"): "classify7.classify_alpha",
    ("classify7", "count_n0_n"): "classify7.count_n0_n",
    ("genus2", "classify"): "genus2.classify",
    ("genus2", "count_points"): "genus2.count_points",
    ("auxcurve", "enumerate_points"): "auxcurve.enumerate_points",
    ("auxcurve", "s7_sum"): "auxcurve.s7_sum",
    ("auxcurve", "count_n123"): "auxcurve.count_n123",
    ("corpus", "standard_corpus"): "corpus.standard_corpus",
    ("report", "Report.determinism_hash"): "report.determinism_hash",
}

COUNTS = {
    ("field", "FieldCtx.mul"): "field.mul",
    ("field", "FieldCtx.pow"): "field.pow",
    ("field", "FieldCtx.trace"): "field.trace",
    ("field", "FieldCtx.solve_artin_schreier"): "field.solve_artin_schreier",
    ("field", "FieldCtx.mul_raw"): "field.mul_raw",
}

ROOT = "cli"  # the span the benchmark opens around each walshforge.cli.main call

# Field set-up spans: scalar calls made inside them are paid once per context,
# not per function.
SETUP_GROUPS = ("field.FieldCtx", "field.ensure_tables")


def _fwht_items(args, result):
    q = len(args[0])
    return {"butterflies": q * (q.bit_length() - 1)}  # q*log2(q) element updates


def _x_alpha_all_items(args, result):
    q = args[0].q
    # per alpha, `bits ^ bits[idx ^ alpha]` then `.sum()`: the int64 index
    # temporary is read, written and read again (24q bytes), and the uint8
    # gather, xor and sum move 6q bytes.  Computed from dtypes, not measured.
    return {"gathers": (q - 1) * q, "bytes": (q - 1) * 30 * q}


def _enumerate_points_items(args, result):
    return {"points": len(result.points)}


ITEMS = {
    "spectrum.fwht": _fwht_items,
    "autocorr.x_alpha_all": _x_alpha_all_items,
    "auxcurve.enumerate_points": _enumerate_points_items,
}


class Tracer:
    """Span and counter store for one benchmark run; spans stay in memory."""

    def __init__(self, count_calls: bool = False):
        self.count_calls = count_calls
        self.groups: list[str] = [ROOT]
        self.name = array("i")
        self.parent = array("q")
        self.cmd = array("i")
        self.start = array("q")
        self.end = array("q")
        self.items: dict[str, dict[str, int]] = {}
        self.counts: dict[str, list[int]] = {}
        self.command = -1
        self._stack = [-1]        # open span indices; -1 is "no span"
        self._group_stack = [-1]  # group id of each open span

    def _gid(self, group: str) -> int:
        if group not in self.groups:
            self.groups.append(group)
        return self.groups.index(group)

    # -- recording -------------------------------------------------------------

    def _open(self, gid: int) -> int:
        i = len(self.start)
        self.name.append(gid)
        self.parent.append(self._stack[-1])
        self.cmd.append(self.command)
        self.end.append(0)
        self._stack.append(i)
        self._group_stack.append(gid)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        self._group_stack.pop()

    @contextmanager
    def command_span(self, command: int):
        """Root span around one CLI command; everything inside shares its id."""
        self.command = command
        i = self._open(0)
        try:
            yield
        finally:
            self._close(i)

    def _span_wrapper(self, fn, group: str):
        gid = self._gid(group)
        items_fn = ITEMS.get(group)
        items = self.items.setdefault(group, {})
        opn, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = opn(gid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if items_fn is not None:
                for k, v in items_fn(args, result).items():
                    items[k] = items.get(k, 0) + v
            return result
        return wrapper

    def _count_wrapper(self, fn, group: str):
        # one slot per enclosing group; slot -1 (the last) is "outside any span"
        slots = self.counts.setdefault(group, [0] * (len(SPANS) + 2))
        gstack = self._group_stack

        @functools.wraps(fn)
        def wrapper(*args):
            slots[gstack[-1]] += 1
            return fn(*args)
        return wrapper

    # -- patching --------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch the listed functions for the duration of the block."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "walshforge" or name.startswith("walshforge."))]
        undo: list[tuple[object, str, object]] = []
        try:
            tables = [(SPANS, self._span_wrapper)]
            if self.count_calls:
                tables.append((COUNTS, self._count_wrapper))
            for table, make in tables:
                for (modname, attr), group in table.items():
                    mod = sys.modules[f"walshforge.{modname}"]
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        owner = getattr(mod, cls_name)
                        orig = owner.__dict__[meth]
                        undo.append((owner, meth, orig))
                        setattr(owner, meth, make(orig, group))
                        continue
                    orig = getattr(mod, attr)
                    wrapped = make(orig, group)
                    for m in mods:
                        for key, val in list(vars(m).items()):
                            if val is orig:
                                undo.append((m, key, orig))
                                setattr(m, key, wrapped)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    # -- analysis --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "cmd": np.frombuffer(self.cmd, dtype=np.int32).copy(),
                "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
                "end_ns": np.frombuffer(self.end, dtype=np.int64).copy()}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.groups), **self.arrays())

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per group: calls, ms (inclusive, outermost spans of the group only,
        so nested calls within one group are not counted twice), self_ms
        (duration minus the time covered by direct child spans), plus computed
        items."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child
        nested = np.zeros(len(dur), dtype=bool)
        anc = parent.copy()
        while (anc >= 0).any():
            ok = anc >= 0
            nested[ok] |= name[anc[ok]] == name[ok]
            anc[ok] = parent[anc[ok]]
        table: dict[str, dict[str, float]] = {}
        for gid, group in enumerate(self.groups):
            sel = name == gid
            row = {"calls": int(sel.sum()),
                   "ms": float(dur[sel & ~nested].sum()) / 1e6,
                   "self_ms": float(selft[sel].sum()) / 1e6}
            row.update(self.items.get(group, {}))
            table[group] = row
        return table

    def call_counts(self) -> dict[str, dict[str, int]]:
        """Per counted operation: calls, and calls made outside field set-up."""
        setup = {self.groups.index(g) for g in SETUP_GROUPS if g in self.groups}
        return {group: {"calls": sum(slots),
                        "calls_outside_setup": sum(c for gid, c in enumerate(slots)
                                                   if gid not in setup)}
                for group, slots in self.counts.items()}
