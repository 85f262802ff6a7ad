"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper under every
name the package binds it to (several modules import names with
``from ... import``), and each traced method on its class.  A wrapper
appends one span per call to in-memory arrays: name, parent span,
operation, start and end.  ``Tracer.summary`` reads them back at the
end: a span's self time is its duration minus the durations of its
children, which nest inside it because calls are synchronous.  Counters
that explain the work (candidates scanned, members found, pairs a
closure check visits) are taken at the same boundaries by hooks.
"""

from __future__ import annotations

import functools
import sys
import weakref
from array import array
from collections import defaultdict
from time import perf_counter

# The closure check in SubsetLattice visits every pair of members, for
# families promised closed with at most this many members.
PAIRWISE_CHECK_LIMIT = 4096


def _scan(tracer, args, result):
    tracer.counters["extlattice.scan_candidates"] += 1 << args[0].r
    tracer.counters["extlattice.members"] += len(result)


def _subset_lattice(tracer, args, result):
    lat = args[0]
    if getattr(lat, "closed_under", ()) and len(lat.members) <= PAIRWISE_CHECK_LIMIT:
        tracer.counters["core.validation_pairs"] += len(lat.members) ** 2


def _cocircuits(tracer, args, result):
    # Cocircuits are memoized per matroid: count each family once.
    if args[0] not in tracer.seen_matroids:
        tracer.seen_matroids.add(args[0])
        tracer.counters["matroid.cocircuit_candidates"] += len(result)


def _transversal(tracer, args, result):
    tracer.counters["matroid.transversal_calls"] += 1
    tracer.counters["matroid.witnesses"] += result is not None
    tracer.counters["matroid.bases_count"] += len(args[0].bases())


def _verdict(tracer, args, result):
    tracer.counters["verify.instances"] += result.instances


# (metric prefix, module, attribute path, hook run after the call)
TARGETS = (
    ("cli.main", "tmlat.cli", "main", None),
    ("core.lattice_doc", "tmlat.core", "lattice_doc", None),
    ("core.SubsetLattice", "tmlat.core", "SubsetLattice.__post_init__",
     _subset_lattice),
    ("core.covers", "tmlat.core", "SubsetLattice.covers", None),
    ("core.heights", "tmlat.core", "SubsetLattice.heights", None),
    ("extlattice.extension_lattice", "tmlat.extlattice", "extension_lattice",
     _scan),
    ("extlattice.hasse_dot", "tmlat.extlattice", "hasse_dot", None),
    ("constructions.validate_lattice", "tmlat.constructions",
     "validate_lattice", None),
    ("constructions.first_occurrence", "tmlat.constructions",
     "first_occurrence", None),
    ("matroid.bases", "tmlat.matroid", "Matroid.bases", None),
    ("matroid.circuits", "tmlat.matroid", "Matroid.circuits", None),
    ("matroid.cocircuits", "tmlat.matroid", "Matroid.cocircuits", _cocircuits),
    ("matroid.transversal_presentation", "tmlat.matroid",
     "transversal_presentation", _transversal),
    ("matching.rank", "tmlat.matching", "rank", None),
    ("matching.deletion_reach", "tmlat.matching", "deletion_reach", None),
    ("presentations.removable_pairs", "tmlat.presentations",
     "removable_pairs", None),
    ("presentations.addable_pairs", "tmlat.presentations", "addable_pairs", None),
    ("presentations.cover_chain", "tmlat.presentations", "cover_chain", None),
    ("presentations.maximalize", "tmlat.presentations", "maximalize", None),
    ("presentations.presentation_rank", "tmlat.presentations",
     "presentation_rank", None),
    ("verify.closed_family_table", "tmlat.verify", "closed_family_table", None),
) + tuple((f"verify.{name}", "tmlat.verify", name, _verdict)
          for name in ("check_charmin", "check_threequarters",
                       "check_intersection", "check_classification",
                       "check_roundtrip"))


class Tracer:
    """In-memory span log plus counters; one per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.open: list[int] = []
        self.op = -1
        self.paused = False
        self.counters: dict[str, float] = defaultdict(float)
        self.seen_matroids = weakref.WeakSet()
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.open[-1] if tracer.open else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            tracer.open.append(idx)
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter()
                tracer.open.pop()
            if hook is not None:
                tracer.paused = True
                try:
                    hook(tracer, args, result)
                finally:
                    tracer.paused = False
            return result

        return span

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; absent ones report zero."""
        package = [m for name, m in list(sys.modules.items())
                   if name == "tmlat" or name.startswith("tmlat.")]
        for metric, module_name, path, hook in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
                original = None if owner is None else owner.__dict__.get(attr)
                if original is None:
                    continue
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(metric, original, hook))
                continue
            original = getattr(module, path, None)
            if original is None:
                continue
            wrapper = self._wrap(metric, original, hook)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- read-out ------------------------------------------------------------

    def summary(self) -> dict[str, list]:
        """Per span name: [calls, total seconds, self seconds]."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            row = out[self.names[self.span_name[i]]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out
