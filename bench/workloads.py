"""The benchmark's four workloads: seeded inputs, the timed call, the check.

Each workload turns a seed into an endless stream of cases.  A case
carries its input, the call into the package that is timed, and the
outputs expected from an independent route (``reference``).  Streams are
stratified: every cycle of a workload draws one case per slot of its
``CYCLE``, in a seeded order, and a run stops only at the end of a
cycle, so each run sees the same mix of sizes whatever the seed.
Inputs never repeat within a stream, except the verify suites that take
no seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from itertools import cycle
from typing import Callable

import reference as ref


@dataclass
class Case:
    """One operation: ``run`` is timed, the rest is checked afterwards.

    ``run`` returns one (exit code, text) pair per step.  ``expect`` holds
    per step the exit code and the sha256 of the text, or None where only
    ``validate`` can judge the text.  ``key`` identifies the input; it is
    None for the fixed instances that repeat by design.
    """

    key: str | None
    run: Callable[[], list]
    expect: list
    validate: Callable[[list], bool] | None = None

    def check(self, outs: list) -> bool:
        if len(outs) != len(self.expect):
            return False
        for (code, text), (want_code, want_digest) in zip(outs, self.expect):
            if code != want_code:
                return False
            if want_digest is not None and ref.digest(text) != want_digest:
                return False
        return self.validate is None or self.validate(outs)


def cli_call(lib, argv: list, stdin_text: str = "") -> tuple[int, str]:
    """Run ``tmlat`` in-process on a document given as standard input."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = lib.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def random_mask(rng: random.Random, n: int, density: float) -> int:
    return sum(1 << e for e in range(n) if rng.random() < density)


class Workload:
    """A seeded case stream; subclasses define ``CYCLE`` and ``make``."""

    name = ""
    CYCLE: tuple = ()
    WARMUP: tuple | None = None

    def __init__(self, lib):
        self.lib = lib

    def stream(self, seed: int, part: str = "timed"):
        """Cases of the timed phase, or of the warm-up with part="warmup".

        The warm-up runs ``WARMUP`` if a workload sets it, else one cycle.
        """
        rng = random.Random(f"{self.name}:{part}:{seed}")
        state = self.new_state(rng)
        seen: set[str] = set()
        if part == "warmup" and self.WARMUP:
            slots = iter(self.WARMUP)
        else:
            def shuffled_cycles():
                while True:
                    order = list(self.CYCLE)
                    rng.shuffle(order)
                    yield from order
                    if part == "warmup":
                        return
            slots = shuffled_cycles()
        for slot in slots:
            while True:
                case = self.make(slot, rng, state)
                if case.key is None or case.key not in seen:
                    break
            if case.key is not None:
                seen.add(case.key)
            yield case

    def new_state(self, rng: random.Random) -> dict:
        return {}

    def make(self, slot, rng: random.Random, state: dict) -> Case:
        raise NotImplementedError


# ---------------------------------------------------------------------------


def presentation_text(names, sets) -> str:
    return json.dumps({"ground": list(names),
                       "sets": [[names[e] for e in ref.bits(a)] for a in sets]})


class LatticeSparse(Workload):
    name = "lattice-sparse"
    CYCLE = (12, 13, 14, 15, 16)
    N = 16
    MAX_MEMBERS = 40

    def make(self, r, rng, state):
        n = self.N
        while True:
            density = rng.uniform(0.35, 0.55)
            sets = [random_mask(rng, n, density) for _ in range(r)]
            adj = ref.adjacency(sets, n)
            if len(ref.max_matching(adj, (1 << n) - 1)) != r:
                continue
            members = ref.up_sets(ref.closure_successors(sets, n),
                                  limit=self.MAX_MEMBERS)
            if members is not None:
                break
        names = [f"e{i}" for i in range(1, n + 1)]
        doc = presentation_text(names, sets)
        lib = self.lib

        def run():
            return [cli_call(lib, ["lattice", "-"], doc),
                    cli_call(lib, ["lattice", "--dot", "-"], doc)]

        return Case(doc, run,
                    [(0, ref.digest(ref.lattice_text(r, members))),
                     (0, ref.digest(ref.hasse_text(members)))])


class LatticeDense(Workload):
    name = "lattice-dense"
    # Ideal-lattice bands: (fewest, most points), (fewest, most members).
    # Costs grow with |L|^2, so narrow bands keep each cycle's cost steady.
    BANDS = {"S": ((6, 8), (20, 40)), "M": ((9, 11), (110, 150)),
             "L": ((10, 12), (230, 270))}
    # Integer slots are powerset lattices of minimal presentations at that
    # r, on both sides of the 4096-member limit of the closure check in
    # SubsetLattice.  r = 12 sits on the limit and costs ~4 s, a fifth of
    # a run, so one instance would swing the whole run's figures.
    CYCLE = ("S",) * 9 + ("M",) * 12 + ("L",) * 5 + (10, 11, 13, 14)
    WARMUP = ("S", "M", 13)
    DOT_LIMIT = 256
    N = 16

    def new_state(self, rng):
        return {"powerset_ref": {}}

    def make(self, slot, rng, state):
        if isinstance(slot, int):
            return self._powerset(slot, rng, state)
        return self._ideals(slot, rng)

    def _ideals(self, band, rng):
        points_range, (lo, hi) = self.BANDS[band]
        while True:
            points = rng.randint(*points_range)
            q = rng.uniform(0.05, 0.6)
            label = list(range(points))
            rng.shuffle(label)
            # Pairs i < j in a hidden order, relabeled, give an acyclic order.
            preds = [0] * points
            for i in range(points):
                for j in range(i + 1, points):
                    if rng.random() < q:
                        preds[label[j]] |= 1 << label[i]
            members = ref.up_sets(preds, limit=hi)
            if members is not None and len(members) >= lo:
                break
        n = min(self.N, points + rng.randint(0, 2))
        doc = json.dumps({"r": points, "sets": [
            [i + 1 for i in ref.bits(m)]
            for m in sorted(members, key=ref.family_key)]})
        expect = [(0, None), (0, ref.digest(ref.lattice_text(points, members)))]
        with_dot = len(members) <= self.DOT_LIMIT
        if with_dot:
            expect.append((0, ref.digest(ref.hasse_text(members))))
        lib = self.lib

        def run():
            built = cli_call(lib, ["construct-uniform", "-", "--n", str(n)], doc)
            outs = [built, cli_call(lib, ["lattice", "-"], built[1])]
            if with_dot:
                outs.append(cli_call(lib, ["lattice", "--dot", "-"], built[1]))
            return outs

        def validate(outs):
            pres = json.loads(outs[0][1])
            return len(pres["ground"]) == n and len(pres["sets"]) == points

        return Case(f"{doc} n={n}", run, expect, validate)

    def _powerset(self, r, rng, state):
        # A set with an element no other set holds keeps the deletion rank
        # at r - 1, so every presentation built this way is minimal.
        n = self.N
        order = list(range(n))
        rng.shuffle(order)
        sets = [1 << order[i] for i in range(r)]
        for e in order[r:]:
            for i in range(r):
                if rng.random() < 0.5:
                    sets[i] |= 1 << e
        doc = presentation_text([f"e{i}" for i in range(1, n + 1)], sets)
        digests = state["powerset_ref"]
        if r not in digests:
            digests[r] = ref.digest(ref.lattice_text(r, range(1 << r)))
        lib = self.lib

        def run():
            return [cli_call(lib, ["lattice", "-"], doc)]

        return Case(doc, run, [(0, digests[r])])


class Transversal(Workload):
    name = "transversal"
    # Slots (rank, size) take the bases of a random presentation; slots
    # ("lines", size) a random rank-3 configuration of lines.  Larger
    # grounds have rare searches far slower than the rest: one in twenty
    # rank-3 presentations on eight points takes 0.3-0.4 s, rank 4 on eight
    # can run beyond ten minutes.  A few of those would decide a whole
    # run's figures.
    CYCLE = ((3, 6), (3, 7), (4, 6), ("lines", 6), ("lines", 7), ("lines", 7),
             ("fixed", 0))
    # M(K4), the Fano and the non-Fano plane: none is transversal.
    FIXED = (("K4", 6, ref.K4_LINES), ("fano", 7, ref.FANO_LINES),
             ("nonfano", 7, ref.NON_FANO_LINES))

    def new_state(self, rng):
        return {"fixed": cycle(self.FIXED), "count": 0}

    def make(self, slot, rng, state):
        kind, size = slot
        state["count"] += 1
        # Small structures recur over a long run; fresh labels keep every
        # input distinct, so nothing cached for one applies to another.
        prefix = f"m{state['count']}."
        if kind == "fixed":
            _, n, lines = next(state["fixed"])
            order = list(range(n))
            rng.shuffle(order)
            moved = [sum(1 << order[p] for p in ref.bits(line)) for line in lines]
            return self._case(prefix, n, ref.paving_bases(n, moved), False)
        if kind == "lines":
            n = size
            lines: list[int] = []
            for _ in range(rng.randint(1, 6)):
                points = rng.sample(range(n), 3 if rng.random() < 0.8 else 4)
                line = sum(1 << p for p in points)
                if all((line & other).bit_count() <= 1 for other in lines):
                    lines.append(line)
            return self._case(prefix, n, ref.paving_bases(n, lines), None)
        r, n = kind, size
        while True:
            density = rng.uniform(0.3, 0.8)
            sets = [random_mask(rng, n, density) for _ in range(r)]
            bases = ref.bases_of(sets, n, r)
            if bases:
                break
        return self._case(prefix, n, bases, True)

    def _case(self, prefix, n, bases, verdict):
        """``verdict``: True/False where known in advance, else None."""
        names = [f"{prefix}{i}" for i in range(n)]
        bases = sorted(bases, key=ref.family_key)
        doc = json.dumps({"ground": names,
                          "bases": [[names[e] for e in ref.bits(b)] for b in bases]})
        lib = self.lib

        def run():
            m = lib.matroid.parse_matroid(doc)
            witness = lib.matroid.transversal_presentation(m)
            out = {"transversal": witness is not None,
                   "presentation": (None if witness is None
                                    else lib.core.presentation_doc(witness))}
            return [(0, json.dumps(out, indent=2))]

        def validate(outs):
            got = json.loads(outs[0][1])
            if verdict is not None and got["transversal"] != verdict:
                return False
            if not got["transversal"]:
                return got["presentation"] is None
            pres = got["presentation"]
            if pres["ground"] != names:
                return False
            index = {s: i for i, s in enumerate(names)}
            sets = [sum(1 << index[s] for s in labels) for labels in pres["sets"]]
            return ref.bases_of(sets, len(names), len(sets)) == set(bases)

        return Case(doc, run, [(0, None)], validate)


class Verify(Workload):
    name = "verify"
    # charmin runs cost the same within a few percent and make up most of
    # the cycle, so the median falls among them; roundtrip, the dearest
    # and always the same work, makes up the top seventh, so the 90th
    # percentile falls among its runs.  threequarters ranges from half to
    # five times a charmin run.
    CYCLE = ("charmin",) * 8 + ("threequarters",) * 2 + (
        "intersection", "classification", "roundtrip", "roundtrip")
    # The warm-up builds the census table.
    WARMUP = ("classification", "charmin", "threequarters", "intersection")
    TRIALS = {"charmin": 20, "threequarters": 2, "intersection": 2}
    R = 4
    # Instances each suite reports: charmin counts its trials,
    # threequarters adds the r sharp presentations and one deep witness,
    # intersection adds its two fixed pairs.  classification at r = 4 makes
    # five checks.  roundtrip visits one lattice per labeled poset on at
    # most four points: 1 + 1 + 3 + 19 + 219 (OEIS A001035).
    EXTRA = {"charmin": 0, "threequarters": R + 1, "intersection": 2}
    FIXED = {"classification": 5, "roundtrip": 243}

    def make(self, suite, rng, state):
        if suite in self.FIXED:
            argv = ["verify", suite]
            line = f"[{suite}] instances={self.FIXED[suite]} failures=0\n"
            key = None
        else:
            seed = rng.randrange(1, 1 << 31)
            trials = self.TRIALS[suite]
            argv = ["verify", suite, "--r", str(self.R),
                    "--trials", str(trials), "--seed", str(seed)]
            count = trials + self.EXTRA[suite]
            line = f"[{suite}] instances={count} failures=0 seed={seed}\n"
            key = " ".join(argv)
        lib = self.lib

        def run():
            return [cli_call(lib, argv)]

        return Case(key, run, [(0, ref.digest(line))])


WORKLOADS = {w.name: w for w in (LatticeSparse, LatticeDense, Transversal, Verify)}
