"""Matroid queries over an explicit family of bases.

Rank is the best overlap with a basis; ``from_system`` lists a
presentation's bases by the walk ``matching.independent_sets``, under a
budget.  One loop over the bases probes every exchange A - e + f and
lists the fundamental cocircuits; the exchange check, the circuits and
the cocircuits read that list, and the cyclic flats are joins of
closures of circuits.  Each family is computed lazily and cached.
The transversality test searches multisets of the cocircuits that
avoid the coloops, on the matroid as given, capped at desk scale.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import count
from operator import and_, or_

from . import matching
from .core import (GroundSet, SetSystem, as_document, bit_indices, family_key,
                   label_list, require_list)

# The cocircuit search is exponential: it refuses a matroid with more
# elements outside its coloops than this.
ENUM_LIMIT = 16
# Independent sets the basis enumerations of one call may visit in all;
# the largest fixture call, t-lattice on 18 elements, visits 62,244.
BASES_BUDGET = 200_000


class Matroid:
    """A matroid given by its bases, with memoized derived structure."""

    def __init__(self, ground: GroundSet, basis_masks):
        bases = frozenset(basis_masks)
        if not bases:
            raise ValueError("empty basis family")
        if len({b.bit_count() for b in bases}) != 1:
            raise ValueError("bases not equicardinal")
        self.ground = ground
        self._bases = bases
        self._rank_memo: dict[int, int] = {}
        self._circuits = None
        self._cocircuits = None
        self._cyclic_flats = None

    @classmethod
    def from_system(cls, system: SetSystem, visits=None) -> "Matroid":
        """The matroid a presentation presents.  Its basis walk refuses once
        ``visits``, an ``itertools.count(1)`` the walks of one call share,
        passes ``BASES_BUDGET``."""
        if visits is None:
            visits = count(1)
        r = matching.rank(system, system.ground.full_mask)
        bases = []
        for m in matching.independent_sets(system, r):
            if next(visits) > BASES_BUDGET:
                raise ValueError(f"basis enumeration capped at "
                                 f"{BASES_BUDGET} independent sets")
            if m.bit_count() == r:
                bases.append(m)
        return cls(system.ground, bases)

    @classmethod
    def from_bases(cls, ground: GroundSet, basis_masks) -> "Matroid":
        """A matroid from a basis family of unknown origin.

        Every family is checked for the exchange axiom here, also under
        ``python -O``: |B| r (n - r) membership probes for |B| bases of
        rank r on n elements, at most n per label of the family.  The
        probes list the fundamental cocircuits, which the matroid keeps.
        Code that derives bases from a matroid already built calls the
        constructor and skips the check.
        """
        m = cls(ground, basis_masks)
        m._exchanges = _check_basis_exchange(m._bases)
        return m

    # -- rank oracle ----------------------------------------------------

    def rank(self, x_mask: int) -> int:
        got = self._rank_memo.get(x_mask)
        if got is not None:
            return got
        r = max((b & x_mask).bit_count() for b in self._bases)
        self._rank_memo[x_mask] = r
        return r

    @property
    def full_rank(self) -> int:
        return self.rank(self.ground.full_mask)

    def is_independent(self, x_mask: int) -> bool:
        return self.rank(x_mask) == x_mask.bit_count()

    def closure(self, x_mask: int) -> int:
        r = self.rank(x_mask)
        out = x_mask
        for e in bit_indices(self.ground.full_mask & ~x_mask):
            if self.rank(x_mask | (1 << e)) == r:
                out |= 1 << e
        return out

    def coloops(self) -> int:
        """The elements in every basis."""
        return reduce(and_, self._bases)

    def bases(self) -> frozenset[int]:
        return self._bases

    # -- derived families -------------------------------------------------

    @cached_property
    def _exchanges(self) -> list[tuple[int, list[int]]]:
        return _fundamental_cocircuits(self._bases)

    def circuits(self) -> tuple[int, ...]:
        """All minimal dependent sets, canonically ordered.

        Each is the fundamental circuit of some f outside some basis A:
        f and every e in A whose fundamental cocircuit holds f.  No
        cocircuit holds a loop, so a loop makes a circuit alone.
        """
        if self._circuits is None:
            found = set()
            for a, cocircuits in self._exchanges:
                for f in bit_indices(self.ground.full_mask & ~a):
                    fbit = 1 << f
                    c = fbit
                    for d in cocircuits:
                        if d & fbit:
                            c |= d & a
                    found.add(c)
            self._circuits = tuple(sorted(found, key=family_key))
        return self._circuits

    def cocircuits(self) -> tuple[int, ...]:
        """All minimal sets meeting every basis: the fundamental ones."""
        if self._cocircuits is None:
            found = {d for _, cocircuits in self._exchanges for d in cocircuits}
            self._cocircuits = tuple(sorted(found, key=family_key))
        return self._cocircuits

    def cyclic_flats(self) -> tuple[int, ...]:
        """Z(M): the loops, and the joins ``closure(F | G)`` of the closures
        of circuits, as each cyclic flat is the union of its circuits."""
        if self._cyclic_flats is None:
            flats = {self.closure(0)}
            for c in self.circuits():
                top = self.closure(c)
                if top not in flats:
                    flats |= {self.closure(f | top) for f in flats}
            self._cyclic_flats = tuple(sorted(flats, key=family_key))
        return self._cyclic_flats

    # -- comparisons --------------------------------------------------------

    def _require_same_ground(self, other: "Matroid"):
        if self.ground.names != other.ground.names:
            raise ValueError("matroids live on different ground sets")

    def weak_leq(self, other: "Matroid") -> bool:
        """True when every independent set here is independent in ``other``.

        Independence is hereditary, so checking the bases suffices.
        """
        self._require_same_ground(other)
        return all(other.is_independent(b) for b in self.bases())

    def equals(self, other: "Matroid") -> bool:
        self._require_same_ground(other)
        return self.bases() == other.bases()

    def __repr__(self):
        return f"Matroid(n={self.ground.n}, {len(self._bases)} bases)"


def _fundamental_cocircuits(bases: frozenset[int]) -> list[tuple[int, list[int]]]:
    """Each basis A with the fundamental cocircuit of each e in A, in the
    order of e: e and every f with A - e + f a basis.  It meets A in e
    alone.  Every cocircuit is the fundamental one of some basis."""
    support = reduce(or_, bases)
    out = []
    for a in bases:
        outside = [1 << f for f in bit_indices(support & ~a)]
        cocircuits = []
        for e in bit_indices(a):
            rest = a ^ (1 << e)
            d = 1 << e
            for fbit in outside:
                if rest | fbit in bases:
                    d |= fbit
            cocircuits.append(d)
        out.append((a, cocircuits))
    return out


def _check_basis_exchange(bases: frozenset[int]) -> list[tuple[int, list[int]]]:
    """The fundamental cocircuits of ``bases``; raise unless ``bases``
    satisfies the exchange axiom.

    The axiom: for bases A, B and e in A - B, some f in B - A makes
    A - e + f a basis.  For fixed A and e, the bases B with e in A - B
    are those missing e, and every f with A - e + f a basis lies outside
    A.  So the axiom holds at (A, e) exactly when the fundamental
    cocircuit of e meets every basis: with the bases numbered, one OR of
    bitmasks per element of it.
    """
    holding = [0] * reduce(or_, bases).bit_length()  # bases holding each element
    for k, b in enumerate(bases):
        for e in bit_indices(b):
            holding[e] |= 1 << k
    everything = (1 << len(bases)) - 1
    fundamental = _fundamental_cocircuits(bases)
    for _, cocircuits in fundamental:
        for d in cocircuits:
            covered = 0
            for f in bit_indices(d):
                covered |= holding[f]
            if covered != everything:
                raise ValueError("basis family violates the exchange axiom")
    return fundamental


# -- transversality -----------------------------------------------------------


def _cocircuit_search(m: Matroid, r: int, coloops: int) -> tuple[int, ...] | None:
    """Find r cocircuits of ``m`` avoiding ``coloops`` that, with one
    singleton per coloop, present ``m``, if any."""
    bases = sorted(m.bases(), key=family_key)
    small_circuits = [c for c in m.circuits() if c.bit_count() <= r]
    cands = sorted((d for d in m.cocircuits() if not d & coloops),
                   key=lambda c: (-c.bit_count(), c))
    nonloops = m.ground.full_mask & ~(m.closure(0) | coloops)
    # What the tail starting at index i can still cover.
    suffix_cover = [0] * (len(cands) + 1)
    for i in range(len(cands) - 1, -1, -1):
        suffix_cover[i] = suffix_cover[i + 1] | cands[i]

    def push(chosen, owners):
        """The matchings of ``chosen`` into each basis, or None if it fails.

        ``owners`` matches every set but the last into the bases, so one
        augmenting path per basis decides whether the sets have distinct
        representatives there; then no small circuit may be independent.
        """
        k = len(chosen)
        grown = []
        for b, owner in zip(bases, owners):
            trial = dict(owner)
            if not matching.augment(chosen, trial, k - 1, blocked=~b):
                return None
            grown.append(trial)
        system = SetSystem(m.ground, tuple(chosen))
        for c in small_circuits:
            if c.bit_count() <= k and matching.is_independent(system, c):
                return None
        return grown

    def search(chosen, owners, covered, start):
        k = len(chosen)
        if k == r:
            return tuple(chosen)
        if nonloops & ~(covered | suffix_cover[start]):
            return None
        for i in range(start, len(cands)):
            chosen.append(cands[i])
            grown = push(chosen, owners)
            if grown is not None:
                got = search(chosen, grown, covered | cands[i], i)
                if got is not None:
                    return got
            chosen.pop()
        return None

    return search([], [{} for _ in bases], 0, 0)


def transversal_presentation(m: Matroid) -> SetSystem | None:
    """A presentation of ``m`` by cocircuit sets, or None if none exists.

    Minimal presentations consist of cocircuits, so searching multisets
    of cocircuits decides transversality.  Each coloop forces its own
    singleton set, and the other sets are cocircuits avoiding the
    coloops, so the search picks r0 = r - |coloops| of those and the
    singletons follow.
    """
    coloops = m.coloops()
    r0 = m.full_rank - coloops.bit_count()
    if r0 == 0:
        sets: tuple[int, ...] | None = ()
    elif (m.ground.full_mask & ~coloops).bit_count() > ENUM_LIMIT:
        raise ValueError(f"transversality search capped at {ENUM_LIMIT} "
                         f"elements")
    else:
        sets = _cocircuit_search(m, r0, coloops)
    if sets is None:
        return None
    sets += tuple(1 << e for e in bit_indices(coloops))
    # a rank-0 matroid has no sets; one empty set presents it
    witness = SetSystem(m.ground, sets or (0,))
    if Matroid.from_system(witness).bases() != m.bases():
        raise AssertionError("cocircuit witness does not present the matroid")
    return witness


def is_transversal(m: Matroid) -> bool:
    return transversal_presentation(m) is not None


# -- explicit-basis JSON form -------------------------------------------------


def parse_matroid(text) -> Matroid:
    """Read {"ground": [...], "bases": [[...], ...]}; extra keys are ignored."""
    doc = as_document(text)
    try:
        names = require_list(doc["ground"], "'ground'")
        raw = require_list(doc["bases"], "'bases'")
    except (KeyError, TypeError):
        raise ValueError("matroid document needs 'ground' and 'bases'") from None
    ground = GroundSet(tuple(label_list(names, "'ground'")))
    return Matroid.from_bases(ground, (
        ground.mask(label_list(b, f"basis {k}"))
        for k, b in enumerate(raw, start=1)))


def matroid_doc(m: Matroid) -> dict:
    return {"ground": list(m.ground.names),
            "bases": [m.ground.labels(b)
                      for b in sorted(m.bases(), key=family_key)]}
