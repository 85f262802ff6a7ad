"""Bipartite matching oracle between elements and the sets that hold them.

``augment`` is the package's one Kuhn step: every matching in ``tmlat``
grows through it, whether elements are matched into sets (rank queries,
independent-set enumeration) or sets into elements of a basis (the
transversality search).  Rank queries use augmenting paths with
deterministic tie-breaking (elements ascending, lowest-index set first),
so returned matchings are reproducible.  ``deletion_reach`` memoizes, for
each set of a system, a maximum matching of the complementary elements
together with the set indices from which an augmenting path exists;
closure scans reduce to bit tests against those masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import SetSystem, bit_indices


@dataclass(frozen=True)
class Matching:
    """A partial injective assignment of element indices to set indices."""

    assignment: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.assignment)

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignment)


@lru_cache(maxsize=4096)
def element_supports(system: SetSystem) -> tuple[int, ...]:
    """For each element index, the mask of set indices containing it."""
    sup = [0] * system.ground.n
    for i, a in enumerate(system.sets):
        for e in bit_indices(a):
            sup[e] |= 1 << i
    return tuple(sup)


def augment(sup, owner, node, blocked: int = 0) -> bool:
    """Kuhn step: match ``node`` along ``sup[node]``, evicting recursively.

    ``sup[x]`` is the mask of right vertices adjacent to left vertex ``x``
    and ``owner`` maps each matched right vertex to its left vertex.
    Right vertices in ``blocked`` are never used.  Returns whether an
    augmenting path was found; on False ``owner`` is left unchanged.
    """
    return _augment_rec(sup, owner, node, [blocked])


def _augment_rec(sup, owner, node, visited):
    for j in bit_indices(sup[node] & ~visited[0]):
        visited[0] |= 1 << j
        cur = owner.get(j)
        if cur is None or _augment_rec(sup, owner, cur, visited):
            owner[j] = node
            return True
    return False


def _max_matching_owner(system: SetSystem, x_mask: int) -> dict[int, int]:
    sup = element_supports(system)
    owner: dict[int, int] = {}
    for e in bit_indices(x_mask):
        augment(sup, owner, e)
    return owner


def max_matching(system: SetSystem, x_mask: int) -> Matching:
    """A maximum matching of a subset of ``x_mask`` into the sets."""
    owner = _max_matching_owner(system, x_mask)
    pairs = sorted((e, j) for j, e in owner.items())
    return Matching(tuple(pairs))


def rank(system: SetSystem, x_mask: int) -> int:
    """Size of a maximum matching of ``x_mask``; the matroid rank of it."""
    return len(_max_matching_owner(system, x_mask))


def is_independent(system: SetSystem, x_mask: int) -> bool:
    return rank(system, x_mask) == x_mask.bit_count()


def reach_mask(system: SetSystem, owner: dict[int, int]) -> int:
    """Set indices from which an alternating path reaches a free set.

    A fresh element with adjacency ``adj`` augments ``owner`` exactly when
    ``adj`` meets this mask.
    """
    sup = element_supports(system)
    good = 0
    for j in range(system.r):
        if j not in owner:
            good |= 1 << j
    changed = True
    while changed:
        changed = False
        for j, e in owner.items():
            bit = 1 << j
            if good & bit:
                continue
            if sup[e] & good & ~bit:
                good |= bit
                changed = True
    return good


@lru_cache(maxsize=4096)
def deletion_reach(system: SetSystem) -> tuple[tuple[int, int], ...]:
    """Per set index k: (rank of the complement of A_k, its reach mask)."""
    full = system.ground.full_mask
    out = []
    for a in system.sets:
        owner = _max_matching_owner(system, full & ~a)
        out.append((len(owner), reach_mask(system, owner)))
    return tuple(out)
