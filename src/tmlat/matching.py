"""Bipartite matching oracle between elements and the sets that hold them.

``augment`` is the package's one Kuhn step: every matching in ``tmlat``
grows through it, whether elements are matched into sets (rank queries,
``independent_sets``, the walk that lists a presentation's bases) or
sets into elements of a basis (the transversality search).  Rank
queries use augmenting paths with deterministic tie-breaking (elements
ascending, lowest-index set first), so returned matchings are
reproducible.  A search never enters a set twice, and the sets a failed
search visited stay skipped until the next augmentation: no alternating
path leaves them while the matching stands.
A failed search from a fresh element over a matched independent set
also names its fundamental circuit: the elements matched to the sets it
would visit.  ``fundamental_circuit`` reads those sets off the matching
as a closure, without searching: from the fresh element's sets, on to
every set holding an element matched to a set reached, stopping at the
first unmatched set, where the search would have succeeded.
``deletion_pass`` reads what one maximum matching of E - A_k shows for
each set k of a system, in one loop per set that grows the matching and
then reads it in place: the rank of E - A_k and the set indices from
which an augmenting path exists; the same pass grows the first of those
matchings into one of E for the rank of the whole system.  The pass
keeps every one of those matchings, read-only, so a caller that needs
a basis of E or of some E - A_k reads it there, and a caller that needs
the coloops of M|(E - A_k) reads them off it with ``coloop_mask``.
``deletion_reach`` memoizes the pass.  Inside a ``shared_deletions``
block, passes over many systems share their deletions: one E - A_k is
matched once however many systems cut their sets down to the same sets
on it, and the block's table is dropped when the block ends.  Closure
scans, the moves between presentations, the full-rank check and the
circuit-support certificate reduce to reading those numbers, bit tests
against those masks, and closures over those matchings.
``max_matching`` hands a matching out as its sorted (element, set
index) pairs.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .core import SetSystem


@lru_cache(maxsize=4096)
def element_supports(system: SetSystem) -> tuple[int, ...]:
    """For each element index, the mask of set indices containing it."""
    sup = [0] * system.ground.n
    for i, a in enumerate(system.sets):
        bit = 1 << i
        while a:
            low = a & -a
            sup[low.bit_length() - 1] |= bit
            a ^= low
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
    """Depth-first search for an augmenting path from ``node``.

    Each step takes the lowest right vertex not yet in ``visited[0]``;
    a vertex visited deeper down was either on the path found or
    leads nowhere, so it is never entered twice.  After a failed
    search ``visited[0]`` holds every right vertex an alternating path
    from ``node`` reaches, all of them matched.
    """
    while free := sup[node] & ~visited[0]:
        bit = free & -free
        visited[0] |= bit
        j = bit.bit_length() - 1
        cur = owner.get(j)
        if cur is None or _augment_rec(sup, owner, cur, visited):
            owner[j] = node
            return True
    return False


def independent_sets(system: SetSystem, max_size: int):
    """Yield every independent subset mask of at most ``max_size``
    elements once, smallest extensions first: a set grows by an element
    when a copy of its matching augments from that element."""
    sup = element_supports(system)
    n = system.ground.n

    def grow(mask, owner, start, size):
        yield mask
        if size >= max_size:
            return
        for e in range(start, n):
            trial = dict(owner)
            if augment(sup, trial, e):
                yield from grow(mask | (1 << e), trial, e + 1, size + 1)

    yield from grow(0, {}, 0, 0)


def _max_matching_owner(system: SetSystem, x_mask: int,
                        owner: dict[int, int] | None = None,
                        sup: tuple[int, ...] | None = None) -> dict[int, int]:
    """Augment ``owner`` (default empty) by each element of ``x_mask``.

    Started from a maximum matching of a set disjoint from ``x_mask``,
    this ends at a maximum matching of their union: an element with no
    augmenting path never gains one as the matching grows.  The sets a
    failed search visits stay dead until the next augmentation, since
    every alternating path from them ends inside them; later searches
    skip them, which changes no path found.  Elements go in ascending
    order.  ``sup`` defaults to ``element_supports(system)``.
    """
    if sup is None:
        sup = element_supports(system)
    if owner is None:
        owner = {}
    dead = [0]
    while x_mask:
        low = x_mask & -x_mask
        x_mask ^= low
        if _augment_rec(sup, owner, low.bit_length() - 1, dead):
            dead[0] = 0
    return owner


def fundamental_circuit(system: SetSystem, independent: Mapping[int, int],
                        adjacency: int) -> int | None:
    """The elements of an independent set on the circuit a fresh element
    closes with it, the element lying in the sets ``adjacency`` indexes.

    ``independent`` is a maximum matching of the independent set, as a
    map from set index to element, so it covers every element of the
    set.  An augmenting search from the fresh element would visit the
    sets its alternating paths reach: those of ``adjacency``, then those
    holding an element matched to a set reached.  The search succeeds,
    the union is independent and the answer is None, exactly when one of
    those sets is unmatched.  Otherwise the circuit is the fresh element
    plus the elements matched to the reached sets: the elements it can
    replace.  The closure reads the matching and changes nothing.
    """
    sup = element_supports(system)
    seen = todo = adjacency
    circuit = 0
    while todo:
        low = todo & -todo
        todo ^= low
        e = independent.get(low.bit_length() - 1)
        if e is None:
            return None
        circuit |= 1 << e
        new = sup[e] & ~seen
        seen |= new
        todo |= new
    return circuit


def max_matching(system: SetSystem, x_mask: int) -> tuple[tuple[int, int], ...]:
    """A maximum matching of a subset of ``x_mask`` into the sets, as its
    (element, set index) pairs in ascending order."""
    owner = _max_matching_owner(system, x_mask)
    return tuple(sorted((e, j) for j, e in owner.items()))


def rank(system: SetSystem, x_mask: int) -> int:
    """Size of a maximum matching of ``x_mask``; the matroid rank of it."""
    return len(_max_matching_owner(system, x_mask))


def is_independent(system: SetSystem, x_mask: int) -> bool:
    return rank(system, x_mask) == x_mask.bit_count()


def coloop_mask(x_mask: int, owner: Mapping[int, int],
                sup: tuple[int, ...]) -> int:
    """Elements of ``x_mask`` in every basis of M|x_mask: its coloops.

    ``owner`` is a maximum matching of ``x_mask`` and ``sup`` holds the
    element supports.  An element misses some maximum matching exactly
    when it is unmatched or an unmatched element reaches it by an
    alternating path: to a set along a non-matching edge, then on to the
    element matched to that set.
    """
    matched = 0
    for e in owner.values():
        matched |= 1 << e
    seen = frontier = x_mask & ~matched
    visited = 0
    while frontier:
        sets = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            sets |= sup[low.bit_length() - 1]
        sets &= ~visited
        visited |= sets
        while sets:
            low = sets & -sets
            sets ^= low
            # a maximum matching leaves no free set here
            frontier |= 1 << owner[low.bit_length() - 1]
        frontier &= ~seen
        seen |= frontier
    return x_mask & ~seen


class Deletion(NamedTuple):
    """What a maximum matching of E - A_k shows about M|(E - A_k).

    The coloops of M|(E - A_k) are not kept: a caller that needs them
    reads ``coloop_mask(full & ~A_k, matching, sup)`` off the matching.
    """

    rank: int
    reach: int  # set indices an augmenting path can start from
    matching: Mapping[int, int]  # that matching, set index to element


class Deletions(NamedTuple):
    """The rank of a whole system, one ``Deletion`` per set index, and the
    maximum matching of E the pass grew to find that rank."""

    rank: int
    sets: tuple[Deletion, ...]
    matching: Mapping[int, int]  # set index to element


# Deletions already computed, by their sets cut down to E - A_k, while
# ``shared_deletions`` is active; None outside it.
_shared: dict[tuple[int, ...], Deletion] | None = None


@contextmanager
def shared_deletions():
    """Let every ``deletion_pass`` run inside the block share deletions.

    A fresh table is installed on entry and the previous one restored
    on exit, raised or not, so the table never outlives the block and
    no later call reads what the block computed.
    """
    global _shared
    saved, _shared = _shared, {}
    try:
        yield
    finally:
        _shared = saved


def _deletion(system: SetSystem, rest: int, sup: tuple[int, ...],
              index_mask: int) -> Deletion:
    """The ``Deletion`` of ``deletion_pass`` for the elements ``rest``."""
    owner = _max_matching_owner(system, rest, sup=sup)
    reach = index_mask
    for j in owner:
        reach ^= 1 << j
    changed = True
    while changed:
        changed = False
        for j, e in owner.items():
            bit = 1 << j
            if not reach & bit and sup[e] & reach:
                reach |= bit
                changed = True
    return Deletion(len(owner), reach, MappingProxyType(owner))


def deletion_pass(system: SetSystem,
                  sup: tuple[int, ...] | None = None) -> Deletions:
    """Rank, reach mask and matching of each E - A_k, and the rank and a
    matching of E.

    One loop per set grows a maximum matching of E - A_k from empty
    with ``_max_matching_owner`` and reads the set indices an
    augmenting path can start from off that matching in place: the
    free sets, then to a fixpoint every matched set whose element lies
    in a set already reached.  A fresh element with adjacency ``adj``
    augments the matching exactly when ``adj`` meets that mask.  The
    matching of E grows a copy of the matching of E - A_0 by the
    elements of A_0, so the whole pass makes one matching per set.  Each
    matching is kept as a read-only map from set index to element, which
    the cache can hand to every caller unchanged.  The element supports
    are read once (``sup`` defaults to ``element_supports``).  Coloops
    are left to the callers that need them, so callers that read only
    ranks and reaches pay nothing for them.  This is the uncached pass,
    for systems no later call asks about again; ``deletion_reach``
    caches it.

    Inside ``shared_deletions`` each deletion is first looked up in the
    block's table by the system's sets cut down to E - A_k, and only a
    key not yet there is matched.  That key fixes the deletion: the
    matching walks the elements of E - A_k in ascending order along the
    sets that hold them, which the key records index by index, and an
    element of E - A_k in no set never matches.  So two systems, or two
    sets of one system, with equal keys get equal ranks, reaches and
    matchings, and the read-only ``Deletion`` is handed to both.  The
    matching of E is grown for each pass on its own.
    """
    if sup is None:
        sup = element_supports(system)
    full = system.ground.full_mask
    index_mask = system.full_index_mask
    table = _shared
    dels = []
    for a in system.sets:
        rest = full & ~a
        if table is None:
            d = _deletion(system, rest, sup, index_mask)
        else:
            key = tuple([b & rest for b in system.sets])
            d = table.get(key)
            if d is None:
                d = table[key] = _deletion(system, rest, sup, index_mask)
        dels.append(d)
    whole = _max_matching_owner(system, system.sets[0],
                                dict(dels[0].matching), sup)
    return Deletions(len(whole), tuple(dels), MappingProxyType(whole))


@lru_cache(maxsize=4096)
def deletion_reach(system: SetSystem) -> Deletions:
    """``deletion_pass(system)``, cached."""
    return deletion_pass(system)
