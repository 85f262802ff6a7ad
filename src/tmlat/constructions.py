"""Presentations realizing a prescribed lattice of closed index sets.

Any union- and intersection-closed family over [r] containing the empty
set and [r] arises as the closed-set lattice of some presentation.  Two
constructions are provided: a maximal presentation on blocks of fresh
elements, and a presentation of a uniform matroid on [n].  Order-ideal
helpers generate test lattices from finite posets.
"""

from __future__ import annotations

from itertools import combinations

from .core import (MAX_ELEMENTS, GroundSet, SetSystem, SubsetLattice,
                   bit_indices, closed_sets, index_list, mask_of)


def validate_lattice(members, r: int) -> SubsetLattice:
    """Check closure under union/intersection and presence of {} and [r].

    With {} in L, L is closed exactly when ``m | least[i]`` is in L for
    every member m and index i, where ``least[i]`` is the intersection
    of the members holding i (m = {} puts each ``least[i]`` in L): each
    member is the union of the ``least[i]`` of its indices, and so is
    each intersection of two.  That takes O(|L|·r) steps.  Only a family
    that fails it meets the pairwise scan, which names the first missing
    union or intersection.  The lattice returned already holds the
    least-containing map, so later read-offs do not rebuild it.
    """
    mem = frozenset(members)
    full = (1 << r) - 1
    if 0 not in mem:
        raise ValueError("the empty set is missing")
    if full not in mem:
        raise ValueError("the full index set is missing")
    lat = SubsetLattice(r, mem)  # refuses members outside the index range
    least = set(lat.least_containing().values())
    if all(m | j in mem for j in least for m in mem):
        return lat
    for a, b in combinations(mem, 2):
        if (a | b) not in mem:
            raise ValueError(f"union of {index_list(a)} and "
                             f"{index_list(b)} is missing")
        if (a & b) not in mem:
            raise ValueError(f"intersection of {index_list(a)} and "
                             f"{index_list(b)} is missing")
    return lat


def first_occurrence(lat: SubsetLattice) -> dict[int, int]:
    """Map each member I to the indices appearing first in I.

    An index appears first in the smallest member containing it; the
    nonempty images partition [r].
    """
    least = lat.least_containing()
    if len(least) != lat.r:
        raise ValueError("an index appears first in no member")
    occ = dict.fromkeys(lat.members, 0)
    for i, m in least.items():
        occ[m] |= 1 << i
    return occ


def _member_name(m: int) -> str:
    return "-".join(str(i + 1) for i in bit_indices(m))


def build_maximal_presentation(lat: SubsetLattice) -> SetSystem:
    """A maximal presentation whose closed-set lattice is ``lat``.

    Each nonempty member I contributes a block of |I|+1 fresh elements
    lying in exactly the sets indexed by I; the block is dependent, so
    no element can enter a set outside its support.  ``lat`` is trusted
    to be closed and to hold the empty set and [r].
    """
    names: list[str] = []
    blocks: list[tuple[int, int]] = []  # (member, element mask)
    for m in lat.sorted_members():
        if m == 0:
            continue
        start = len(names)
        stem = _member_name(m)
        names.extend(f"{stem}:{k}" for k in range(m.bit_count() + 1))
        blocks.append((m, ((1 << (len(names) - start)) - 1) << start))
    ground = GroundSet(tuple(names))
    sets = []
    for i in range(lat.r):
        a = 0
        for m, block in blocks:
            if m & (1 << i):
                a |= block
        sets.append(a)
    return SetSystem(ground, tuple(sets))


def build_uniform_presentation(lat: SubsetLattice, n: int) -> SetSystem:
    """A presentation of the rank-r uniform matroid on [n] realizing ``lat``.

    ``lat`` is trusted to be closed and to hold the empty set and [r];
    ``verify`` checks the result is uniform.
    """
    if n > MAX_ELEMENTS:  # before n names and a 2^n mask are built
        raise ValueError(f"ground set larger than {MAX_ELEMENTS} elements")
    r = lat.r
    if n < r:
        raise ValueError("n must be at least the number of sets")
    # at most r members have indices appearing first in them
    parts = [(m, part) for m, part in first_occurrence(lat).items() if part]
    holder = {}
    for m, part in parts:
        for i in bit_indices(part):
            holder[i] = m
    tail = ((1 << n) - 1) & ~((1 << r) - 1)
    sets = []
    for i in range(r):
        member = holder[i]
        a = tail
        for j_member, part in parts:
            if member & j_member == member:
                a |= part
        sets.append(a)
    ground = GroundSet(tuple(str(i + 1) for i in range(n)))
    return SetSystem(ground, tuple(sets))


def ideals_of_poset(points: int, less) -> SubsetLattice:
    """The lattice of order ideals (down-closed sets) of a finite poset.

    ``less`` lists strict 1-based pairs (i, j) meaning i < j; the
    transitive closure is taken, and cycles are rejected.
    """
    if points < 0 or points > 16:
        raise ValueError("poset size out of range")
    below = [0] * points  # below[j]: strict predecessors of j
    for i, j in less:
        if not (1 <= i <= points and 1 <= j <= points) or i == j:
            raise ValueError(f"bad pair ({i}, {j})")
        below[j - 1] |= 1 << (i - 1)
    changed = True
    while changed:
        changed = False
        for j in range(points):
            merged = below[j]
            for i in bit_indices(below[j]):
                merged |= below[i]
            if merged != below[j]:
                below[j] = merged
                changed = True
    for j in range(points):
        if below[j] & (1 << j):
            raise ValueError("relation is not a partial order (cycle)")
    return ideal_lattice(below)


def ideal_lattice(below) -> SubsetLattice:
    """The down-sets of a strict order; ``below[j]`` masks the points under j.

    The order must be transitive and acyclic, as ``ideals_of_poset``
    leaves it.
    """
    points = len(below)
    # A down-set holds no j above an index k it leaves out.
    above = [mask_of(j for j in range(points) if below[j] & (1 << k))
             for k in range(points)]
    return SubsetLattice(points, frozenset(closed_sets(above)))
