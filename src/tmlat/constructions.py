"""Presentations realizing a prescribed lattice of closed index sets.

Any union- and intersection-closed family over [r] containing the empty
set and [r] arises as the closed-set lattice of some presentation.  Two
constructions read it off the lattice's least-containing map: a maximal
presentation on one block of fresh elements per join-irreducible, and a
presentation of a uniform matroid on [n].  Order-ideal helpers generate
test lattices from finite posets.
"""

from __future__ import annotations

from functools import lru_cache

from .core import (MAX_ELEMENTS, GroundSet, SetSystem, SubsetLattice,
                   bit_indices, family_key, index_list)


def validate_lattice(members, r: int) -> SubsetLattice:
    """Check closure under union/intersection and presence of {} and [r].

    With {} in L, L is closed exactly when every ``least[i]``, the
    intersection of the members holding i, is in L and ``m | least[i]``
    is in L for every member m and index i: each member is the union of
    the ``least[i]`` of its indices, and so is each intersection of two.
    That takes O(|L|·r) steps on every family.  A family that fails
    names its own witness pair, lower mask first, at the first index i
    that fails.

    If ``least[i]`` is no member, let a be the lowest-mask member
    holding i, and b the lowest-mask member holding i but not all of a.
    Such a b exists: if every member holding i contained a, ``least[i]``
    would be a.  And a & b is missing: it holds i, and as a proper
    subset of a it has a lower mask than a.  Otherwise the witness is
    the lowest-mask member m with ``m | least[i]`` missing.  The lattice returned already holds
    the least-containing map, so later read-offs do not rebuild it.
    """
    mem = frozenset(members)
    full = (1 << r) - 1
    if 0 not in mem:
        raise ValueError("the empty set is missing")
    if full not in mem:
        raise ValueError("the full index set is missing")
    lat = SubsetLattice(r, mem)  # refuses members outside the index range
    for i, j in lat.least_containing().items():
        if j not in mem:
            holding = [m for m in mem if m >> i & 1]
            a = min(holding)
            what, pair = "intersection", (a, min(m for m in holding if a & ~m))
        elif missing := [m for m in mem if m | j not in mem]:
            what, pair = "union", (min(missing), j)
        else:
            continue
        a, b = sorted(pair)
        raise ValueError(f"{what} of {index_list(a)} and "
                         f"{index_list(b)} is missing")
    return lat


def build_maximal_presentation(lat: SubsetLattice) -> SetSystem:
    """A maximal presentation whose closed-set lattice is ``lat``.

    Each join-irreducible J, a distinct nonzero ``least[i]``, gets a
    block B_J of |J|+1 fresh elements lying in exactly the sets indexed
    by J; blocks follow ``family_key`` order.  ``lat`` is trusted to be
    closed and to hold the empty set and [r].

    Why L is the lattice.  Every member is the union of the
    join-irreducibles inside it, so G_k, the union of those avoiding k,
    is the greatest member avoiding k.  E - A_k is the union of the B_J
    with k not in J, and all of them lie in sets of G_k.  Each i in G_k
    has its block B_least[i] in E - A_k; the blocks are disjoint, and
    the indices i with least[i] = J lie in J, fewer than |B_J|.  So
    Hall's condition holds, and a maximum matching of E - A_k covers
    G_k.  An alternating path from a set of G_k goes on through its
    matched element, which lies only in sets of G_k, all matched; so the
    deletion reach of k is [r] - G_k, and k joins the closure of I
    exactly when I is not inside G_k.  Hence I is closed exactly when I
    is the intersection of the G_k over the k outside I, that is, when
    I is in L.

    Why it is maximal.  For i not in J, the |J|+1 elements of B_J lie on
    |J| sets, so each misses some maximum matching of E - A_i and is no
    coloop there: no pair is addable.

    Size.  Of the t <= r join-irreducibles in size order, the s-th
    misses an index whose least member is each later one, so
    |J_s| <= r - t + s, and the ground holds at most r(r+3)/2 elements,
    as many as the r-chain needs.  Every lattice with r <= 9 fits in the
    64-element ground; the 10-chain needs 65.
    """
    names: list[str] = []
    sets = [0] * lat.r
    for j in sorted(set(lat.least_containing().values()) - {0}, key=family_key):
        block = _block_names(j)
        bits = ((1 << len(block)) - 1) << len(names)
        names += block
        for i in bit_indices(j):
            sets[i] |= bits
    return SetSystem(GroundSet(tuple(names)), tuple(sets))


@lru_cache(maxsize=256)  # keys are index masks, up to 2^32 of them
def _block_names(j: int) -> tuple[str, ...]:
    """The names ``"1-3:0"``..``"1-3:2"`` of the block of join-irreducible
    J = {1, 3}: its indices, then a number from 0 to |J|.  Lattices on
    the same indices share their join-irreducibles, so a caller building
    many of them names each block once."""
    stem = "-".join(map(str, index_list(j)))
    return tuple(f"{stem}:{k}" for k in range(j.bit_count() + 1))


def build_uniform_presentation(lat: SubsetLattice, n: int) -> SetSystem:
    """A presentation of the rank-r uniform matroid on [n] realizing ``lat``.

    Element j < r lies in the sets indexed by ``least[j]``, so its
    support is the least member holding j; the elements from r on lie in
    every set.  One pass over the map's bits puts each j in its sets.
    Builds with the same n share one ground.
    ``lat`` is trusted to be closed and to hold the empty set and [r];
    ``verify`` checks the result is uniform.
    """
    if n > MAX_ELEMENTS:  # before n names and a 2^n mask are built
        raise ValueError(f"ground set larger than {MAX_ELEMENTS} elements")
    r = lat.r
    if n < r:
        raise ValueError("n must be at least the number of sets")
    least = lat.least_containing()
    if len(least) != r:
        raise ValueError("an index appears first in no member")
    sets = [((1 << n) - 1) & ~((1 << r) - 1)] * r
    for j, m in least.items():
        bit = 1 << j
        while m:
            low = m & -m
            sets[low.bit_length() - 1] |= bit
            m ^= low
    return SetSystem(_numbered_ground(n), tuple(sets))


@lru_cache(maxsize=None)  # n <= MAX_ELEMENTS, checked by the caller
def _numbered_ground(n: int) -> GroundSet:
    """The ground ``"1"``..``"n"``, built once per n and shared."""
    return GroundSet(tuple(str(i + 1) for i in range(n)))


def ideals_of_poset(points: int, less) -> SubsetLattice:
    """The lattice of order ideals (down-closed sets) of a finite poset.

    ``less`` lists strict 1-based pairs (i, j) meaning i < j, and cycles
    are rejected.  The transitive closure is Warshall's: for each point
    k in turn, every j with k below it takes in what lies below k.
    """
    if points < 0 or points > 16:
        raise ValueError("poset size out of range")
    below = [0] * points  # below[j]: strict predecessors of j
    for i, j in less:
        if not (1 <= i <= points and 1 <= j <= points) or i == j:
            raise ValueError(f"bad pair ({i}, {j})")
        below[j - 1] |= 1 << (i - 1)
    for k in range(points):
        for j in range(points):
            if below[j] >> k & 1:
                below[j] |= below[k]
    for j in range(points):
        if below[j] & (1 << j):
            raise ValueError("relation is not a partial order (cycle)")
    return ideal_lattice(below)


def ideal_lattice(below) -> SubsetLattice:
    """The down-sets of a strict order; ``below[j]`` masks the points under j.

    The order must be transitive and acyclic, as ``ideals_of_poset``
    leaves it.  A down-set holding j holds ``below[j]``, so the least
    one holding j is ``below[j]`` with j, and the down-sets are those of
    that least map (``SubsetLattice.from_least``).
    """
    return SubsetLattice.from_least([b | 1 << j for j, b in enumerate(below)])
