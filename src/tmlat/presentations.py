"""The index-wise order on presentations of a transversal matroid.

A presentation here is a SetSystem whose matroid has rank equal to the
number of sets.  One presentation precedes another when each of its sets
is contained in the corresponding set of the other; reindexing is a
separate, coarser comparison used only where explicitly needed.
"""

from __future__ import annotations

from . import matching
from .core import SetSystem, bit_indices

# Presentations one ``minimal_presentations_below`` walk may visit; the
# walk can grow exponentially with the input, so past this it fails.
MINIMAL_BUDGET = 50_000


def require_full_rank(system: SetSystem) -> matching.Deletions:
    """The cached matching pass of ``system``, once it shows full rank.

    Raises ValueError unless the matroid has rank ``system.r``.
    """
    dels = matching.deletion_reach(system)
    if dels.rank != system.r:
        raise ValueError(
            f"system of {system.r} sets presents a matroid of rank {dels.rank}")
    return dels


def preceq(a: SetSystem, b: SetSystem) -> bool:
    """Index-wise containment of the sets of ``a`` in those of ``b``."""
    if a.ground.names != b.ground.names or a.r != b.r:
        raise ValueError("presentations have different shape")
    return all(x & ~y == 0 for x, y in zip(a.sets, b.sets))


def reindexing_equivalent(a: SetSystem, b: SetSystem) -> bool:
    """Equality of the two systems as multisets of sets."""
    if a.ground.names != b.ground.names or a.r != b.r:
        return False
    return sorted(a.sets) == sorted(b.sets)


def deletion_ranks(system: SetSystem) -> list[int]:
    """Rank of the matroid after deleting each set's elements.

    Raises ValueError unless the system has full rank, as
    ``require_full_rank`` does.
    """
    return [d.rank for d in require_full_rank(system).sets]


def presentation_rank(system: SetSystem) -> int:
    """Height of the presentation in the graded order on presentations."""
    r = system.r
    return r * (r - 1) - sum(deletion_ranks(system))


def is_minimal(system: SetSystem) -> bool:
    """Minimal presentations delete down to rank r-1 at every set."""
    r = system.r
    return all(d == r - 1 for d in deletion_ranks(system))


def addable_pairs(system: SetSystem) -> list[tuple[int, int]]:
    """(set index, element) pairs whose addition preserves the matroid.

    Adding e to the i-th set is sound exactly when e is a coloop of the
    deletion of that set, which ``coloop_mask`` reads off the matching
    of that deletion the cached pass keeps.
    """
    dels = require_full_rank(system).sets
    full = system.ground.full_mask
    sup = matching.element_supports(system)
    return [(i, e) for i, (a, d) in enumerate(zip(system.sets, dels))
            for e in bit_indices(
                matching.coloop_mask(full & ~a, d.matching, sup))]


def _with_bit(system: SetSystem, i: int, e: int, on: bool) -> SetSystem:
    sets = list(system.sets)
    if on:
        sets[i] |= 1 << e
    else:
        sets[i] &= ~(1 << e)
    return SetSystem(system.ground, tuple(sets))


def maximalize(system: SetSystem) -> SetSystem:
    """The greatest presentation of the same matroid above this one.

    Every addable pair is applied in one pass.  Additions keep the
    matroid, growing A_i leaves every other set's complement unchanged,
    and coloops of M|(E - A_i) stay coloops after other coloops are
    deleted, so each pair stays addable after the others; and the
    restriction left once all its coloops are deleted has none.
    """
    sets = list(system.sets)
    for i, e in addable_pairs(system):
        sets[i] |= 1 << e
    return SetSystem(system.ground, tuple(sets))


def is_maximal(system: SetSystem) -> bool:
    return not addable_pairs(system)


def removable_pairs(system: SetSystem) -> list[tuple[int, int]]:
    """(set index, element) pairs whose removal still presents the matroid.

    Removing e from A_i keeps the matroid exactly when i lies in the
    closure of supp(e) - {i} once e is deleted from every set: when e,
    adjacent to its sets other than i, augments a maximum matching of
    E - A_i.  That matching avoids e, so the cached reach mask decides.
    """
    dels = require_full_rank(system).sets
    sup = matching.element_supports(system)
    return [(i, e) for i, a in enumerate(system.sets) for e in bit_indices(a)
            if sup[e] & ~(1 << i) & dels[i].reach]


def cover_chain(system: SetSystem) -> tuple[SetSystem, ...]:
    """Single-element steps from some minimal presentation up to ``system``.

    Each step covers the one before it, so the chain has
    ``presentation_rank(system) + 1`` steps.
    """
    steps = [system]
    while pairs := removable_pairs(steps[-1]):
        i, e = pairs[0]
        steps.append(_with_bit(steps[-1], i, e, False))
    return tuple(reversed(steps))


def minimal_presentations_below(system: SetSystem, keep: int = 0) -> list[SetSystem]:
    """All minimal presentations of the same matroid index-wise below this one.

    With a nonempty ``keep`` mask the result is filtered to presentations
    preserving the supports of every kept element; deleting the kept
    elements must not drop the rank.  A walk that visits more than
    ``MINIMAL_BUDGET`` presentations raises ValueError.
    """
    require_full_rank(system)
    r = system.r
    if keep:
        if matching.rank(system, system.ground.full_mask & ~keep) != r:
            raise ValueError("kept elements must leave the rank intact")
    seen: set[tuple[int, ...]] = set()
    found: dict[tuple[int, ...], SetSystem] = {}

    def visit(key: tuple[int, ...]):
        """Mark ``key`` seen; return it with an iterator over its removals."""
        # only unseen keys become systems, since most steps revisit one
        seen.add(key)
        if len(seen) > MINIMAL_BUDGET:
            raise ValueError("minimal presentation walk capped at "
                             f"{MINIMAL_BUDGET} visited presentations")
        current = SetSystem(system.ground, key)
        pairs = removable_pairs(current)
        if not pairs:
            found[key] = current
        return key, iter(pairs)

    # Depth first, one stack entry per presentation on the current path:
    # a path can be r(r - 1) removals long, too deep for recursion.
    stack = [visit(system.sets)]
    while stack:
        key, pairs = stack[-1]
        for i, e in pairs:
            below = key[:i] + (key[i] & ~(1 << e),) + key[i + 1:]
            if below not in seen:
                stack.append(visit(below))
                break
        else:
            stack.pop()
    out = [c for c in found.values()
           if all(c.support(1 << e) == system.support(1 << e)
                  for e in bit_indices(keep))]
    return sorted(out, key=lambda c: c.sets)
