"""The index-wise order on presentations of a transversal matroid.

A presentation here is a SetSystem whose matroid has rank equal to the
number of sets.  One presentation precedes another when each of its sets
is contained in the corresponding set of the other; reindexing is a
separate, coarser comparison used only where explicitly needed.
"""

from __future__ import annotations

from . import matching
from .core import SetSystem, bit_indices

# Presentations one ``minimal_presentations_below`` walk may reach.  It
# reaches each at most once, but their number, like the number of
# minimal presentations, can grow exponentially with the input, so past
# this the walk fails.
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


def maximal_sets(system: SetSystem, dels, sup) -> tuple[int, ...]:
    """Each set of ``system`` joined with the coloops of its deletion.

    ``dels`` holds the matching pass's ``Deletion`` of each set and
    ``sup`` the element supports.  Adding e to the i-th set keeps the
    matroid exactly when e is a coloop of the deletion of that set,
    which ``coloop_mask`` reads off the matching of that deletion the
    pass keeps.
    """
    full = system.ground.full_mask
    return tuple(a | matching.coloop_mask(full & ~a, d.matching, sup)
                 for a, d in zip(system.sets, dels))


def addable_pairs(system: SetSystem) -> list[tuple[int, int]]:
    """(set index, element) pairs whose addition preserves the matroid:
    the bits ``maximal_sets`` adds."""
    grown = maximal_sets(system, require_full_rank(system).sets,
                         matching.element_supports(system))
    return [(i, e) for i, (a, m) in enumerate(zip(system.sets, grown))
            for e in bit_indices(m & ~a)]


def _with_bit(system: SetSystem, i: int, e: int, on: bool) -> SetSystem:
    sets = list(system.sets)
    if on:
        sets[i] |= 1 << e
    else:
        sets[i] &= ~(1 << e)
    return SetSystem(system.ground, tuple(sets))


def maximalize(system: SetSystem) -> SetSystem:
    """The greatest presentation of the same matroid above this one.

    Every addable pair is applied in one pass: each set takes the
    coloops of its deletion (``maximal_sets``).  Additions keep the
    matroid, growing A_i leaves every other set's complement unchanged,
    and coloops of M|(E - A_i) stay coloops after other coloops are
    deleted, so each pair stays addable after the others; and the
    restriction left once all its coloops are deleted has none.
    """
    return SetSystem(system.ground, maximal_sets(
        system, require_full_rank(system).sets,
        matching.element_supports(system)))


def is_maximal(system: SetSystem) -> bool:
    return maximal_sets(system, require_full_rank(system).sets,
                        matching.element_supports(system)) == system.sets


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

    With a nonempty ``keep`` mask only presentations preserving the
    supports of every kept element are listed; deleting the kept
    elements must not drop the rank.  A walk that visits more than
    ``MINIMAL_BUDGET`` presentations raises ValueError.

    The walk shrinks one set at a time, in index order.  At level i the
    sets before i are final and those after i are the input's; a
    depth-first search over the values X of set i carries a maximum
    matching of E - X, which never uses set i.  Element e leaves set i,
    keeping the matroid, exactly when it augments that matching through
    its sets other than i (the criterion of ``removable_pairs``), and
    the augmented copy is then a maximum matching of E - (X - e).  The
    matching has at most r - 1 edges.  With fewer, E - X does not span
    the rank r - 1 matroid of the sets other than i, so some element of
    X augments.  With r - 1, no element of X lies in the hyperplane
    cl(E - X), since one matched to set i would extend a basis of E - X
    to r independent elements.  So X is then the cocircuit E - cl(E - X),
    no element leaves, and the walk moves on to set i + 1.

    Let B be a minimal presentation below the input A that keeps the
    kept elements.  Every C with B <= C <= A presents the matroid, since
    its independent sets lie between those of B and of A.  So at level
    i, with the sets before i those of B, each removal of an element of
    A_i - B_i on the way down to B_i is one the search can make, and the
    search reaches B_i.  The sets of B are cocircuits, which form an
    antichain, so no value strictly above B_i is one and the search
    moves on below B_i alone.  A level's search reaches each value of X
    once, and the sets before i fix the level, so B is reached along one
    path and the output needs no dedupe.  Kept elements never leave; a
    branch in which only kept elements could leave lists nothing.  Each
    presentation charged to the budget presents the matroid below A, so
    a walk over every such presentation visits it too.
    """
    require_full_rank(system)
    r = system.r
    full = system.ground.full_mask
    if keep and matching.rank(system, full & ~keep) != r:
        raise ValueError("kept elements must leave the rank intact")
    out: list[SetSystem] = []
    visits = 1

    def below(current: tuple[int, ...], sup: tuple[int, ...], i: int) -> None:
        """List the minimal presentations below ``current`` that keep its
        first i sets; ``sup`` holds the element supports of ``current``."""
        nonlocal visits
        if i == r:
            out.append(SetSystem(system.ground, current))
            return
        bit = 1 << i
        start = current[i]
        seen = {start}
        # set i is blocked in every search, so its stale bits in sup
        # never matter until the level ends
        todo = [(start, matching._max_matching_owner(
            system, full & ~start, sup=sup))]
        while todo:
            x, owner = todo.pop()
            if len(owner) == r - 1:
                cut = list(sup)
                for e in bit_indices(start & ~x):
                    cut[e] &= ~bit
                below(current[:i] + (x,) + current[i + 1:], tuple(cut), i + 1)
                continue
            for e in bit_indices(x & ~keep):
                child = x & ~(1 << e)
                if child in seen:
                    continue
                trial = dict(owner)
                if not matching.augment(sup, trial, e, bit):
                    continue
                seen.add(child)
                visits += 1
                if visits > MINIMAL_BUDGET:
                    raise ValueError("minimal presentation walk capped at "
                                     f"{MINIMAL_BUDGET} visited presentations")
                todo.append((child, trial))

    below(system.sets, matching.element_supports(system), 0)
    return sorted(out, key=lambda c: c.sets)
