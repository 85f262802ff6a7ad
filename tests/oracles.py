"""Independent brute-force oracles for the matching, rank and closure layers.

These deliberately avoid augmenting paths: rank is computed by direct
recursion over assignment choices, independence by checking the
counting condition on every subset.  Family closure is a plain
fixpoint over all pairs.
"""

from tmlat.core import bit_indices, submasks


def brute_rank(system, x_mask):
    """Largest number of elements of x_mask assignable to distinct sets."""
    sup = [system.support(1 << e) for e in bit_indices(x_mask)]

    def best(i, used):
        if i == len(sup):
            return 0
        top = best(i + 1, used)
        for j in bit_indices(sup[i] & ~used):
            top = max(top, 1 + best(i + 1, used | (1 << j)))
        return top

    return best(0, 0)


def counting_independent(system, x_mask):
    """Every subset must meet at least as many sets as it has elements."""
    for z in submasks(x_mask):
        if system.support(z).bit_count() < z.bit_count():
            return False
    return True


def union_intersection_closure(members, r: int) -> frozenset[int]:
    """Generic fixpoint closure under pairwise union and intersection."""
    fam = set(members)
    changed = True
    while changed:
        changed = False
        for a in list(fam):
            for b in list(fam):
                for c in (a | b, a & b):
                    if c not in fam:
                        fam.add(c)
                        changed = True
    return frozenset(fam)
