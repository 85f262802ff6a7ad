"""Independent brute-force oracles for the matching, rank and closure layers.

These deliberately avoid augmenting paths: rank is computed by direct
recursion over assignment choices, independence by checking the
counting condition on every subset.  Family closure is a plain
fixpoint over all pairs, and the lattice read-offs (covers, heights,
first occurrences) compare members pairwise or triplewise.
"""

from tmlat.core import bit_indices, family_key, submasks


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


def brute_covers(lat):
    """Cover pairs by testing every triple of members."""
    mem = lat.sorted_members()
    out = []
    for a in mem:
        for b in mem:
            if a != b and a & b == a:
                if not any(c != a and c != b and a & c == a and c & b == c
                           for c in mem):
                    out.append((a, b))
    return sorted(out, key=lambda p: (family_key(p[0]), family_key(p[1])))


def brute_heights(lat):
    """Longest-chain heights, each member one above its highest submember."""
    up = {}
    for m in lat.sorted_members():
        below = [up[c] for c in lat.members if c != m and c & m == c]
        up[m] = 1 + max(below) if below else 0
    return up


def brute_first_occurrence(lat):
    """Each member minus the union of the members strictly inside it."""
    occ = {}
    for m in lat.members:
        below = 0
        for other in lat.members:
            if other != m and other & m == other:
                below |= other
        occ[m] = m & ~below
    return occ
