"""Reference outputs computed without the package under test.

Nothing here imports ``tmlat``: the benchmark's inputs and the outputs
it expects are derived from first principles, so a change to the
package cannot move its own reference.  Subsets are int bitmasks, as in
the package; serialized index sets are 1-based.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations


def bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def family_key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Bipartite matching of elements into the sets that hold them.


def adjacency(sets, n: int) -> list[int]:
    """For each element, the mask of set indices containing it."""
    adj = [0] * n
    for i, a in enumerate(sets):
        for e in bits(a):
            adj[e] |= 1 << i
    return adj


def _augment(element: int, reach: int, owner: dict, adj, seen: list) -> bool:
    for j in bits(reach & ~seen[0]):
        seen[0] |= 1 << j
        holder = owner.get(j)
        if holder is None or _augment(holder, adj[holder], owner, adj, seen):
            owner[j] = element
            return True
    return False


def max_matching(adj, elements: int) -> dict:
    """A maximum matching of the elements in the mask; set index -> element."""
    owner: dict = {}
    for e in bits(elements):
        _augment(e, adj[e], owner, adj, [0])
    return owner


def is_matchable(adj, elements: int) -> bool:
    return len(max_matching(adj, elements)) == elements.bit_count()


def bases_of(sets, n: int, rank: int) -> set[int]:
    """Every ``rank``-subset of the n elements that the sets can match."""
    adj = adjacency(sets, n)
    out = set()
    for combo in combinations(range(n), rank):
        mask = sum(1 << e for e in combo)
        if is_matchable(adj, mask):
            out.add(mask)
    return out


# ---------------------------------------------------------------------------
# Closed index sets as up-sets of a relation (Birkhoff).
#
# Index k lies in the closure of I exactly when a fresh element placed in
# the sets of I augments a maximum matching of the elements outside A_k.
# That happens when some single j in I already does, so the closed sets
# are the up-sets of the relation j -> k.


def closure_successors(sets, n: int) -> list[int]:
    """succ[j]: the indices k != j that every closed set holding j holds."""
    r = len(sets)
    full = (1 << n) - 1
    adj = adjacency(sets, n)
    succ = [0] * r
    for k in range(r):
        owner = max_matching(adj, full & ~sets[k])
        for j in range(r):
            if j != k and _augment(-1, 1 << j, dict(owner), adj, [0]):
                succ[j] |= 1 << k
    return succ


def up_sets(succ, limit: int | None = None) -> list[int] | None:
    """All sets closed under ``succ``; None once more than ``limit`` exist."""
    r = len(succ)
    closure = []
    for i in range(r):
        out, todo = 1 << i, 1 << i
        while todo:
            low = todo & -todo
            todo ^= low
            new = succ[low.bit_length() - 1] & ~out
            out |= new
            todo |= new
        closure.append(out)
    found: list[int] = []

    def walk(i: int, inside: int, outside: int) -> bool:
        if i == r:
            found.append(inside)
            return limit is None or len(found) <= limit
        bit = 1 << i
        if inside & bit:
            return walk(i + 1, inside, outside)
        if not walk(i + 1, inside, outside | bit):
            return False
        grown = inside | closure[i]
        return bool(grown & outside) or walk(i + 1, grown, outside)

    return found if walk(0, 0, 0) else None


# ---------------------------------------------------------------------------
# The command-line renderings of a lattice.


def lattice_text(r: int, members) -> str:
    """What ``tmlat lattice`` prints for this family."""
    sets = [[i + 1 for i in bits(m)] for m in sorted(members, key=family_key)]
    return json.dumps({"r": r, "sets": sets}, indent=2) + "\n"


def _node(m: int) -> str:
    return '"{' + ",".join(str(i + 1) for i in bits(m)) + '}"'


def hasse_text(members) -> str:
    """What ``tmlat lattice --dot`` prints for a union- and
    intersection-closed family.

    In such a family the least member holding index i is join-irreducible,
    a member's height counts the join-irreducibles below it, and the
    covers of ``a`` are the minimal sets ``a | least[i]``.
    """
    mem = sorted(members, key=family_key)
    top = bottom = mem[-1]
    for m in mem:
        top |= m
        bottom &= m
    least = {}
    for i in bits(top):
        inter = top
        for m in mem:
            if m >> i & 1:
                inter &= m
        least[i] = inter
    joins = set(least.values()) - {bottom}
    levels: dict[int, list[int]] = {}
    for m in mem:
        levels.setdefault(sum(1 for j in joins if j & m == j), []).append(m)
    covers = []
    for a in mem:
        above = {a | least[i] for i in bits(top & ~a)}
        covers.extend((a, b) for b in above
                      if not any(c != b and c & b == c for c in above))
    covers.sort(key=lambda p: (family_key(p[0]), family_key(p[1])))

    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=plaintext];"]
    lines.extend(f"  {_node(m)};" for m in mem)
    for h in sorted(levels):
        group = "; ".join(_node(m) for m in levels[h])
        lines.append(f"  {{ rank=same; {group}; }}")
    lines.extend(f"  {_node(lo)} -> {_node(hi)};" for lo, hi in covers)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Rank-3 matroids given by their lines.


def paving_bases(n: int, lines) -> list[int]:
    """Bases of the simple rank-3 matroid whose long lines are ``lines``.

    Lines are point masks of size >= 3 meeting pairwise in at most one
    point; every triple off a line is a basis.
    """
    out = []
    for combo in combinations(range(n), 3):
        mask = sum(1 << e for e in combo)
        if not any(mask & line == mask for line in lines):
            out.append(mask)
    return out


K4_LINES = (0b000111, 0b011001, 0b101010, 0b110100)
FANO_LINES = (0b0000111, 0b0011001, 0b1100001, 0b0101010,
              0b1010010, 0b1001100, 0b0110100)
# The non-Fano plane relaxes one line of the Fano plane.
NON_FANO_LINES = FANO_LINES[:-1]
