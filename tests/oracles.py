"""Independent brute-force oracles for the matching, rank and closure layers.

These deliberately avoid augmenting paths: rank is computed by direct
recursion over assignment choices, independence by checking the
counting condition on every subset.  The closed index sets are found
by testing every outside index of every index set, from a list of
those indices, and the reaches they test come from every assignment of
elements to sets.  The catalog lattices are the powerset with each
interval tested on every subset, and an order's transitive closure is
a fixpoint over its points.  Family closure is a plain fixpoint over
all pairs (under intersection alone, the oracle of the support route
and of the common-extension check), the census table closes each
generator family from the one without its lowest member, and the lattice read-offs (covers, heights, first
occurrences, meet-irreducibles) compare members pairwise or
triplewise, and the Hasse diagram's DOT text is written from them.
The maximal presentation of a lattice gives a block to every nonempty
member, not only to each join-irreducible, and the uniform one fills
each set by its own pass over the least map.  The moves
between presentations re-match every basis after each single change,
or re-match the deletion of a set without each outside element.  The
minimal presentations below one come from the walk over every
presentation between them, one matching pass per visit.  The
verify suites' inputs and checks come from the walks they replaced:
every subset of relation pairs closed and deduplicated, one matching per r-subset for uniformity, and maximal
sublattices by comparing all pairs of candidates.  Lattice files are
checked by visiting every pair of members and written by Python's
indenting JSON encoder.  Kuhn's search starts each element with
nothing visited and re-enters sets a deeper call already visited;
the deletion pass makes each matching through ``_max_matching_owner``
and reads each reach by a separate fixpoint call; circuits shrink by
one rank query per element; common extensions compare the bases of
every extension.  The basis exchange axiom is
scanned over every pair of bases and every element of their difference.
A matroid's circuits come from a scan of all 2^n subsets, and its
hyperplanes and cyclic flats from closing every independent set of
each rank.  A restriction is presented by cutting every set of a
presentation, and a matroid's restriction keeps the largest traces of
its bases.  The transversality search runs on the restriction to the
elements outside the coloops, its masks translated back.

The helpers that only tests call live here too, so the package keeps
only what the command line, ``verify`` and its own layers use:
``submasks``, the strict order ``prec`` on presentations,
``iterated_extend`` (a fold of ``extend``), ``principal_extension`` of a
matroid, ``cyclic_flat_supports`` of a maximal presentation, and
``is_cyclic``.
"""

import json
from itertools import combinations
from types import MappingProxyType

from tmlat import matching
from tmlat.constructions import ideals_of_poset
from tmlat.extlattice import (CommonExtensions, extend, extension_matroids,
                              fresh_label)
from tmlat.core import (GroundSet, SetSystem, SubsetLattice, bit_indices,
                        family_key, index_list, lattice_doc, mask_of)
from tmlat.matroid import ENUM_LIMIT, Matroid, _cocircuit_search
from tmlat.presentations import (MINIMAL_BUDGET, _with_bit, is_maximal,
                                 preceq, removable_pairs, require_full_rank)
from tmlat.verify import closed_family_table, family_members


def submasks(mask: int):
    """All submasks of ``mask``, descending, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def prec(a, b) -> bool:
    """The strict index-wise order on presentations."""
    return preceq(a, b) and a.sets != b.sets


def iterated_extend(system, isets):
    """Left fold of ``extend`` with generated labels x1, x2, ..."""
    current = system
    for k, iset in enumerate(isets, start=1):
        current = extend(current, iset, fresh_label(current.ground, f"x{k}"))
    return current


def principal_extension(m, y_mask: int, label: str = "x"):
    """Extend ``m`` by one element placed freely on the closure of ``y_mask``."""
    if label in m.ground.names:
        raise ValueError(f"label {label!r} already present")
    ext = GroundSet(m.ground.names + (label,))
    xbit = 1 << m.ground.n
    # Rank rule: adding the new element to Z raises the rank exactly when
    # y_mask does not lie in cl(Z).  With y_mask == 0 the element is a loop.
    bases = set(m.bases())
    if y_mask:
        # The independent (r - 1)-sets are the B - e over the bases B.
        for ind in {b & ~(1 << e) for b in m.bases() for e in bit_indices(b)}:
            if y_mask & ~m.closure(ind):
                bases.add(ind | xbit)
    return Matroid.from_bases(ext, bases)


def cyclic_flat_supports(system) -> SubsetLattice:
    """Supports of the cyclic flats, plus the full index set.

    Only sensible for maximal presentations, where the intersection
    closure of this family recovers the whole closed-set lattice.
    """
    if not is_maximal(system):
        raise ValueError("cyclic flat supports require a maximal presentation")
    m = Matroid.from_system(system)
    members = {system.support(f) for f in m.cyclic_flats()}
    members.add(system.full_index_mask)
    return SubsetLattice(system.r, frozenset(members))


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


def cut_presentation(system, x_mask):
    """A presentation of M|x_mask: every set cut to ``x_mask``, the
    surviving elements reindexed in order."""
    keep = bit_indices(x_mask)
    remap = {old: new for new, old in enumerate(keep)}
    sets = []
    for a in system.sets:
        m = 0
        for e in bit_indices(a & x_mask):
            m |= 1 << remap[e]
        sets.append(m)
    names = tuple(system.ground.names[i] for i in keep)
    return SetSystem(GroundSet(names), tuple(sets))


def restrict(m, x_mask: int) -> Matroid:
    """The restriction to ``x_mask``, reindexed onto the surviving labels:
    its bases are the largest traces ``B & x_mask`` of the bases."""
    keep = bit_indices(x_mask)
    sub = GroundSet(tuple(m.ground.names[i] for i in keep))
    rk = m.rank(x_mask)
    bases = set()
    for b in m.bases():
        if (b & x_mask).bit_count() == rk:
            out = 0
            for new, old in enumerate(keep):
                if b & (1 << old):
                    out |= 1 << new
            bases.add(out)
    return Matroid(sub, bases)


def brute_transversal_presentation(m):
    """The cocircuit search on a restricted copy: coloops split off, the
    coloop-free part searched, its masks translated back to the full
    ground, then one singleton per coloop."""
    r = m.full_rank
    coloop_mask = m.coloops()
    core_mask = m.ground.full_mask & ~coloop_mask
    core = restrict(m, core_mask)
    r0 = r - coloop_mask.bit_count()

    if r0 == 0:
        core_sets = ()
    elif core.ground.n > ENUM_LIMIT:
        raise ValueError(f"transversality search capped at {ENUM_LIMIT} "
                         f"elements")
    else:
        core_sets = _cocircuit_search(core, r0, 0)
    if core_sets is None:
        return None

    keep = bit_indices(core_mask)
    sets = []
    for a in core_sets:
        full = 0
        for new, old in enumerate(keep):
            if a & (1 << new):
                full |= 1 << old
        sets.append(full)
    sets.extend(1 << e for e in bit_indices(coloop_mask))
    if not sets:
        sets = [0]  # rank-0 matroid: one empty set presents it
    return SetSystem(m.ground, tuple(sets))


def brute_max_matching_owner(system, x_mask):
    """Kuhn's algorithm, a fresh visited mask for each element of x_mask."""
    sup = matching.element_supports(system)
    owner = {}

    def augment_rec(node, visited):
        for j in bit_indices(sup[node] & ~visited[0]):
            visited[0] |= 1 << j
            cur = owner.get(j)
            if cur is None or augment_rec(cur, visited):
                owner[j] = node
                return True
        return False

    for e in bit_indices(x_mask):
        augment_rec(e, [0])
    return owner


def reference_reach_mask(system, owner, sup) -> int:
    """Set indices from which an alternating path reaches a free set:
    the free sets, then matched sets to a fixpoint."""
    good = system.full_index_mask
    for j in owner:
        good ^= 1 << j
    changed = True
    while changed:
        changed = False
        for j, e in owner.items():
            bit = 1 << j
            if not good & bit and sup[e] & good & ~bit:
                good |= bit
                changed = True
    return good


def reference_deletion_pass(system) -> matching.Deletions:
    """``deletion_pass`` as two passes: one ``_max_matching_owner`` call
    per E - A_k, then one ``reference_reach_mask`` call per matching."""
    full = system.ground.full_mask
    sup = matching.element_supports(system)
    owners = [matching._max_matching_owner(system, full & ~a, sup=sup)
              for a in system.sets]
    whole = matching._max_matching_owner(system, system.sets[0],
                                         dict(owners[0]), sup)
    return matching.Deletions(len(whole), tuple(
        matching.Deletion(len(owner), reference_reach_mask(system, owner, sup),
                          MappingProxyType(owner))
        for owner in owners), MappingProxyType(whole))


def pass_fields(dels: matching.Deletions):
    """A pass as plain values, field for field: each deletion's rank,
    reach and matching in insertion order, then the rank and matching
    of E."""
    return ([(d.rank, d.reach, list(d.matching.items())) for d in dels.sets],
            dels.rank, list(dels.matching.items()))


def brute_circuit_through(ext, mask, xbit):
    """Shrink a dependent set with independent core to a circuit through x."""
    for e in bit_indices(mask & ~xbit):
        smaller = mask & ~(1 << e)
        if matching.rank(ext, smaller) < smaller.bit_count():
            mask = smaller
    return mask


def brute_common_extension_lattice(a, b):
    """Common extensions, matching the extension matroids by their bases."""
    if a.ground.names != b.ground.names:
        raise ValueError("presentations live on different ground sets")
    ma, mb = Matroid.from_system(a), Matroid.from_system(b)
    if not ma.equals(mb):
        raise ValueError("the two systems present different matroids")

    recs_a = extension_matroids(a)
    recs_b = extension_matroids(b)
    by_bases = {rec.matroid.bases(): rec.index_set for rec in recs_b}
    pairs = []
    for rec in recs_a:
        j = by_bases.get(rec.matroid.bases())
        if j is not None:
            pairs.append((rec.index_set, j))
    return CommonExtensions(SubsetLattice(a.r, frozenset(i for i, _ in pairs)),
                            SubsetLattice(b.r, frozenset(j for _, j in pairs)),
                            tuple(sorted(pairs, key=lambda p: family_key(p[0]))))


def brute_basis_exchange(bases) -> bool:
    """The exchange axiom over every pair of bases A, B and e in A - B."""
    for a in bases:
        for b in bases:
            for e in bit_indices(a & ~b):
                if not any((a & ~(1 << e)) | (1 << f) in bases
                           for f in bit_indices(b & ~a)):
                    return False
    return True


def is_cyclic(m, x_mask: int) -> bool:
    """True when the restriction of ``m`` to ``x_mask`` has no coloops."""
    r = m.rank(x_mask)
    return all(m.rank(x_mask & ~(1 << e)) == r for e in bit_indices(x_mask))


def brute_circuits(m) -> tuple[int, ...]:
    """Every subset by size: the dependent ones holding no smaller circuit."""
    n = m.ground.n
    found = []
    for x in sorted(range(1 << n), key=family_key):
        if m.rank(x) < x.bit_count() and not any(c & x == c for c in found):
            found.append(x)
    return tuple(found)


def brute_flats_of_rank(m, k: int) -> list[int]:
    """The closures of the independent k-sets, found by growing every
    independent set one larger element at a time."""
    out = set()

    def grow(mask, start, size):
        if size == k:
            out.add(m.closure(mask))
            return
        for e in range(start, m.ground.n):
            if m.rank(mask | (1 << e)) == size + 1:
                grow(mask | (1 << e), e + 1, size + 1)

    if k >= 0:
        grow(0, 0, 0)
    return sorted(out, key=family_key)


def brute_cocircuits(m) -> tuple[int, ...]:
    """The complements of the hyperplanes, the flats of rank r - 1."""
    full = m.ground.full_mask
    return tuple(sorted((full & ~h for h in brute_flats_of_rank(m, m.full_rank - 1)),
                        key=family_key))


def brute_cyclic_flats(m) -> tuple[int, ...]:
    """The flats of every rank that are cyclic."""
    return tuple(sorted({f for k in range(m.full_rank + 1)
                         for f in brute_flats_of_rank(m, k) if is_cyclic(m, f)},
                        key=family_key))


def brute_tight_supports(system) -> set[int]:
    """The supports of element sets whose rank, read off the presented
    matroid's bases, is their support size."""
    m = Matroid.from_system(system)
    return {system.support(x) for x in range(1 << system.ground.n)
            if system.support(x).bit_count() == m.rank(x)}


def counting_independent(system, x_mask):
    """Every subset must meet at least as many sets as it has elements."""
    for z in submasks(x_mask):
        if system.support(z).bit_count() < z.bit_count():
            return False
    return True


def brute_closed_sets(reach) -> list[int]:
    """The subsets I of ``[r]`` with ``I & reach[k] == 0`` for every k not in I.

    Here r = len(reach); all 2^r subsets are walked in ascending order.
    """
    r = len(reach)
    full = (1 << r) - 1
    members = []
    for iset in range(1 << r):
        rest = full & ~iset
        closed = True
        for k in bit_indices(rest):
            if iset & reach[k]:
                closed = False
                break
        if closed:
            members.append(iset)
    return members


def brute_reach(system) -> list[int]:
    """``reach[k]``: the indices i such that a new element in set i alone
    raises the rank of E - A_k, the elements outside the k-th set.

    Every assignment of those elements to distinct sets is grown one
    element at a time as the mask of the sets it fills; the rank is the
    largest mask's size, and the new element raises it exactly when
    some largest mask misses i.
    """
    reach = []
    for a in system.sets:
        filled = {0}
        for e in bit_indices(system.ground.full_mask & ~a):
            sup = system.support(1 << e)
            filled |= {u | 1 << j for u in filled for j in bit_indices(sup & ~u)}
        top = max(u.bit_count() for u in filled)
        reach.append(mask_of(i for i in range(system.r)
                             if any(u.bit_count() == top and not u >> i & 1
                                    for u in filled)))
    return reach


def _interval_hits(x: int, low: int, high_out: int) -> bool:
    """Is x in the interval [low, complement of high_out]?"""
    return x & low == low and x & high_out == 0


def brute_catalog_members(kind: str, r: int, i: int | None = None) -> list[int]:
    """The members of a catalog family: the powerset minus a union of
    intervals, each tested on every subset."""
    if kind in ("implication_chain", "exclusion_chain"):
        if i is None or not 1 <= i < r:
            raise ValueError("chain kinds need 1 <= i < r")
        members = []
        for x in range(1 << r):
            hit = False
            for j in range(1, i + 1):
                prefix = (1 << j) - 1
                nxt = 1 << j
                if kind == "implication_chain":
                    hit = _interval_hits(x, prefix, nxt)
                else:
                    hit = _interval_hits(x, nxt, prefix)
                if hit:
                    break
            if not hit:
                members.append(x)
    elif kind == "two_implications":
        if r < 4:
            raise ValueError("two_implications needs r >= 4")
        members = [x for x in range(1 << r)
                   if not _interval_hits(x, 0b0001, 0b0010)
                   and not _interval_hits(x, 0b0100, 0b1000)]
    else:
        raise ValueError(f"unknown catalog kind {kind!r}")
    return members


def brute_transitive_closure(below) -> list[int]:
    """The transitive closure of ``below[j]``, the points under j, by
    merging in what lies under each point until nothing changes."""
    below = list(below)
    points = len(below)
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
    return below


def intersection_closure(masks, r: int) -> frozenset[int]:
    """Close a family of index sets under pairwise intersection."""
    fam = set(masks)
    frontier = list(fam)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(fam):
                c = a & b
                if c not in fam:
                    fam.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(fam)


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


def brute_validate_lattice(members, r: int) -> SubsetLattice:
    """Check closure under union/intersection and presence of {} and [r]."""
    mem = frozenset(members)
    full = (1 << r) - 1
    if 0 not in mem:
        raise ValueError("the empty set is missing")
    if full not in mem:
        raise ValueError("the full index set is missing")
    for a in mem:
        if a & ~full:
            raise ValueError("member outside the index range")
    for a, b in combinations(mem, 2):
        if (a | b) not in mem:
            raise ValueError(f"union of {index_list(a)} and "
                             f"{index_list(b)} is missing")
        if (a & b) not in mem:
            raise ValueError(f"intersection of {index_list(a)} and "
                             f"{index_list(b)} is missing")
    return SubsetLattice(r, mem)


def brute_lattice_text(lat) -> str:
    """A lattice document as the indenting JSON encoder writes it."""
    return json.dumps(lattice_doc(lat), indent=2)


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


def brute_hasse_dot(lat) -> str:
    """The Hasse diagram's DOT text from labels by ``bit_indices``, edges
    from ``brute_covers`` and rank groups from ``brute_heights``."""
    mem = lat.sorted_members()
    name = {m: '"{' + ",".join(str(i + 1) for i in bit_indices(m)) + '}"'
            for m in mem}
    heights = brute_heights(lat)
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=plaintext];"]
    lines.extend(f"  {name[m]};" for m in mem)
    for h in sorted(set(heights.values())):
        group = "; ".join(name[m] for m in mem if heights[m] == h)
        lines.append(f"  {{ rank=same; {group}; }}")
    lines.extend(f"  {name[lo]} -> {name[hi]};" for lo, hi in brute_covers(lat))
    return "\n".join(lines + ["}"]) + "\n"


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


def brute_meet_irreducibles(lat):
    """For each index i above the bottom, the union of the members
    avoiding i, in ``family_key`` order."""
    top = bottom = None
    for m in lat.members:
        top = m if top is None else top | m
        bottom = m if bottom is None else bottom & m
    out = set()
    for i in bit_indices(top & ~bottom):
        union = 0
        for m in lat.members:
            if not m & (1 << i):
                union |= m
        out.add(union)
    return sorted(out, key=family_key)


def brute_maximal_presentation(lat):
    """A block of |I|+1 fresh elements for every nonempty member I, lying
    in exactly the sets indexed by I: sum(|I| + 1) elements in all."""
    names = []
    blocks = []  # (member, element mask)
    for m in lat.sorted_members():
        if m:
            start = len(names)
            stem = "-".join(map(str, index_list(m)))
            names.extend(f"{stem}:{k}" for k in range(m.bit_count() + 1))
            blocks.append((m, ((1 << (len(names) - start)) - 1) << start))
    sets = [0] * lat.r
    for m, block in blocks:
        for i in bit_indices(m):
            sets[i] |= block
    return SetSystem(GroundSet(tuple(names)), tuple(sets))


def brute_removable_pairs(system):
    """Removable (set index, element) pairs by re-matching every basis."""
    require_full_rank(system)
    bases = sorted(Matroid.from_system(system).bases())
    out = []
    for i, a in enumerate(system.sets):
        for e in bit_indices(a):
            ebit = 1 << e
            smaller = _with_bit(system, i, e, False)
            # Shrinking sets can only lose independent sets, so equality
            # holds as soon as every basis is still matchable; bases that
            # avoid the removed element cannot be affected.
            if all(matching.is_independent(smaller, b)
                   for b in bases if b & ebit):
                out.append((i, e))
    return out


def brute_addable_pairs(system):
    """Addable (set index, element) pairs by one rank query per pair."""
    require_full_rank(system)
    full = system.ground.full_mask
    out = []
    for i, a in enumerate(system.sets):
        rest = full & ~a
        base = matching.rank(system, rest)
        for e in bit_indices(rest):
            if matching.rank(system, rest & ~(1 << e)) == base - 1:
                out.append((i, e))
    return out


def brute_maximalize(system):
    """Fixpoint of single-element additions, one pair at a time."""
    current = system
    while True:
        pairs = brute_addable_pairs(current)
        if not pairs:
            return current
        i, e = pairs[0]
        current = _with_bit(current, i, e, True)


class BudgetProbe(int):
    """A walk budget that records the largest visit count compared with it.

    A walk checks ``visits > MINIMAL_BUDGET`` as it charges a visit.  The
    probe subclasses int, so that test asks the probe's ``__lt__`` first,
    and ``peak`` ends at the number of presentations the walk charged:
    the refused one included when the walk stops at its budget.
    """

    peak = 1

    def __lt__(self, other):
        self.peak = max(self.peak, other)
        return int(self) < other


def brute_minimal_presentations_below(system: SetSystem, keep: int = 0) -> list[SetSystem]:
    """All minimal presentations of the same matroid index-wise below this one,
    by visiting every presentation between them and the input, in every
    order of removals, each with its own matching pass.

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


def brute_poset_lattices(max_points: int):
    """Distinct order-ideal lattices of all labeled posets on <= max_points."""
    seen = set()
    for k in range(max_points + 1):
        pairs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)
                 if i != j]
        for choice in range(1 << len(pairs)):
            chosen = [pairs[t] for t in bit_indices(choice)]
            try:
                lat = ideals_of_poset(k, chosen)
            except ValueError:
                continue
            if lat.members not in seen:
                seen.add(lat.members)
                yield lat


def brute_build_uniform(lat, n: int) -> SetSystem:
    """``build_uniform_presentation`` by one generator pass per set: set
    i holds each j < r whose least member holds i, and every element
    from r on."""
    r = lat.r
    least = lat.least_containing()
    tail = ((1 << n) - 1) & ~((1 << r) - 1)
    sets = tuple(tail | mask_of(j for j, m in least.items() if m >> i & 1)
                 for i in range(r))
    return SetSystem(GroundSet(tuple(str(i + 1) for i in range(n))), sets)


def brute_is_uniform(system, r: int, n: int) -> bool:
    """One matching per r-subset of the ground; above n = 16, full rank only."""
    if n > 16:
        return matching.rank(system, system.ground.full_mask) == r
    for combo in combinations(range(n), r):
        m = 0
        for e in combo:
            m |= 1 << e
        if not matching.is_independent(system, m):
            return False
    return True


def brute_maximal_sublattices(lat):
    """Maximal proper nonempty sublattices, every candidate pair compared."""
    lmask = mask_of(lat.members)
    cands = [f for f in closed_family_table(lat.r)
             if f != lmask and f & ~lmask == 0]
    out = [f for f in cands
           if not any(g != f and f & ~g == 0 for g in cands)]
    return [family_members(f) for f in sorted(out)]


def _add_member(closed: int, x: int, full: int) -> int:
    """Closure of a closed family plus one subset ``x``.

    In a distributive ambient lattice every word in x and the old
    members reduces to (x & a) | b, so one pass over those pairs closes.
    """
    if closed & (1 << x):
        return closed
    out = closed | (1 << x)
    members = bit_indices(closed)
    for a in members + [full]:
        xa = x & a
        out |= 1 << xa
        for b in members:
            out |= 1 << (xa | b)
    return out


def brute_closed_family_table(r):
    """Closure of every generator family over [r], one closure step each:
    the family without its lowest member, closed, plus that member."""
    full = (1 << r) - 1
    table = [0] * (1 << (1 << r))
    for fam in range(1, len(table)):
        low = fam & -fam
        table[fam] = _add_member(table[fam ^ low], low.bit_length() - 1, full)
    return tuple(table)
