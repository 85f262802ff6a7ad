"""Single-element extensions of a presentation and their lattices.

Adjoining a fresh element to the sets indexed by I yields an extension
of the presented matroid.  Distinct index sets can give the same
extension; each extension has a unique largest describing index set,
and those closed sets form a distributive lattice (join is union, meet
is intersection) isomorphic to the weak order on the extensions.

The lattice is fixed by its least map i ↦ σ({i}) (Birkhoff), which
``least_map`` reads off the deletion reaches; comparing two maps
compares two lattices without listing either.  Two independent
constructions of the members are kept side by side: the down-sets of
that map, scanned by ``SubsetLattice.from_least``, and a generator
route that reads σ off the tight supports of independent sets and
scans the same way.  Each serves as the oracle for the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from . import matching
from .core import (SetSystem, GroundSet, SubsetLattice, bit_indices,
                   family_key, index_texts, least_containing)
from .matroid import Matroid
from .presentations import maximal_sets, require_full_rank

# The support route walks all 2^r index sets; the scan walks the 2^a
# subsets of its a active indices and lists up to 2^r members.
SCAN_LIMIT = 20


def fresh_label(ground: GroundSet, stem: str = "x") -> str:
    if stem not in ground.names:
        return stem
    k = 1
    while f"{stem}{k}" in ground.names:
        k += 1
    return f"{stem}{k}"


def extend(system: SetSystem, iset: int, label: str = "x") -> SetSystem:
    """Adjoin a fresh element to the sets indexed by ``iset``."""
    if label in system.ground.names:
        raise ValueError(f"label {label!r} already in the ground set")
    if iset & ~system.full_index_mask:
        raise ValueError("index set out of range")
    ground = GroundSet(system.ground.names + (label,))
    xbit = 1 << system.ground.n
    sets = tuple(a | xbit if iset & (1 << i) else a
                 for i, a in enumerate(system.sets))
    return SetSystem(ground, sets)


def extension_matroid(system: SetSystem, iset: int, label: str = "x",
                      visits=None) -> Matroid:
    return Matroid.from_system(extend(system, iset, label), visits)


def index_closure(system: SetSystem, iset: int) -> int:
    """The greatest index set describing the same extension as ``iset``.

    An outside index k joins the closure exactly when the new element
    would become a coloop after deleting the k-th set, i.e. when the
    new element can augment a maximum matching of that deletion.
    """
    dels = require_full_rank(system).sets
    if iset & ~system.full_index_mask:
        raise ValueError("index set out of range")
    out = iset
    for k in range(system.r):
        bit = 1 << k
        if not iset & bit and iset & dels[k].reach:
            out |= bit
    return out


def least_map(system: SetSystem) -> list[int]:
    """σ({i}) for each index i: the least closed index set holding i.

    Index k's deletion reach holds the indices that put k in the closure
    of any index set meeting them, so σ({i}) = {i} | {k : i in reach[k]},
    read off the cached reaches in O(r^2) bit steps.  The map fixes the
    lattice (Birkhoff), so two presentations with r sets have equal
    extension lattices exactly when their maps are equal.
    """
    dels = require_full_rank(system).sets
    least = [1 << i for i in range(system.r)]
    for k, d in enumerate(dels):
        bit = 1 << k
        rk = d.reach & ~bit  # least[k] holds k already
        while rk:
            low = rk & -rk
            least[low.bit_length() - 1] |= bit
            rk ^= low
    return least


def extension_lattice(system: SetSystem) -> SubsetLattice:
    """All closed index sets: the down-sets of the least map.

    σ(I) is the union of the σ({i}) for i in I, so I is closed exactly
    when it holds ``least_map(system)[i]`` for each of its indices.
    ``SubsetLattice.from_least`` lists those in 2^a tests and |L|
    outputs, for the a indices with σ({i}) ≠ {i}, and hands the lattice
    the map.
    """
    least = least_map(system)
    if system.r > SCAN_LIMIT:
        raise ValueError(f"scan strategy capped at {SCAN_LIMIT} sets")
    return SubsetLattice.from_least(least)


def tight_supports(system: SetSystem) -> frozenset[int]:
    """Supports of sets whose rank matches their support size.

    The family is closed under union but not, in general, under
    intersection.  An index set K belongs exactly when the elements
    supported inside K admit a matching onto all of K.  Those elements
    lie in no set outside K, so their rank in the whole system counts
    that matching.  Their rank is at most their number, so K with fewer
    inside elements than indices is out without a matching.
    """
    require_full_rank(system)
    r = system.r
    if r > SCAN_LIMIT:
        raise ValueError(f"support strategy capped at {SCAN_LIMIT} sets")
    sup = matching.element_supports(system)
    n = system.ground.n
    members = []
    for k_mask in range(1 << r):
        inside = 0
        for e in range(n):
            if sup[e] and sup[e] & ~k_mask == 0:
                inside |= 1 << e
        size = k_mask.bit_count()
        if inside.bit_count() >= size and matching.rank(system, inside) == size:
            members.append(k_mask)
    return frozenset(members)


def extension_lattice_from_supports(system: SetSystem) -> SubsetLattice:
    """The lattice the tight supports generate, read off its least map.

    The supports hold ∅ and [r] and are closed under union, so their
    intersections are too; i's least member is the intersection of the
    supports holding i, and ``from_least`` scans that map's down-sets.
    """
    least = least_containing(tight_supports(system))
    return SubsetLattice.from_least(list(least.values()))


@dataclass(frozen=True)
class ExtensionRecord:
    """A closed index set paired with the extension matroid it describes."""

    index_set: int
    matroid: Matroid


def extension_matroids(system: SetSystem) -> tuple[ExtensionRecord, ...]:
    """One record per closed index set, in canonical order, the new
    element labelled apart from the ground; the basis walks of all
    records share one ``BASES_BUDGET``."""
    lat = extension_lattice(system)
    label = fresh_label(system.ground)
    visits = count(1)
    return tuple(ExtensionRecord(i, extension_matroid(system, i, label, visits))
                 for i in lat.sorted_members())


def irreducibles(lat: SubsetLattice):
    """Join- and meet-irreducible members, with the least-cover map.

    Returns (join_irr, meet_irr, least_containing) where
    ``least_containing[i]`` is the smallest member containing index i.
    Join-irreducibles are the distinct such minima (omitting the bottom
    member); meet-irreducibles are the distinct maxima avoiding an index.
    Every member is the bottom joined with the ``least[j]`` of its
    indices, so the greatest member avoiding i is the bottom joined with
    the ``least[j]`` that avoid i: O(r^2) steps once the map is built.
    """
    if not lat.members:
        raise ValueError("empty family")
    mem = lat.sorted_members()
    bottom, top = mem[0], mem[-1]
    least = lat.least_containing()
    join_irr = sorted(set(least.values()) - {bottom}, key=family_key)
    meet_irr = set()
    for i in bit_indices(top & ~bottom):
        avoid = bottom
        for m in least.values():
            if not m >> i & 1:
                avoid |= m
        meet_irr.add(avoid)
    return join_irr, sorted(meet_irr, key=family_key), least


@dataclass(frozen=True)
class CommonExtensions:
    """The matched sublattices of common extensions of two presentations."""

    lattice_ab: SubsetLattice
    lattice_ba: SubsetLattice
    pairs: tuple[tuple[int, int], ...]


def common_extension_lattice(a: SetSystem, b: SetSystem) -> CommonExtensions:
    """Extensions reachable from both presentations of one matroid.

    A transversal matroid has one maximal presentation, up to the order
    of its sets (Bondy; Mason).  So full-rank ``a`` and ``b`` present one
    matroid exactly when their maximal sets agree as sorted tuples.
    Likewise a closed set I of ``a`` and one J of ``b`` describe one
    extension M + x exactly when adjoining x to the sets of I, and to
    those of J, gives equal maximal sets.  Each closed set is keyed by
    those sorted sets, read off the pass ``require_full_rank`` caches;
    x is only the bit ``1 << n`` and is never adjoined.  The maximal
    set of k in the extension is A'_k joined with the coloops of
    M'|(E' - A'_k), where M' is the extension and G_k = A_k + coloops
    of M|(E - A_k) the maximal set of k in M:

    - k in I: A'_k = A_k + x, its deletion is E - A_k, and M' agrees
      with M there, so the set is G_k + x.
    - k not in I: I is closed, so I misses reach[k] and x does not
      augment the matching of E - A_k.  Then x lies in cl(E - A_k) and
      is no coloop of E - A_k + x, and the walk of
      ``matching.fundamental_circuit`` from I never meets a free set.
      A coloop e of M|(E - A_k) lies in every basis, so B_k - e spans
      E - A_k - e, B_k the basis the pass matched.  So e stays a coloop
      exactly when x lies in cl(B_k - e): when e is off x's fundamental
      circuit over B_k, which that walk reads.  The set is G_k less the
      circuit.

    With I empty, x is a loop and the key is the sorted G itself, which
    also decides whether the two systems present one matroid.  Equal
    keys are paired.  The matched index sets form sublattices on both
    sides, isomorphic via the pairing; matched sets always have equal
    cardinality.  ``verify.check_intersection`` checks that, and an
    independent description by supports tight on both sides, on every
    result.
    """
    if a.ground.names != b.ground.names:
        raise ValueError("presentations live on different ground sets")
    grown_a, grown_b = (maximal_sets(s, require_full_rank(s).sets,
                                     matching.element_supports(s))
                        for s in (a, b))
    if sorted(grown_a) != sorted(grown_b):
        raise ValueError("the two systems present different matroids")
    xbit = 1 << a.ground.n

    def keys(system: SetSystem, grown) -> dict[int, tuple[int, ...]]:
        dels = require_full_rank(system).sets
        return {i: tuple(sorted(
                    g | xbit if i >> k & 1 else
                    g & ~matching.fundamental_circuit(system, d.matching, i)
                    for k, (g, d) in enumerate(zip(grown, dels))))
                for i in extension_lattice(system).sorted_members()}

    by_key = {key: j for j, key in keys(b, grown_b).items()}
    pairs = tuple((i, by_key[key]) for i, key in keys(a, grown_a).items()
                  if key in by_key)
    return CommonExtensions(SubsetLattice(a.r, frozenset(i for i, _ in pairs)),
                            SubsetLattice(b.r, frozenset(j for _, j in pairs)),
                            pairs)


def hasse_dot(lat: SubsetLattice) -> str:
    """DOT text of the Hasse diagram, byte-stable across runs.

    Nodes carry set labels, edges are cover pairs only, and members of
    equal height share a rank group.  Covers and heights read off the
    least-containing map (``SubsetLattice.covers``, ``heights``).  The
    labels' index lists come from ``core.index_texts``, as the lines of
    ``lattice_text`` do: one concatenation for a label whose set less
    its lowest index is a nonempty member.
    """
    covers = lat.covers()  # refuses an oversized family before any label
    mem = lat.sorted_members()
    digits = [str(i + 1) for i in range(lat.r)]
    name = {m: f'"{{{text}}}"'
            for m, text in zip(mem, index_texts(mem, digits, ","))}

    heights = lat.heights()
    levels: dict[int, list[int]] = {}
    for m in mem:
        levels.setdefault(heights[m], []).append(m)

    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for m in mem:
        lines.append(f"  {name[m]};")
    for h in sorted(levels):
        group = "; ".join(name[m] for m in levels[h])
        lines.append(f"  {{ rank=same; {group}; }}")
    for lo, hi in covers:
        lines.append(f"  {name[lo]} -> {name[hi]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
