"""Brute-force oracles and checkers for the size and intersection bounds.

The census lists every union/intersection-closed family over [r]
(r <= 5), deduplicating up to coordinate permutation.  By Birkhoff such
a family is its bottom joined with the down-sets of a poset on the
blocks of indices its members hold together, so the census reads each
family off one labeled poset of ``_all_poset_lattices``, the generator
the roundtrip check walks: no closure step is taken.  The census is
the independent oracle for the catalog of large sublattices; the
sharpness builders realize presentations that meet each bound with
equality.  All randomized sweeps are seeded and report their seeds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

from . import extlattice, matching
from .core import (GroundSet, SetSystem, SubsetLattice, bit_indices,
                   least_containing, mask_of)
from .presentations import (cover_chain, is_maximal, is_minimal, maximalize,
                            presentation_rank, reindexing_equivalent,
                            removable_pairs, addable_pairs, require_full_rank,
                            _with_bit)
from .constructions import (build_maximal_presentation,
                            build_uniform_presentation, ideal_lattice,
                            validate_lattice, _block_names)

# The census walks every labeled poset on at most r blocks; r = 6 would
# need 130,023 posets on six points and hold 319,987 families.
CENSUS_LIMIT = 5


# ---------------------------------------------------------------------------
# The catalog of large proper sublattices of the powerset of [r].


@dataclass(frozen=True)
class CatalogLattice:
    """One named family from the large-sublattice catalog."""

    kind: str
    r: int
    i: int | None
    lattice: SubsetLattice
    expected_size: int


def catalog_lattice(kind: str, r: int, i: int | None = None) -> CatalogLattice:
    """Build a catalog family: the powerset minus a union of intervals.

    Removing the interval of the sets that hold P and miss k removes the
    sets breaking the implication "P forces k".  So each kind is a least
    map that sends every index to itself except:

    - "implication_chain" removes the intervals forcing index 1 to drag
      along 2, then {1,2} to drag 3, and so on up to i+1.  A set holding
      1 then holds 2, so {1,2}, so 3, ...: σ({1}) = {1..i+1}.
    - "exclusion_chain" is its image under complementation: it removes
      the sets that hold k and miss all of 1..k-1, for k = 2..i+1.  A
      set that holds such a k but not 1 has its lowest index in 2..k,
      and is removed by that index's interval: σ({k}) = {1, k}.
    - "two_implications" removes two disjoint single implications (needs
      r >= 4): σ({1}) = {1, 2} and σ({3}) = {3, 4}.

    ``expected_size`` is the closed formula for the size;
    ``check_classification`` compares it with the members scanned here.
    """
    least = [1 << k for k in range(r)]
    if kind in ("implication_chain", "exclusion_chain"):
        if i is None or not 1 <= i < r:
            raise ValueError("chain kinds need 1 <= i < r")
        if kind == "implication_chain":
            least[0] = (1 << (i + 1)) - 1
        else:
            for k in range(1, i + 1):
                least[k] |= 1
        expect = (1 << (r - 1)) + (1 << (r - i - 1))
    elif kind == "two_implications":
        if r < 4:
            raise ValueError("two_implications needs r >= 4")
        least[0], least[2] = 0b0011, 0b1100
        expect = 9 << (r - 4)
        i = None
    else:
        raise ValueError(f"unknown catalog kind {kind!r}")
    return CatalogLattice(kind, r, i, SubsetLattice.from_least(least), expect)


def catalog(r: int) -> list[CatalogLattice]:
    """Every catalog lattice at this r."""
    out = [catalog_lattice(kind, r, i) for i in range(1, r)
           for kind in ("implication_chain", "exclusion_chain")]
    if r >= 4:
        out.append(catalog_lattice("two_implications", r))
    return out


def catalog_classes(r: int) -> set[int]:
    """Canonical family masks of every catalog lattice at this r."""
    return {canonical_family(mask_of(c.lattice.members), r) for c in catalog(r)}


# ---------------------------------------------------------------------------
# Census of all union/intersection-closed families over [r].
#
# A family of subsets of [r] is encoded as one int with bit m set when
# the subset with mask m belongs to the family.


def family_members(fmask: int) -> frozenset[int]:
    return frozenset(bit_indices(fmask))


@lru_cache(maxsize=8)
def closed_family_table(r: int) -> tuple[int, ...]:
    """Every nonempty union/intersection-closed family over [r], ascending.

    A family with bottom b and top t is b joined with the down-sets of a
    preorder on t - b, and a preorder is a poset on its classes: the
    blocks of indices that every member holds together or misses
    together.  So each index goes to the bottom, above the top, or into
    one of k blocks numbered by their least index, and each labeled
    poset on the k blocks sends its down-set D to b joined with the
    blocks of D.  Each family comes from exactly one placement and one
    poset.  The name is kept because ``bench/spans.py`` times the census
    under it.
    """
    if r > CENSUS_LIMIT:
        raise ValueError(f"census capped at r = {CENSUS_LIMIT}")
    ideals = [[] for _ in range(r + 1)]
    for lat in _all_poset_lattices(r):
        ideals[lat.r].append(lat.members)
    placements = [(0, ())]
    for i in range(r):
        bit = 1 << i
        grown = []
        for bottom, blocks in placements:
            grown += [(bottom | bit, blocks), (bottom, blocks),
                      (bottom, blocks + (bit,))]
            grown += [(bottom, blocks[:j] + (b | bit,) + blocks[j + 1:])
                      for j, b in enumerate(blocks)]
        placements = grown
    families = []
    for bottom, blocks in placements:
        image = [bottom]
        for b in blocks:
            image += [m | b for m in image]
        families += [mask_of(image[d] for d in members)
                     for members in ideals[len(blocks)]]
    return tuple(sorted(families))


@lru_cache(maxsize=8)
def _perm_tables(r: int) -> tuple[tuple[int, ...], ...]:
    tables = []
    for perm in permutations(range(r)):
        remap = []
        for m in range(1 << r):
            out = 0
            for i in bit_indices(m):
                out |= 1 << perm[i]
            remap.append(out)
        tables.append(tuple(remap))
    return tuple(tables)


def canonical_family(fmask: int, r: int) -> int:
    """Least relabeling of a family under coordinate permutations."""
    best = None
    for remap in _perm_tables(r):
        g = 0
        for m in bit_indices(fmask):
            g |= 1 << remap[m]
        if best is None or g < best:
            best = g
    return best


def census_sublattices(r: int, min_size: int) -> list[SubsetLattice]:
    """All closed families with more than min_size members, up to
    permutation: one per class, its canonical representative, ascending."""
    reps = sorted({canonical_family(f, r) for f in closed_family_table(r)
                   if f.bit_count() > min_size})
    return [SubsetLattice(r, family_members(k)) for k in reps]


# ---------------------------------------------------------------------------
# Maximal proper sublattices, directly and through the irreducible rule.


def maximal_proper_sublattices(lat: SubsetLattice) -> list[frozenset[int]]:
    """Every maximal proper nonempty sublattice, by exhaustive enumeration.

    Candidates are met largest first, so a candidate inside a larger one
    is inside some maximum already found: comparing it with those is
    enough.
    """
    lmask = mask_of(lat.members)
    cands = sorted((f for f in closed_family_table(lat.r)
                    if f != lmask and f & ~lmask == 0),
                   key=int.bit_count, reverse=True)
    out: list[int] = []
    for f in cands:
        if not any(f & ~g == 0 for g in out):
            out.append(f)
    return [family_members(f) for f in sorted(out)]


def interval_predicted_sublattices(lat: SubsetLattice) -> list[frozenset[int]]:
    """Maximal sublattices as differences by an irreducible-bounded interval.

    The removed interval [a, b] must contain no join-irreducible other
    than a and no meet-irreducible other than b.
    """
    join_irr, meet_irr, _ = extlattice.irreducibles(lat)
    jset, mset = set(join_irr), set(meet_irr)
    out = set()
    for a in join_irr:
        for b in meet_irr:
            if a & ~b:
                continue
            interval = {m for m in lat.members if m & a == a and m & b == m}
            if interval & jset == {a} and interval & mset == {b}:
                out.add(frozenset(lat.members - interval))
    return sorted(out, key=mask_of)


# ---------------------------------------------------------------------------
# Sharpness families.


def near_uniform_minimal(rank: int) -> SetSystem:
    """A minimal presentation of the rank-``rank`` uniform matroid on rank+1
    elements: every set pairs the hub element with one other."""
    if rank < 1:
        raise ValueError("rank must be positive")
    names = tuple(f"u{i}" for i in range(rank + 1))
    ground = GroundSet(names)
    hub = 1
    sets = tuple(hub | (1 << i) for i in range(1, rank + 1))
    return SetSystem(ground, sets)


def sharp_chain_presentation(minimal_system: SetSystem, k: int) -> SetSystem:
    """Adjoin a coloop to a minimal presentation and smear it over k sets.

    The result has height k in the order on presentations and its
    closed-set lattice meets the size bound for that height exactly.
    """
    if not is_minimal(minimal_system):
        raise ValueError("base presentation must be minimal")
    r = minimal_system.r + 1
    if not 0 <= k < r:
        raise ValueError("k must lie in 0..r-1")
    label = extlattice.fresh_label(minimal_system.ground, "c")
    ground = GroundSet(minimal_system.ground.names + (label,))
    ebit = 1 << minimal_system.ground.n
    sets = [ebit]
    for idx in range(1, r):
        a = minimal_system.sets[idx - 1]
        sets.append(a | ebit if idx <= k else a)
    return SetSystem(ground, tuple(sets))


def sharp_common_pair(r: int) -> tuple[SetSystem, SetSystem]:
    """Two minimal presentations meeting the common-extension bound.

    The matroid is a free part plus a three-point rank-two part; the two
    presentations disagree only on which extra point accompanies the
    last free element.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    names = tuple(f"e{i}" for i in range(1, r)) + ("a", "b")
    ground = GroundSet(names)
    abit, bbit = 1 << (r - 1), 1 << r
    singles = [1 << (i - 1) for i in range(1, r - 1)]
    last = 1 << (r - 2)
    a_sets = tuple(singles + [last | abit, abit | bbit])
    b_sets = tuple(singles + [last | bbit, abit | bbit])
    return SetSystem(ground, a_sets), SetSystem(ground, b_sets)


def disjoint_support_pair(r: int) -> tuple[SetSystem, SetSystem]:
    """Two minimal presentations of U_{r,2r} sharing only the trivial
    extensions: singletons plus the far half, and the near half plus
    singletons."""
    names = tuple(f"g{i}" for i in range(1, 2 * r + 1))
    ground = GroundSet(names)
    near = (1 << r) - 1
    far = ((1 << (2 * r)) - 1) & ~near
    a_sets = tuple((1 << (i - 1)) | far for i in range(1, r + 1))
    b_sets = tuple(near | (1 << (r + i - 1)) for i in range(1, r + 1))
    return SetSystem(ground, a_sets), SetSystem(ground, b_sets)


# ---------------------------------------------------------------------------
# The circuit-support identity for closed index sets.


def circuit_support_identity(system: SetSystem, iset: int) -> bool:
    """Certify that a closed set is the meet of circuit supports.

    Every circuit through the new element has support containing the
    closed set, and for each outside index h some circuit avoids it; a
    witness circuit per index is built from a basis of the deletion
    E - A_h, so no circuit enumeration is needed.  Each witness is the
    fundamental circuit of the new element over a basis, read off a
    maximum matching of that basis by ``matching.fundamental_circuit``:
    the sets an augmenting search from the new element would visit, as a
    closure that neither copies nor changes the matching.  The bases and
    their matchings are the ones the cached ``matching.deletion_reach``
    pass keeps, of E and of each E - A_h, so no matching is made and no
    rank query either; the new element is never adjoined.  The identity
    holds for any choice of bases, so which maximum matchings the pass
    keeps changes no verdict.  The closure of the set is read off the
    same pass's reaches: an outside index h whose reach meets it joins it.
    """
    dels = require_full_rank(system)
    if iset & ~system.full_index_mask:
        raise ValueError("index set out of range")
    outside = bit_indices(system.full_index_mask & ~iset)
    if any(iset & dels.sets[h].reach for h in outside):
        return False
    if iset == 0:
        return True  # the new element is a loop, and {x} is its one circuit

    def witness(owner) -> int | None:
        c = matching.fundamental_circuit(system, owner, iset)
        s = system.support(mask_of(owner.values()) if c is None else c)
        if iset & ~s:
            return None  # containment fails: not a closed set after all
        return s

    acc = witness(dels.matching)
    if acc is None:
        return False
    for h in outside:
        s = witness(dels.sets[h].matching)
        if s is None or s & (1 << h):
            return False
        acc &= s
    return acc == iset


# ---------------------------------------------------------------------------
# Randomized instance sources.


def random_presentation(r: int, n: int, density: float = 0.5,
                        seed: int | None = None,
                        rng: random.Random | None = None) -> SetSystem:
    """A seeded random full-rank presentation; resamples until full rank."""
    if rng is None:
        rng = random.Random(seed)
    if not 1 <= r <= n <= 16:
        raise ValueError("need 1 <= r <= n <= 16")
    ground = GroundSet(tuple(f"e{i}" for i in range(1, n + 1)))
    for _ in range(2000):
        sets = tuple(mask_of(e for e in range(n) if rng.random() < density)
                     for _ in range(r))
        system = SetSystem(ground, sets)
        if matching.rank(system, ground.full_mask) == r:
            return system
    raise ValueError("failed to sample a full-rank system; raise the density")


def presentation_walk(system: SetSystem, steps: int,
                      rng: random.Random) -> SetSystem:
    """A random walk over presentations of the same matroid."""
    current = system
    for _ in range(steps):
        moves = [(True, p) for p in addable_pairs(current)]
        moves += [(False, p) for p in removable_pairs(current)]
        if not moves:
            break
        on, (i, e) = rng.choice(moves)
        current = _with_bit(current, i, e, on)
    return current


# ---------------------------------------------------------------------------
# Verdicts.


@dataclass
class VerdictReport:
    """Outcome of one verification suite; failures carry witnesses."""

    suite: str
    instances: int = 0
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def lines(self) -> list[str]:
        head = f"[{self.suite}] instances={self.instances} failures={len(self.failures)}"
        if self.seed is not None:
            head += f" seed={self.seed}"
        out = [head]
        out.extend(f"  FAIL {f}" for f in self.failures)
        return out

    def to_doc(self) -> dict:
        return {"suite": self.suite, "instances": self.instances,
                "seed": self.seed, "failures": list(self.failures)}


def _indices(mask: int) -> str:
    return "{" + ",".join(str(i + 1) for i in bit_indices(mask)) + "}"


def _check_closed(rep: VerdictReport, lat: SubsetLattice, where: str) -> None:
    """Record a failure unless ``lat`` is a lattice of index sets."""
    try:
        validate_lattice(lat.members, lat.r)
    except ValueError as exc:
        rep.fail(f"{where}: {exc}")


def check_charmin(r: int = 4, trials: int = 200,
                  seed: int = 20240406) -> VerdictReport:
    """Minimality of a presentation is equivalent to a full powerset lattice.

    Also checks the extension lattice's least map against
    ``index_closure`` of each singleton, and cross-checks the two lattice
    constructions and the circuit support identity, on every sampled
    instance.
    """
    if not 2 <= r <= 8:
        raise ValueError("charmin checks run for 2 <= r <= 8")
    t0 = time.perf_counter()
    rep = VerdictReport("charmin", seed=seed)
    rng = random.Random(seed)
    for t in range(trials):
        rr = rng.randint(2, r)
        nn = rng.randint(rr, 8)
        system = random_presentation(rr, nn, density=rng.uniform(0.3, 0.9), rng=rng)
        rep.instances += 1
        lat = extlattice.extension_lattice(system)
        for i, m in lat.least_containing().items():
            if extlattice.index_closure(system, 1 << i) != m:
                rep.fail(f"trial {t}: least map misses the closure of "
                         f"{{{i + 1}}} on {system.set_labels()}")
        if is_minimal(system) != (len(lat) == 1 << rr):
            rep.fail(f"trial {t}: minimality vs lattice size on {system.set_labels()}")
        gen = extlattice.extension_lattice_from_supports(system)
        if gen.members != lat.members:
            rep.fail(f"trial {t}: strategies disagree on {system.set_labels()}")
        for m in lat.members:
            if not circuit_support_identity(system, m):
                rep.fail(f"trial {t}: circuit support identity at {_indices(m)}")
    rep.elapsed = time.perf_counter() - t0
    return rep


def _height_bound(r: int, j: int) -> int:
    if j == 0:
        return 1 << r
    if j < r:
        return (1 << (r - 1)) + (1 << (r - j - 1))
    return 1 << (r - 1)


def _check_chain(rep: VerdictReport, chain, r: int, where: str) -> int:
    """Check heights, shrinking lattices and the size bound along a cover
    chain; return how many of its positions lie at height r or more."""
    previous = None
    for j, step in enumerate(chain):
        if presentation_rank(step) != j:
            rep.fail(f"{where}: chain step {j} has wrong height")
        members = extlattice.extension_lattice(step).members
        if previous is not None and not members <= previous:
            rep.fail(f"{where}: lattice grew along the chain at {j}")
        previous = members
        size = len(members)
        if size > _height_bound(r, j):
            rep.fail(f"{where}: height {j} size {size} breaks the bound")
    return max(0, len(chain) - r)


def check_threequarters(r: int = 4, trials: int = 30,
                        seed: int = 20240406) -> VerdictReport:
    """Lattice size against presentation height, with the sharp family."""
    t0 = time.perf_counter()
    rep = VerdictReport("threequarters", seed=seed)
    if not 2 <= r <= 5:
        raise ValueError("height-bound checks run for 2 <= r <= 5")

    base = near_uniform_minimal(r - 1)
    for k in range(r):
        system = sharp_chain_presentation(base, k)
        rep.instances += 1
        if presentation_rank(system) != k:
            rep.fail(f"sharp family k={k}: height is not k")
        size = len(extlattice.extension_lattice(system))
        if size != _height_bound(r, k):
            rep.fail(f"sharp family k={k}: size {size} != {_height_bound(r, k)}")

    # A maximal presentation of the near-uniform matroid sits at height
    # r(r-1) >= r, exercising the deep-chain clause deterministically.
    deep = maximalize(near_uniform_minimal(r))
    rep.instances += 1
    if presentation_rank(deep) < r:
        rep.fail("deep witness is not deep")
    if len(extlattice.extension_lattice(deep)) > 1 << (r - 1):
        rep.fail("deep witness exceeds the half bound")

    deep_seen = _check_chain(rep, cover_chain(deep), r, "deep witness")

    rng = random.Random(seed)
    for t in range(trials):
        system = random_presentation(r, rng.randint(r, min(2 * r, 8)),
                                     density=rng.uniform(0.3, 0.9), rng=rng)
        rep.instances += 1
        deep_seen += _check_chain(rep, cover_chain(maximalize(system)), r,
                                  f"trial {t}")
    if deep_seen == 0:
        rep.fail("no deep chain positions sampled")
    rep.elapsed = time.perf_counter() - t0
    return rep


def _tight_both_ways(a: SetSystem, b: SetSystem) -> frozenset[int]:
    """The lattice the supports tight under both presentations generate.

    They hold ∅ and every basis's support [r], so that lattice is the
    down-sets of their least map: their intersection closure when they
    are closed under union, as ``lattice_ab`` must be.
    """
    gens = set()
    for ind in matching.independent_sets(a, a.r):
        size = ind.bit_count()
        sa, sb = a.support(ind), b.support(ind)
        if sa.bit_count() == size and sb.bit_count() == size:
            gens.add(sa)
    least = least_containing(gens)
    return SubsetLattice.from_least(list(least.values())).members


def _check_common(rep: VerdictReport, a: SetSystem, b: SetSystem, common,
                  where: str) -> None:
    """Record a failure unless ``common`` describes the common extensions."""
    _check_closed(rep, common.lattice_ab, f"{where}: lattice_ab")
    _check_closed(rep, common.lattice_ba, f"{where}: lattice_ba")
    for i, j in common.pairs:
        if i.bit_count() != j.bit_count():
            rep.fail(f"{where}: {_indices(i)} is paired with {_indices(j)}")
    if common.lattice_ab.members != _tight_both_ways(a, b):
        rep.fail(f"{where}: support description of common extensions "
                 "disagrees with matching")


def check_intersection(r: int = 4, trials: int = 50,
                       seed: int = 20240406) -> VerdictReport:
    """Common extensions of two genuinely different presentations."""
    t0 = time.perf_counter()
    rep = VerdictReport("intersection", seed=seed)
    if not 2 <= r <= 5:
        raise ValueError("intersection checks run for 2 <= r <= 5")
    bound = 3 << (r - 2)

    a, b = sharp_common_pair(r)
    rep.instances += 1
    if reindexing_equivalent(a, b):
        rep.fail("sharp pair is a reindexing")
    common = extlattice.common_extension_lattice(a, b)
    _check_common(rep, a, b, common, "sharp pair")
    if len(common.lattice_ab) != bound:
        rep.fail(f"sharp pair: {len(common.lattice_ab)} common extensions, "
                 f"expected {bound}")

    a2, b2 = disjoint_support_pair(min(r, 4))
    rep.instances += 1
    common = extlattice.common_extension_lattice(a2, b2)
    _check_common(rep, a2, b2, common, "disjoint-support pair")
    if len(common.lattice_ab) != 2:
        rep.fail("disjoint-support pair shares more than the trivial extensions")

    rng = random.Random(seed)
    done = 0
    attempts = 0
    while done < trials and attempts < 20 * trials:
        attempts += 1
        system = random_presentation(r, rng.randint(r, min(2 * r, 8)),
                                     density=rng.uniform(0.4, 0.9), rng=rng)
        other = presentation_walk(system, rng.randint(1, 4), rng)
        if reindexing_equivalent(system, other):
            continue
        done += 1
        rep.instances += 1
        common = extlattice.common_extension_lattice(system, other)
        _check_common(rep, system, other, common, f"pair #{done}")
        if len(common.lattice_ab) > bound:
            rep.fail(f"pair #{done}: {len(common.lattice_ab)} > {bound}")
        order = dict(common.pairs)
        members = common.lattice_ab.members
        if any((i1 & i2 == i1) != (order[i1] & order[i2] == order[i1])
               for i1 in members for i2 in members):
            rep.fail(f"pair #{done}: matching is not an order isomorphism")
    if done < trials:
        rep.fail(f"only {done} qualifying pairs found in {attempts} attempts")
    rep.elapsed = time.perf_counter() - t0
    return rep


def check_classification(r: int = 4) -> VerdictReport:
    """Census equals catalog, and the maximal-sublattice rule holds."""
    if not 2 <= r <= CENSUS_LIMIT:
        raise ValueError(f"classification runs for 2 <= r <= {CENSUS_LIMIT}")
    t0 = time.perf_counter()
    rep = VerdictReport("classification")
    half = 1 << (r - 1)
    census = census_sublattices(r, half)
    rep.instances += 1
    got = {mask_of(lat.members) for lat in census}
    full_family = canonical_family(mask_of(range(1 << r)), r)
    want = catalog_classes(r) | {full_family}
    for c in catalog(r):
        if (len(c.lattice) != c.expected_size
                or not {0, (1 << r) - 1} <= c.lattice.members):
            rep.fail(f"catalog {c.kind} i={c.i}: {len(c.lattice)} members, "
                     f"expected {c.expected_size} with the empty and full sets")
    if got != want:
        rep.fail(f"census classes differ from the catalog at r={r}: "
                 f"{len(got)} vs {len(want)}")

    powerset = SubsetLattice(r, frozenset(range(1 << r)))
    chain1 = catalog_lattice("implication_chain", r, 1).lattice
    maxima = {}
    for lat, name in ((powerset, "powerset"), (chain1, "first chain lattice")):
        rep.instances += 1
        maxima[name] = maximal_proper_sublattices(lat)
        if set(maxima[name]) != set(interval_predicted_sublattices(lat)):
            rep.fail(f"{name}: interval rule misses maximal sublattices")
    direct = maxima["powerset"]
    rep.instances += 1
    if len(direct) != r * (r - 1):
        rep.fail(f"powerset has {len(direct)} maximal sublattices, "
                 f"expected {r * (r - 1)}")
    chain_class = canonical_family(mask_of(chain1.members), r)
    if any(canonical_family(mask_of(f), r) != chain_class for f in direct):
        rep.fail("a maximal sublattice of the powerset is not a relabeled "
                 "first chain lattice")

    if r >= 4:
        rep.instances += 1
        vee = mask_of(catalog_lattice("two_implications", r).lattice.members)
        five_eighths = 5 << (r - 3)
        for f in closed_family_table(r):
            if f.bit_count() == five_eighths and vee & ~f == 0:
                rep.fail("the two-implication lattice fits inside a "
                         "five-eighths sublattice")
    rep.elapsed = time.perf_counter() - t0
    return rep


def _hasse_choice(below) -> int:
    """The pairs (i, j), i covered by j, as bits in the pair order
    [(i, j) for i in range(k) for j in range(k) if i != j]."""
    k = len(below)
    choice = 0
    for j, under in enumerate(below):
        deeper = 0  # the points under some point under j
        rest = under
        while rest:
            low = rest & -rest
            deeper |= below[low.bit_length() - 1]
            rest ^= low
        for i in bit_indices(under & ~deeper):
            choice |= 1 << (i * (k - 1) + j - (j > i))
    return choice


def _all_poset_lattices(max_points: int):
    """Order-ideal lattices of all labeled posets on <= max_points, each once.

    An order is a tuple ``below``, ``below[j]`` masking the points under j.
    Each order on k + 1 points is made once, from its order on the first k:
    the new point goes over a down-set D and under a disjoint up-set U, and
    D already lies under U; the up-sets are the complements of the
    down-sets.  Orders of one size come sorted by their Hasse diagrams'
    pair bits: a walk over every subset of the pairs, closing each one,
    meets an order first at its Hasse diagram, which is in every
    generating subset.
    """
    level = [()]
    for k in range(max_points + 1):
        ideals = {below: ideal_lattice(below) for below in level}
        for below in sorted(level, key=_hasse_choice):
            yield ideals[below]
        if k == max_points:
            return
        point = 1 << k
        grown = []
        for below in level:
            members = ideals[below].members
            for down in members:
                # U may hold only points over all of D; none of those
                # lies in D, so such a U is disjoint from D too
                over = 0
                for u, b in enumerate(below):
                    if b & down == down:
                        over |= 1 << u
                grown += [tuple(b | point if up >> j & 1 else b
                                for j, b in enumerate(below)) + (down,)
                          for up in ((point - 1) & ~d for d in members)
                          if not up & ~over]
        level = grown


def _is_uniform(system: SetSystem) -> bool:
    """Is every r-subset of the system's n >= r elements independent?

    By Hall's theorem some r-subset is dependent exactly when, for some
    s < r, s set indices hold the whole supports of more than s elements.
    Only a support other than [r] fits inside fewer than r indices, so
    each such support is counted at every index mask other than [r] that
    holds it, and no count may pass its mask's size.  A support s lies in
    2^(r-|s|) - 1 of those masks, where a count at every mask would test
    each support 2^r - 1 times.
    """
    full = system.full_index_mask
    count = [0] * full
    for s in matching.element_supports(system):
        spare = full ^ s
        if not spare:
            continue
        u = (spare - 1) & spare  # s | spare is [r]
        while True:
            m = s | u
            c = count[m] + 1
            if c > m.bit_count():
                return False
            count[m] = c
            if not u:
                break
            u = (u - 1) & spare
    return True


def check_roundtrip(max_points: int = 4) -> VerdictReport:
    """Both constructions realize every small distributive lattice.

    A distributive lattice is fixed by its least map (Birkhoff), so a
    build realizes ``lat`` exactly when its ``least_map`` equals the map
    ``lat`` was built from; no build's lattice is listed.  Each call
    names the maximal builds' blocks afresh, so its cost and its elapsed
    time do not rest on an earlier call's.

    The builds' matching passes run inside one
    ``matching.shared_deletions`` block, so a deletion E - A_k that
    several builds cut down to the same sets is matched once; the
    uniform builds at n = r + 1 and r + 2 only add elements lying in
    every set, so they share all of theirs with the build at n = r.
    Each build is still checked on its own pass, through ``least_map``
    and ``is_maximal``, and the table ends with the call.
    """
    t0 = time.perf_counter()
    rep = VerdictReport("roundtrip")
    _block_names.cache_clear()
    with matching.shared_deletions():
        for lat in _all_poset_lattices(max_points):
            rep.instances += 1
            r = lat.r
            if r == 0:
                continue
            least = lat.least_containing()
            sigma = list(least.values())
            built = build_maximal_presentation(lat)
            if extlattice.least_map(built) != sigma:
                rep.fail(f"maximal build misses the lattice at r={r}: "
                         f"{sorted(map(_indices, lat.members))}")
            if not is_maximal(built):
                rep.fail(f"maximal build is not maximal at r={r}")
            for n in (r, r + 1, r + 2):
                system = build_uniform_presentation(lat, n)
                if not _is_uniform(system):
                    rep.fail(f"uniform build is not uniform at r={r}, n={n}")
                if extlattice.least_map(system) != sigma:
                    rep.fail(f"uniform build misses the lattice "
                             f"at r={r}, n={n}")
                sup = matching.element_supports(system)  # cached by the pass
                for i, m in least.items():
                    if sup[i] != m:
                        rep.fail(f"uniform build support law fails "
                                 f"at i={i + 1}")
    rep.elapsed = time.perf_counter() - t0
    return rep


def check_all(seed: int = 20240406) -> list[VerdictReport]:
    return [
        check_charmin(seed=seed),
        check_threequarters(r=4, seed=seed),
        check_intersection(r=4, seed=seed),
        check_classification(),
        check_roundtrip(),
    ]
