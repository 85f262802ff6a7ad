import dataclasses
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tmlat import extlattice, matching, verify
from tmlat.constructions import build_uniform_presentation
from tmlat.core import (GroundSet, SetSystem, SubsetLattice, bit_indices,
                        family_key, mask_of)
from tmlat.extlattice import common_extension_lattice, extension_lattice
from tmlat.matroid import Matroid
from tmlat.presentations import (is_minimal, maximalize, presentation_rank,
                                 reindexing_equivalent, removable_pairs)
from tmlat.verify import (canonical_family, catalog, catalog_lattice,
                          census_sublattices, check_charmin, check_classification,
                          check_intersection, check_roundtrip,
                          check_threequarters, closed_family_table,
                          disjoint_support_pair, family_members,
                          interval_predicted_sublattices,
                          maximal_proper_sublattices, near_uniform_minimal,
                          presentation_walk, random_presentation,
                          sharp_chain_presentation, sharp_common_pair)
from tmlat.verify import _all_poset_lattices, _is_uniform

from .oracles import (brute_catalog_members, brute_closed_family_table,
                      brute_is_uniform, brute_maximal_sublattices,
                      brute_poset_lattices, intersection_closure,
                      pass_fields, union_intersection_closure)


def test_catalog_sizes():
    assert len(catalog_lattice("implication_chain", 4, 1).lattice) == 12
    assert len(catalog_lattice("implication_chain", 4, 2).lattice) == 10
    assert len(catalog_lattice("implication_chain", 4, 3).lattice) == 9
    assert len(catalog_lattice("exclusion_chain", 4, 2).lattice) == 10
    assert len(catalog_lattice("two_implications", 4).lattice) == 9
    assert len(catalog_lattice("two_implications", 5).lattice) == 18
    with pytest.raises(ValueError):
        catalog_lattice("two_implications", 3)
    with pytest.raises(ValueError):
        catalog_lattice("implication_chain", 4, 4)
    with pytest.raises(ValueError):
        catalog_lattice("nope", 4, 1)
    for r in (3, 4, 5):
        for c in catalog(r):
            assert len(c.lattice) == c.expected_size


def test_catalog_least_maps_remove_the_intervals():
    for r in range(2, 9):
        for c in catalog(r):
            assert sorted(c.lattice.members) == \
                brute_catalog_members(c.kind, r, c.i)


def test_check_classification_fails_a_wrong_catalog_size(monkeypatch):
    import dataclasses

    import tmlat.verify

    real = tmlat.verify.catalog_lattice

    def off_by_one(kind, r, i=None):
        c = real(kind, r, i)
        if kind != "exclusion_chain":
            return c
        return dataclasses.replace(c, expected_size=c.expected_size + 1)

    monkeypatch.setattr(tmlat.verify, "catalog_lattice", off_by_one)
    rep = check_classification(3)
    assert rep.failures == [
        "catalog exclusion_chain i=1: 6 members, expected 7 with the empty "
        "and full sets",
        "catalog exclusion_chain i=2: 5 members, expected 6 with the empty "
        "and full sets"]


def test_catalog_membership_rules():
    lat = catalog_lattice("implication_chain", 4, 2).lattice
    # index 1 drags along 2 and 3
    for x in lat.members:
        if x & 1:
            assert x & 0b0111 == 0b0111
    lat = catalog_lattice("exclusion_chain", 4, 2).lattice
    for x in lat.members:
        if x & 0b0110:
            assert x & 1


def test_closure_table_matches_naive_r3():
    table = brute_closed_family_table(3)
    for fam in range(1 << 8):
        naive = union_intersection_closure(set(bit_indices(fam)), 3) \
            if fam else frozenset()
        assert mask_of(naive) == table[fam]


def test_closure_table_matches_naive_r4_sampled():
    table = brute_closed_family_table(4)
    rng = random.Random(23)
    for _ in range(300):
        fam = rng.randrange(1 << 16)
        naive = union_intersection_closure(set(bit_indices(fam)), 4) \
            if fam else frozenset()
        assert mask_of(naive) == table[fam]


@pytest.mark.parametrize("r", range(5))
def test_closure_table_equals_lowest_member_recurrence(r):
    """The census is the distinct nonempty closures of every generator
    family, ascending, each once."""
    assert closed_family_table(r) == tuple(
        sorted(set(brute_closed_family_table(r)) - {0}))


def test_census_at_r5_is_every_closed_family_once():
    """12,084 = sum over k of C(5,k) 2^(5-k) T(k), T the labeled preorders."""
    table = closed_family_table(5)
    assert len(table) == len(set(table)) == 12084
    for f in table:
        members = bit_indices(f)
        assert all(f >> (a | b) & 1 and f >> (a & b) & 1
                   for a in members for b in members)


def test_census_classes():
    got = census_sublattices(2, 2)
    assert sorted(len(c) for c in got) == [3, 4]
    got = census_sublattices(3, 4)
    assert sorted(len(c) for c in got) == [5, 5, 6, 8]
    got = census_sublattices(4, 8)
    assert sorted(len(c) for c in got) == [9, 9, 9, 10, 10, 12, 16]
    # the powerset always appears
    full = canonical_family(mask_of(range(1 << 3)), 3)
    assert full in {canonical_family(mask_of(c.members), 3)
                    for c in census_sublattices(3, 4)}


def test_census_members_are_closed():
    for lat in census_sublattices(4, 8):
        for a in lat.members:
            for b in lat.members:
                assert (a | b) in lat.members and (a & b) in lat.members


def test_first_chain_and_its_reflection_are_one_class():
    a = mask_of(catalog_lattice("implication_chain", 3, 1).lattice.members)
    b = mask_of(catalog_lattice("exclusion_chain", 3, 1).lattice.members)
    assert canonical_family(a, 3) == canonical_family(b, 3)
    # deeper chains differ from their reflections
    a = mask_of(catalog_lattice("implication_chain", 4, 2).lattice.members)
    b = mask_of(catalog_lattice("exclusion_chain", 4, 2).lattice.members)
    assert canonical_family(a, 4) != canonical_family(b, 4)


def test_maximal_sublattice_rule_powerset():
    powerset = SubsetLattice(3, frozenset(range(8)))
    direct = set(maximal_proper_sublattices(powerset))
    predicted = set(interval_predicted_sublattices(powerset))
    assert direct == predicted
    assert len(direct) == 6
    chain_class = canonical_family(
        mask_of(catalog_lattice("implication_chain", 3, 1).lattice.members), 3)
    for fam in direct:
        assert canonical_family(mask_of(fam), 3) == chain_class


def test_maximal_sublattice_rule_first_chain():
    lat = catalog_lattice("implication_chain", 4, 1).lattice
    direct = set(maximal_proper_sublattices(lat))
    predicted = set(interval_predicted_sublattices(lat))
    assert direct == predicted
    sizes = sorted(len(f) for f in direct)
    # nothing between five eighths and the chain lattice itself
    assert max(sizes) == 10
    # both the deeper-chain shape and the two-implication shape appear
    assert 10 in sizes and 9 in sizes


def test_near_uniform_minimal():
    for rank in (1, 2, 3, 4):
        system = near_uniform_minimal(rank)
        assert system.r == rank
        assert is_minimal(system)
        m = Matroid.from_system(system)
        assert m.full_rank == rank
        assert len(m.bases()) == rank + 1


@pytest.mark.parametrize("call, message", [
    (lambda: closed_family_table(6), "census capped at r = 5"),
    (lambda: near_uniform_minimal(0), "rank must be positive"),
    (lambda: sharp_chain_presentation(
        maximalize(near_uniform_minimal(2)), 1),
     "base presentation must be minimal"),
    (lambda: sharp_chain_presentation(near_uniform_minimal(2), 3),
     "k must lie in 0..r-1"),
    (lambda: sharp_common_pair(1), "r must be at least 2"),
], ids=["census", "near-uniform", "non-minimal-base", "k-equals-r",
        "common-pair"])
def test_constructors_refuse_their_arguments(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_sharp_chain_presentation_heights_and_sizes():
    for r in (3, 4, 5):
        base = near_uniform_minimal(r - 1)
        for k in range(r):
            system = sharp_chain_presentation(base, k)
            assert presentation_rank(system) == k
            size = len(extension_lattice(system))
            assert size == (1 << (r - 1)) + (1 << (r - k - 1))
    with pytest.raises(ValueError):
        sharp_chain_presentation(near_uniform_minimal(2), 3)


def test_sharp_chain_cover_chain_length():
    from tmlat.presentations import cover_chain
    base = near_uniform_minimal(3)
    for k in range(4):
        chain = cover_chain(sharp_chain_presentation(base, k))
        assert len(chain) - 1 == k


def test_census_cap():
    with pytest.raises(ValueError):
        census_sublattices(6, 32)


def test_sharp_chain_lattice_shape():
    # closed sets either avoid the first index or contain 1..k+1
    base = near_uniform_minimal(3)
    k = 2
    lat = extension_lattice(sharp_chain_presentation(base, k))
    prefix = (1 << (k + 1)) - 1
    for m in lat.members:
        assert not m & 1 or m & prefix == prefix


def test_sharp_common_pair_counts():
    for r, expect in ((4, 12), (5, 24)):
        a, b = sharp_common_pair(r)
        assert not reindexing_equivalent(a, b)
        ma, mb = Matroid.from_system(a), Matroid.from_system(b)
        assert ma.equals(mb)
        assert is_minimal(a) and is_minimal(b)
        common = common_extension_lattice(a, b)
        assert len(common.lattice_ab) == expect


def test_disjoint_support_pair():
    a, b = disjoint_support_pair(4)
    assert Matroid.from_system(a).equals(Matroid.from_system(b))
    assert len(common_extension_lattice(a, b).lattice_ab) == 2


def test_random_presentation_reproducible():
    a = random_presentation(3, 6, seed=99)
    b = random_presentation(3, 6, seed=99)
    assert a == b
    full = random_presentation(2, 5, density=1.0, seed=1)
    assert all(s == full.ground.full_mask for s in full.sets)
    with pytest.raises(ValueError):
        random_presentation(5, 3)


def test_random_presentation_refuses_a_density_that_never_samples_full_rank():
    """At density 0 every sampled set is empty, so all 2,000 draws have
    rank 0 and the sampler gives up with one fixed message."""
    with pytest.raises(ValueError, match="^failed to sample a full-rank "
                                         "system; raise the density$"):
        random_presentation(2, 3, density=0.0, seed=1)


def test_random_presentation_full_rank():
    rng = random.Random(31)
    for _ in range(100):
        system = random_presentation(4, 8, density=rng.uniform(0.3, 0.9),
                                     rng=rng)
        assert presentation_rank(system) >= 0  # implies full rank


def test_presentation_walk_preserves_matroid():
    rng = random.Random(41)
    system = random_presentation(3, 6, seed=5)
    m = Matroid.from_system(system)
    for _ in range(10):
        other = presentation_walk(system, rng.randint(1, 5), rng)
        assert Matroid.from_system(other).bases() == m.bases()


def test_check_charmin_passes():
    rep = check_charmin(trials=40, seed=7)
    assert rep.ok and rep.instances == 40
    assert rep.lines()[0].startswith("[charmin]")


def test_tight_both_ways_is_the_intersection_closure():
    """On walk pairs sampled as ``check_intersection`` samples them, the
    supports tight under both presentations close under intersection to
    a union-closed family, the one ``_tight_both_ways`` returns."""
    rng = random.Random(24)
    for t in range(300):
        r = 2 + t % 4
        a = random_presentation(r, rng.randint(r, min(2 * r, 8)),
                                density=rng.uniform(0.4, 0.9), rng=rng)
        b = presentation_walk(a, rng.randint(1, 4), rng)
        m = Matroid.from_system(a)
        gens = set()
        for x in range(1 << a.ground.n):
            sa, sb = a.support(x), b.support(x)
            if m.rank(x) == x.bit_count() == sa.bit_count() == sb.bit_count():
                gens.add(sa)
        closure = intersection_closure(gens, r)
        assert all((p | q) in closure for p in closure for q in closure)
        assert verify._tight_both_ways(a, b) == closure


def test_check_threequarters_passes():
    rep = check_threequarters(r=4, trials=8, seed=7)
    assert rep.ok


def test_check_intersection_passes():
    rep = check_intersection(r=4, trials=12, seed=7)
    assert rep.ok


def test_intersection_reports_a_broken_matching_once_per_pair(monkeypatch):
    """Swap the partners of the first two equal-size members: sizes still
    match, but one sampled pair's matching is no longer an order
    isomorphism, and that pair gets one failure line."""
    real = extlattice.common_extension_lattice

    def swapped(a, b):
        common = real(a, b)
        pairs = list(common.pairs)
        for x in range(len(pairs)):
            for y in range(x):
                if pairs[x][0].bit_count() == pairs[y][0].bit_count():
                    (i, j), (k, m) = pairs[y], pairs[x]
                    pairs[y], pairs[x] = (i, m), (k, j)
                    return dataclasses.replace(common, pairs=tuple(pairs))
        return common

    monkeypatch.setattr(extlattice, "common_extension_lattice", swapped)
    rep = check_intersection(r=4, trials=5, seed=1)
    assert rep.failures == ["pair #5: matching is not an order isomorphism"]


def test_check_classification_passes():
    for r in (3, 4):
        rep = check_classification(r)
        assert rep.ok, rep.failures


def test_check_threequarters_counts_the_deep_witness_chain():
    """Both random chains here stop below height r; the deep witness's does not."""
    rep = check_threequarters(r=4, trials=2, seed=1809612080)
    assert rep.ok, rep.failures
    assert rep.instances == 2 + 4 + 1


@pytest.mark.parametrize("max_points", range(5))
def test_poset_lattices_match_the_pair_walk(max_points):
    """One-point extension gives the pair walk's lattices, each once."""
    fast = sorted((lat.r, sorted(lat.members))
                  for lat in _all_poset_lattices(max_points))
    slow = sorted((lat.r, sorted(lat.members))
                  for lat in brute_poset_lattices(max_points))
    assert fast == slow
    assert Counter(r for r, _ in fast) == dict(
        enumerate([1, 1, 3, 19, 219][:max_points + 1]))


ROUNDTRIP_LATTICES = [lat for lat in _all_poset_lattices(4) if lat.r]


@st.composite
def systems_near_uniform(draw):
    """Uniform builds with up to two memberships dropped, or random sets;
    n >= r throughout."""
    if draw(st.booleans()):
        lat = draw(st.sampled_from(ROUNDTRIP_LATTICES))
        system = build_uniform_presentation(lat, draw(st.integers(lat.r, lat.r + 3)))
        sets = list(system.sets)
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(sets) - 1))
            sets[i] &= ~(1 << draw(st.integers(0, system.ground.n - 1)))
        return SetSystem(system.ground, tuple(sets))
    r = draw(st.integers(1, 5))
    n = draw(st.integers(r, 8))
    ground = GroundSet(tuple(f"e{i}" for i in range(n)))
    return SetSystem(ground, tuple(draw(st.integers(0, ground.full_mask))
                                   for _ in range(r)))


@settings(max_examples=300, deadline=None)
@given(systems_near_uniform())
def test_is_uniform_matches_the_subset_scan(system):
    verdict = _is_uniform(system)
    event(f"uniform: {verdict}")
    assert verdict == brute_is_uniform(system, system.r, system.ground.n)


def test_maximal_sublattices_match_the_pair_scan():
    """Every closed family at r <= 3, and the r = 4 lattices classification uses."""
    lattices = [SubsetLattice(r, family_members(f)) for r in (1, 2, 3)
                for f in closed_family_table(r)]
    lattices += [SubsetLattice(4, frozenset(range(16))),
                 catalog_lattice("implication_chain", 4, 1).lattice]
    for lat in lattices:
        assert maximal_proper_sublattices(lat) == brute_maximal_sublattices(lat)


def test_check_roundtrip_small():
    rep = check_roundtrip(3)
    assert rep.ok and rep.instances == 24


def test_roundtrip_reports_a_uniform_build_off_the_lattice(monkeypatch):
    """Drop one membership from each uniform build whose least map is not
    the identity: element j leaves the highest other set of ``least[j]``."""
    real = verify.build_uniform_presentation

    def dropped(lat, n):
        system = real(lat, n)
        for j, m in lat.least_containing().items():
            rest = m & ~(1 << j)
            if rest:
                sets = list(system.sets)
                sets[rest.bit_length() - 1] &= ~(1 << j)
                return dataclasses.replace(system, sets=tuple(sets))
        return system

    monkeypatch.setattr(verify, "build_uniform_presentation", dropped)
    rep = check_roundtrip(3)
    assert "uniform build misses the lattice at r=2, n=2" in rep.failures
    assert "uniform build support law fails at i=2" in rep.failures


def test_uniformity_counts_match_the_subset_scan_on_the_roundtrip_builds(
        monkeypatch):
    """Every uniform build ``check_roundtrip(4)`` makes, and each of them
    with one membership dropped, gets the subset scan's verdict."""
    real = verify.build_uniform_presentation
    builds = []

    def recorded(lat, n):
        builds.append(real(lat, n))
        return builds[-1]

    monkeypatch.setattr(verify, "build_uniform_presentation", recorded)
    assert check_roundtrip(4).ok
    assert len(builds) == 726
    verdicts = Counter()
    for system in builds:
        assert _is_uniform(system)
        for i, a in enumerate(system.sets):
            for e in bit_indices(a):
                sets = list(system.sets)
                sets[i] &= ~(1 << e)
                less = SetSystem(system.ground, tuple(sets))
                verdict = _is_uniform(less)
                assert verdict == brute_is_uniform(less, less.r, less.ground.n)
                verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_roundtrip_reports_a_maximal_build_off_the_lattice(monkeypatch):
    """Drop from each maximal build the block of its first join-irreducible
    lying under another, whose indices the larger block still matches."""
    real = verify.build_maximal_presentation

    def dropped(lat):
        system = real(lat)
        joins = sorted(set(lat.least_containing().values()) - {0},
                       key=family_key)
        under = [j for j in joins if any(j != k and j & k == j for k in joins)]
        if not under:
            return system
        start = sum(j.bit_count() + 1 for j in joins[:joins.index(under[0])])
        block = ((1 << (under[0].bit_count() + 1)) - 1) << start
        return dataclasses.replace(
            system, sets=tuple(a & ~block for a in system.sets))

    monkeypatch.setattr(verify, "build_maximal_presentation", dropped)
    rep = check_roundtrip(3)
    assert ("maximal build misses the lattice at r=2: ['{1,2}', '{1}', '{}']"
            in rep.failures)


def test_roundtrip_reports_a_maximal_build_that_is_not_maximal(monkeypatch):
    """Drop from each maximal build its first removable pair: the matroid
    stays the same, so that pair becomes addable."""
    real = verify.build_maximal_presentation

    def dropped(lat):
        system = real(lat)
        pairs = removable_pairs(system)
        if not pairs:
            return system
        i, e = pairs[0]
        sets = list(system.sets)
        sets[i] &= ~(1 << e)
        return dataclasses.replace(system, sets=tuple(sets))

    monkeypatch.setattr(verify, "build_maximal_presentation", dropped)
    rep = check_roundtrip(3)
    assert "maximal build is not maximal at r=2" in rep.failures


def test_roundtrip_scans_only_the_poset_lattices(monkeypatch):
    """One ``from_least`` per labeled poset on at most four points; the
    builds are checked by their least maps, not by scanning a lattice."""
    real = SubsetLattice.from_least.__func__
    calls = []

    def counting(cls, least):
        calls.append(least)
        return real(cls, least)

    monkeypatch.setattr(SubsetLattice, "from_least", classmethod(counting))
    rep = check_roundtrip(4)
    assert rep.ok and rep.instances == 243
    assert len(calls) == 243


def test_roundtrip_reads_each_build_pass_once():
    """Each of the 968 builds makes one matching pass and computes its
    element supports once; the maximal build's ``addable_pairs`` makes
    the only second pass lookup, one per nonempty poset lattice."""
    matching.deletion_reach.cache_clear()
    matching.element_supports.cache_clear()
    rep = check_roundtrip(4)
    assert rep.ok and rep.instances == 243
    reach = matching.deletion_reach.cache_info()
    assert (reach.misses, reach.hits) == (968, 242)
    assert matching.element_supports.cache_info().misses == 968


def _recording_builders(monkeypatch):
    """Record every build ``check_roundtrip`` makes, in order."""
    builds = []
    for name in ("build_maximal_presentation", "build_uniform_presentation"):
        real = getattr(verify, name)

        def recorded(*args, real=real):
            builds.append(real(*args))
            return builds[-1]

        monkeypatch.setattr(verify, name, recorded)
    return builds


def test_roundtrip_passes_under_one_table_equal_the_unshared_passes(
        monkeypatch):
    """The pass each of the 968 builds gets inside the call, under the
    call's one table, equals the pass it gets alone, field for field;
    the 3,760 deletions of those passes are 434 shared objects."""
    builds = _recording_builders(monkeypatch)
    matching.deletion_reach.cache_clear()
    assert check_roundtrip(4).ok
    assert len(builds) == 968
    shared = [matching.deletion_reach(system) for system in builds]
    assert matching.deletion_reach.cache_info().misses == 968
    for system, got in zip(builds, shared):
        assert pass_fields(got) == pass_fields(matching.deletion_pass(system))
    deletions = [d for dels in shared for d in dels.sets]
    assert (len(deletions), len(set(map(id, deletions)))) == (3760, 434)


def test_roundtrip_matches_each_distinct_deletion_once(monkeypatch):
    """One matching per distinct E - A_k cut-down (434) and one of E per
    build (968); without the shared table the call made 4,728.  The
    searches stop once every set is matched: 7,645 steps of the Kuhn
    search, recursion included, where searching every element took
    11,655.  The 940 coloop reads of ``is_maximal`` share 322 coloop
    closures, one per distinct cut-down."""
    counting = {name: mock.Mock(wraps=getattr(matching, name))
                for name in ("_max_matching_owner", "_augment_rec",
                             "coloop_mask")}
    matching.deletion_reach.cache_clear()
    matching.element_supports.cache_clear()
    for name, mocked in counting.items():
        monkeypatch.setattr(matching, name, mocked)
    assert check_roundtrip(4).ok
    assert {name: m.call_count for name, m in counting.items()} == {
        "_max_matching_owner": 1402, "_augment_rec": 7645,
        "coloop_mask": 322}


def test_roundtrip_drops_its_table_on_return_and_on_raise(monkeypatch):
    """The block's state is active while the builds are checked and
    gone after the call, whether it returns or raises."""
    assert matching._shared is None
    assert check_roundtrip(3).ok
    assert matching._shared is None
    seen = []

    def failing(lat, n):
        seen.append(matching._shared)
        raise RuntimeError("build failed")

    monkeypatch.setattr(verify, "build_uniform_presentation", failing)
    with pytest.raises(RuntimeError, match="build failed"):
        check_roundtrip(3)
    assert len(seen) == 1 and isinstance(seen[0], matching._Block)
    assert matching._shared is None


def test_charmin_reads_the_pass_once_per_identity_check():
    """Each trial makes one matching pass; ``circuit_support_identity``
    reads a member's closure and its witnesses off one lookup of it."""
    matching.deletion_reach.cache_clear()
    matching.element_supports.cache_clear()
    rep = check_charmin(r=4, trials=20, seed=7)
    assert rep.ok and rep.instances == 20
    reach = matching.deletion_reach.cache_info()
    assert (reach.misses, reach.hits) == (20, 169)


def test_charmin_checks_the_least_map_against_index_closure(monkeypatch):
    """A ``least_map`` that returns the identity builds the powerset, whose
    map ``index_closure`` refutes on a presentation that is not minimal."""
    monkeypatch.setattr(extlattice, "least_map",
                        lambda system: [1 << i for i in range(system.r)])
    rep = check_charmin(r=3, trials=10, seed=7)
    assert any(" least map misses the closure of {" in f for f in rep.failures)


def test_report_shape():
    rep = check_charmin(trials=3, seed=2)
    doc = rep.to_doc()
    assert doc["suite"] == "charmin" and doc["failures"] == []
    assert "elapsed" not in doc
