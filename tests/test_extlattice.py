import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tmlat import core, extlattice, matching
from tmlat.constructions import (build_maximal_presentation,
                                 build_uniform_presentation)
from tmlat.core import (GroundSet, SetSystem, SubsetLattice, bit_indices,
                        make_system, mask_of)
from tmlat.extlattice import (common_extension_lattice, extend,
                              extension_lattice,
                              extension_lattice_from_supports,
                              extension_matroid, extension_matroids,
                              fresh_label, hasse_dot, index_closure,
                              irreducibles, least_map, tight_supports)
from tmlat.matroid import Matroid
from tmlat.presentations import _with_bit, preceq
from tmlat.verify import (_all_poset_lattices, circuit_support_identity,
                          disjoint_support_pair, presentation_walk,
                          random_presentation, sharp_common_pair)

from .oracles import (brute_circuit_through, brute_closed_sets,
                      brute_common_extension_lattice, brute_reach,
                      brute_tight_supports, cyclic_flat_supports,
                      intersection_closure, is_cyclic, iterated_extend)


def members(lat):
    return [[i + 1 for i in bit_indices(m)] for m in lat.sorted_members()]


WIDE_FAMILY = [[], [2], [3], [1, 2], [2, 3], [3, 4],
               [1, 2, 3], [2, 3, 4], [1, 2, 3, 4]]
NARROW_FAMILY = [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [3, 4],
                 [1, 2, 3], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4]]


def test_extend_basics(u34_first):
    loop_ext = extend(u34_first, 0)
    assert loop_ext.ground.names[-1] == "x"
    assert matching.rank(loop_ext, 1 << 4) == 0
    free_ext = extend(u34_first, 0b111)
    assert all(a & (1 << 4) for a in free_ext.sets)
    with pytest.raises(ValueError):
        extend(extend(u34_first, 0), 0)  # label already taken
    with pytest.raises(ValueError):
        extend(u34_first, 0b1000)


@pytest.mark.parametrize("call", [extend, index_closure,
                                  circuit_support_identity])
def test_index_sets_outside_the_sets_are_refused(u34_first, call):
    with pytest.raises(ValueError) as err:
        call(u34_first, 0b1000)
    assert str(err.value) == "index set out of range"


def test_tight_supports_refuse_more_sets_than_the_scan_limit():
    r = extlattice.SCAN_LIMIT + 1
    free = SetSystem(GroundSet(tuple(f"e{i}" for i in range(r))),
                     tuple(1 << i for i in range(r)))
    with pytest.raises(ValueError) as err:
        tight_supports(free)
    assert str(err.value) == \
        f"support strategy capped at {extlattice.SCAN_LIMIT} sets"


def test_iterated_extend(u34_first):
    assert iterated_extend(u34_first, []) == u34_first
    once = iterated_extend(u34_first, [0b011])
    assert once.ground.names[-1] == "x1"
    assert once.sets == extend(u34_first, 0b011, "x1").sets
    twice = iterated_extend(u34_first, [0b011, 0b011])
    assert twice.ground.names[-2:] == ("x1", "x2")


def test_repeated_extension_becomes_cyclic(threelines_maximal):
    # adding |I|+1 copies of the same closed set makes the new elements a
    # cyclic set of rank |I|
    system = threelines_maximal
    iset = 0b0011
    k = iset.bit_count() + 1
    grown = iterated_extend(system, [iset] * k)
    added = 0
    for name in grown.ground.names:
        if name.startswith("x"):
            added |= 1 << grown.ground.index(name)
    m = Matroid.from_system(grown)
    assert m.rank(added) == iset.bit_count()
    assert is_cyclic(m, added)


def test_index_closure_goldens(threelines_maximal):
    assert index_closure(threelines_maximal, 0) == 0
    assert index_closure(threelines_maximal, 0b0001) == 0b0011
    for m in extension_lattice(threelines_maximal).members:
        assert index_closure(threelines_maximal, m) == m


def test_index_closure_is_closure_operator(threelines_maximal, u34_first,
                                           minmax4):
    for system in (threelines_maximal, u34_first, minmax4):
        r = system.r
        for i in range(1 << r):
            ci = index_closure(system, i)
            assert ci & i == i
            assert index_closure(system, ci) == ci
            for j in range(1 << r):
                if i & j == i:
                    assert index_closure(system, j) & ci == ci


def test_closure_matches_extension_equality(threelines_maximal):
    # the closure of I is the largest index set giving the same extension
    system = threelines_maximal
    for i in range(1 << system.r):
        k = index_closure(system, i)
        bases_i = extension_matroid(system, i).bases()
        assert extension_matroid(system, k).bases() == bases_i
        for extra in bit_indices(system.full_index_mask & ~k):
            assert extension_matroid(system, k | (1 << extra)).bases() != bases_i


def test_closure_definition_random_sweep():
    # the closure of I must be the unique largest index set whose extension
    # has the same bases
    import random
    rng = random.Random(2024)
    for _ in range(10):
        r = rng.randint(2, 4)
        system = random_presentation(r, rng.randint(r, 8),
                                     density=rng.uniform(0.3, 0.9), rng=rng)
        for i in range(1 << r):
            got = index_closure(system, i)
            bases_i = extension_matroid(system, i).bases()
            assert extension_matroid(system, got).bases() == bases_i
            for extra in range(r):
                if not got & (1 << extra):
                    assert extension_matroid(system,
                                             got | (1 << extra)).bases() != bases_i


def test_lattice_goldens(threelines_maximal, threelines_submaximal, u34_first,
                         u34_second):
    assert members(extension_lattice(threelines_maximal)) == WIDE_FAMILY
    assert members(extension_lattice(threelines_submaximal)) == NARROW_FAMILY
    assert members(extension_lattice(u34_first)) == [[], [1, 2, 3]]
    assert members(extension_lattice(u34_second)) == [[], [1, 2, 3]]


def test_lattice_contains_bounds_and_is_closed(threelines_submaximal, minmax4):
    for system in (threelines_submaximal, minmax4):
        lat = extension_lattice(system)
        assert 0 in lat and system.full_index_mask in lat
        for a in lat.members:
            for b in lat.members:
                assert (a | b) in lat and (a & b) in lat


def test_lattice_members_are_the_index_closed_sets():
    """The scan keeps exactly the index sets that ``index_closure`` fixes."""
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 6)
        system = random_presentation(r, rng.randint(r, 9),
                                     density=rng.uniform(0.2, 0.8), rng=rng)
        want = {i for i in range(1 << r) if index_closure(system, i) == i}
        assert extension_lattice(system).members == want


def test_generated_strategy_agrees(threelines_maximal, threelines_submaximal,
                                   u34_first, u34_maximal, u34_minimal, minmax4):
    systems = [threelines_maximal, threelines_submaximal, u34_first,
               u34_maximal, u34_minimal, minmax4]
    for system in systems:
        scan = extension_lattice(system)
        gen = extension_lattice_from_supports(system)
        assert scan.members == gen.members


def test_tight_supports_against_direct_enumeration(threelines_maximal,
                                                   threelines_submaximal,
                                                   minmax4):
    """Three fixtures, and seeded systems on at most 8 elements."""
    systems = [threelines_maximal, threelines_submaximal, minmax4]
    rng = random.Random(24)
    for _ in range(80):
        r = rng.randint(1, 6)
        systems.append(random_presentation(r, rng.randint(r, 8),
                                           density=rng.uniform(0.3, 0.9),
                                           rng=rng))
    for system in systems:
        tight = tight_supports(system)
        assert tight == brute_tight_supports(system)
        assert all((a | b) in tight for a in tight for b in tight)


@st.composite
def seeded_presentations(draw):
    """``random_presentation`` with a drawn seed: r <= 8, n <= 14."""
    r = draw(st.integers(1, 8))
    n = draw(st.integers(r, 14))
    density = draw(st.floats(0.3, 0.9))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return random_presentation(r, n, density, seed=seed)


@settings(max_examples=150, deadline=None)
@given(seeded_presentations())
def test_support_route_is_the_intersection_closure(system):
    """The route's premise (union-closed tight supports holding the empty
    set and [r]), its members against the fixpoint closure, and the least
    map it hands in."""
    tight = tight_supports(system)
    assert {0, system.full_index_mask} <= tight
    assert all((a | b) in tight for a in tight for b in tight)
    lat = extension_lattice_from_supports(system)
    assert lat.least is not None  # handed in: no call has computed it yet
    assert lat.members == intersection_closure(tight, system.r)
    assert dict(lat.least_containing()) == core.least_containing(lat.members)


@settings(max_examples=150, deadline=None)
@given(seeded_presentations())
def test_least_map_is_that_of_the_brute_closed_sets(system):
    """σ({i}) is the intersection of the closed sets holding i, the closed
    sets found from reaches that every assignment of elements gives."""
    closed = brute_closed_sets(brute_reach(system))
    want = []
    for i in range(system.r):
        least = system.full_index_mask
        for c in closed:
            if c >> i & 1:
                least &= c
        want.append(least)
    assert least_map(system) == want


@st.composite
def equal_rank_pairs(draw):
    """A seeded presentation and another with as many sets: drawn on its
    own, built from the first one's lattice, or the first grown by one
    element."""
    a = draw(seeded_presentations())
    kind = draw(st.sampled_from(["drawn", "maximal", "uniform", "grown"]))
    if kind == "drawn":
        b = random_presentation(a.r, draw(st.integers(a.r, 14)),
                                draw(st.floats(0.3, 0.9)),
                                seed=draw(st.integers(0, 2 ** 32 - 1)))
    elif kind == "maximal":
        b = build_maximal_presentation(extension_lattice(a))
    elif kind == "uniform":
        b = build_uniform_presentation(extension_lattice(a),
                                       a.r + draw(st.integers(0, 3)))
    else:
        i = draw(st.integers(0, a.r - 1))
        b = _with_bit(a, i, draw(st.integers(0, a.ground.n - 1)), True)
    return a, b


@settings(max_examples=200, deadline=None)
@given(equal_rank_pairs())
def test_equal_least_maps_exactly_when_equal_lattices(pair):
    a, b = pair
    same = extension_lattice(a).members == extension_lattice(b).members
    event(f"equal lattices: {same}")
    assert (least_map(a) == least_map(b)) == same


def test_minimal_presentation_gives_powerset(u34_minimal):
    lat = extension_lattice_from_supports(u34_minimal)
    assert lat.members == frozenset(range(1 << 3))


def test_minmax_lattice_is_powerset_but_singleton_supports_are_not_enough(minmax4):
    lat = extension_lattice(minmax4)
    assert len(lat) == 16
    singleton_supports = {minmax4.support(1 << e)
                          for e in range(minmax4.ground.n)}
    closure = intersection_closure(singleton_supports, 4)
    assert 0b0110 in lat.members
    assert 0b0110 not in closure


def test_extension_records(u34_first, threelines_maximal):
    recs = extension_matroids(u34_first)
    assert len(recs) == len(extension_lattice(u34_first))
    loop_rec, free_rec = recs[0], recs[-1]
    xbit = 1 << 4
    assert loop_rec.index_set == 0
    assert loop_rec.matroid.rank(xbit) == 0
    assert free_rec.index_set == 0b111
    # the free extension is uniform of rank 3 on five elements
    assert len(free_rec.matroid.bases()) == 10

    recs = extension_matroids(threelines_maximal)
    by_iset = {rec.index_set: rec.matroid for rec in recs}
    assert by_iset[0b0010].weak_leq(by_iset[0b0011])


def test_weak_order_matches_containment(threelines_maximal, minmax4):
    for system in (threelines_maximal, minmax4):
        recs = extension_matroids(system)
        for ra in recs:
            for rb in recs:
                assert ra.matroid.weak_leq(rb.matroid) == \
                    (ra.index_set & rb.index_set == ra.index_set)


def test_sublattice_under_growing_presentation(threelines_submaximal,
                                               threelines_maximal):
    small, big = threelines_submaximal, threelines_maximal
    assert preceq(small, big)
    lat_small = extension_lattice(small)
    lat_big = extension_lattice(big)
    assert lat_big.members <= lat_small.members
    for i in lat_big.members:
        assert extension_matroid(small, i).bases() == \
            extension_matroid(big, i).bases()


def test_support_change_leaves_lattice(threelines_submaximal,
                                       threelines_maximal):
    small, big = threelines_submaximal, threelines_maximal
    lat_big = extension_lattice(big)
    for x in range(1 << small.ground.n):
        if small.support(x) != big.support(x):
            assert small.support(x) not in lat_big.members


def test_proper_sublattice_conditions(threelines_submaximal,
                                      threelines_maximal):
    # one element changes support, and the smaller support with one index
    # dropped is still closed above, so the containment is proper
    small, big = threelines_submaximal, threelines_maximal
    lat_small = extension_lattice(small)
    lat_big = extension_lattice(big)
    a = small.ground.index("a")
    s_small, s_big = small.support(1 << a), big.support(1 << a)
    assert s_small != s_big
    h = bit_indices(s_small)[0]
    assert s_small & ~(1 << h) in lat_big.members
    assert lat_big.members < lat_small.members


def test_every_support_closed_for_maximal(threelines_maximal, minmax4,
                                          u34_maximal):
    for system in (threelines_maximal, minmax4, u34_maximal):
        lat = extension_lattice(system)
        for x in range(1 << system.ground.n):
            assert system.support(x) in lat.members


def test_cyclic_flat_supports(threelines_maximal, u34_maximal):
    fam = cyclic_flat_supports(threelines_maximal)
    assert members(fam) == [[], [1, 2], [2, 3], [3, 4],
                            [1, 2, 3], [2, 3, 4], [1, 2, 3, 4]]
    closure = intersection_closure(fam.members, 4)
    assert closure == extension_lattice(threelines_maximal).members

    fam = cyclic_flat_supports(u34_maximal)
    assert members(fam) == [[], [1, 2, 3]]

    free_maximal = make_system("ab", ["ab", "ab"])
    assert members(cyclic_flat_supports(free_maximal)) == [[], [1, 2]]


def test_cyclic_flat_supports_requires_maximal(threelines_submaximal):
    with pytest.raises(ValueError):
        cyclic_flat_supports(threelines_submaximal)


def test_irreducibles_goldens(threelines_maximal):
    lat = extension_lattice(threelines_maximal)
    join_irr, meet_irr, least = irreducibles(lat)
    assert sorted(map(members_of, join_irr)) == [[1, 2], [2], [3], [3, 4]]
    assert sorted(map(members_of, meet_irr)) == [[1, 2], [1, 2, 3],
                                                 [2, 3, 4], [3, 4]]
    assert members_of(least[0]) == [1, 2]
    assert len(join_irr) == len(meet_irr)


def test_irreducibles_of_the_empty_family_is_refused():
    with pytest.raises(ValueError, match="^empty family$"):
        irreducibles(SubsetLattice(2, frozenset()))


def test_fresh_label_skips_every_taken_suffix():
    assert fresh_label(GroundSet(("a", "b"))) == "x"
    assert fresh_label(GroundSet(("x", "a"))) == "x1"
    assert fresh_label(GroundSet(("x", "x1", "a"))) == "x2"


def members_of(mask):
    return [i + 1 for i in bit_indices(mask)]


def test_irreducibles_powerset_and_chain():
    powerset = SubsetLattice(3, frozenset(range(8)))
    join_irr, meet_irr, _ = irreducibles(powerset)
    assert set(join_irr) == {0b001, 0b010, 0b100}
    assert set(meet_irr) == {0b110, 0b101, 0b011}

    chain = SubsetLattice(2, frozenset([0b00, 0b01, 0b11]))
    join_irr, meet_irr, _ = irreducibles(chain)
    assert set(join_irr) == {0b01, 0b11}
    assert set(meet_irr) == {0b00, 0b01}


def test_irreducible_count_equals_lattice_height(threelines_maximal,
                                                 threelines_submaximal,
                                                 minmax4):
    for system in (threelines_maximal, threelines_submaximal, minmax4):
        lat = extension_lattice(system)
        join_irr, meet_irr, _ = irreducibles(lat)
        top_height = max(lat.heights().values())
        assert len(join_irr) == len(meet_irr) == top_height


def test_one_element_above_condition_forces_proper_containment():
    # when every set outside the smaller lattice sits one element above a
    # member, growing the presentation must shrink the lattice properly
    from tmlat.verify import near_uniform_minimal, sharp_chain_presentation
    base = near_uniform_minimal(3)
    small = sharp_chain_presentation(base, 0)
    big = sharp_chain_presentation(base, 1)
    assert preceq(small, big)
    lat_small = extension_lattice(small)
    lat_big = extension_lattice(big)
    for i in range(1 << big.r):
        if i not in lat_big.members:
            assert any(i & ~(1 << h) in lat_big.members for h in bit_indices(i))
    assert lat_big.members < lat_small.members


def test_every_member_is_a_union_of_join_irreducibles(minmax4,
                                                      threelines_submaximal):
    for system in (minmax4, threelines_submaximal):
        lat = extension_lattice(system)
        join_irr, _, least = irreducibles(lat)
        for m in lat.members:
            union = 0
            for i in bit_indices(m):
                union |= least[i]
            assert union == m


def test_circuit_support_identity(threelines_maximal, threelines_submaximal,
                                  minmax4, u34_first):
    for system in (threelines_maximal, threelines_submaximal, minmax4,
                   u34_first):
        lat = extension_lattice(system)
        for m in lat.members:
            assert circuit_support_identity(system, m)
        for m in range(1 << system.r):
            if m not in lat.members:
                assert not circuit_support_identity(system, m)


def test_circuit_support_identity_by_enumeration(threelines_maximal):
    # literal check on a small instance: intersect the supports of all
    # circuits through the new element
    system = threelines_maximal
    for iset in extension_lattice(system).members:
        if iset == 0:
            continue
        ext = Matroid.from_system(extend(system, iset))
        xbit = 1 << system.ground.n
        acc = system.full_index_mask
        for c in ext.circuits():
            if c & xbit:
                s = system.support(c & ~xbit)
                assert s & iset == iset
                acc &= s
        assert acc == iset


def test_common_extension_lattice_self(u34_first):
    common = common_extension_lattice(u34_first, u34_first)
    assert common.lattice_ab.members == extension_lattice(u34_first).members
    assert all(i == j for i, j in common.pairs)


def test_common_extension_requires_same_matroid(u34_first, u34_second,
                                                threelines_maximal):
    common = common_extension_lattice(u34_first, u34_second)
    assert len(common.lattice_ab) == 2
    with pytest.raises(ValueError):
        common_extension_lattice(u34_first,
                                 make_system("abcd", ["ab", "ab", "cd"]))


def test_disjoint_pair_shares_only_trivial_extensions():
    a, b = disjoint_support_pair(3)
    common = common_extension_lattice(a, b)
    assert members(common.lattice_ab) == [[], [1, 2, 3]]
    assert members(common.lattice_ba) == [[], [1, 2, 3]]


def test_sharp_pair_common_count():
    a, b = sharp_common_pair(4)
    common = common_extension_lattice(a, b)
    assert len(common.lattice_ab) == 12
    expected = {i for i in range(1 << 4)
                if not i & 0b1000 or i & 0b0100}
    assert common.lattice_ab.members == expected


def test_matched_pairs_compose(meet_pair):
    a, b = meet_pair
    common = common_extension_lattice(a, b)
    order = dict(common.pairs)
    picks = sorted(common.lattice_ab.members)[:4]
    for i1 in picks:
        for i2 in picks:
            left = Matroid.from_system(iterated_extend(a, [i1, i2]))
            right = Matroid.from_system(iterated_extend(b, [order[i1],
                                                            order[i2]]))
            assert left.bases() == right.bases()


def test_matched_pairs_have_equal_size(meet_pair):
    a, b = meet_pair
    for i, j in common_extension_lattice(a, b).pairs:
        assert i.bit_count() == j.bit_count()


def test_extensions_survive_to_minimal_presentations(u34_first,
                                                     threelines_maximal):
    # every extension reachable from a presentation is reachable from each
    # minimal presentation below it
    from tmlat.presentations import minimal_presentations_below
    for system in (u34_first, threelines_maximal):
        lat = extension_lattice(system)
        for c in minimal_presentations_below(system):
            lat_c = extension_lattice(c)
            assert lat.members <= lat_c.members
            for i in lat.members:
                assert extension_matroid(system, i).bases() == \
                    extension_matroid(c, i).bases()


def test_minimal_presentation_reconstruction(u34_minimal):
    # drop the free extension; the maximal remaining extensions carry a
    # unique cyclic hyperplane through the new element, whose complement
    # is the corresponding set of the presentation
    system = u34_minimal
    xbit = 1 << system.ground.n
    full_ground = (1 << (system.ground.n + 1)) - 1
    for i in range(system.r):
        iset = system.full_index_mask & ~(1 << i)
        ext = extension_matroid(system, iset)
        hyper = [h for h in (full_ground & ~d for d in ext.cocircuits())
                 if h & xbit and is_cyclic(ext, h)]
        assert len(hyper) == 1
        recovered = full_ground & ~hyper[0] & ~xbit
        assert recovered == system.sets[i]


def test_hasse_dot_output(threelines_maximal):
    lat = extension_lattice(threelines_maximal)
    dot = hasse_dot(lat)
    assert dot == hasse_dot(extension_lattice(threelines_maximal))
    assert dot.startswith("digraph lattice {")
    assert '"{}" -> "{2}";' in dot
    assert '"{1,2,3}" -> "{1,2,3,4}";' in dot
    assert "rank=same" in dot
    assert dot.count("->") == len(lat.covers())


def test_scan_cap():
    names = [f"e{i}" for i in range(22)]
    big = make_system(names, [[names[i]] for i in range(22)])
    with pytest.raises(ValueError, match="capped at 20 sets"):
        extension_lattice(big)


# ---------------------------------------------------------------------------
# Fast routes against the oracles they replaced.

# Parallel-heavy maximal presentations, small enough for the bases route.
MAXIMAL_BUILDS = [system for system in
                  (build_maximal_presentation(lat)
                   for lat in _all_poset_lattices(3) if lat.r)
                  if system.ground.n <= 12]


@st.composite
def presentations(draw):
    """Full-rank presentations: rank one, with coloops, or maximal builds.

    In the drawn ones the first t elements are coloops: t of the sets
    hold only elements below t, and the others hold a diagonal of the
    rest.
    """
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(MAXIMAL_BUILDS))
    r = draw(st.integers(1, 5))
    n = draw(st.integers(r, 8))
    t = draw(st.integers(0, r))
    sets = [draw(st.integers(0, (1 << t) - 1)) | 1 << i for i in range(t)]
    diagonal = draw(st.permutations(range(t, n)))[:r - t]
    sets += [draw(st.integers(0, (1 << n) - 1)) | 1 << e for e in diagonal]
    ground = GroundSet(tuple(f"e{i}" for i in range(n)))
    return SetSystem(ground, tuple(draw(st.permutations(sets))))


@st.composite
def presentation_pairs(draw):
    """A presentation and a random walk away from it over the same matroid."""
    system = draw(presentations())
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return system, presentation_walk(system, draw(st.integers(1, 5)), rng)


@settings(max_examples=150, deadline=None)
@given(presentation_pairs())
def test_common_extensions_match_the_bases_route(pair):
    a, b = pair
    assert common_extension_lattice(a, b) == brute_common_extension_lattice(a, b)


@settings(max_examples=300, deadline=None)
@given(presentations(), st.data())
def test_fundamental_circuits_match_the_rank_shrink(system, data):
    """Closed sets (the empty one gives a loop) and any other index set."""
    closed = extension_lattice(system).sorted_members()
    iset = data.draw(st.one_of(st.sampled_from(closed),
                               st.integers(0, system.full_index_mask)))
    ext = extend(system, iset)
    xbit = 1 << system.ground.n
    for x in data.draw(st.lists(st.integers(0, system.ground.full_mask),
                                min_size=1, max_size=4)):
        owner = matching._max_matching_owner(system, x)
        start = mask_of(owner.values())
        circuit = matching.fundamental_circuit(system, owner, iset)
        want = brute_circuit_through(ext, start | xbit, xbit)
        assert (start if circuit is None else circuit) | xbit == want


def test_common_extension_lattice_builds_no_extension_matroid(monkeypatch,
                                                              meet_pair, pair18):
    """Nor does it enumerate bases or hyperplanes of the matroid."""
    pairs = [meet_pair, sharp_common_pair(4), disjoint_support_pair(3), pair18]
    want = [brute_common_extension_lattice(a, b) for a, b in pairs]

    def refuse(*args):
        raise AssertionError("extension matroid or derived family built")

    monkeypatch.setattr(extlattice, "extension_matroids", refuse)
    monkeypatch.setattr(matching, "independent_sets", refuse)  # basis walks
    monkeypatch.setattr(Matroid, "bases", refuse)
    monkeypatch.setattr(Matroid, "cocircuits", refuse)  # hyperplanes too
    monkeypatch.setattr(Matroid, "circuits", refuse)
    assert [common_extension_lattice(a, b) for a, b in pairs] == want


def test_common_extensions_cache_only_their_inputs(pair18):
    """Each extended system's pass is uncached: no later call reads it."""
    matching.deletion_reach.cache_clear()
    matching.element_supports.cache_clear()
    common_extension_lattice(*pair18)
    assert matching.deletion_reach.cache_info().currsize == 2
    assert matching.element_supports.cache_info().currsize == 2


def test_circuit_support_identity_makes_no_matching(monkeypatch, pair18,
                                                   threelines_submaximal,
                                                   minmax4, u34_first):
    """Once the pass is cached, every witness reads a matching it kept."""
    systems = [threelines_submaximal, minmax4, u34_first, pair18[0]]
    systems += [random_presentation(r, 8, seed=r) for r in range(2, 7)]
    closed = [extension_lattice(system).members for system in systems]
    calls = []
    original = matching._max_matching_owner

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(matching, "_max_matching_owner", counted)
    for system, lat in zip(systems, closed):
        for m in lat:
            assert circuit_support_identity(system, m)
    assert calls == []


def test_circuit_support_identity_makes_no_rank_query(monkeypatch,
                                                      threelines_submaximal,
                                                      minmax4, u34_first):
    systems = (threelines_submaximal, minmax4, u34_first)
    closed = [extension_lattice(system).members for system in systems]

    def refuse(system, x_mask):
        raise AssertionError("rank queried")

    monkeypatch.setattr(matching, "rank", refuse)
    for system, lat in zip(systems, closed):
        for m in range(1 << system.r):
            assert circuit_support_identity(system, m) == (m in lat)
