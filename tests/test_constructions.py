import json
import random
import re
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tmlat import core, matching
from tmlat.constructions import (build_maximal_presentation,
                                 build_uniform_presentation, ideals_of_poset,
                                 validate_lattice)
from tmlat.core import (MAX_ELEMENTS, GroundSet, SetSystem, SubsetLattice,
                        bit_indices, mask_of)
from tmlat.extlattice import extension_lattice, hasse_dot, irreducibles
from tmlat.presentations import is_maximal
from tmlat.verify import _all_poset_lattices, census_sublattices

from .oracles import (brute_build_uniform, brute_covers,
                      brute_first_occurrence, brute_hasse_dot,
                      brute_heights, brute_maximal_presentation,
                      brute_meet_irreducibles, brute_transitive_closure,
                      brute_validate_lattice)

SAMPLE_R6 = frozenset([0, 0b000001, 0b000111, 0b011001, 0b011111, 0b111111])


def idx(masks):
    return sorted([i + 1 for i in bit_indices(m)] for m in masks)


def test_validate_lattice():
    validate_lattice(SAMPLE_R6, 6)
    validate_lattice([0b00, 0b01, 0b10, 0b11], 2)
    # {2} and {3} each lack their union with {1}; the lower mask is named
    with pytest.raises(ValueError,
                       match=r"^union of \[1\] and \[2\] is missing$"):
        validate_lattice([0b000, 0b001, 0b010, 0b100, 0b111], 3)
    with pytest.raises(ValueError,
                       match=r"^intersection of \[1, 2\] and \[2, 3\] is missing$"):
        validate_lattice([0b000, 0b011, 0b110, 0b111], 3)
    with pytest.raises(ValueError, match="empty"):
        validate_lattice([0b01, 0b11], 2)
    with pytest.raises(ValueError, match="full"):
        validate_lattice([0b00, 0b01], 2)


def test_least_containing_golden():
    lat = validate_lattice(SAMPLE_R6, 6)
    # {1,...,5} is the least member of no index: it is join-reducible
    assert dict(lat.least_containing()) == {
        0: 0b000001, 1: 0b000111, 2: 0b000111,
        3: 0b011001, 4: 0b011001, 5: 0b111111}


def test_least_containing_powerset_and_chain():
    powerset = validate_lattice(range(1 << 3), 3)
    assert dict(powerset.least_containing()) == {0: 0b001, 1: 0b010, 2: 0b100}
    chain = validate_lattice([0b00, 0b01, 0b11], 2)
    assert dict(chain.least_containing()) == {0: 0b01, 1: 0b11}


def test_build_maximal_sizes_and_roundtrip():
    # one block per join-irreducible, {1} and {2}; none for {1,2}
    lat = validate_lattice(range(1 << 2), 2)
    system = build_maximal_presentation(lat)
    assert system.ground.n == 2 + 2
    assert extension_lattice(system).members == lat.members
    assert is_maximal(system)

    trivial = validate_lattice([0b000, 0b111], 3)
    system = build_maximal_presentation(trivial)
    assert system.ground.n == 4
    assert extension_lattice(system).members == trivial.members


def test_build_maximal_sample_r6():
    lat = validate_lattice(SAMPLE_R6, 6)
    system = build_maximal_presentation(lat)
    assert system.ground.n == 2 + 4 + 4 + 7
    assert extension_lattice(system).members == lat.members
    assert is_maximal(system)
    # every block is dependent and supported exactly on its join-irreducible
    for m in set(lat.least_containing().values()):
        block = system.ground.mask(
            n for n in system.ground.names
            if n.startswith("-".join(str(i + 1) for i in bit_indices(m)) + ":"))
        assert system.support(block) == m
        assert not matching.is_independent(system, block)


def test_build_uniform_golden_r6():
    lat = validate_lattice(SAMPLE_R6, 6)
    system = build_uniform_presentation(lat, 7)
    g = system.ground
    assert g.names == tuple(str(i) for i in range(1, 8))
    expect = [["1", "2", "3", "4", "5", "6", "7"],
              ["2", "3", "6", "7"],
              ["2", "3", "6", "7"],
              ["4", "5", "6", "7"],
              ["4", "5", "6", "7"],
              ["6", "7"]]
    assert system.set_labels() == expect
    assert extension_lattice(system).members == lat.members


def test_build_uniform_identity_case():
    lat = validate_lattice(range(1 << 3), 3)
    system = build_uniform_presentation(lat, 3)
    assert system.set_labels() == [["1"], ["2"], ["3"]]


def test_build_uniform_trivial_lattice():
    lat = validate_lattice([0b00, 0b11], 2)
    system = build_uniform_presentation(lat, 3)
    assert system.set_labels() == [["1", "2", "3"], ["1", "2", "3"]]
    assert extension_lattice(system).members == lat.members
    with pytest.raises(ValueError):
        build_uniform_presentation(lat, 1)


def test_build_uniform_support_law():
    lat = validate_lattice(SAMPLE_R6, 6)
    system = build_uniform_presentation(lat, 8)
    for i, m in lat.least_containing().items():
        assert system.support(1 << i) == m


def test_build_uniform_matches_the_generator_passes():
    """One pass over the least map's bits fills the same sets as one
    generator pass per set, on every labeled poset lattice on one to
    five points, for n = r .. r + 3."""
    for lat in _all_poset_lattices(5):
        if not lat.r:  # no set system has zero sets
            continue
        for n in range(lat.r, lat.r + 4):
            assert build_uniform_presentation(lat, n) == brute_build_uniform(lat, n)


def test_build_maximal_rank5_samples():
    # the chain, a chain beside a point, and the antichain (the powerset)
    for less, size in (([(1, 2), (2, 3), (3, 4), (4, 5)], 20),
                       ([(1, 2), (2, 3), (3, 4)], 16),
                       ([], 10)):
        lat = ideals_of_poset(5, less)
        system = build_maximal_presentation(lat)
        assert system.ground.n == size
        assert extension_lattice(system).members == lat.members
        assert is_maximal(system)
        for n in (5, 6, 7):
            uniform = build_uniform_presentation(lat, n)
            assert extension_lattice(uniform).members == lat.members


def _block_sum(lat):
    """Sum of |J| + 1 over the join-irreducibles J."""
    return sum(j.bit_count() + 1 for j in set(lat.least_containing().values()))


def test_build_maximal_every_five_point_lattice():
    """Each of the 4,231 lattices of labeled 5-point posets is realized
    by a maximal presentation, also the 101 where a block per member would
    pass the ground cap."""
    count = 0
    for lat in _all_poset_lattices(5):
        if lat.r < 5:
            continue
        count += 1
        system = build_maximal_presentation(lat)
        assert system.ground.n == _block_sum(lat) <= 20
        assert extension_lattice(system).members == lat.members
        assert is_maximal(system)
    assert count == 4231


def test_build_maximal_chain_sizes():
    """The r-chain needs r(r+3)/2 elements, the most any r allows: 54 at
    r = 9, and one past the ground cap at r = 10."""
    chain9 = ideals_of_poset(9, [(i, i + 1) for i in range(1, 9)])
    system = build_maximal_presentation(chain9)
    assert system.ground.n == 9 * 12 // 2 == 54
    assert extension_lattice(system).members == chain9.members
    assert is_maximal(system)
    chain10 = ideals_of_poset(10, [(i, i + 1) for i in range(1, 10)])
    with pytest.raises(ValueError,
                       match=f"ground set larger than {MAX_ELEMENTS} elements"):
        build_maximal_presentation(chain10)


@st.composite
def positive_rank_lattices(draw):
    """A lattice holding {} and [r], with r >= 1."""
    lat = draw(st.one_of(poset_ideal_lattices(), extension_lattices()))
    assume(lat.r)
    return lat


@settings(max_examples=60, deadline=None)
@given(positive_rank_lattices())
def test_build_maximal_realizes_lattice(lat):
    """The join-irreducible build presents ``lat``, is maximal, takes
    exactly sum(|J| + 1) <= r(r+3)/2 elements, and agrees with the block
    per member wherever that fits in the ground cap."""
    system = build_maximal_presentation(lat)
    assert system.ground.n == _block_sum(lat) <= lat.r * (lat.r + 3) // 2
    assert extension_lattice(system).members == lat.members
    assert is_maximal(system)
    if sum(m.bit_count() + 1 for m in lat.members if m) <= MAX_ELEMENTS:
        per_member = brute_maximal_presentation(lat)
        assert extension_lattice(per_member).members == lat.members


def test_ideals_of_poset():
    antichain = ideals_of_poset(3, [])
    assert antichain.members == frozenset(range(8))
    chain = ideals_of_poset(4, [(1, 2), (2, 3), (3, 4)])
    assert len(chain) == 5
    vee = ideals_of_poset(3, [(1, 2)])
    assert len(vee) == 6
    with pytest.raises(ValueError):
        ideals_of_poset(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        ideals_of_poset(2, [(1, 3)])


def test_ideals_transitive_input():
    # closure is taken internally, so redundant pairs change nothing
    a = ideals_of_poset(3, [(1, 2), (2, 3)])
    b = ideals_of_poset(3, [(1, 2), (2, 3), (1, 3)])
    assert a.members == b.members


def test_ideals_of_poset_match_the_fixpoint_closure():
    """Seeded relations, cycles included: the same lattice, or the same
    error."""
    rng = random.Random(23)
    cycles = 0
    for _ in range(600):
        points = rng.randint(0, 7)
        pairs = [(i, j) for i in range(1, points + 1)
                 for j in range(1, points + 1) if i != j]
        less = rng.sample(pairs, min(len(pairs), rng.randint(0, 6)))
        below = [0] * points
        for i, j in less:
            below[j - 1] |= 1 << (i - 1)
        below = brute_transitive_closure(below)
        if any(b >> j & 1 for j, b in enumerate(below)):
            cycles += 1
            with pytest.raises(ValueError, match=r"^relation is not a "
                                                 r"partial order \(cycle\)$"):
                ideals_of_poset(points, less)
            continue
        lat = ideals_of_poset(points, less)
        assert lat.members == frozenset(
            m for m in range(1 << points)
            if all(below[j] & ~m == 0 for j in bit_indices(m)))
        assert dict(lat.least_containing()) == {
            j: b | 1 << j for j, b in enumerate(below)}
    assert 50 < cycles < 550


@st.composite
def poset_ideal_lattices(draw, max_points=9):
    """Order ideals of a random poset on at most ``max_points`` points."""
    points = draw(st.integers(0, max_points))
    order = draw(st.permutations(range(1, points + 1)))
    pairs = [(order[i], order[j]) for i in range(points)
             for j in range(i + 1, points)]
    less = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    return ideals_of_poset(points, less)


@st.composite
def extension_lattices(draw, max_r=8):
    """Closed index sets of a random full-rank presentation with
    r <= ``max_r`` <= 10."""
    r = draw(st.integers(1, max_r))
    n = draw(st.integers(r, 10))
    diagonal = draw(st.permutations(range(n)))[:r]
    sets = [draw(st.integers(0, (1 << n) - 1)) | 1 << e for e in diagonal]
    system = SetSystem(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(sets))
    assert matching.rank(system, system.ground.full_mask) == r
    return extension_lattice(system)


@st.composite
def shifted_ideal_lattices(draw):
    """An ideal lattice spread over a larger index range: every member
    also holds a nonempty bottom, and some indices lie in no member.
    The three kinds of index are interleaved at random."""
    lat = draw(poset_ideal_lattices(max_points=6))
    below = draw(st.integers(1, 3))
    outside = draw(st.integers(0, 3))
    r = lat.r + below + outside
    place = draw(st.permutations(range(r)))
    bottom = mask_of(place[lat.r:lat.r + below])
    return SubsetLattice(r, frozenset(
        bottom | mask_of(place[i] for i in bit_indices(m)) for m in lat.members))


# Every closed family over [4] up to permutation, many with a nonempty
# bottom or a top short of [4]; single members included.
CENSUS_R4 = census_sublattices(4, 0)


# Lattices with their least map handed in, computed from the members, or
# spread over indices that lie below or outside every member.
READ_OFF_LATTICES = st.one_of(poset_ideal_lattices(), extension_lattices(),
                              shifted_ideal_lattices(),
                              st.sampled_from(CENSUS_R4))
# {2,3} is the least member of two indices; a nonempty bottom {2} under
# an index, 4, in no member.
OWNS_TWO = SubsetLattice(6, SAMPLE_R6)
SHIFTED = SubsetLattice(4, frozenset([0b0010, 0b0011, 0b0110, 0b0111]))


@settings(max_examples=250, deadline=None)
@given(READ_OFF_LATTICES)
@example(OWNS_TWO)
@example(SHIFTED)
def test_read_offs_match_pairwise_oracles(lat):
    """Covers, heights, meet-irreducibles, first occurrences and the
    uniform build's supports read off the least-containing map, also where
    the bottom is nonempty or some index is in no member."""
    assert lat.covers() == brute_covers(lat)
    assert lat.heights() == brute_heights(lat)
    assert irreducibles(lat)[1] == brute_meet_irreducibles(lat)
    least = lat.least_containing()
    occ = brute_first_occurrence(lat)
    for m, part in occ.items():
        assert part == mask_of(i for i, j in least.items() if j == m)
    if len(least) < lat.r:
        with pytest.raises(ValueError, match="appears first in no member"):
            build_uniform_presentation(lat, lat.r)
    elif lat.r:
        system = build_uniform_presentation(lat, lat.r + 1)
        for m, part in occ.items():
            for i in bit_indices(part):
                assert system.support(1 << i) == m


@settings(max_examples=150, deadline=None)
@given(READ_OFF_LATTICES)
@example(OWNS_TWO)
@example(SHIFTED)
def test_hasse_dot_matches_brute_rendering(lat):
    assert hasse_dot(lat) == brute_hasse_dot(lat)


def test_hasse_dot_of_empty_and_one_member_families():
    head = "digraph lattice {\n  rankdir=BT;\n  node [shape=plaintext];\n"
    empty = SubsetLattice(3, frozenset())
    assert hasse_dot(empty) == brute_hasse_dot(empty) == head + "}\n"
    single = SubsetLattice(3, frozenset([0b101]))
    assert hasse_dot(single) == brute_hasse_dot(single) == (
        head + '  "{1,3}";\n  { rank=same; "{1,3}"; }\n}\n')


@settings(max_examples=150, deadline=None)
@given(extension_lattices(max_r=9))
def test_extension_lattice_hands_in_the_least_map(lat):
    assert lat.least is not None  # handed in: no call has computed it yet
    assert dict(lat.least_containing()) == core.least_containing(lat.members)


def test_ideal_lattice_hands_in_the_least_map():
    """Every labeled poset lattice on at most five points."""
    lattices = list(_all_poset_lattices(5))
    assert len(lattices) == 4474
    for lat in lattices:
        assert lat.least is not None
        assert dict(lat.least_containing()) == core.least_containing(lat.members)


def _verdict(validator, members, r):
    """The lattice a validator returns, or the text of its ValueError."""
    try:
        lat = validator(members, r)
    except ValueError as exc:
        return str(exc)
    return lat.r, lat.members


@st.composite
def flipped_ideal_lattices(draw):
    """An ideal lattice with up to two index sets added or taken away."""
    lat = draw(poset_ideal_lattices())
    flips = draw(st.lists(st.integers(0, (1 << lat.r) - 1), max_size=2))
    return lat.members.symmetric_difference(flips), lat.r


@st.composite
def random_families(draw):
    """Any family over [r], r <= 6, often holding {} and [r]; some members
    may lie one index out of range."""
    r = draw(st.integers(0, 6))
    full = (1 << r) - 1
    members = set(draw(st.frozensets(st.integers(0, 2 * full + 1),
                                     max_size=12)))
    if draw(st.integers(0, 3)):
        members |= {0, full}
    return frozenset(members), r


CLOSURE_MESSAGE = re.compile(
    r"(union|intersection) of (\[[\d, ]*\]) and (\[[\d, ]*\]) is missing")


@settings(max_examples=400, deadline=None)
@given(st.one_of(flipped_ideal_lattices(), random_families()))
def test_validate_lattice_matches_pairwise_oracle(family):
    """Same verdict as the pairwise oracle and the same presence and range
    messages.  A closure message may name another pair than the oracle's
    first one in frozenset order, but it names two distinct members
    a < b whose union or intersection is absent."""
    members, r = family
    got = _verdict(validate_lattice, members, r)
    want = _verdict(brute_validate_lattice, members, r)
    if not (isinstance(want, str) and CLOSURE_MESSAGE.fullmatch(want)):
        assert got == want
        return
    named = CLOSURE_MESSAGE.fullmatch(got)
    assert named, got
    a, b = (mask_of(i - 1 for i in json.loads(named[k])) for k in (2, 3))
    assert a < b and a in members and b in members
    assert (a | b if named[1] == "union" else a & b) not in members


@settings(max_examples=100, deadline=None)
@given(st.one_of(poset_ideal_lattices(), extension_lattices()))
def test_valid_lattices_pass_the_least_map_test(lat):
    assert validate_lattice(lat.members, lat.r).members == lat.members


def test_powerset_r16_less_a_singleton_fails_fast():
    """A family that fails costs O(|L|·r), as one that passes does: the
    witness is read off the least map, with no scan over the 2^31 pairs
    of members."""
    powerset = frozenset(range(1 << 16))
    start = time.perf_counter()
    assert validate_lattice(powerset, 16).members == powerset
    with pytest.raises(ValueError) as err:
        validate_lattice(powerset - {1 << 15}, 16)
    assert time.perf_counter() - start < 20
    assert str(err.value) == "intersection of [1, 16] and [2, 16] is missing"
