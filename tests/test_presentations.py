import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tmlat import matching, presentations
from tmlat.core import GroundSet, SetSystem, bit_indices, make_system
from tmlat.extlattice import index_closure, least_map
from tmlat.matroid import Matroid
from tmlat.presentations import (addable_pairs, cover_chain, deletion_ranks,
                                 is_maximal, is_minimal, maximalize,
                                 minimal_presentations_below, preceq,
                                 presentation_rank, reindexing_equivalent,
                                 removable_pairs, require_full_rank, _with_bit)

from . import oracles
from .oracles import (BudgetProbe, brute_addable_pairs, brute_maximalize,
                      brute_minimal_presentations_below,
                      brute_removable_pairs, prec)


def test_preceq(threelines_submaximal, threelines_maximal, u34_first, u34_second):
    assert preceq(threelines_submaximal, threelines_maximal)
    assert prec(threelines_submaximal, threelines_maximal)
    assert preceq(u34_first, u34_first)
    assert not preceq(u34_first, u34_second)
    with pytest.raises(ValueError):
        preceq(u34_first, threelines_maximal)


def test_reindexing_equivalence(u34_first):
    shuffled = SetSystem(u34_first.ground,
                         (u34_first.sets[2], u34_first.sets[0], u34_first.sets[1]))
    assert reindexing_equivalent(u34_first, shuffled)
    assert not preceq(u34_first, shuffled)


def test_reindexing_equivalence_needs_one_ground(u34_first):
    renamed = SetSystem(GroundSet(("a", "b", "c", "e")), u34_first.sets)
    assert not reindexing_equivalent(u34_first, renamed)


def test_presentation_rank_goldens(threelines_submaximal, threelines_maximal,
                                   u34_minimal, u34_maximal):
    assert deletion_ranks(threelines_submaximal) == [3, 3, 2, 3]
    assert deletion_ranks(threelines_maximal) == [3, 2, 2, 3]
    assert presentation_rank(threelines_submaximal) == 1
    assert presentation_rank(threelines_maximal) == 2
    assert presentation_rank(u34_minimal) == 0
    assert presentation_rank(u34_maximal) == 6


def test_full_rank_required():
    deficient = make_system("ab", ["a", "a"])
    with pytest.raises(ValueError):
        presentation_rank(deficient)


def test_is_minimal_goldens(u34_minimal, u34_first, minmax4):
    assert is_minimal(u34_minimal)
    assert not is_minimal(u34_first)
    assert is_minimal(minmax4) and is_maximal(minmax4)


def test_minimal_iff_rank_zero(threelines_maximal, u34_minimal, u34_first):
    for system in (threelines_maximal, u34_minimal, u34_first):
        assert is_minimal(system) == (presentation_rank(system) == 0)


def test_maximalize_goldens(threelines_submaximal, threelines_maximal,
                            u34_first, u34_second, u34_maximal):
    assert maximalize(threelines_submaximal).sets == threelines_maximal.sets
    assert maximalize(threelines_maximal).sets == threelines_maximal.sets
    assert maximalize(u34_first).sets == u34_maximal.sets
    assert maximalize(u34_second).sets == u34_maximal.sets


def test_single_addition_is_the_only_one(threelines_submaximal):
    g = threelines_submaximal.ground
    assert addable_pairs(threelines_submaximal) == [(1, g.index("a"))]


def test_additions_preserve_the_matroid(threelines_submaximal, u34_first):
    for system in (threelines_submaximal, u34_first):
        m = Matroid.from_system(system)
        current = system
        while True:
            pairs = addable_pairs(current)
            if not pairs:
                break
            i, e = pairs[0]
            current = _with_bit(current, i, e, True)
            assert Matroid.from_system(current).bases() == m.bases()


def test_maximalize_is_confluent(threelines_submaximal, u34_first, minmax4):
    rng = random.Random(17)
    for system in (threelines_submaximal, u34_first, minmax4):
        expected = maximalize(system).sets
        for _ in range(5):
            current = system
            while True:
                pairs = addable_pairs(current)
                if not pairs:
                    break
                i, e = rng.choice(pairs)
                current = _with_bit(current, i, e, True)
            assert current.sets == expected


def test_maximal_complements_are_cyclic_flats(threelines_maximal, minmax4):
    for system in (threelines_maximal, minmax4):
        m = Matroid.from_system(system)
        cyclic = set(m.cyclic_flats())
        for a in system.sets:
            assert system.ground.full_mask & ~a in cyclic


def test_minimal_presentations_below(u34_first, u34_minimal,
                                     threelines_submaximal):
    below = minimal_presentations_below(u34_first)
    assert below
    for c in below:
        assert preceq(c, u34_first) and is_minimal(c)

    assert minimal_presentations_below(u34_minimal) == [u34_minimal]

    a_index = threelines_submaximal.ground.index("a")
    kept = minimal_presentations_below(threelines_submaximal, keep=1 << a_index)
    assert kept
    for c in kept:
        assert c.support(1 << a_index) == \
            threelines_submaximal.support(1 << a_index)


def test_minimal_below_matches_exhaustive_enumeration(u34_first):
    system = u34_first
    m = Matroid.from_system(system)
    expected = set()
    # walk every index-wise subsystem; feasible at this size
    choices = [list(range(1 << a.bit_count())) for a in system.sets]
    positions = [bit_indices(a) for a in system.sets]
    for combo in product(*choices):
        sets = []
        for picked, pos in zip(combo, positions):
            mask = 0
            for t, e in enumerate(pos):
                if picked & (1 << t):
                    mask |= 1 << e
            sets.append(mask)
        candidate = SetSystem(system.ground, tuple(sets))
        if matching.rank(candidate, system.ground.full_mask) != system.r:
            continue
        if Matroid.from_system(candidate).bases() != m.bases():
            continue
        if is_minimal(candidate):
            expected.add(candidate.sets)
    got = {c.sets for c in minimal_presentations_below(system)}
    assert got == expected


@st.composite
def presentations_with_keeps(draw):
    """Full-rank presentations of 1-5 sets on at most 8 elements, half of
    them maximalized, each with up to three kept elements."""
    r = draw(st.integers(1, 5))
    n = draw(st.integers(r, 8))
    diagonal = draw(st.permutations(range(n)))[:r]
    sets = tuple(draw(st.integers(0, (1 << n) - 1)) | 1 << e for e in diagonal)
    system = SetSystem(GroundSet(tuple(f"e{i}" for i in range(n))), sets)
    if draw(st.booleans()):
        system = maximalize(system)
    kept = draw(st.sets(st.integers(0, n - 1), max_size=3))
    return system, sum(1 << e for e in kept)


@settings(max_examples=200, deadline=None)
@given(presentations_with_keeps())
def test_minimal_walk_matches_the_interval_walk(drawn):
    """The same sorted output as the walk over every presentation between
    the input and its minimal ones, the same refusal of a kept set that
    drops the rank, and never more presentations charged: the walk runs
    with its budget set to the visits the oracle made.  The oracle's own
    budget is lowered to bound the test's time; draws it refuses are
    skipped."""
    system, keep = drawn
    oracle_budget = BudgetProbe(2_000)
    with mock.patch.object(oracles, "MINIMAL_BUDGET", oracle_budget):
        try:
            want = brute_minimal_presentations_below(system, keep)
        except ValueError as err:
            assume("capped" not in str(err))
            with pytest.raises(ValueError) as got:
                minimal_presentations_below(system, keep)
            assert str(got.value) == str(err)
            return
    budget = BudgetProbe(oracle_budget.peak)
    with mock.patch.object(presentations, "MINIMAL_BUDGET", budget):
        got = minimal_presentations_below(system, keep)
    assert [c.sets for c in got] == [c.sets for c in want]
    assert budget.peak <= oracle_budget.peak


def test_keep_precondition(u34_first):
    # removing all of a basis drops the rank, so keep is rejected
    with pytest.raises(ValueError):
        minimal_presentations_below(u34_first, keep=u34_first.ground.full_mask)


def test_size_difference_law(threelines_maximal, u34_first):
    # a minimal presentation below differs from the i-th set by exactly
    # the deletion-rank deficit
    for system in (threelines_maximal, u34_first):
        r = system.r
        dels = deletion_ranks(system)
        for c in minimal_presentations_below(system):
            for i in range(r):
                assert (system.sets[i] & ~c.sets[i]).bit_count() == \
                    r - 1 - dels[i]


def test_cover_chain(threelines_maximal, u34_minimal):
    chain = cover_chain(threelines_maximal)
    assert isinstance(chain, tuple)
    assert len(chain) - 1 == 2
    assert chain[-1] == threelines_maximal
    assert is_minimal(chain[0])
    m = Matroid.from_system(threelines_maximal)
    for lo, hi in zip(chain, chain[1:]):
        assert prec(lo, hi)
        diff = sum((b & ~a).bit_count() for a, b in zip(lo.sets, hi.sets))
        assert diff == 1
        assert Matroid.from_system(lo).bases() == m.bases()
    for j, step in enumerate(chain):
        assert presentation_rank(step) == j

    assert len(cover_chain(u34_minimal)) - 1 == 0


@st.composite
def presentations_with_coloops(draw):
    """Full-rank presentations whose first t elements are coloops.

    t of the sets hold only elements below t, so deleting any one of
    those elements drops the rank; the other sets may hold them too.
    """
    r = draw(st.integers(1, 7))
    n = draw(st.integers(r, 10))
    t = draw(st.integers(0, r))
    sets = [draw(st.integers(0, (1 << t) - 1)) | 1 << i for i in range(t)]
    diagonal = draw(st.permutations(range(t, n)))[:r - t]
    sets += [draw(st.integers(0, (1 << n) - 1)) | 1 << e for e in diagonal]
    ground = GroundSet(tuple(f"e{i}" for i in range(n)))
    return SetSystem(ground, tuple(draw(st.permutations(sets))))


@settings(max_examples=300, deadline=None)
@given(presentations_with_coloops())
def test_removable_pairs_match_the_basis_scan(system):
    assert removable_pairs(system) == brute_removable_pairs(system)


@settings(max_examples=300, deadline=None)
@given(presentations_with_coloops())
def test_maximalize_in_one_pass_matches_the_fixpoint(system):
    assert maximalize(system).sets == brute_maximalize(system).sets


@st.composite
def set_systems(draw):
    """Any system of 1-6 sets on up to 8 elements, full rank or not."""
    n = draw(st.integers(0, 8))
    sets = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    return SetSystem(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(sets))


@settings(max_examples=300, deadline=None)
@given(st.one_of(presentations_with_coloops(), set_systems()))
def test_addable_pairs_and_full_rank_match_the_rank_scan(system):
    r = matching.rank(system, system.ground.full_mask)
    if r == system.r:
        assert require_full_rank(system).rank == r
        assert addable_pairs(system) == brute_addable_pairs(system)
        return
    message = f"system of {system.r} sets presents a matroid of rank {r}"
    for check in (require_full_rank, addable_pairs, least_map,
                  lambda s: index_closure(s, 0), removable_pairs, is_minimal,
                  presentation_rank, deletion_ranks):
        with pytest.raises(ValueError) as err:
            check(system)
        assert str(err.value) == message
