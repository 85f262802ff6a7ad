import operator
import os
import random
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlat import matching
from tmlat.core import GroundSet, SetSystem, bit_indices, make_system
from tmlat.presentations import maximal_sets

from .oracles import (brute_max_matching_owner, brute_rank, counting_independent,
                      pass_fields, reference_deletion_pass)


def test_matching_is_injective_and_supported(threelines_maximal):
    system = threelines_maximal
    m = matching.max_matching(system, system.ground.full_mask)
    sets_used = [j for _, j in m]
    assert len(set(sets_used)) == len(sets_used)
    for e, j in m:
        assert system.support(1 << e) & (1 << j)


def test_golden_matching_sizes(threelines_maximal, u34_first):
    abc = threelines_maximal.ground.mask("abc")
    assert len(matching.max_matching(threelines_maximal, abc)) == 2
    assert len(matching.max_matching(u34_first, u34_first.ground.mask("abc"))) == 3
    assert len(matching.max_matching(u34_first, 0)) == 0


def test_golden_ranks(threelines_maximal, u34_first):
    assert matching.rank(threelines_maximal, threelines_maximal.ground.full_mask) == 4
    assert matching.rank(u34_first, 0) == 0
    for triple in ("abc", "abd", "acd", "bcd"):
        assert matching.rank(u34_first, u34_first.ground.mask(triple)) == 3


def test_golden_independence(threelines_maximal, u34_first):
    assert not matching.is_independent(threelines_maximal,
                                       threelines_maximal.ground.mask("abc"))
    assert matching.is_independent(threelines_maximal, 0)
    assert not matching.is_independent(u34_first, u34_first.ground.full_mask)


def test_rank_matches_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 7)
        r = rng.randint(1, min(4, n))
        names = [f"e{i}" for i in range(n)]
        sets = [[names[i] for i in range(n) if rng.random() < 0.5]
                for _ in range(r)]
        system = make_system(names, sets)
        for _ in range(20):
            x = rng.randrange(1 << n)
            assert matching.rank(system, x) == brute_rank(system, x)


def test_hall_equivalence_exhaustive(threelines_maximal, minmax4):
    for system in (threelines_maximal, minmax4):
        n = system.ground.n
        for x in range(1 << n):
            assert matching.is_independent(system, x) == \
                counting_independent(system, x)


def test_hall_equivalence_twelve_elements():
    rng = random.Random(11)
    names = [f"e{i}" for i in range(12)]
    sets = [[names[i] for i in range(12) if rng.random() < 0.45]
            for _ in range(5)]
    system = make_system(names, sets)
    for x in range(1 << 12):
        assert matching.is_independent(system, x) == \
            counting_independent(system, x)


def test_deterministic_matching(u34_first):
    a = matching.max_matching(u34_first, u34_first.ground.mask("abc"))
    b = matching.max_matching(u34_first, u34_first.ground.mask("abc"))
    assert a == b


def test_reach_mask_predicts_augmentation(threelines_maximal):
    system = threelines_maximal
    full = system.ground.full_mask
    dels = matching.deletion_pass(system)
    for k, a in enumerate(system.sets):
        reach = dels.sets[k].reach
        base = len(dels.sets[k].matching)
        for adjacency in range(1 << system.r):
            assert bool(adjacency & reach) == \
                (brute_rank_with_virtual(system, full & ~a, adjacency) == base + 1)


def brute_rank_with_virtual(system, x_mask, adjacency):
    """Brute rank of x_mask plus one virtual element with given adjacency."""
    elems = bit_indices(x_mask)
    sup = [system.support(1 << e) for e in elems] + [adjacency]

    def best(i, used):
        if i == len(sup):
            return 0
        top = best(i + 1, used)
        for j in bit_indices(sup[i] & ~used):
            top = max(top, 1 + best(i + 1, used | (1 << j)))
        return top

    return best(0, 0)


GROUND8 = GroundSet(tuple(f"e{i}" for i in range(8)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=10),
       st.integers(0, 255))
def test_augment_pushes_sets_into_a_mask(sets, b):
    """Pushing sets one at a time decides Hall's condition inside ``b``."""
    chosen: list[int] = []
    owner: dict[int, int] = {}
    for a in sets:
        trial = chosen + [a]
        before = dict(owner)
        ok = matching.augment(trial, owner, len(chosen), blocked=~b)
        assert ok == (brute_rank(SetSystem(GROUND8, tuple(trial)), b) == len(trial))
        if not ok:
            assert owner == before
            continue
        chosen = trial
        assert sorted(owner.values()) == list(range(len(chosen)))
        for e, k in owner.items():
            assert b >> e & 1 and chosen[k] >> e & 1


@st.composite
def systems_and_masks(draw):
    """Any system of 1-8 sets on up to 10 elements, and a mask to match."""
    n = draw(st.integers(0, 10))
    sets = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    ground = GroundSet(tuple(f"e{i}" for i in range(n)))
    return SetSystem(ground, tuple(sets)), draw(st.integers(0, ground.full_mask))


@settings(max_examples=500, deadline=None)
@given(systems_and_masks())
def test_kept_dead_sets_change_no_assignment(case):
    """Skipping sets a failed search proved dead finds the same paths."""
    system, x = case
    owner = matching._max_matching_owner(system, x)
    want = brute_max_matching_owner(system, x)
    assert list(owner.items()) == list(want.items())
    assert matching.max_matching(system, x) == \
        tuple(sorted((e, j) for j, e in want.items()))


@st.composite
def full_rank_systems(draw, max_r=5, max_n=8):
    """1-``max_r`` random sets on up to ``max_n`` elements, each set
    holding its own element of a drawn diagonal, so the rank is the
    number of sets."""
    r = draw(st.integers(1, max_r))
    n = draw(st.integers(r, max_n))
    diagonal = draw(st.permutations(range(n)))[:r]
    sets = tuple(draw(st.integers(0, (1 << n) - 1)) | 1 << e for e in diagonal)
    return SetSystem(GroundSet(tuple(f"e{i}" for i in range(n))), sets)


def assert_maximum_matching(system, owner, x_mask):
    """``owner`` is a read-only map from set index to element: a matching
    of ``x_mask`` as large as the brute-force rank."""
    with pytest.raises(TypeError):
        owner[0] = 0
    assert all(x_mask >> e & 1 and system.sets[j] >> e & 1
               for j, e in owner.items())
    assert len(set(owner.values())) == len(owner)
    assert len(owner) == brute_rank(system, x_mask)


@settings(max_examples=300, deadline=None)
@given(full_rank_systems())
def test_the_pass_keeps_maximum_matchings(system):
    """Each deletion keeps a maximum matching of E - A_k, on edges that
    exist, and the pass keeps one of E."""
    dels = matching.deletion_reach(system)
    full = system.ground.full_mask
    for a, d in zip(system.sets, dels.sets):
        assert_maximum_matching(system, d.matching, full & ~a)
        assert len(d.matching) == d.rank
    assert_maximum_matching(system, dels.matching, full)
    assert len(dels.matching) == dels.rank == system.r


class _LookupOnly(Mapping):
    """A matching that answers lookups and refuses to be listed, so a
    reader that copies it fails."""

    def __init__(self, owner):
        self._owner = owner

    def __getitem__(self, j):
        return self._owner[j]

    def __iter__(self):
        raise AssertionError("matching listed or copied")

    def __len__(self):
        raise AssertionError("matching listed or copied")


def _refuse(*args, **kwargs):
    raise AssertionError("called")


@settings(max_examples=300, deadline=None)
@given(full_rank_systems(), st.data())
def test_fundamental_circuit_is_the_failed_search(system, data):
    """The closure reads the matching in place, searches nothing, and
    names what one augmenting search from the fresh element on a copy
    finds: None when it succeeds, else the elements matched to the sets
    it visited."""
    x = data.draw(st.integers(0, system.ground.full_mask))
    adjacency = data.draw(st.integers(0, system.full_index_mask))
    owner = matching._max_matching_owner(system, x)
    trial, visited = dict(owner), [0]
    sup = matching.element_supports(system) + (adjacency,)
    if matching._augment_rec(sup, trial, system.ground.n, visited):
        want = None
    else:
        want = sum(1 << owner[j] for j in bit_indices(visited[0]))
    with mock.patch.object(matching, "_augment_rec", _refuse):
        got = matching.fundamental_circuit(system, _LookupOnly(owner),
                                           adjacency)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(full_rank_systems())
def test_the_pass_computes_no_coloops(system):
    """Coloops are read off the kept matchings only where asked."""
    with mock.patch.object(matching, "coloop_mask", _refuse):
        dels = matching.deletion_pass(system)
    sup = matching.element_supports(system)
    full = system.ground.full_mask
    for a, d in zip(system.sets, dels.sets):
        x = full & ~a
        r = brute_rank(system, x)
        want = sum(1 << e for e in bit_indices(x)
                   if brute_rank(system, x & ~(1 << e)) < r)
        assert matching.coloop_mask(x, d.matching, sup) == want


@st.composite
def systems_of_either_rank(draw):
    """1-12 sets on up to 16 elements: full rank through a drawn
    diagonal, or rank-deficient with every set inside fewer than r
    elements."""
    r = draw(st.integers(1, 12))
    if draw(st.booleans()):
        n = draw(st.integers(r, 16))
        diagonal = draw(st.permutations(range(n)))[:r]
        sets = [draw(st.integers(0, (1 << n) - 1)) | 1 << e for e in diagonal]
    else:
        n = draw(st.integers(0, 16))
        within = sum(1 << e for e in draw(st.permutations(range(n)))[:r - 1])
        sets = [draw(st.integers(0, (1 << n) - 1)) & within for _ in range(r)]
    return SetSystem(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(sets))


@settings(max_examples=300, deadline=None)
@given(systems_of_either_rank())
def test_the_one_loop_pass_matches_the_reference(system):
    """Each E - A_k keeps the reference's rank, reach and matching, in
    the same insertion order, and so does the matching of E."""
    got = matching.deletion_pass(system)
    want = reference_deletion_pass(system)
    assert len(got.sets) == len(want.sets) == system.r
    for k, (d, w) in enumerate(zip(got.sets, want.sets)):
        assert (d.rank, d.reach, list(d.matching.items())) == \
            (w.rank, w.reach, list(w.matching.items())), k
    assert got.rank == want.rank
    assert list(got.matching.items()) == list(want.matching.items())


def with_added_elements(system, extra):
    """``system`` with ``extra`` new elements, each lying in every set."""
    n = system.ground.n
    names = system.ground.names + tuple(f"e{i}" for i in range(n, n + extra))
    added = ((1 << extra) - 1) << n
    return SetSystem(GroundSet(names), tuple(a | added for a in system.sets))


@settings(max_examples=300, deadline=None)
@given(full_rank_systems(max_r=6, max_n=10), st.data())
def test_shared_deletions_equal_the_unshared_pass(system, data):
    """Under one table, a system and its copies with one or two elements
    added to every set, passed in any order, each get the pass they get
    with no table.  The copies cut every set down to the same sets on
    each E - A_k, so all three hand out the same deletions."""
    systems = data.draw(st.permutations(
        [system, with_added_elements(system, 1),
         with_added_elements(system, 2)]))
    with matching.shared_deletions():
        shared = [matching.deletion_pass(s) for s in systems]
    for s, got in zip(systems, shared):
        assert pass_fields(got) == pass_fields(matching.deletion_pass(s))
    for other in shared[1:]:
        assert all(map(operator.is_, shared[0].sets, other.sets))


def with_idle_elements(system, extra):
    """``system`` with ``extra`` new elements, each lying in no set."""
    n = system.ground.n
    names = system.ground.names + tuple(f"e{i}" for i in range(n, n + extra))
    return SetSystem(GroundSet(names), system.sets)


def with_later_sets_widened(system):
    """``system`` with every set after the first widened to the whole
    ground: the first set keeps its deletion E - A_0, but the other
    sets cut down to all of it.  Still full rank, as n >= r."""
    full = system.ground.full_mask
    return SetSystem(system.ground,
                     system.sets[:1] + (full,) * (system.r - 1))


def maximal_sets_of(system):
    return maximal_sets(system, matching.deletion_pass(system).sets,
                        matching.element_supports(system))


@settings(max_examples=300, deadline=None)
@given(full_rank_systems(max_r=6, max_n=10), st.data())
def test_maximal_sets_are_the_same_inside_and_outside_a_block(system, data):
    """Under one block, a system, its copies with an element added to
    every set or to none, and a copy whose first deletion keeps E - A_0
    but cuts the other sets down differently, read in any order, each
    get the maximal sets they get with no block.  The first three share
    every key, so they share every coloop read; the last shares E - A_0
    alone, and must not share its coloops."""
    systems = data.draw(st.permutations(
        [system, with_added_elements(system, 1), with_idle_elements(system, 1),
         with_idle_elements(with_added_elements(system, 1), 2),
         with_later_sets_widened(system)]))
    with matching.shared_deletions():
        inside = [maximal_sets_of(s) for s in systems]
    assert inside == [maximal_sets_of(s) for s in systems]


def test_the_shared_table_lives_only_inside_its_block():
    """Each block installs a fresh, empty state and restores the one
    before it, also when the block raises; what the outer block computed
    is not seen inside the inner one."""
    system = make_system("abc", ["ab", "bc"])
    assert matching._shared is None
    with matching.shared_deletions():
        outer = matching._shared
        assert outer == matching._Block({}, {})
        maximal_sets_of(system)
        assert outer.deletions and outer.coloops
        with pytest.raises(RuntimeError):
            with matching.shared_deletions():
                assert matching._shared == matching._Block({}, {})
                assert matching._shared is not outer
                raise RuntimeError
        assert matching._shared is outer
    assert matching._shared is None


def test_no_shared_table_at_import():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tmlat.matching; print(tmlat.matching._shared)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "None\n"), proc.stderr


def test_the_only_functools_caches_are_the_two_the_bench_empties():
    """The benchmark runner empties ``element_supports`` and
    ``deletion_reach`` before each operation; any other memo in the
    module could carry work from one operation to the next."""
    cached = {name for name, value in vars(matching).items()
              if callable(getattr(value, "cache_clear", None))}
    assert cached == {"element_supports", "deletion_reach"}
