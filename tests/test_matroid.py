import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlat import matroid
from tmlat.core import (GroundSet, SetSystem, bit_indices, make_system,
                        presentation_doc)
from tmlat.matroid import (Matroid, is_transversal, matroid_doc, parse_matroid,
                           transversal_presentation)

from .oracles import (brute_basis_exchange, brute_circuits, brute_cocircuits,
                      brute_cyclic_flats, brute_rank,
                      brute_transversal_presentation, cut_presentation,
                      is_cyclic, principal_extension, restrict)


def labels(m, mask):
    return "".join(m.ground.labels(mask))


def test_closure_goldens(threelines_maximal, u34_first):
    m = Matroid.from_system(threelines_maximal)
    g = m.ground
    assert m.closure(g.mask("ab")) == g.mask("abc")
    assert m.closure(g.full_mask) == g.full_mask
    u = Matroid.from_system(u34_first)
    assert u.closure(u.ground.mask("ab")) == u.ground.mask("ab")


def test_repr_names_the_ground_size_and_the_bases(u34_first):
    assert repr(Matroid.from_system(u34_first)) == "Matroid(n=4, 4 bases)"


def test_closure_is_a_closure_operator(threelines_maximal):
    m = Matroid.from_system(threelines_maximal)
    rng = random.Random(3)
    for _ in range(40):
        x = rng.randrange(1 << m.ground.n)
        cl = m.closure(x)
        assert cl & x == x
        assert m.closure(cl) == cl
        y = x | rng.randrange(1 << m.ground.n)
        assert m.closure(y) & cl == cl


def test_support_closure_formula(threelines_maximal):
    # when the support is no larger than the rank, the closure is exactly
    # the elements supported inside it
    system = threelines_maximal
    m = Matroid.from_system(system)
    for x in range(1 << system.ground.n):
        s = system.support(x)
        if s.bit_count() == m.rank(x):
            expect = 0
            for e in range(system.ground.n):
                if system.support(1 << e) & ~s == 0:
                    expect |= 1 << e
            assert m.closure(x) == expect


def test_circuit_goldens(threelines_maximal, u34_first):
    u = Matroid.from_system(u34_first)
    assert u.circuits() == (u.ground.full_mask,)
    m = Matroid.from_system(threelines_maximal)
    assert m.ground.mask("abc") in m.circuits()
    loopy = Matroid.from_system(make_system("ab", ["a", "a"]))
    assert loopy.ground.mask("b") in loopy.circuits()


def test_circuit_support_drop(threelines_maximal):
    # removing one element from a circuit leaves the support unchanged
    system = threelines_maximal
    m = Matroid.from_system(system)
    for c in m.circuits():
        s = system.support(c)
        assert s.bit_count() == m.rank(c) == c.bit_count() - 1
        for e in bit_indices(c):
            assert system.support(c & ~(1 << e)) == s


def test_cyclic_sets_have_tight_support(threelines_maximal, minmax4):
    for system in (threelines_maximal, minmax4):
        m = Matroid.from_system(system)
        for x in range(1 << system.ground.n):
            if is_cyclic(m, x):
                assert system.support(x).bit_count() == m.rank(x)


def test_cocircuit_goldens(u34_first, minmax4):
    u = Matroid.from_system(u34_first)
    twos = {c for c in range(1 << 4) if c.bit_count() == 2}
    assert set(u.cocircuits()) == twos
    single = Matroid.from_system(make_system("e", ["e"]))
    assert single.cocircuits() == (1,)
    m = Matroid.from_system(minmax4)
    for a in minmax4.sets:
        assert a in m.cocircuits()


def test_cyclic_flat_goldens(threelines_maximal, u34_first):
    u = Matroid.from_system(u34_first)
    assert set(u.cyclic_flats()) == {0, u.ground.full_mask}
    free = Matroid.from_system(make_system("ab", ["a", "b"]))
    assert free.cyclic_flats() == (0,)
    m = Matroid.from_system(threelines_maximal)
    cf = set(m.cyclic_flats())
    assert m.ground.mask("abc") in cf
    assert m.ground.mask("defghi") in cf


@st.composite
def basis_families(draw):
    """A ground size and the bases of a matroid on it: a random presentation
    (rank 0 and the empty ground included) or a rank-3 paving matroid on
    4-8 points, whose proper lines meet pairwise in at most one point; then up
    to two loops and two coloops added as new elements."""
    if draw(st.booleans()):
        system = draw(small_systems())
        n, bases = system.ground.n, Matroid.from_system(system).bases()
    else:
        n = draw(st.integers(4, 8))
        lines = []
        for line in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=3),
                                  max_size=5)):
            if len(line) < n and all(len(line & other) <= 1 for other in lines):
                lines.append(line)
        bases = [sum(1 << e for e in c) for c in combinations(range(n), 3)
                 if not any(set(c) <= line for line in lines)]
    loops, coloops = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    coloop_mask = ((1 << coloops) - 1) << (n + loops)
    return n + loops + coloops, frozenset(b | coloop_mask for b in bases)


@settings(max_examples=150, deadline=None)
@given(basis_families())
def test_families_agree_with_the_subset_scans(case):
    """Circuits, cocircuits and cyclic flats read off the basis exchanges
    are the ones the 2^n scan and the walk over independent sets find."""
    n, bases = case
    ground = GroundSet(tuple(f"e{i}" for i in range(n)))
    m = Matroid.from_bases(ground, bases)
    oracle = Matroid(ground, bases)
    assert m.circuits() == brute_circuits(oracle)
    assert m.cocircuits() == brute_cocircuits(oracle)
    assert m.cyclic_flats() == brute_cyclic_flats(oracle)


@pytest.mark.parametrize("n, bases, circuits, cocircuits, cyclic_flats", [
    (0, [0], (), (), (0,)),  # the empty ground
    (3, [0], (1, 2, 4), (), (7,)),  # rank 0: three loops
    (2, [1], (2,), (1,), (2,)),  # a coloop and a loop
    (1, [1], (), (1,), (0,)),  # a coloop alone
])
def test_families_of_the_smallest_matroids(n, bases, circuits, cocircuits,
                                           cyclic_flats):
    m = Matroid.from_bases(GroundSet(tuple(f"e{i}" for i in range(n))), bases)
    assert (m.circuits(), m.cocircuits(), m.cyclic_flats()) == \
        (circuits, cocircuits, cyclic_flats)


def test_families_past_sixteen_elements():
    """U(2, 20): every 3-set is a circuit, every 19-set a cocircuit, and
    the only cyclic flats are the empty set and the ground."""
    names = [f"e{i}" for i in range(20)]
    m = parse_matroid({"ground": names,
                       "bases": [list(c) for c in combinations(names, 2)]})
    assert len(m.circuits()) == 1140
    assert all(c.bit_count() == 3 for c in m.circuits())
    assert len(m.cocircuits()) == 20
    assert all(d.bit_count() == 19 for d in m.cocircuits())
    assert m.cyclic_flats() == (0, m.ground.full_mask)


def test_transversality_search_refuses_seventeen_elements():
    names = [f"e{i}" for i in range(17)]
    m = parse_matroid({"ground": names,
                       "bases": [list(c) for c in combinations(names, 2)]})
    with pytest.raises(ValueError) as err:
        transversal_presentation(m)
    assert str(err.value) == "transversality search capped at 16 elements"


def test_transversality_search_counts_elements_outside_the_coloops():
    """U(1, 16) with three coloops has 19 elements, 16 of them outside
    the coloops, so it is searched."""
    names = [f"e{i}" for i in range(19)]
    m = parse_matroid({"ground": names,
                       "bases": [[e, *names[16:]] for e in names[:16]]})
    assert witness_doc(m)["sets"] == [names[:16], ["e16"], ["e17"], ["e18"]]


def test_coloop_goldens(threelines_submaximal, u34_first):
    sub = Matroid.from_system(threelines_submaximal)
    g = sub.ground
    rest = restrict(sub, g.full_mask & ~threelines_submaximal.sets[1])
    assert rest.ground.names == ("a", "g", "h", "i")
    assert rest.coloops() & 1
    loopy = Matroid.from_system(make_system("ab", ["a", "a"]))
    assert not loopy.coloops() & 0b10
    u = Matroid.from_system(u34_first)
    assert u.coloops() == 0


def test_delete_restrict(threelines_maximal, u34_first):
    m = Matroid.from_system(threelines_maximal)
    deleted = restrict(m, m.ground.full_mask & ~threelines_maximal.sets[1])
    assert deleted.ground.names == ("g", "h", "i")
    assert deleted.full_rank == 2
    assert restrict(m, m.ground.full_mask).equals(m)
    u = Matroid.from_system(u34_first)
    pair = restrict(u, u.ground.mask("ab"))
    assert pair.full_rank == 2 and pair.bases() == frozenset([0b11])


def test_restrict_agrees_with_rank(threelines_maximal):
    m = Matroid.from_system(threelines_maximal)
    x = threelines_maximal.ground.mask("abcdef")
    sub = restrict(m, x)
    # labels of surviving elements keep their relative order
    for mask in range(1 << 6):
        lifted = 0
        for i, e in enumerate(bit_indices(x)):
            if mask & (1 << i):
                lifted |= 1 << e
        assert sub.rank(mask) == m.rank(lifted)


def test_rank_axioms_random():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 8)
        r = rng.randint(1, min(4, n))
        names = [f"e{i}" for i in range(n)]
        sets = [[names[i] for i in range(n) if rng.random() < 0.55]
                for _ in range(r)]
        m = Matroid.from_system(make_system(names, sets))
        table = [m.rank(x) for x in range(1 << n)]
        assert table[0] == 0
        for x in range(1 << n):
            for e in range(n):
                if x & (1 << e):
                    continue
                xe = x | (1 << e)
                assert table[x] <= table[xe] <= table[x] + 1
                for f in range(e + 1, n):
                    if x & (1 << f):
                        continue
                    xf = x | (1 << f)
                    assert table[xe] + table[xf] >= table[xe | xf] + table[x]


def test_weak_order(threelines_maximal):
    from tmlat import extlattice
    system = threelines_maximal
    m2 = extlattice.extension_matroid(system, 0b0010)
    m12 = extlattice.extension_matroid(system, 0b0011)
    loop = extlattice.extension_matroid(system, 0)
    assert loop.weak_leq(m2) and loop.weak_leq(m12)
    assert m2.weak_leq(m2)
    assert m2.weak_leq(m12) and not m12.weak_leq(m2)
    assert not m2.equals(m12)
    m1 = extlattice.extension_matroid(system, 0b0001)
    assert not m1.equals(m2)


def test_weak_leq_matches_rank_sweep(threelines_submaximal, threelines_maximal):
    from tmlat import extlattice
    a = extlattice.extension_matroid(threelines_submaximal, 0b0010)
    b = extlattice.extension_matroid(threelines_maximal, 0b0010)
    by_bases = a.weak_leq(b)
    by_ranks = all(a.rank(x) <= b.rank(x) for x in range(1 << a.ground.n))
    assert by_bases == by_ranks


def test_equality_of_presented_matroids(u34_first, u34_second, u34_maximal):
    ma = Matroid.from_system(u34_first)
    mb = Matroid.from_system(u34_second)
    mc = Matroid.from_system(u34_maximal)
    assert ma.equals(mb) and mb.equals(mc)
    with pytest.raises(ValueError):
        ma.equals(Matroid.from_system(make_system("xyzw", ["xy", "xz", "xw"])))


def test_freer_matroid_after_growing_sets():
    rng = random.Random(9)
    hits = 0
    for _ in range(60):
        n = rng.randint(3, 7)
        r = rng.randint(2, min(4, n))
        names = [f"e{i}" for i in range(n)]
        sets = [[names[i] for i in range(n) if rng.random() < 0.5]
                for _ in range(r)]
        system = make_system(names, sets)
        i = rng.randrange(r)
        e = rng.randrange(n)
        if system.sets[i] & (1 << e):
            continue
        grown = list(system.sets)
        grown[i] |= 1 << e
        bigger = type(system)(system.ground, tuple(grown))
        m, nn = Matroid.from_system(system), Matroid.from_system(bigger)
        assert m.weak_leq(nn)
        # the deletion-equality law: same deletion plus a coloop forces equality
        rest = m.ground.full_mask & ~(1 << e)
        if restrict(m, rest).bases() == restrict(nn, rest).bases() and \
                m.full_rank and m.coloops() & (1 << e):
            assert m.equals(nn)
            hits += 1
    assert hits  # the implication was exercised at least once


def test_tight_support_union_law(threelines_maximal):
    system = threelines_maximal
    m = Matroid.from_system(system)
    n = system.ground.n
    ranks = [m.rank(x) for x in range(1 << n)]
    sups = [system.support(x).bit_count() for x in range(1 << n)]
    tight = [x for x in range(1 << n) if ranks[x] == sups[x]]
    for x in tight:
        for y in tight:
            assert ranks[x | y] == sups[x | y]


def test_principal_extension_basics(threelines_maximal):
    m = Matroid.from_system(threelines_maximal)
    g = m.ground
    loop_ext = principal_extension(m, 0)
    xbit = 1 << g.n
    assert loop_ext.rank(xbit) == 0
    free_ext = principal_extension(m, g.full_mask)
    assert free_ext.rank(xbit) == 1
    for b in m.bases():
        assert free_ext.is_independent(b)
        assert not free_ext.is_independent(b | xbit)
    # extending on a set or on its closure is the same extension
    assert principal_extension(m, g.mask("ab")).bases() == \
        principal_extension(m, g.mask("abc")).bases()


def test_principal_extension_matches_support_extension(threelines_maximal,
                                                       threelines_submaximal):
    from tmlat import extlattice
    for system in (threelines_maximal, threelines_submaximal):
        m = Matroid.from_system(system)
        seen = {}
        for y in range(1 << system.ground.n):
            s = system.support(y)
            if s.bit_count() != m.rank(y):
                continue
            if s not in seen:
                seen[s] = extlattice.extension_matroid(system, s).bases()
            assert principal_extension(m, y).bases() == seen[s]


def test_least_cyclic_flat_through_new_element(threelines_maximal):
    from tmlat import extlattice
    system = threelines_maximal
    m = Matroid.from_system(system)
    xbit = 1 << system.ground.n
    done = set()
    for y in range(1 << system.ground.n):
        s = system.support(y)
        if s.bit_count() != m.rank(y) or s in done:
            continue
        done.add(s)
        ext = extlattice.extension_matroid(system, s)
        with_x = [f for f in ext.cyclic_flats() if f & xbit]
        least = min(with_x, key=lambda f: f.bit_count())
        assert all(least & f == least for f in with_x)
        assert least == m.closure(y) | xbit


@st.composite
def small_systems(draw):
    """Any system of 1-6 sets on up to 8 elements.  Sets may be empty or
    repeat, so many systems have a rank below their number of sets."""
    n = draw(st.integers(0, 8))
    sets = st.just(0) | st.integers(0, (1 << n) - 1)
    return SetSystem(GroundSet(tuple(f"e{i}" for i in range(n))),
                     tuple(draw(st.lists(sets, min_size=1, max_size=6))))


@settings(max_examples=200, deadline=None)
@given(small_systems(), st.integers(0, 255))
def test_bases_agree_with_the_matching_oracle(system, x):
    """Rank, restriction and coloops read off the bases match what the
    presentation says by brute force."""
    m = Matroid.from_system(system)
    full = system.ground.full_mask
    for y in range(full + 1):
        assert m.rank(y) == brute_rank(system, y)
    x &= full
    assert restrict(m, x).bases() == \
        Matroid.from_system(cut_presentation(system, x)).bases()
    r = brute_rank(system, full)
    assert m.coloops() == sum(1 << e for e in range(system.ground.n)
                              if brute_rank(system, full & ~(1 << e)) < r)


def test_transversal_witnesses(u34_first, nontransversal_meet):
    u = Matroid.from_system(u34_first)
    witness = transversal_presentation(u)
    assert witness is not None
    assert Matroid.from_system(witness).bases() == u.bases()

    loopy = Matroid.from_system(make_system("el", ["e", "e"]))
    # rank 1 with a loop
    sub = restrict(loopy, loopy.ground.mask("el"))
    assert is_transversal(sub)

    assert not is_transversal(nontransversal_meet)


def sweep_matroids():
    """Fifteen seeded presented matroids on at most six elements."""
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(2, 6)
        r = rng.randint(1, min(3, n))
        names = [f"e{i}" for i in range(n)]
        sets = [[names[i] for i in range(n) if rng.random() < 0.6]
                for _ in range(r)]
        yield Matroid.from_system(make_system(names, sets))


def test_transversal_random_sweep():
    for m in sweep_matroids():
        witness = transversal_presentation(m)
        assert witness is not None
        assert Matroid.from_system(witness).bases() == m.bases()


# The witnesses of sweep_matroids(), as element indices of each set.
SWEEP_WITNESSES = [
    [[0, 1, 2], [3]],
    [[0, 1, 2]],
    [[2, 3, 4]],
    [[1], [3]],
    [[0, 1, 2], [0, 1, 4], [3]],
    [[0, 1, 2, 3, 4], [0, 1, 2, 3, 5]],
    [[0, 1, 3, 4], [1, 2]],
    [[0], [2]],
    [[0], [1], [2]],
    [[0, 2]],
    [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]],
    [[0, 1, 3, 4], [0, 1, 3, 5]],
    [[0], [1], [2]],
    [[0, 2, 3]],
    [[1, 2, 3, 4], [1, 2, 3, 5]],
]


def witness_doc(m):
    witness = transversal_presentation(m)
    return None if witness is None else presentation_doc(witness)


def test_transversal_witness_goldens(u34_first):
    """The cocircuit search returns these exact presentations, set order included."""
    assert witness_doc(Matroid.from_system(u34_first)) == {
        "ground": ["a", "b", "c", "d"], "sets": [["a", "b"], ["a", "c"], ["a", "d"]]}
    coloops = Matroid.from_system(make_system("pqabc", ["p", "q", "ab", "bc"]))
    assert witness_doc(coloops) == {
        "ground": ["p", "q", "a", "b", "c"],
        "sets": [["a", "b"], ["a", "c"], ["p"], ["q"]]}
    assert witness_doc(complete_graph_k4()) is None
    got = [witness_doc(m) for m in sweep_matroids()]
    assert [doc["sets"] for doc in got] == [
        [[f"e{i}" for i in s] for s in sets] for sets in SWEEP_WITNESSES]
    assert all(doc["ground"] == [f"e{i}" for i in range(len(doc["ground"]))]
               for doc in got)


def test_witness_check_survives_optimize():
    """Under python -O a wrong cocircuit witness still raises."""
    code = textwrap.dedent("""
        from tmlat import matroid
        from tmlat.core import make_system

        u34 = matroid.Matroid.from_system(make_system("abcd", ["abd", "acd", "bcd"]))
        matroid._cocircuit_search = lambda m, r, coloops: (0b0001, 0b0010, 0b0100)
        try:
            matroid.transversal_presentation(u34)
        except AssertionError as exc:
            print("raised:", exc, "debug:", __debug__)
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: ") and "debug: False" in proc.stdout


def test_nontransversal_meet_sanity(nontransversal_meet, meet_pair):
    n = nontransversal_meet
    g = n.ground
    assert g.names[-1] == "x"
    assert n.full_rank == 4
    for line in ("abx", "cdx", "efx"):
        assert n.rank(g.mask(line)) == 2
    assert n.rank(g.mask("x")) == 1
    # the three concurrent lines stay coplanar
    assert n.rank(g.mask("abcdefx")) == 3
    # deleting the new element gives back the presented matroid
    a, _ = meet_pair
    base = Matroid.from_system(a)
    restricted = restrict(n, g.full_mask & ~g.mask("x"))
    assert restricted.bases() == base.bases()


def test_matroid_json_round_trip(nontransversal_meet):
    doc = matroid_doc(nontransversal_meet)
    again = parse_matroid(doc)
    assert again.bases() == nontransversal_meet.bases()
    with pytest.raises(ValueError):
        parse_matroid({"ground": ["a"]})
    for bad in ({"ground": "ab", "bases": [["a"]]},
                {"ground": ["a", "b"], "bases": "ab"},
                {"ground": ["a", "b"], "bases": [None]},
                {"ground": ["a", "b"], "bases": [["a"], 5]}):
        with pytest.raises(ValueError, match="must be a list"):
            parse_matroid(bad)


@pytest.mark.parametrize("bases, message", [
    ([], "empty basis family"),
    ([["a"], ["a", "b"]], "bases not equicardinal")], ids=["empty", "unequal"])
def test_parse_matroid_refuses_a_degenerate_basis_family(bases, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_matroid({"ground": ["a", "b"], "bases": bases})


def test_exchange_axiom_checked_once_per_input(monkeypatch, u34_first):
    """``from_bases`` checks the axiom; the transversality test searches
    the parsed matroid itself and checks no basis family again."""
    g = GroundSet(tuple("abcd"))
    with pytest.raises(ValueError, match="exchange"):
        Matroid.from_bases(g, [g.mask("ab"), g.mask("cd")])
    calls = []
    real = matroid._check_basis_exchange
    monkeypatch.setattr(matroid, "_check_basis_exchange",
                        lambda bases: calls.append(bases) or real(bases))
    doc = matroid_doc(Matroid.from_system(u34_first))
    m = parse_matroid(doc)
    assert transversal_presentation(m) is not None
    assert len(calls) == 1


@st.composite
def equicardinal_families(draw):
    """Bases of U(r, n) or of a random presentation with a few removed, or
    any r-subsets at all; 0 < r < n, so that two r-sets can differ."""
    n = draw(st.integers(2, 8))
    r = draw(st.integers(1, n - 1))
    combos = [sum(1 << e for e in c) for c in combinations(range(n), r)]
    kind = draw(st.sampled_from(("uniform", "presented", "any")))
    if kind == "any":
        return n, frozenset(draw(st.sets(st.sampled_from(combos), min_size=2)))
    if kind == "uniform":
        family = combos
    else:
        sets = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=r,
                             max_size=r))
        m = Matroid.from_system(SetSystem(GroundSet(tuple(map(str, range(n)))),
                                          tuple(sets)))
        family = sorted(m.bases())
    drop = draw(st.sets(st.integers(0, len(family) - 1), min_size=1,
                        max_size=4))
    kept = [b for i, b in enumerate(family) if i not in drop]
    return n, frozenset(kept or family[:1])


@settings(max_examples=400, deadline=None)
@given(equicardinal_families())
def test_exchange_check_agrees_with_pairwise_scan(case):
    n, bases = case
    ground = GroundSet(tuple(map(str, range(n))))
    if brute_basis_exchange(bases):
        assert Matroid.from_bases(ground, bases).bases() == bases
    else:
        with pytest.raises(ValueError, match="exchange"):
            Matroid.from_bases(ground, bases)


def test_exchange_axiom_checked_on_eleven_elements():
    names = [f"e{i}" for i in range(11)]
    with pytest.raises(ValueError, match="exchange"):
        parse_matroid({"ground": names, "bases": [names[:2], names[2:4]]})
    m = parse_matroid({"ground": names,
                       "bases": [list(c) for c in combinations(names, 2)]})
    assert m.full_rank == 2 and len(m.bases()) == 55


def test_exchange_axiom_checked_above_120_bases():
    """U(4, 10) without two 4-sets sharing three points is no matroid:
    their union would have rank 3, yet it holds other 4-sets as bases."""
    names = [f"e{i}" for i in range(10)]
    quads = [list(c) for c in combinations(names, 4)]
    drop = (names[:4], names[:3] + [names[4]])
    bad = [q for q in quads if q not in drop]
    assert len(bad) == 208
    with pytest.raises(ValueError, match="exchange"):
        parse_matroid({"ground": names, "bases": bad})
    assert len(parse_matroid({"ground": names, "bases": quads}).bases()) == 210
    # one 4-set removed is a circuit-hyperplane: still a matroid
    assert len(parse_matroid({"ground": names, "bases": quads[1:]}).bases()) == 209


def test_exchange_axiom_checked_under_optimize():
    """``python -O`` still refuses a basis family that is no matroid."""
    code = textwrap.dedent("""
        from tmlat.matroid import parse_matroid

        names = [f"e{i}" for i in range(11)]
        for ground in (["a", "b", "c", "d"], names):
            doc = {"ground": ground, "bases": [ground[:2], ground[2:4]]}
            try:
                parse_matroid(doc)
            except ValueError as exc:
                print("raised:", exc, "debug:", __debug__)
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == 2 * ("raised: basis family violates the exchange "
                               "axiom debug: False\n")


def complete_graph_k4():
    """The cycle matroid M(K4), by its bases: triangles are its 3-circuits."""
    edges = ["12", "13", "14", "23", "24", "34"]
    ground = GroundSet(tuple(edges))
    triangles = [{"12", "13", "23"}, {"12", "14", "24"},
                 {"13", "14", "34"}, {"23", "24", "34"}]
    bases = [ground.mask(combo) for combo in combinations(edges, 3)
             if set(combo) not in triangles]
    return Matroid.from_bases(ground, bases)


def test_complete_graph_matroid_is_not_transversal():
    # the cycle matroid of the complete graph on four vertices is the
    # classical smallest non-transversal matroid
    m = complete_graph_k4()
    assert m.full_rank == 3 and len(m.cocircuits()) == 7
    assert not is_transversal(m)


def test_coloop_split_presentation():
    # two coloops plus a three-point rank-two part
    system = make_system("pqabc", ["p", "q", "ab", "bc"])
    m = Matroid.from_system(system)
    witness = transversal_presentation(m)
    assert witness is not None
    assert Matroid.from_system(witness).bases() == m.bases()


def coloop_and_loop_matroids(count, seed):
    """Seeded presented matroids: up to three random sets on up to six
    elements, then up to two coloops (each a singleton set of its own)
    and up to one loop (in no set), with the ground shuffled so that
    coloops and loops fall between the other elements.  Then M(K4),
    which is not transversal, with the same additions."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        r = rng.randint(1, min(3, n))
        coloops, loops = rng.randint(0, 2), rng.randint(0, 1)
        names = [f"e{i}" for i in range(n + coloops + loops)]
        sets = [[names[i] for i in range(n) if rng.random() < 0.6]
                for _ in range(r)]
        sets += [[names[n + k]] for k in range(coloops)]
        rng.shuffle(names)
        yield Matroid.from_system(make_system(names, sets))
    k4 = complete_graph_k4()
    for coloops, loops in ((1, 0), (0, 1), (2, 1)):
        ground = GroundSet(k4.ground.names + tuple(
            f"c{k}" for k in range(coloops + loops)))
        coloop_mask = ((1 << coloops) - 1) << k4.ground.n
        yield Matroid.from_bases(ground, [b | coloop_mask for b in k4.bases()])


def test_search_on_the_matroid_as_given_matches_the_restricted_copy():
    """Searching the matroid as given returns, mask for mask, what the
    search on its coloop-free restriction returns once translated back."""
    ms = list(coloop_and_loop_matroids(320, 25))
    assert sum(1 for m in ms if m.coloops()) >= 100
    assert sum(1 for m in ms if m.closure(0)) >= 50
    assert sum(1 for m in ms if m.coloops() and m.closure(0)) >= 30
    verdicts = []
    for m in ms:
        got = transversal_presentation(m)
        assert got == brute_transversal_presentation(m)
        verdicts.append(got is not None)
    assert verdicts.count(False) == 3
