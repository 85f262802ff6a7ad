import ast
import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlat.core import (GroundSet, SetSystem, SubsetLattice, bit_indices,
                        closed_sets, family_key,
                        lattice_doc, lattice_text, make_system, mask_of,
                        parse_lattice, parse_presentation, presentation_doc)

from .oracles import (brute_closed_sets, brute_lattice_text,
                      intersection_closure, submasks)


def presentation_text(system):
    return json.dumps(presentation_doc(system), indent=2)


def test_bit_helpers():
    assert bit_indices(0b10110) == [1, 2, 4]
    assert mask_of([0, 3]) == 0b1001
    assert sorted(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert family_key(0b011) < family_key(0b101) < family_key(0b111)


def test_ground_set_basics():
    g = GroundSet(("a", "b", "c"))
    assert g.n == 3 and g.full_mask == 0b111
    assert g.mask("ac") == 0b101
    assert g.labels(0b110) == ["b", "c"]
    with pytest.raises(ValueError):
        g.index("z")
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))


def test_stored_sizes_follow_the_lengths_after_replace():
    """``n``, ``full_mask``, ``r`` and ``full_index_mask`` are stored at
    construction, so a copy made by ``dataclasses.replace`` stores its
    own; none of them takes part in equality or the hash."""
    g = GroundSet(("a", "b", "c"))
    system = SetSystem(g, (0b011, 0b110))
    wider = dataclasses.replace(g, names=("a", "b", "c", "d", "e"))
    more = dataclasses.replace(system, ground=wider,
                               sets=(0b00011, 0b00110, 0b11000))
    for ground in (g, wider):
        assert (ground.n, ground.full_mask) == \
            (len(ground.names), (1 << len(ground.names)) - 1)
    for s in (system, more):
        assert (s.r, s.full_index_mask) == (len(s.sets), (1 << len(s.sets)) - 1)
    assert dataclasses.replace(system) == system
    assert hash(dataclasses.replace(system)) == hash(system)
    assert repr(g) == "GroundSet(names=('a', 'b', 'c'))"


def test_set_system_refuses_no_sets_and_bits_outside_the_ground():
    g = GroundSet(("a", "b"))
    with pytest.raises(ValueError, match="^a set system needs at least one set$"):
        SetSystem(g, ())
    with pytest.raises(ValueError,
                       match="^set contains bits outside the ground set$"):
        SetSystem(g, (0b01, 0b100))


def test_parse_presentation_examples():
    doc = {"ground": ["a", "b", "c", "d"],
           "sets": [["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]}
    system = parse_presentation(json.dumps(doc))
    assert system.r == 3
    assert system.ground.labels(system.sets[0]) == ["a", "b", "d"]

    single = parse_presentation({"ground": ["e"], "sets": [["e"]]})
    assert single.sets == (1,)

    with pytest.raises(ValueError):
        parse_presentation({"ground": ["a"], "sets": [["b"]]})
    with pytest.raises(ValueError):
        parse_presentation({"ground": ["a", "a"], "sets": [["a"]]})
    with pytest.raises(ValueError):
        parse_presentation({"ground": ["a"], "sets": []})


def test_equal_systems_hash_equal_and_share_a_cache_entry():
    from tmlat import matching

    a = make_system(["a", "b", "c", "d"], [["a", "b", "d"], ["a", "c", "d"]])
    b = make_system(["a", "b", "c", "d"], [["a", "b", "d"], ["a", "c", "d"]])
    assert a is not b and a == b and hash(a) == hash(b)
    matching.deletion_reach.cache_clear()
    assert matching.deletion_reach(a) is matching.deletion_reach(b)
    info = matching.deletion_reach.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert make_system(["a", "b", "c", "d"],
                       [["a", "c", "d"], ["a", "b", "d"]]) != a


def test_support_values():
    system = make_system("abcdefghi", ["abc", "abcdef", "defghi", "ghi"])
    assert system.support(system.ground.mask("g")) == 0b1100
    assert system.support(0) == 0
    assert system.support(system.ground.mask("ad")) == 0b0111


def test_support_distributes_over_union():
    system = make_system("abcde", ["abc", "cde", "be"])
    for x in range(1 << 5):
        for y in range(1 << 5):
            assert system.support(x | y) == system.support(x) | system.support(y)


def test_loops_have_empty_support():
    system = make_system("abc", ["ab", "b"])
    assert system.support(system.ground.mask("c")) == 0


def test_serialize_round_trip(threelines_maximal, u34_first):
    for system in (threelines_maximal, u34_first):
        again = parse_presentation(presentation_text(system))
        assert again == system


def test_round_trip_on_all_golden_files():
    from pathlib import Path
    data = Path(__file__).parent / "data"
    for path in sorted(data.glob("*.json")):
        text = path.read_text()
        if '"sets"' in text and '"ground"' in text:
            system = parse_presentation(text)
            assert parse_presentation(presentation_text(system)) == system
        elif '"r"' in text:
            lat = parse_lattice(text)
            again = parse_lattice(lattice_text(lat))
            assert (again.r, again.members) == (lat.r, lat.members)


def test_empty_support_exactly_for_loop_sets():
    system = make_system("abcd", ["ab", "b"])
    loopless = system.ground.mask("ab")
    for x in range(1 << 4):
        assert (system.support(x) == 0) == (x & loopless == 0)


def test_serialize_lattice_canonical_order():
    lat = SubsetLattice(4, frozenset([0b0000, 0b0010, 0b0100, 0b0011, 0b0110,
                                      0b1100, 0b0111, 0b1110, 0b1111]))
    doc = lattice_doc(lat)
    assert doc["sets"] == [[], [2], [3], [1, 2], [2, 3], [3, 4],
                           [1, 2, 3], [2, 3, 4], [1, 2, 3, 4]]
    again = parse_lattice(lattice_text(lat))
    assert again.members == lat.members and again.r == lat.r


def test_serialize_single_empty_member():
    lat = SubsetLattice(3, frozenset([0]))
    assert json.loads(lattice_text(lat)) == {"r": 3, "sets": [[]]}


@st.composite
def subset_families(draw):
    """Any family over [r], r <= 10: sparse, or the powerset less a few sets.

    Families may be empty or lack the empty set; the dense ones make most
    members reuse the lines of a member one index smaller.
    """
    r = draw(st.integers(0, 10))
    masks = st.integers(0, (1 << r) - 1)
    if draw(st.booleans()):
        return SubsetLattice(r, draw(st.frozensets(masks, max_size=40)))
    dropped = draw(st.frozensets(masks, max_size=8))
    return SubsetLattice(r, frozenset(range(1 << r)) - dropped)


@settings(max_examples=300, deadline=None)
@given(subset_families())
def test_lattice_text_matches_the_indenting_encoder(lat):
    assert lattice_text(lat) == brute_lattice_text(lat)


def test_lattice_text_edge_families():
    for lat in (SubsetLattice(0, frozenset()), SubsetLattice(0, frozenset([0])),
                SubsetLattice(3, frozenset()), SubsetLattice(3, frozenset([0])),
                SubsetLattice(3, frozenset([0b100, 0b111])),
                SubsetLattice(10, frozenset(range(1 << 10)))):
        assert lattice_text(lat) == brute_lattice_text(lat)


@settings(max_examples=300, deadline=None)
@given(subset_families())
def test_sorted_members_follow_family_key(lat):
    assert lat.sorted_members() == tuple(sorted(lat.members, key=family_key))


def test_sorted_members_of_a_large_powerset():
    lat = SubsetLattice(14, frozenset(range(1 << 14)))
    assert lat.sorted_members() == tuple(sorted(lat.members, key=family_key))


@st.composite
def reach_vectors(draw):
    """``reach[k]`` for r <= 10 indices: each a random mask, bit k set or not.

    Some vectors leave every index inactive (``reach[k]`` inside {k}),
    some make every index active (a bit other than k in ``reach[k]``),
    and some clear a drawn set of indices from every other reach, so
    that those indices stay inactive while the rest may not.
    """
    r = draw(st.integers(0, 10))
    kind = draw(st.sampled_from(["mixed", "inactive", "active", "free"]))
    free = draw(st.integers(0, (1 << r) - 1)) if kind == "free" else 0
    reach = []
    for k in range(r):
        own = draw(st.booleans()) << k
        others = [j for j in range(r) if j != k]
        if kind == "inactive" or not others:
            reach.append(own)
            continue
        mask = draw(st.integers(0, (1 << r) - 1)) & ~(1 << k) & ~free
        if kind == "active":
            mask |= 1 << draw(st.sampled_from(others))
        reach.append(own | mask)
    return reach


@settings(max_examples=400, deadline=None)
@given(reach_vectors())
def test_closed_sets_match_the_full_scan(reach):
    """I misses reach[k] for every k outside I exactly when I holds
    σ[i] = {i} | {k : i in reach[k]} for every i in I."""
    least = [1 << i for i in range(len(reach))]
    for k, rk in enumerate(reach):
        for i in bit_indices(rk):
            least[i] |= 1 << k
    got = closed_sets(least)
    assert got == brute_closed_sets(reach)
    if all(rk & ~(1 << k) == 0 for k, rk in enumerate(reach)):
        assert got == list(range(1 << len(reach)))


class CountingLeast(list):
    """A least map that counts its reads."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)


def test_closed_sets_read_no_reach_of_an_inactive_index():
    """Indices whose least set is only themselves are never tested."""
    r = 12
    least = CountingLeast(1 << k for k in range(r))
    assert closed_sets(least) == list(range(1 << r))
    assert least.reads <= r


def test_closed_sets_read_each_active_reach_at_most_once_per_walked_set():
    """With a active indices the walk tests 2^a sets, each on at most a
    least sets, however many free indices it fans out."""
    r, a = 12, 3
    plain = [1 << k for k in range(r)]
    plain[4] |= 1 << 1
    plain[7] |= 1 << 9
    plain[11] |= plain[4]
    least = CountingLeast(plain)
    reach = [mask_of(i for i in range(r) if plain[i] >> k & 1) for k in range(r)]
    assert closed_sets(least) == brute_closed_sets(reach)
    assert least.reads <= a << a


def test_intersection_closure():
    got = intersection_closure([0b011, 0b110], 3)
    assert got == frozenset([0b011, 0b110, 0b010])


def test_covers_and_heights():
    lat = SubsetLattice(2, frozenset([0b00, 0b01, 0b11]))
    assert lat.covers() == [(0b00, 0b01), (0b01, 0b11)]
    assert lat.heights() == {0b00: 0, 0b01: 1, 0b11: 2}
    empty = SubsetLattice(3, frozenset())
    assert empty.covers() == [] and empty.heights() == {}
    assert empty.least_containing() == {}


def test_handed_in_least_map_is_checked_and_not_compared():
    members = frozenset([0b000, 0b001, 0b011, 0b111])
    given_map = {0: 0b001, 1: 0b011, 2: 0b111}
    lat = SubsetLattice(3, members, given_map)
    assert lat.least_containing() == given_map
    with pytest.raises(TypeError):
        lat.least_containing()[0] = 0
    plain = SubsetLattice(3, members)
    assert lat == plain and hash(lat) == hash(plain) and repr(lat) == repr(plain)
    # the value for index 3 misses it; the value for index 3 is no member
    for bad in ({0: 0b001, 1: 0b011, 2: 0b011}, {0: 0b001, 1: 0b011, 2: 0b101}):
        with pytest.raises(ValueError, match="^the least member given for "
                                             "index 3 is not a member holding it$"):
            SubsetLattice(3, members, bad)


@pytest.mark.parametrize("r", [0, 1, 5, 32])
def test_members_lie_in_the_index_range(r):
    """Members run from 0 to 2^r - 1; one past either end is refused."""
    assert len(SubsetLattice(r, frozenset([0, (1 << r) - 1]))) == 1 + (r > 0)
    for bad in (1 << r, -1):
        with pytest.raises(ValueError, match="^member outside the index range$"):
            SubsetLattice(r, frozenset([0, bad]))


def test_from_least_refuses_a_map_that_is_not_transitive():
    # index 1 drags in 2, whose least set drags in 3: {1, 2} is not closed
    with pytest.raises(ValueError, match="^the least member given for "
                                         "index 1 is not a member holding it$"):
        SubsetLattice.from_least([0b011, 0b110, 0b100])
    lat = SubsetLattice.from_least([0b111, 0b110, 0b100])
    assert sorted(lat.members) == [0b000, 0b100, 0b110, 0b111]
    assert lat.least_containing() == {0: 0b111, 1: 0b110, 2: 0b100}


def test_least_containing_is_computed_once_and_shared_read_only():
    lat = SubsetLattice(3, frozenset([0b000, 0b001, 0b011, 0b111]))
    least = lat.least_containing()
    assert least == {0: 0b001, 1: 0b011, 2: 0b111}
    assert lat.least_containing() is least
    with pytest.raises(TypeError):
        least[0] = 0
    fresh = SubsetLattice(3, lat.members)
    assert fresh == lat and hash(fresh) == hash(lat)
    assert repr(fresh) == repr(lat) == \
        f"SubsetLattice(r=3, members={lat.members!r})"


def test_size_caps():
    with pytest.raises(ValueError):
        GroundSet(tuple(f"e{i}" for i in range(65)))
    g = GroundSet(("a",))
    with pytest.raises(ValueError):
        SetSystem(g, tuple([1] * 33))


def test_no_bare_assert_in_the_package():
    """Invariants must survive ``python -O``, which strips ``assert``."""
    package = Path(__file__).resolve().parents[1] / "src" / "tmlat"
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _scoped_nodes(tree):
    """Every node of ``tree`` with the dotted name of the classes and
    functions it lies in."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def test_from_least_is_the_one_builder_from_a_least_map():
    """``closed_sets`` is read only by ``SubsetLattice.from_least``, and no
    other ``SubsetLattice(...)`` call hands in a least map."""
    package = Path(__file__).resolve().parents[1] / "src" / "tmlat"
    scans, handed = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, scope in _scoped_nodes(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == "closed_sets":
                scans.append(f"{path.name}:{scope}")
            func = node.func if isinstance(node, ast.Call) else None
            if ((isinstance(func, ast.Name) and func.id == "SubsetLattice"
                 or isinstance(func, ast.Attribute)
                 and func.attr == "SubsetLattice")
                    and (len(node.args) > 2
                         or any(isinstance(a, ast.Starred) for a in node.args)
                         or {k.arg for k in node.keywords} - {"r", "members"})):
                handed.append(f"{path.name}:{node.lineno}")
    assert scans == ["core.py:SubsetLattice.from_least"]
    assert handed == []


def test_as_document_is_the_one_json_parser():
    """``json.loads`` is called only in ``core.as_document``, so every
    document gets its refusal of deep nesting."""
    package = Path(__file__).resolve().parents[1] / "src" / "tmlat"
    calls = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, scope in _scoped_nodes(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == "loads"
                    or isinstance(func, ast.Name) and func.id == "loads"):
                calls.append(f"{path.name}:{scope}")
    assert calls == ["core.py:as_document"]


# The functions and methods of the package that nothing in it calls, each
# with the reason it stays.  Anything else without a caller belongs in
# tests/oracles.py, or nowhere.
UNCALLED_ON_PURPOSE = {
    "make_system": "builds a presentation from label strings, as the "
                   "README tour does",
    "weak_leq": "the weak order on matroids, the order on the extensions T_A",
    "equals": "matroid equality by bases, the route of the common-extension "
              "oracle",
    "cyclic_flats": "Z(M), from which transversality can be decided",
    "parse_matroid": "reads an explicit-basis matroid document, the input of "
                     "the transversality test",
    "is_transversal": "the transversality test as a yes-or-no answer",
    "preceq": "the index-wise order on presentations",
    "max_matching": "a maximum matching itself, not only its size, in the "
                    "pair form the cached pass keeps; the package reads the "
                    "pass's matchings instead",
}


def _uncalled_package_functions():
    """The names of the package's top-level functions and non-dunder
    methods, each mapped to whether no code in the package refers to it.

    A reference is a name or attribute in code (not in a docstring),
    outside ``__init__.py`` and outside the definition's own body.  The
    check is by name, so a method and a function of one name share
    their references.
    """
    package = Path(__file__).resolve().parents[1] / "src" / "tmlat"
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py"))}

    def references(node):
        return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                       for sub in ast.walk(node)
                       if isinstance(sub, (ast.Name, ast.Attribute)))

    everywhere = Counter()
    for name, tree in trees.items():
        if name != "__init__.py":
            everywhere += references(tree)
    uncalled = {}
    for tree in trees.values():
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            for d in body:
                if isinstance(d, ast.FunctionDef) and not (
                        d.name.startswith("__") and d.name.endswith("__")):
                    own = references(d)[d.name]
                    uncalled[d.name] = (uncalled.get(d.name, False)
                                        or everywhere[d.name] == own)
    return uncalled


def test_every_package_function_has_a_caller_or_a_reason():
    uncalled = _uncalled_package_functions()
    assert sorted(name for name, none in uncalled.items()
                  if none and name not in UNCALLED_ON_PURPOSE) == []
    # Every entry names a function that still exists and still has no caller.
    assert sorted(name for name in UNCALLED_ON_PURPOSE
                  if not uncalled.get(name)) == []


def test_readme_tour_imports_resolve_from_the_package():
    """Each name the README's library tour imports is public, and
    ``__all__`` lists names, not the submodules."""
    import tmlat

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert blocks
    imported = []
    for block in blocks:
        for node in ast.walk(ast.parse(block.split("```")[0])):
            if isinstance(node, ast.ImportFrom) and node.module == "tmlat":
                imported += [alias.name for alias in node.names]
    assert imported
    assert [name for name in imported if name not in tmlat.__all__] == []
    assert all(hasattr(tmlat, name) for name in tmlat.__all__)
    assert not any(isinstance(getattr(tmlat, name), type(tmlat))
                   for name in tmlat.__all__)


@pytest.mark.parametrize("r", [-1, 33])
def test_subset_lattice_refuses_r_outside_its_range(r):
    """In process, the message the CLI's subprocess tests read."""
    with pytest.raises(ValueError) as err:
        SubsetLattice(r, frozenset())
    assert str(err.value) == f"r = {r} lies outside 0..32"
