"""Ground sets, bitmask subsets, set systems, and subset-family lattices.

Subsets are plain ints used as bitmasks.  Bit ``i`` of an element subset
refers to ``ground.names[i]``; bit ``i`` of an index subset refers to the
``(i + 1)``-th set of a set system.  Serialized index sets are 1-based.
All values here are immutable after construction.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

# Exhaustive 2^n sweeps appear in the oracles, so instances stay desk-sized.
MAX_ELEMENTS = 64
MAX_SETS = 32


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def require_r(r: int) -> None:
    """Refuse an index count ``r`` outside 0..``MAX_SETS``."""
    if r < 0 or r > MAX_SETS:
        raise ValueError(f"r = {r} lies outside 0..{MAX_SETS}")


def family_key(mask: int) -> tuple[int, int]:
    """Canonical sort key for subsets: cardinality, then bitmask value."""
    return (mask.bit_count(), mask)


def closed_sets(least) -> list[int]:
    """The subsets I of ``[r]`` with ``least[i]`` inside I for every i in I.

    Here r = len(least) and ``least[i]`` is σ({i}), the least closed set
    holding i; the result ascends.  An index i with ``least[i] == {i}``
    (a free index) excludes no I, so only the subsets S of the other,
    active, indices are walked.  Write I = S ∪ T with T its free part.
    A free index in I holds its own least set, so I is closed exactly
    when every j in S has ``least[j]`` inside I.  I holds no active
    index outside S, so that asks ``least[j]`` to lie in S ∪ free and
    to meet the free indices only inside T.  So with need the union of
    ``least[j]`` over j in S (which holds S), an S that passes the test
    against S ∪ free yields the closed sets need ∪ U, one for every
    U ⊆ free − need, and an S that fails yields none.  For a active
    indices that is 2^a tests plus the |L| members, sorted once.  With
    no active index (a minimal presentation, an antichain) every subset
    is closed and the 2^r members are listed without a test; with no
    free index the 2^r index sets are tested in ascending order, each on
    its indices lowest first up to the first i whose ``least[i]`` leaves
    it, so that walk needs no sort.
    """
    r = len(least)
    full = (1 << r) - 1
    active = 0
    for i, own in enumerate(least):
        if own != 1 << i:
            active |= 1 << i
    if not active:
        return list(range(full + 1))
    members = []
    if active == full:
        for iset in range(full + 1):
            rest = iset
            while rest:
                low = rest & -rest
                if least[low.bit_length() - 1] | iset != iset:
                    break
                rest ^= low
            else:
                members.append(iset)
        return members
    free = full ^ active
    s = 0
    while True:
        room = s | free
        need = rest = s
        while rest:
            low = rest & -rest
            sigma = least[low.bit_length() - 1]
            if sigma | room != room:
                break
            need |= sigma
            rest ^= low
        else:
            spare = free & ~need
            u = spare
            while True:
                members.append(need | u)
                if not u:
                    break
                u = (u - 1) & spare
        if s == active:
            break
        s = (s - active) & active
    members.sort()
    return members


@dataclass(frozen=True)
class GroundSet:
    """Interned element labels with a fixed index order."""

    names: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)
    # sizes read in every matching pass, stored rather than derived per read
    n: int = field(init=False, repr=False, compare=False)
    full_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {s: i for i, s in enumerate(self.names)}
        n = len(self.names)
        if len(index) != n:
            raise ValueError("duplicate ground labels")
        if n > MAX_ELEMENTS:
            raise ValueError(f"ground set larger than {MAX_ELEMENTS} elements")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "full_mask", (1 << n) - 1)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown label {name!r}") from None

    def mask(self, labels) -> int:
        return mask_of(self.index(s) for s in labels)

    def labels(self, mask: int) -> list[str]:
        return [self.names[i] for i in bit_indices(mask)]


@dataclass(frozen=True)
class SetSystem:
    """An ordered sequence of ground subsets; the order of sets is significant."""

    ground: GroundSet
    sets: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)
    r: int = field(init=False, repr=False, compare=False)
    full_index_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = len(self.sets)
        if r < 1:
            raise ValueError("a set system needs at least one set")
        if r > MAX_SETS:
            raise ValueError(f"more than {MAX_SETS} sets")
        full = self.ground.full_mask
        for a in self.sets:
            if a & ~full:
                raise ValueError("set contains bits outside the ground set")
        # systems key the matching caches, so each lookup hashes one; the
        # generated hash would rehash every ground label each time
        object.__setattr__(self, "_hash", hash((self.ground, self.sets)))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "full_index_mask", (1 << r) - 1)

    def __hash__(self) -> int:
        return self._hash

    def support(self, x_mask: int) -> int:
        """Indices of the sets that meet ``x_mask``."""
        s = 0
        for i, a in enumerate(self.sets):
            if a & x_mask:
                s |= 1 << i
        return s

    def set_labels(self) -> list[list[str]]:
        return [self.ground.labels(a) for a in self.sets]


def make_system(names, sets_of_labels) -> SetSystem:
    """Build a SetSystem from label lists; convenience for tests and callers."""
    ground = GroundSet(tuple(names))
    return SetSystem(ground, tuple(ground.mask(s) for s in sets_of_labels))


def least_containing(members) -> dict[int, int]:
    """Map each index some member holds to the intersection of those members.

    Keys ascend.  In a family closed under intersection the image of i
    is the least member containing i; its distinct images other than
    the bottom are the join-irreducibles, which determine the whole
    lattice (Birkhoff).  Takes O(|L|·r) steps.
    """
    top = 0
    for m in members:
        top |= m
    least = dict.fromkeys(bit_indices(top), top)
    for m in members:
        rest = m
        while rest:
            low = rest & -rest
            least[low.bit_length() - 1] &= m
            rest ^= low
    return least


@dataclass(frozen=True)
class SubsetLattice:
    """A family of subsets of ``[r]``, read as a lattice under containment.

    Closure under union and intersection is the producer's promise and
    is not checked here: the package's own constructions are closed by
    the theorems they implement, and families read from outside go
    through ``constructions.validate_lattice``.  Construction only checks
    that ``r`` lies in range and, by the smallest and largest member
    values, that every member lies in ``[0, 2^r)``.

    ``from_least`` builds the lattice from each index's least member
    and hands that map in as ``least``, keys ascending; the lattice
    keeps it read-only.  Construction refuses a value that is not a
    member holding its index, in O(r) lookups.  Without it,
    ``least_containing()`` computes the map from the members.
    """

    r: int
    members: frozenset[int]
    least: Mapping[int, int] | None = field(
        default=None, repr=False, compare=False)
    _sorted: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        require_r(self.r)
        if self.members and (min(self.members) < 0
                             or max(self.members) >> self.r):
            raise ValueError("member outside the index range")
        if self.least is not None:
            for i, m in self.least.items():
                if not (i >= 0 and m >> i & 1 and m in self.members):
                    raise ValueError(f"the least member given for index "
                                     f"{i + 1} is not a member holding it")
            object.__setattr__(self, "least", MappingProxyType(self.least))

    @classmethod
    def from_least(cls, least) -> SubsetLattice:
        """The down-sets of the least map ``least``: index i ↦ σ({i}).

        A closure on the subsets of [r] is fixed by the sets σ({i}), since
        σ(I) is the union of the σ({i}) for i in I; its closed sets are
        the I that hold ``least[i]`` for each i in I (Birkhoff), which
        ``closed_sets`` scans for.  The map is handed to the lattice.  A
        map that is not transitive has some ``least[i]`` that is not
        closed, so the constructor's check refuses it.
        """
        return cls(len(least), frozenset(closed_sets(least)),
                   dict(enumerate(least)))

    def __len__(self):
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    def sorted_members(self) -> tuple[int, ...]:
        """The members in ``family_key`` order, sorted once per lattice.

        Two stable sorts, by value and then by popcount, give that order
        without a Python key tuple per member.
        """
        if self._sorted is None:
            object.__setattr__(self, "_sorted", tuple(
                sorted(sorted(self.members), key=int.bit_count)))
        return self._sorted

    def least_containing(self) -> Mapping[int, int]:
        """Index i ↦ the least member holding i, keys ascending.

        The map ``from_least`` handed in, or
        ``least_containing(self.members)`` computed once, in O(|L|·r).  Every caller shares the one map, so
        it is read-only.
        """
        if self.least is None:
            object.__setattr__(self, "least",
                               MappingProxyType(least_containing(self.members)))
        return self.least

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (lower, upper) of the containment order on members.

        Let own(J) be the indices whose least member is J.  In a
        distributive lattice b covers a exactly when b = a | J for a
        join-irreducible J outside a whose lower join-irreducibles all
        lie in a, that is, when own(J) misses a and ``J - own(J)`` is in
        a; then b = a | own(J).  Own sets are disjoint, so sorting the t
        of them once by ``family_key`` lists each member's covers in
        ``family_key`` order: O(|L|·t) mask tests.
        """
        mem = self.sorted_members()
        if len(mem) > 4096:
            raise ValueError(f"{len(mem)} members exceed the 4096-member "
                             "limit of cover enumeration")
        own: dict[int, int] = {}
        for i, j in self.least_containing().items():
            own[j] = own.get(j, 0) | 1 << i
        # a nonempty bottom owns itself and every member meets it
        steps = [(o, j ^ o) for j, o in own.items()]
        steps.sort(key=lambda step: family_key(step[0]))
        out = []
        for a in mem:
            out.extend([(a, a | o) for o, rest in steps
                        if not a & o and a | rest == a])
        return out

    def heights(self) -> dict[int, int]:
        """Longest-chain height of each member, bottom at 0.

        A family closed under union and intersection is a distributive
        lattice, where the height of a member is the number of
        join-irreducibles below it, the distinct ``least[i]`` other than
        the bottom.  A member holds ``least[i]`` exactly when it holds i,
        so one representative index per join-irreducible makes each
        height a popcount, after one O(r) pass over the map.
        """
        if not self.members:
            return {}
        mem = self.sorted_members()
        seen = {mem[0]}  # the bottom
        reps = 0
        for i, m in self.least_containing().items():
            if m not in seen:
                seen.add(m)
                reps |= 1 << i
        return {m: (m & reps).bit_count() for m in mem}


# ---------------------------------------------------------------------------
# JSON interchange.
#
# Presentation file: {"ground": [labels...], "sets": [[labels...], ...]}
# Lattice file:      {"r": int, "sets": [[1-based indices...], ...]}


_JSON_TYPES = {str: "a string", type(None): "null", bool: "a boolean",
               int: "a number", float: "a number", dict: "an object"}


def require_list(value, what: str) -> list:
    """``value`` if it is a JSON list; strings and other values are refused."""
    if not isinstance(value, list):
        kind = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"{what} must be a list, not {kind}")
    return value


def label_list(value, what: str) -> list[str]:
    """The labels of the JSON list ``value``, each a string or an integer.

    An integer names the element its decimal string names, so ``1`` and
    ``"1"`` are one label; any other JSON value is refused.
    """
    labels = require_list(value, what)
    for label in labels:
        if type(label) not in (str, int):
            raise ValueError(f"{what} holds the label {json.dumps(label)}; "
                             "labels are strings or integers")
    return [str(label) for label in labels]


def require_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; booleans, fractions and strings
    are refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer")
    return value


def as_document(text):
    """A JSON document: ``text`` parsed, or ``text`` itself if already parsed.

    The package's one ``json.loads``.  Its decoder recurses once per
    level of nesting, so a document nested past the interpreter's
    recursion limit is refused as invalid input.
    """
    if isinstance(text, (str, bytes)):
        try:
            return json.loads(text)
        except RecursionError:
            raise ValueError("JSON document nested too deeply") from None
    return text


def parse_presentation(text) -> SetSystem:
    """Read a presentation document (JSON text or an already-parsed dict)."""
    doc = as_document(text)
    try:
        names = require_list(doc["ground"], "'ground'")
        raw_sets = require_list(doc["sets"], "'sets'")
    except (KeyError, TypeError):
        raise ValueError("presentation document needs 'ground' and 'sets'") from None
    if not raw_sets:
        raise ValueError("empty 'sets' list")
    ground = GroundSet(tuple(label_list(names, "'ground'")))
    return SetSystem(ground, tuple(
        ground.mask(label_list(labels, f"set {k}"))
        for k, labels in enumerate(raw_sets, start=1)))


def parse_lattice(text) -> SubsetLattice:
    """Read a lattice document; members are lists of 1-based indices."""
    doc = as_document(text)
    try:
        r = require_int(doc["r"], "'r'")
        raw = require_list(doc["sets"], "'sets'")
    except (KeyError, TypeError):
        raise ValueError("lattice document needs 'r' and 'sets'") from None
    require_r(r)  # before any 1 << (i - 1), which grows with i
    members = set()
    for k, entry in enumerate(raw, start=1):
        m = 0
        for i in require_list(entry, f"set {k}"):
            if type(i) is not int:
                raise ValueError(f"set {k} holds a non-integer index")
            if not 1 <= i <= r:
                raise ValueError(f"index {i} outside 1..{r}")
            m |= 1 << (i - 1)
        members.add(m)
    return SubsetLattice(r, frozenset(members))


def index_list(mask: int) -> list[int]:
    """The indices of ``mask`` as documents write them, counting from 1."""
    return [i + 1 for i in bit_indices(mask)]


def presentation_doc(system: SetSystem) -> dict:
    return {"ground": list(system.ground.names), "sets": system.set_labels()}


def lattice_doc(lat: SubsetLattice) -> dict:
    return {"r": lat.r,
            "sets": [[i + 1 for i in bit_indices(m)] for m in lat.sorted_members()]}


def index_texts(mem, words: list[str], sep: str) -> list[str]:
    """For each member of ``mem``, in ``family_key`` order, its index
    words ``words[i]`` joined by ``sep``, lowest index first.

    A member m whose rest ``m & (m - 1)``, m less its lowest index, is a
    nonempty earlier member extends that member's text by one
    concatenation, of its lowest word and ``sep``; any other member is
    one join.  The words must be nonempty.
    """
    heads = [word + sep for word in words]
    text: dict[int, str] = {}
    get = text.get
    for m in mem:
        rest = m & (m - 1)
        prev = get(rest)
        if prev:  # None, or the empty member's "", is no text to extend
            text[m] = heads[(m ^ rest).bit_length() - 1] + prev
        else:
            text[m] = sep.join([words[i] for i in bit_indices(m)])
    return list(text.values())


def lattice_text(lat: SubsetLattice) -> str:
    """``json.dumps(lattice_doc(lat), indent=2)``, written directly.

    Python's indenting encoder is its pure-Python one; this takes each
    nonempty member's lines from ``index_texts``, one line string per
    index, and joins the entries once.  The empty member, always first,
    is written ``[]``.
    """
    mem = lat.sorted_members()
    head = f'{{\n  "r": {lat.r},\n  "sets": ['
    if not mem:
        return head + "]\n}"
    texts = index_texts(mem, [f"      {i + 1}" for i in range(lat.r)], ",\n")
    entries = []
    if not mem[0]:
        entries.append("    []")
        del texts[0]
    if texts:
        entries.append("    [\n" + "\n    ],\n    [\n".join(texts) + "\n    ]")
    return head + "\n" + ",\n".join(entries) + "\n  ]\n}"
