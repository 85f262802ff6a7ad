"""End-to-end acceptance checks.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them all) and asserts its condition at exact tolerance.
"""

import random
import time

import pytest

from tmlat.core import SubsetLattice, bit_indices, mask_of
from tmlat.extlattice import (common_extension_lattice, extension_lattice,
                              extension_lattice_from_supports,
                              extension_matroids)
from tmlat.matroid import is_transversal
from tmlat.presentations import (is_maximal, is_minimal, maximalize,
                                 cover_chain, presentation_rank,
                                 reindexing_equivalent)
from tmlat.constructions import (build_maximal_presentation,
                                 build_uniform_presentation, validate_lattice)
from tmlat.verify import (canonical_family, catalog_classes, census_sublattices,
                          circuit_support_identity, closed_family_table,
                          distinct_closed_families,
                          near_uniform_minimal,
                          presentation_walk, random_presentation,
                          sharp_chain_presentation, sharp_common_pair)

from .oracles import intersection_closure

SEED = 20240406

SAMPLE_R6 = frozenset([0, 0b000001, 0b000111, 0b011001, 0b011111, 0b111111])


def report(ok, label):
    print(("PASS" if ok else "FAIL") + " " + label)
    assert ok, label


def fam(lat):
    return [[i + 1 for i in bit_indices(m)] for m in lat.sorted_members()]


def sweep_systems():
    rng = random.Random(SEED)
    out = []
    for _ in range(200):
        r = rng.randint(2, 4)
        n = rng.randint(r, 8)
        out.append(random_presentation(r, n, density=rng.uniform(0.3, 0.9),
                                       rng=rng))
    return out


@pytest.fixture(scope="module")
def golden(threelines_maximal, threelines_submaximal, u34_first, u34_second,
           u34_maximal, minmax4, meet_pair):
    lat = validate_lattice(SAMPLE_R6, 6)
    return {
        "threelines_maximal": threelines_maximal,
        "threelines_submaximal": threelines_submaximal,
        "u34_first": u34_first,
        "u34_second": u34_second,
        "u34_maximal": u34_maximal,
        "minmax4": minmax4,
        "meet_a": meet_pair[0],
        "meet_b": meet_pair[1],
        "built_maximal": build_maximal_presentation(lat),
        "built_uniform": build_uniform_presentation(lat, 7),
    }


def test_criterion_01_twopresentation_lattices(threelines_submaximal,
                                               threelines_maximal):
    t0 = time.perf_counter()
    twelve = extension_lattice(threelines_submaximal)
    nine = extension_lattice(threelines_maximal)
    elapsed = time.perf_counter() - t0
    ok = (fam(twelve) == [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [3, 4],
                          [1, 2, 3], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4]]
          and fam(nine) == [[], [2], [3], [1, 2], [2, 3], [3, 4],
                            [1, 2, 3], [2, 3, 4], [1, 2, 3, 4]]
          and elapsed < 1.0)
    report(ok, "criterion 1: the 12- and 9-member golden lattices, bit exact "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_02_uniform_rank3_lattices(u34_first, u34_second):
    ok = True
    for system in (u34_first, u34_second):
        lat = extension_lattice(system)
        recs = extension_matroids(system)
        xbit = 1 << system.ground.n
        ok &= fam(lat) == [[], [1, 2, 3]]
        ok &= len(recs) == 2
        ok &= recs[0].matroid.rank(xbit) == 0          # extension by a loop
        ok &= len(recs[1].matroid.bases()) == 10       # free extension
    report(ok, "criterion 2: both uniform presentations admit only the loop "
               "and free extensions")


def test_criterion_03_minmax_presentation(minmax4):
    lat = extension_lattice(minmax4)
    singles = {minmax4.support(1 << e) for e in range(minmax4.ground.n)}
    ok = (is_minimal(minmax4) and is_maximal(minmax4)
          and len(lat) == 16
          and 0b0110 in lat.members
          and 0b0110 not in intersection_closure(singles, 4))
    report(ok, "criterion 3: minimal-and-maximal presentation has the full "
               "16-member lattice; {2,3} is no meet of singleton supports")


def test_criterion_04_meet_is_loop_extension(meet_pair, nontransversal_meet):
    a, b = meet_pair
    ok = True
    for system in (a, b):
        lat = extension_lattice(system)
        ok &= 0b0001 in lat.members and 0b0010 in lat.members
        ok &= (0b0001 & 0b0010) == 0 and 0 in lat.members
        recs = {rec.index_set: rec.matroid for rec in extension_matroids(system)}
        xbit = 1 << system.ground.n
        ok &= recs[0].rank(xbit) == 0
        ok &= recs[0].weak_leq(recs[0b0001]) and recs[0].weak_leq(recs[0b0010])
    # the two single-set extensions agree across the presentations
    from tmlat.extlattice import extension_matroid
    for iset in (0b0001, 0b0010):
        ok &= extension_matroid(a, iset).bases() == \
            extension_matroid(b, iset).bases()
    ok &= not is_transversal(nontransversal_meet)
    report(ok, "criterion 4: the meet within both extension families is the "
               "loop extension, and the free meet is not transversal")


def test_criterion_05_lattice_construction_roundtrip():
    lat = validate_lattice(SAMPLE_R6, 6)
    uniform = build_uniform_presentation(lat, 7)
    expect = [["1", "2", "3", "4", "5", "6", "7"],
              ["2", "3", "6", "7"],
              ["2", "3", "6", "7"],
              ["4", "5", "6", "7"],
              ["4", "5", "6", "7"],
              ["6", "7"]]
    ok = uniform.set_labels() == expect
    ok &= extension_lattice(uniform).members == lat.members
    built = build_maximal_presentation(lat)
    ok &= extension_lattice(built).members == lat.members
    ok &= is_maximal(built)
    report(ok, "criterion 5: both constructions realize the rank-6 sample "
               "lattice; the uniform presentation matches set for set")


def test_criterion_06_minimality_iff_full_powerset():
    systems = sweep_systems()
    bad = 0
    for system in systems:
        if is_minimal(system) != (len(extension_lattice(system)) == 1 << system.r):
            bad += 1
    report(bad == 0 and len(systems) == 200,
           "criterion 6: over 200 seeded presentations, minimal exactly when "
           "the lattice is the full powerset")


def test_criterion_07_cross_oracle_and_circuit_identity(golden):
    instances = list(golden.values()) + sweep_systems()
    bad = 0
    for system in instances:
        scan = extension_lattice(system)
        gen = extension_lattice_from_supports(system)
        if scan.members != gen.members:
            bad += 1
            continue
        for m in scan.members:
            if not circuit_support_identity(system, m):
                bad += 1
                break
    report(bad == 0,
           f"criterion 7: the two lattice strategies agree and the circuit "
           f"support identity holds on all {len(instances)} instances")


def test_criterion_08_common_extension_sweep():
    rng = random.Random(SEED)
    done = 0
    ok = True
    while done < 50:
        r = rng.randint(2, 4)
        system = random_presentation(r, rng.randint(r, 8),
                                     density=rng.uniform(0.4, 0.9), rng=rng)
        other = presentation_walk(system, rng.randint(1, 4), rng)
        done += 1
        common = common_extension_lattice(system, other)
        for lat in (common.lattice_ab, common.lattice_ba):
            validate_lattice(lat.members, lat.r)
        order = dict(common.pairs)
        for i1 in common.lattice_ab.members:
            for i2 in common.lattice_ab.members:
                if (i1 & i2 == i1) != (order[i1] & order[i2] == order[i1]):
                    ok = False
        ok &= len(common.lattice_ab) == len(common.lattice_ba)
    report(ok, "criterion 8: 50 seeded same-matroid pairs give closed, "
               "isomorphic common-extension sublattices with matched sizes")


def test_criterion_09_height_bounds():
    ok = True
    for r in (3, 4, 5):
        base = near_uniform_minimal(r - 1)
        for k in range(r):
            system = sharp_chain_presentation(base, k)
            size = len(extension_lattice(system))
            ok &= presentation_rank(system) == k
            ok &= size == (1 << (r - 1)) + (1 << (r - k - 1))
    rng = random.Random(SEED)
    deep_positions = 0
    for _ in range(25):
        r = rng.randint(3, 4)
        system = random_presentation(r, rng.randint(r, 8),
                                     density=rng.uniform(0.3, 0.9), rng=rng)
        chain = cover_chain(maximalize(system))
        for j, step in enumerate(chain):
            size = len(extension_lattice(step))
            if j == 0:
                ok &= size == 1 << r
            elif j < r:
                ok &= size <= (1 << (r - 1)) + (1 << (r - j - 1))
            else:
                deep_positions += 1
                ok &= size <= 1 << (r - 1)
    ok &= deep_positions > 0
    report(ok, "criterion 9: sharp-family sizes exact for r in {3,4,5}, all "
               "chain heights within the bounds, deep heights at half or less")


def test_criterion_10_common_extension_bound():
    ok = True
    for r, expect in ((4, 12), (5, 24)):
        a, b = sharp_common_pair(r)
        ok &= len(common_extension_lattice(a, b).lattice_ab) == expect
    rng = random.Random(SEED + 1)
    done = 0
    while done < 30:
        r = 4
        system = random_presentation(r, rng.randint(r, 8),
                                     density=rng.uniform(0.4, 0.9), rng=rng)
        other = presentation_walk(system, rng.randint(1, 4), rng)
        if reindexing_equivalent(system, other):
            continue
        done += 1
        ok &= len(common_extension_lattice(system, other).lattice_ab) <= 12
    report(ok, "criterion 10: sharp pairs share exactly 12 and 24 extensions; "
               "30 qualifying random pairs stay at or under three quarters")


def test_criterion_11_census_matches_catalog():
    closed_family_table.cache_clear()
    distinct_closed_families.cache_clear()
    t0 = time.perf_counter()
    census4 = census_sublattices(4, 8)
    got4 = {canonical_family(mask_of(lat.members), 4) for lat in census4}
    want4 = catalog_classes(4) | {canonical_family(mask_of(range(16)), 4)}
    census3 = census_sublattices(3, 4)
    got3 = {canonical_family(mask_of(lat.members), 3) for lat in census3}
    want3 = catalog_classes(3) | {canonical_family(mask_of(range(8)), 3)}
    elapsed = time.perf_counter() - t0
    vee = canonical_family(
        mask_of(SubsetLattice(4, frozenset(
            x for x in range(16)
            if not (x & 1 and not x & 2) and not (x & 4 and not x & 8))).members), 4)
    ok = (got4 == want4 and got3 == want3
          and vee in got4
          and elapsed < 120.0)
    report(ok, f"criterion 11: the r=4 census over all 65536 generator "
               f"families equals the catalog, none at r=3 needs four indices "
               f"({elapsed:.1f} s)")
