"""Tests of the benchmark itself: inputs, references, deadline, tracing.

Run from the root of a checkout with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import islice

import pytest

import reference as ref
import run
import workloads

LIB = run.import_package()
CACHES = {name: getattr(LIB.matching, name) for name in run.CACHES}


def first(name: str, seed: int, count: int):
    return list(islice(workloads.WORKLOADS[name](LIB).stream(seed), count))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_digests(name):
    a, b = first(name, 3, 8), first(name, 3, 8)
    assert [c.key for c in a] == [c.key for c in b]
    assert [c.expect for c in a] == [c.expect for c in b]
    other = first(name, 4, 8)
    assert [c.key for c in a] != [c.key for c in other]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_no_instance_repeats(name):
    cycles = 4
    keys = [c.key for c in first(name, 5, cycles * len(workloads.WORKLOADS[name].CYCLE))]
    seeded = [k for k in keys if k is not None]
    assert len(set(seeded)) == len(seeded)
    # Only the verify suites that take no seed repeat.
    assert len(keys) - len(seeded) == (3 * cycles if name == "verify" else 0)


def test_sparse_reference_matches_support_route():
    w = workloads.LatticeSparse(LIB)
    rng = random.Random(11)
    for r in (12, 13):
        case = w.make(r, rng, {})
        system = LIB.core.parse_presentation(case.key)
        lat = LIB.extlattice.extension_lattice_from_supports(system)
        assert ref.digest(ref.lattice_text(r, lat.members)) == case.expect[0][1]
        assert ref.digest(LIB.extlattice.hasse_dot(lat)) == case.expect[1][1]


def test_ideal_lattices_match_the_package():
    rng = random.Random(12)
    for points in (4, 6, 8):
        less = [(i, j) for i in range(1, points + 1)
                for j in range(i + 1, points + 1) if rng.random() < 0.3]
        preds = [0] * points
        for i, j in less:
            preds[j - 1] |= 1 << (i - 1)
        members = ref.up_sets(preds)
        lat = LIB.constructions.ideals_of_poset(points, less)
        assert set(members) == set(lat.members)
        assert ref.hasse_text(members) == LIB.extlattice.hasse_dot(lat)


def test_powerset_presentations_are_minimal():
    w = workloads.LatticeDense(LIB)
    rng = random.Random(13)
    state = w.new_state(rng)
    for r in (10, 11, 13, 14):
        case = w.make(r, rng, state)
        system = LIB.core.parse_presentation(case.key)
        assert LIB.presentations.is_minimal(system)


def test_fixed_line_configurations_are_not_transversal():
    for _, n, lines in workloads.Transversal.FIXED:
        names = [str(i) for i in range(n)]
        doc = {"ground": names, "bases": [[names[e] for e in ref.bits(b)]
                                          for b in ref.paving_bases(n, lines)]}
        assert not LIB.matroid.is_transversal(LIB.matroid.parse_matroid(doc))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_cases_pass_their_checks(name):
    runner = run.Runner(CACHES)
    for case in first(name, 6, 4):
        assert runner.run(case)["status"] == "ok"


def test_wrong_output_fails_the_operation():
    case = first("verify", 7, 1)[0]
    case.expect = [(0, ref.digest("something else\n"))]
    assert run.Runner(CACHES).run(case)["status"] == "wrong"


def test_deadline_fails_the_operation_and_the_run_goes_on():
    run.signal.signal(run.signal.SIGALRM, run._expire)
    a, b = first("lattice-sparse", 8, 2)
    assert run.Runner(CACHES, deadline_s=1e-3).run(a)["status"] == "late"
    assert run.Runner(CACHES).run(b)["status"] == "ok"


def test_traced_sparse_run_attributes_time_to_the_scan():
    tracer, _, plain, traced = run.traced_loop(
        workloads.LatticeSparse(LIB).stream(9), 2.0, 5, CACHES)
    assert len(plain) == len(traced) >= 5
    assert all(r["status"] == "ok" for r in plain + traced)
    scan = tracer.summary()["extlattice.extension_lattice"][1]
    assert scan >= 0.9 * sum(r["wall"] for r in traced)
    # Tracing leaves no wrapper behind.
    assert not hasattr(LIB.extlattice.extension_lattice, "__wrapped__")
    assert not hasattr(LIB.cli.extlattice.extension_lattice, "__wrapped__")


def test_result_lines(capsys):
    assert run.main(["--workload", "transversal", "--seed", "1",
                     "--seconds", "0.5", "--trace", "0"]) == 0
    *_, env_line, last_line = capsys.readouterr().out.strip().splitlines()
    last = json.loads(last_line)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(run.END_TO_END)
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    env = json.loads(env_line)["env"]
    assert env["seed"] == 1 and env["nproc"] >= 1 and env["python"]
    assert "git_commit" in env and len(env["source_sha256"]) == 64


def test_traced_result_has_every_per_layer_metric(capsys):
    assert run.main(["--workload", "verify", "--seed", "2",
                     "--seconds", "0.5", "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last["metrics"]) == set(run.PER_LAYER)
    assert last["metrics"]["verify.closed_family_table.self_s"]["value"] > 0


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in bench["per_layer"]} == set(run.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_without_the_package_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
