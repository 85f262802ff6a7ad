import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlat.cli import main
from tmlat.constructions import validate_lattice
from tmlat.core import (GroundSet, SetSystem, mask_of, parse_lattice,
                        parse_presentation, presentation_doc)
from tmlat.extlattice import common_extension_lattice, extension_lattice
from tmlat.matroid import parse_matroid
from tmlat.presentations import reindexing_equivalent
from tmlat.verify import presentation_walk

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def path(name):
    return str(DATA / name)


def test_lattice_json(capsys):
    code, out, _ = run(capsys, "lattice", path("threelines_maximal.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == 4
    assert doc["sets"] == [[], [2], [3], [1, 2], [2, 3], [3, 4],
                           [1, 2, 3], [2, 3, 4], [1, 2, 3, 4]]
    assert parse_lattice(out).r == 4


def test_lattice_dot(capsys):
    code, out, _ = run(capsys, "lattice", path("threelines_maximal.json"),
                       "--dot")
    assert code == 0
    assert out.startswith("digraph lattice {")
    assert '"{2}"' in out


def test_byte_identical_output(capsys):
    _, first, _ = run(capsys, "lattice", path("threelines_submaximal.json"))
    _, second, _ = run(capsys, "lattice", path("threelines_submaximal.json"))
    assert first == second


def test_sigma(capsys):
    code, out, _ = run(capsys, "sigma", path("threelines_maximal.json"),
                       "--set", "1")
    assert code == 0
    assert json.loads(out) == {"r": 4, "sets": [[1, 2]]}


def test_extend_and_maximalize(capsys):
    code, out, _ = run(capsys, "extend", path("u34_first.json"), "--set", "1,2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["ground"][-1] == "x"
    assert all("x" in s for s in doc["sets"])

    code, out, _ = run(capsys, "maximalize", path("u34_first.json"))
    assert code == 0
    assert json.loads(out)["sets"] == [["a", "b", "c", "d"]] * 3


def test_minimal(capsys):
    code, out, _ = run(capsys, "minimal", path("threelines_submaximal.json"),
                       "--keep", "a")
    assert code == 0
    doc = json.loads(out)
    assert doc["presentation_rank"] == 1
    assert doc["is_minimal"] is False
    assert doc["presentations"]
    for pres in doc["presentations"]:
        system = parse_presentation(pres)
        assert system.support(system.ground.mask("a")) == 0b0001


def test_rank_and_supports(capsys):
    code, out, _ = run(capsys, "rank", path("threelines_maximal.json"))
    assert (code, json.loads(out)) == (0, {"rank": 4})
    code, out, _ = run(capsys, "rank", path("threelines_maximal.json"),
                       "--keep", "a,b,c")
    assert json.loads(out) == {"rank": 2}

    code, out, _ = run(capsys, "supports", path("threelines_maximal.json"),
                       "--keep", "g")
    assert json.loads(out) == {"r": 4, "sets": [[3, 4]]}
    code, out, _ = run(capsys, "supports", path("threelines_maximal.json"))
    assert json.loads(out)["sets"] == [[1, 2], [2, 3], [3, 4]]


def test_rank_and_supports_of_the_empty_set(capsys):
    """`--keep ''` names no label, as `--set ''` names no index."""
    code, out, _ = run(capsys, "rank", path("u34_first.json"), "--keep", "")
    assert (code, json.loads(out)) == (0, {"rank": 0})
    code, out, _ = run(capsys, "supports", path("u34_first.json"), "--keep", "")
    assert (code, json.loads(out)) == (0, {"r": 3, "sets": [[]]})


def test_t_lattice(capsys):
    code, out, _ = run(capsys, "t-lattice", path("u34_first.json"))
    assert code == 0
    doc = json.loads(out)
    assert [rec["set"] for rec in doc["extensions"]] == [[], [1, 2, 3]]
    from tmlat.matroid import parse_matroid
    free = parse_matroid(doc["extensions"][-1])
    assert len(free.bases()) == 10


def test_t_lattice_names_the_new_element_apart_from_the_ground(capsys,
                                                              tmp_path):
    """A ground holding the label x names the new element x1."""
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps({"ground": ["x", "y", "z"],
                               "sets": [["x", "y"], ["y", "z"]]}))
    code, out, err = run(capsys, "t-lattice", str(doc))
    assert (code, err) == (0, "")
    records = json.loads(out)["extensions"]
    assert records
    assert all(rec["ground"] == ["x", "y", "z", "x1"] for rec in records)


def test_intersect(capsys):
    code, out, _ = run(capsys, "intersect", path("meet_pair_a.json"),
                       path("meet_pair_b.json"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pairs"]) == len(doc["lattice_ab"]["sets"])
    for i, j in doc["pairs"]:
        assert len(i) == len(j)


def test_irreducibles(capsys):
    code, out, _ = run(capsys, "irreducibles", path("sample_lattice_r6.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["least_containing"]["1"] == [1]
    assert doc["least_containing"]["6"] == [1, 2, 3, 4, 5, 6]
    assert len(doc["join"]) == len(doc["meet"])


def test_construct_uniform(capsys):
    code, out, _ = run(capsys, "construct-uniform", path("sample_lattice_r6.json"),
                       "--n", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["sets"][0] == ["1", "2", "3", "4", "5", "6", "7"]
    assert doc["sets"][5] == ["6", "7"]


def test_construct_maximal(capsys):
    # one block per join-irreducible: {1,...,5} is join-reducible
    code, out, _ = run(capsys, "construct-maximal", path("sample_lattice_r6.json"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["ground"]) == 2 + 4 + 4 + 7


def test_construct_maximal_ground_cap(capsys, tmp_path):
    """The 9-chain fits on 54 elements; the 10-chain needs 65."""
    for r, expect in ((9, 0), (10, 3)):
        lattice = tmp_path / f"chain{r}.json"
        lattice.write_text(json.dumps(
            {"r": r, "sets": [list(range(1, k + 1)) for k in range(r + 1)]}))
        code, out, err = run(capsys, "construct-maximal", str(lattice))
        assert code == expect
        if expect:
            assert (out, err) == ("", "error: ground set larger than 64 elements\n")
        else:
            assert len(json.loads(out)["ground"]) == 54


def test_cover_cap_names_the_member_count_and_the_limit(capsys, tmp_path):
    names = [f"e{i}" for i in range(13)]
    singletons = tmp_path / "singletons13.json"
    singletons.write_text(json.dumps({"ground": names,
                                      "sets": [[e] for e in names]}))
    code, out, err = run(capsys, "lattice", "--dot", str(singletons))
    assert (code, out) == (3, "")
    assert err == ("error: 8192 members exceed the 4096-member limit of "
                   "cover enumeration\n")


def test_ideals(capsys):
    code, out, _ = run(capsys, "ideals", path("poset_vee.json"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["sets"]) == 6


def test_stdin_input(capsys, monkeypatch):
    text = (DATA / "u34_first.json").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "rank", "-")
    assert json.loads(out) == {"rank": 3}


def test_verify_exit_codes(capsys):
    code, out, err = run(capsys, "verify", "charmin", "--trials", "10",
                         "--seed", "3")
    assert code == 0
    assert out.splitlines()[0].startswith("[charmin] instances=10 failures=0")
    assert "elapsed" in err and "elapsed" not in out

    code, out, _ = run(capsys, "verify", "classification", "--json")
    assert code == 0
    docs = json.loads(out)
    assert docs[0]["suite"] == "classification" and docs[0]["failures"] == []


# What ``tmlat verify all --json`` checks: later speedups of the suites
# must keep every suite, instance count, seed and failure list.
VERIFY_ALL_GOLDEN = [
    {"suite": "charmin", "instances": 200, "seed": 20240406, "failures": []},
    {"suite": "threequarters", "instances": 35, "seed": 20240406,
     "failures": []},
    {"suite": "intersection", "instances": 52, "seed": 20240406,
     "failures": []},
    {"suite": "classification", "instances": 5, "seed": None, "failures": []},
    {"suite": "roundtrip", "instances": 243, "seed": None, "failures": []},
]


def test_verify_all_json_golden(capsys):
    code, out, _ = run(capsys, "verify", "all", "--json")
    assert code == 0
    assert out == json.dumps(VERIFY_ALL_GOLDEN, indent=2) + "\n"


# The census reaches r = 5: every closed family, one per labeled poset on
# at most five blocks.
@pytest.mark.parametrize("flags, want", [
    ([], "[classification] instances=5 failures=0\n"),
    (["--json"], json.dumps([VERIFY_ALL_GOLDEN[3]], indent=2) + "\n"),
])
def test_verify_classification_at_r5_golden(capsys, flags, want):
    code, out, err = run(capsys, "verify", "classification", "--r", "5",
                         *flags)
    assert (code, out) == (0, want)
    assert err.startswith("[classification] elapsed ") and err.count("\n") == 1


def test_verify_classification_above_the_census_cap_exits_3(capsys):
    assert run(capsys, "verify", "classification", "--r", "6") == (
        3, "", "error: classification runs for 2 <= r <= 5\n")


def test_verify_roundtrip_fails_a_non_uniform_build(capsys, monkeypatch):
    """Drop the last tail element from the first set of every uniform build."""
    from tmlat import verify

    real = verify.build_uniform_presentation

    def short_tail(lat, n):
        system = real(lat, n)
        if n == lat.r:
            return system
        sets = (system.sets[0] & ~(1 << (n - 1)),) + system.sets[1:]
        return dataclasses.replace(system, sets=sets)

    monkeypatch.setattr(verify, "build_uniform_presentation", short_tail)
    code, out, _ = run(capsys, "verify", "roundtrip")
    assert code == 1
    assert "  FAIL uniform build is not uniform at r=2, n=3\n" in out


@pytest.mark.parametrize("argv", [["construct-maximal"],
                                  ["construct-uniform", "--n", "7"]])
def test_constructions_make_no_matching(capsys, monkeypatch, argv):
    from tmlat import matching

    def refuse(*args, **kwargs):
        raise AssertionError("a construction entered the matching layer")

    matching.deletion_reach.cache_clear()
    monkeypatch.setattr(matching, "_max_matching_owner", refuse)
    code, out, err = run(capsys, argv[0], path("sample_lattice_r6.json"),
                         *argv[1:])
    assert code == 0 and err == ""
    assert json.loads(out)["sets"]


@pytest.mark.parametrize("argv", [["irreducibles"], ["construct-maximal"],
                                  ["construct-uniform", "--n", "7"]])
def test_lattice_files_are_validated_once(capsys, monkeypatch, argv):
    from tmlat import cli, constructions

    calls = []
    real = constructions.validate_lattice

    def counted(members, r):
        calls.append(r)
        return real(members, r)

    monkeypatch.setattr(cli, "validate_lattice", counted)
    monkeypatch.setattr(constructions, "validate_lattice", counted)
    code, _, _ = run(capsys, argv[0], path("sample_lattice_r6.json"), *argv[1:])
    assert code == 0 and calls == [6]


def test_verify_failure_exits_1(capsys, monkeypatch):
    from tmlat import cli
    from tmlat.verify import VerdictReport

    def broken(**kwargs):
        rep = VerdictReport("charmin", instances=1, seed=kwargs.get("seed"))
        rep.fail("synthetic witness")
        return rep

    monkeypatch.setitem(cli.SUITES, "charmin", (broken, cli.SUITES["charmin"][1]))
    code, out, _ = run(capsys, "verify", "charmin")
    assert code == 1
    assert "FAIL synthetic witness" in out


@pytest.mark.parametrize("r", ["1", "12"])
def test_charmin_rank_out_of_range_exits_3(capsys, r):
    code, out, err = run(capsys, "verify", "charmin", "--r", r)
    assert code == 3 and out == ""
    assert err == "error: charmin checks run for 2 <= r <= 8\n"


@pytest.mark.parametrize("suite", ["charmin", "threequarters", "intersection"])
def test_negative_trials_exit_2(capsys, suite):
    with pytest.raises(SystemExit) as err:
        main(["verify", suite, "--trials", "-3"])
    assert err.value.code == 2
    assert "--trials: expected a non-negative integer, got '-3'" in \
        capsys.readouterr().err


# Flags a suite does not read, each beside one it reads where it has any.
@pytest.mark.parametrize("argv, unread", [
    (["roundtrip", "--r", "99", "--trials", "3", "--seed", "1"],
     "--r, --trials, --seed"),
    (["roundtrip", "--r", "4"], "--r"),
    (["all", "--r", "5"], "--r"),
    (["all", "--seed", "1", "--trials", "3"], "--trials"),
    (["classification", "--r", "4", "--seed", "1"], "--seed"),
    (["classification", "--trials", "3"], "--trials"),
])
def test_verify_refuses_flags_its_suite_ignores(capsys, argv, unread):
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv])
    assert err.value.code == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("usage: tmlat ")
    assert got.err.endswith(f"tmlat: error: verify {argv[0]} reads no "
                            f"{unread}\n")


def test_invalid_json_on_stdin_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{bad"))
    assert run(capsys, "lattice", "-") == (
        3, "", "error: Expecting property name enclosed in double quotes: "
               "line 1 column 2 (char 1)\n")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "bogus-suite"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["sigma", "extend"])
def test_set_option_usage_and_range(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([command, path("u34_first.json"), "--set", "x"])
    assert err.value.code == 2
    assert "--set" in capsys.readouterr().err
    code, out, err = run(capsys, command, path("u34_first.json"), "--set", "4")
    assert code == 3 and out == "" and err == "error: index 4 outside 1..3\n"


def test_invalid_input_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ground": ["a"], "sets": [["z"]]}')
    code, _, err = run(capsys, "lattice", str(bad))
    assert code == 3 and "error" in err

    notjson = tmp_path / "notjson.json"
    notjson.write_text("not json at all")
    code, _, err = run(capsys, "lattice", str(notjson))
    assert code == 3

    code, _, err = run(capsys, "lattice", str(tmp_path / "missing.json"))
    assert code == 3

    deficient = tmp_path / "deficient.json"
    deficient.write_text('{"ground": ["a", "b"], "sets": [["a"], ["a"]]}')
    code, _, err = run(capsys, "lattice", str(deficient))
    assert code == 3 and "rank" in err


# A string iterates as one-character labels and null or a number does not
# iterate at all, so each must be refused by name rather than iterated.
@pytest.mark.parametrize("command, doc, message", [
    ("lattice", {"ground": "abc", "sets": [["a", "b"]]},
     "'ground' must be a list, not a string"),
    ("lattice", {"ground": ["a", "b", "c"], "sets": "ab"},
     "'sets' must be a list, not a string"),
    ("lattice", {"ground": ["a"], "sets": [None]}, "set 1 must be a list, not null"),
    ("lattice", {"ground": ["a"], "sets": [["a"], 5]},
     "set 2 must be a list, not a number"),
    ("irreducibles", {"r": 2, "sets": "12"}, "'sets' must be a list, not a string"),
    ("irreducibles", {"r": 2, "sets": [[], None]}, "set 2 must be a list, not null"),
    ("irreducibles", {"r": 2, "sets": [[], [1], "2", [1, 2]]},
     "set 3 must be a list, not a string"),
    ("irreducibles", {"r": 2, "sets": [[], [None], [1, 2]]},
     "set 2 holds a non-integer index"),
    ("ideals", {"points": 3, "less": "12"}, "'less' must be a list, not a string"),
    ("ideals", {"points": 3, "less": ["12"]},
     "'less' entry 1 must be a list, not a string"),
    ("ideals", {"points": 3, "less": [[1, 2], [2]]},
     "'less' entry 2 must hold two integers"),
    ("ideals", {"points": 3, "less": [[1, "2"]]},
     "'less' entry 1 must hold two integers"),
])
def test_non_list_fields_exit_3(capsys, tmp_path, command, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(bad))
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


# Integer fields take JSON integers only: no boolean, fraction or
# numeric string.
@pytest.mark.parametrize("command, doc, message", [
    ("irreducibles", {"r": 2.5, "sets": [[], [1.9], [True, 2]]},
     "'r' must be an integer"),
    ("irreducibles", {"r": 2.0, "sets": [[], [1], [1, 2]]},
     "'r' must be an integer"),
    ("construct-maximal", {"r": True, "sets": [[], [1]]},
     "'r' must be an integer"),
    ("irreducibles", {"r": "2", "sets": [[], [1], [1, 2]]},
     "'r' must be an integer"),
    ("irreducibles", {"r": 2, "sets": [[], [1.0], [1, 2]]},
     "set 2 holds a non-integer index"),
    ("irreducibles", {"r": 2, "sets": [[], [1], [True, 2]]},
     "set 3 holds a non-integer index"),
    ("irreducibles", {"r": 2, "sets": [[], ["1"], [1, 2]]},
     "set 2 holds a non-integer index"),
    ("ideals", {"points": 2.7, "less": []}, "'points' must be an integer"),
    ("ideals", {"points": True, "less": []}, "'points' must be an integer"),
    ("ideals", {"points": "3", "less": [[1, 2]]},
     "'points' must be an integer"),
    ("ideals", {"points": 3, "less": [[True, 2]]},
     "'less' entry 1 must hold two integers"),
])
def test_non_integer_fields_exit_3(capsys, tmp_path, command, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(bad))
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("r", [33, -1])
def test_lattice_rank_out_of_range_exits_3(capsys, tmp_path, r):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"r": r, "sets": [[]]}))
    code, out, err = run(capsys, "irreducibles", str(bad))
    assert code == 3 and out == ""
    assert err == f"error: r = {r} lies outside 0..32\n"


@pytest.mark.parametrize("n, message", [
    (20, "system of 21 sets presents a matroid of rank 20"),
    (21, "scan strategy capped at 20 sets"),
])
def test_lattice_checks_full_rank_before_the_scan_cap(capsys, tmp_path, n,
                                                      message):
    """21 sets, one element each, on n elements: a rank-deficient system
    gets the full-rank message, not the cap's."""
    names = [f"e{i}" for i in range(n)]
    pres = tmp_path / "wide.json"
    pres.write_text(json.dumps(
        {"ground": names, "sets": [[names[i % n]] for i in range(21)]}))
    assert run(capsys, "lattice", str(pres)) == (3, "", f"error: {message}\n")


# Labels are JSON strings or integers.  Each value below reads under str()
# as a Python repr ("None", "True", "1.5", "{'a': 1}", "['b']"); in the set
# case the ground holds that repr, so a reader that applies str() to
# labels accepts every document here.
NON_LABELS = pytest.mark.parametrize(
    "label", [None, True, 1.5, {"a": 1}, ["b"]],
    ids=["null", "true", "fraction", "object", "list"])


@NON_LABELS
@pytest.mark.parametrize("where", ["ground", "set"])
def test_labels_other_than_strings_and_integers_exit_3(capsys, tmp_path,
                                                        label, where):
    if where == "ground":
        doc, field = {"ground": ["a", label], "sets": [["a"]]}, "'ground'"
    else:
        doc, field = {"ground": ["a", str(label)], "sets": [["a", label]]}, "set 1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lattice", str(bad))
    assert code == 3 and out == ""
    assert err == (f"error: {field} holds the label {json.dumps(label)}; "
                   "labels are strings or integers\n")


@NON_LABELS
@pytest.mark.parametrize("where", ["ground", "basis"])
def test_matroid_labels_other_than_strings_and_integers_are_refused(label,
                                                                     where):
    """No subcommand reads a basis document; ``parse_matroid`` does."""
    if where == "ground":
        doc, field = {"ground": ["a", label], "bases": [["a"]]}, "'ground'"
    else:
        doc, field = ({"ground": ["a", str(label)], "bases": [["a"], [label]]},
                      "basis 2")
    with pytest.raises(ValueError) as info:
        parse_matroid(json.dumps(doc))
    assert str(info.value) == (f"{field} holds the label {json.dumps(label)}; "
                               "labels are strings or integers")


def test_integer_labels_name_their_decimal_strings(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"ground": [1, "b"], "sets": [["1"], [1, "b"]]}))
    code, out, _ = run(capsys, "maximalize", str(doc))
    assert code == 0
    assert json.loads(out)["ground"] == ["1", "b"]
    assert parse_matroid({"ground": [1, "b"], "bases": [[1], ["b"]]}).bases() \
        == parse_matroid({"ground": ["1", "b"], "bases": [["1"], ["b"]]}).bases()


def test_closed_pipe_is_quiet(tmp_path):
    """``tmlat lattice big.json | head -1`` prints nothing to stderr."""
    names = [f"e{i}" for i in range(12)]
    big = tmp_path / "big.json"  # 4096 closed sets, far more than a pipe holds
    big.write_text(json.dumps({"ground": names, "sets": [[e] for e in names]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from tmlat.cli import run; run()",
         "lattice", str(big)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    proc.wait(timeout=60)
    assert err == b""


def test_intersect_different_matroids_exits_3(capsys, tmp_path):
    other = tmp_path / "other.json"
    other.write_text(json.dumps(
        {"ground": ["a", "b", "c", "d"], "sets": [["a", "b"], ["a", "c"], ["d"]]}))
    code, _, err = run(capsys, "intersect", path("u34_first.json"), str(other))
    assert code == 3
    assert err == "error: the two systems present different matroids\n"


def test_intersect_rank_deficient_input_gets_the_rank_message(capsys, tmp_path):
    """The full-rank check of each side comes before the matroid comparison."""
    short = tmp_path / "short.json"
    short.write_text(json.dumps(
        {"ground": ["a", "b", "c", "d"], "sets": [["a", "b"]] * 3}))
    other = tmp_path / "other.json"
    other.write_text(json.dumps(
        {"ground": ["a", "b", "c", "d"], "sets": [["a", "b"], ["c", "d"]]}))
    want = "error: system of 3 sets presents a matroid of rank 2\n"
    assert run(capsys, "lattice", str(short)) == (3, "", want)
    assert run(capsys, "intersect", str(short), str(other)) == (3, "", want)
    assert run(capsys, "intersect", str(other), str(short)) == (3, "", want)


def test_intersect_refuses_64_elements(capsys, tmp_path):
    """The new element of an extension would need a 65th ground bit."""
    doc = {"ground": [f"e{i}" for i in range(64)],
           "sets": [[f"e{i}" for i in range(k, 64, 2)] for k in range(2)]}
    pres = tmp_path / "wide.json"
    pres.write_text(json.dumps(doc))
    code, out, err = run(capsys, "intersect", str(pres), str(pres))
    assert (code, out) == (3, "")
    assert err == ("error: common extensions take at most 63 elements: "
                   "the new element needs one more\n")


def test_intersect_thirty_elements_in_under_a_second(capsys, tmp_path):
    """A rank-8 pair on 30 elements: one matching pass per key, no bases."""
    rng = random.Random(1)
    r, n = 8, 30
    ground = GroundSet(tuple(f"e{i}" for i in range(n)))
    a = SetSystem(ground, tuple(
        1 << i | mask_of(e for e in range(r, n) if rng.random() < 0.3)
        for i in range(r)))
    b = presentation_walk(a, 12, rng)
    assert not reindexing_equivalent(a, b)
    files = []
    for name, system in (("a.json", a), ("b.json", b)):
        files.append(tmp_path / name)
        files[-1].write_text(json.dumps(presentation_doc(system)))
    start = time.perf_counter()
    code, out, err = run(capsys, "intersect", *map(str, files))
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    doc = json.loads(out)
    for key in ("lattice_ab", "lattice_ba"):
        lat = parse_lattice(doc[key])
        validate_lattice(lat.members, lat.r)
    assert len(doc["pairs"]) == len(doc["lattice_ab"]["sets"]) > 2
    assert all(len(i) == len(j) for i, j in doc["pairs"])
    self_pairs = common_extension_lattice(a, a).pairs
    assert self_pairs == tuple((i, i) for i in extension_lattice(a).sorted_members())


def test_t_lattice_thirty_elements_fails_fast(capsys, tmp_path):
    """Eight random sets on 30 elements have millions of independent
    sets: the basis enumeration stops at its budget and names it."""
    from tmlat.matroid import BASES_BUDGET

    rng = random.Random(1)
    ground = GroundSet(tuple(f"e{i}" for i in range(30)))
    system = SetSystem(ground, tuple(
        mask_of(e for e in range(30) if rng.random() < 0.5) for _ in range(8)))
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps(presentation_doc(system)))
    start = time.perf_counter()
    code, out, err = run(capsys, "t-lattice", str(doc))
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert err == (f"error: basis enumeration capped at {BASES_BUDGET} "
                   "independent sets\n")


def test_t_lattice_budget_counts_every_extension(capsys, tmp_path):
    """Twelve singleton sets present the free matroid on twelve elements.
    Each of its 4,096 extensions has at most 8,191 independent sets, far
    under the budget, but their enumerations share one budget."""
    from tmlat.matroid import BASES_BUDGET

    ground = GroundSet(tuple(f"e{i}" for i in range(12)))
    system = SetSystem(ground, tuple(1 << e for e in range(12)))
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps(presentation_doc(system)))
    start = time.perf_counter()
    code, out, err = run(capsys, "t-lattice", str(doc))
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert err == (f"error: basis enumeration capped at {BASES_BUDGET} "
                   "independent sets\n")


def test_minimal_budget_spares_the_largest_fixture_walk(capsys):
    """``pair18_maximal.json`` visits 3,025 presentations, far under the
    budget; its output keeps the bytes it had before there was one."""
    import hashlib

    code, out, _ = run(capsys, "minimal", path("pair18_maximal.json"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "8929cdb33adeb524"


def test_minimal_walk_fails_fast(capsys, tmp_path):
    """The five 4-subsets of five elements have about half a million
    presentations below them; the walk stops at its budget.  The bound
    is on presentations visited, which the budget fixes on every host;
    CPU time per visit differed about 3x between the hosts measured.
    The walk asks `removable_pairs` once per visited presentation, so a
    walk past its budget fails here at its next visit, not after the
    full walk."""
    from tmlat import presentations
    from tmlat.presentations import MINIMAL_BUDGET

    visits = 0
    removable_pairs = presentations.removable_pairs

    def counted(system):
        nonlocal visits
        visits += 1
        if visits > MINIMAL_BUDGET:
            pytest.fail("walk ran past its budget")
        return removable_pairs(system)

    doc = tmp_path / "p.json"
    doc.write_text(json.dumps({"ground": list("abcde"), "sets": [
        [x for x in "abcde" if x != y] for y in "edcba"]}))
    with mock.patch.object(presentations, "removable_pairs", counted):
        code, out, err = run(capsys, "minimal", str(doc))
    assert visits == MINIMAL_BUDGET
    assert (code, out) == (3, "")
    assert err == (f"error: minimal presentation walk capped at "
                   f"{MINIMAL_BUDGET} visited presentations\n")


def test_minimal_walk_at_rank_32_stops_at_its_budget(capsys, tmp_path,
                                                     monkeypatch):
    """32 copies of a 33-element ground: a walk path can be r(r - 1) = 992
    removals long, deeper than Python's recursion limit.  The walk keeps
    its path on a stack, so it ends at its budget, with one line."""
    from tmlat import presentations

    monkeypatch.setattr(presentations, "MINIMAL_BUDGET", 1000)
    names = [f"e{i}" for i in range(33)]
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps({"ground": names, "sets": [names] * 32}))
    code, out, err = run(capsys, "minimal", str(doc))
    assert (code, out) == (3, "")
    assert err == ("error: minimal presentation walk capped at 1000 "
                   "visited presentations\n")


@pytest.mark.parametrize("argv", [["irreducibles"], ["construct-maximal"],
                                  ["construct-uniform", "--n", "7"]])
def test_non_closed_lattice_exits_3(capsys, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_text('{"r": 3, "sets": [[], [1, 2], [2, 3], [1, 2, 3]]}')
    code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "intersection" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_non_closed_common_lattice_exits_1(capsys, monkeypatch):
    from tmlat.core import SubsetLattice
    from tmlat.extlattice import CommonExtensions

    def not_closed(a, b):
        fam = frozenset([0, 0b011, 0b110, a.full_index_mask])
        return CommonExtensions(SubsetLattice(a.r, fam), SubsetLattice(b.r, fam),
                                tuple((m, m) for m in sorted(fam)))

    monkeypatch.setattr("tmlat.extlattice.common_extension_lattice", not_closed)
    code, out, _ = run(capsys, "verify", "intersection", "--trials", "1")
    assert code == 1
    assert "FAIL sharp pair: lattice_ab: union of" in out


def test_verify_unequal_common_pairs_exit_1(capsys, monkeypatch):
    """Every common extension paired with the empty set: only the sizes differ."""
    from tmlat import extlattice

    real = extlattice.common_extension_lattice

    def paired_with_empty(a, b):
        common = real(a, b)
        return dataclasses.replace(common, pairs=tuple((i, 0) for i, _ in common.pairs))

    monkeypatch.setattr("tmlat.extlattice.common_extension_lattice", paired_with_empty)
    code, out, _ = run(capsys, "verify", "intersection", "--trials", "0")
    assert code == 1
    assert "FAIL sharp pair: {1,2,3,4} is paired with {}" in out


# Malformed documents: near-valid presentation, lattice and poset documents
# with a field dropped or replaced by any JSON value, arbitrary JSON values,
# and truncated text.  Numbers include a fraction, NaN and Infinity, which
# Python's JSON reader accepts, and the values an integer field refuses:
# booleans, a whole fraction and a numeric string.
NUMBERS = st.sampled_from([*range(-1, 8), 2.5, float("nan"), float("inf"),
                           True, False, 2.0, "3"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.floats()
    | st.text("abcxz12", max_size=2),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(["ground", "sets", "r",
                                                     "points", "less"]),
                                    kids, max_size=3)),
    max_leaves=10)
# Labels: strings, or any JSON scalar (integers are labels, the others are
# refused).  At most 5 sets of at most 3 labels keep `minimal` and
# `t-lattice` fast: the walk below a presentation grows with its size.
STRING_LABELS = st.sampled_from("abcde")
SCALAR_LABELS = st.sampled_from(
    ["a", "b", "c", 1, 2, None, True, False, 1.5, 2.0, float("nan")])


def presentations(labels, set_labels, unique):
    return st.fixed_dictionaries({
        "ground": st.lists(labels, max_size=6, unique=unique),
        "sets": st.lists(st.lists(set_labels, max_size=3), max_size=5)})


NEAR_VALID = st.one_of(
    presentations(STRING_LABELS, STRING_LABELS | st.just("z"), False),
    presentations(SCALAR_LABELS, SCALAR_LABELS | st.just("z"), True),
    st.fixed_dictionaries({
        "r": NUMBERS,
        "sets": st.lists(st.lists(NUMBERS, max_size=4), max_size=8)}),
    st.fixed_dictionaries({
        "points": NUMBERS,
        "less": st.lists(st.lists(NUMBERS, max_size=3), max_size=5)}))


@st.composite
def malformed_documents(draw):
    doc = draw(NEAR_VALID | JSON_VALUES)
    if isinstance(doc, dict) and doc and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(JSON_VALUES)
    text = json.dumps(doc)
    if draw(st.integers(0, 3)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


# Every subcommand that reads a file, with the document on stdin ("-");
# `intersect` takes it on either side of a valid presentation.
FILE_COMMANDS = [
    ["lattice", "-"], ["sigma", "-", "--set", "1"],
    ["extend", "-", "--set", "1"], ["maximalize", "-"], ["minimal", "-"],
    ["rank", "-"], ["supports", "-"], ["t-lattice", "-"],
    ["intersect", "-", path("u34_first.json")],
    ["intersect", path("u34_first.json"), "-"],
    ["irreducibles", "-"], ["construct-maximal", "-"],
    ["construct-uniform", "-", "--n", "3"], ["ideals", "-"]]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FILE_COMMANDS), malformed_documents())
def test_malformed_documents_exit_0_or_3(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 3)
    assert sum(line.startswith("error:") for line in lines) <= 1
    assert not any("Traceback" in line for line in lines)


@pytest.mark.parametrize("n", ["200000", str(10 ** 20)])
def test_construct_uniform_refuses_a_large_n_first(capsys, monkeypatch, n):
    """No ground of n names and no 2^n mask is built before the refusal."""
    def refuse(names):
        raise AssertionError("a ground set was built")

    monkeypatch.setattr("tmlat.constructions.GroundSet", refuse)
    code, out, err = run(capsys, "construct-uniform",
                         path("sample_lattice_r6.json"), "--n", n)
    assert (code, out, err) == (3, "", "error: ground set larger than 64 elements\n")


# One argument vector per command, using each of its options.
SAMPLE_ARGV = {
    "lattice": ["lattice", "-", "--dot"],
    "sigma": ["sigma", "p.json", "--set", "1,3"],
    "extend": ["extend", "p.json", "--set", ""],
    "maximalize": ["maximalize", "p.json"],
    "minimal": ["minimal", "p.json", "--keep", "a,b"],
    "rank": ["rank", "p.json", "--keep", "a"],
    "supports": ["supports", "p.json", "--keep", "c"],
    "t-lattice": ["t-lattice", "p.json"],
    "intersect": ["intersect", "a.json", "b.json"],
    "irreducibles": ["irreducibles", "l.json"],
    "construct-maximal": ["construct-maximal", "l.json"],
    "construct-uniform": ["construct-uniform", "l.json", "--n", "9"],
    "ideals": ["ideals", "q.json", "--dot"],
    "verify": ["verify", "charmin", "--r", "3", "--trials", "2", "--seed", "5",
               "--json"],
}


def _help(parser, name):
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args([name, "-h"])
    return out.getvalue()


@pytest.mark.parametrize("name", list(SAMPLE_ARGV))
def test_one_command_parser_matches_the_full_parser(monkeypatch, name):
    from tmlat.cli import COMMANDS, build_parser

    assert list(SAMPLE_ARGV) == list(COMMANDS)
    monkeypatch.setenv("COLUMNS", "80")
    assert _help(build_parser(name), name) == _help(build_parser(), name)
    argv = SAMPLE_ARGV[name]
    assert build_parser(name).parse_args(argv) == build_parser().parse_args(argv)


def test_a_call_builds_only_its_own_parser(capsys, monkeypatch):
    """A call builds only its own command's parser, and only the first
    time: later calls reuse it, also after a usage error."""
    import argparse

    from tmlat.cli import build_parser

    from .test_cli_golden import GOLDEN, call

    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.setenv("COLUMNS", "80")
    build_parser.cache_clear()
    code, first, _ = run(capsys, "lattice", path("u34_first.json"))
    assert code == 0 and built == ["tmlat", "tmlat lattice"]
    code, again, _ = run(capsys, "lattice", path("u34_first.json"))
    assert code == 0 and again == first and built == ["tmlat", "tmlat lattice"]
    bogus = ["lattice", "u34_first.json", "--bogus"]
    assert call(bogus) == GOLDEN[" ".join(bogus)]
    valid = ["lattice", "u34_first.json"]
    assert call(valid) == GOLDEN[" ".join(valid)]
    assert built == ["tmlat", "tmlat lattice"]
