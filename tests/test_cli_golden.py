"""Golden CLI calls: exit code and the sha256 of stdout and stderr.

Each call runs in process with ``COLUMNS=80``, so help text wraps the
same way everywhere.  The table pins the bytes the CLI wrote before its
parser, lattice writer and validator were made cheaper, the
``intersect`` and ``t-lattice`` bytes from when common extensions were
still matched by the bases of every extension, and the ``lattice`` bytes
of the 10-point poset's presentation from when the scan still walked
all 2^r index sets; any change to output must show up here.
``construct-maximal`` is pinned from when it first gave blocks to the
join-irreducibles only; before, the r = 5 powerset exceeded the ground
cap.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tmlat import core
from tmlat.cli import main

DATA = Path(__file__).parent / "data"

PRESENTATIONS = ["meet_pair_a.json", "meet_pair_b.json", "minmax4.json",
                 "threelines_maximal.json", "threelines_submaximal.json",
                 "u34_first.json", "u34_maximal.json", "u34_minimal.json",
                 "u34_second.json"]
LATTICES = ["sample_lattice_r6.json", "nonclosed_meet_r3.json",
            "nonclosed_join_r6.json", "powerset_r5.json"]
# The uniform presentation of the ideals of a 10-point poset: five
# minimal points, whose least sets are themselves, and five above them,
# so the scan walks the active indices and fans out the free ones.
MIXED = ["poset10_uniform.json"]
# Two presentations of one 18-element matroid, maximal and minimal: past
# the 16-element cap on subset scans, which ``intersect`` never meets.
PAIR18 = ["pair18_maximal.json", "pair18_minimal.json"]
INTERSECT_PAIRS = [("meet_pair_a.json", "meet_pair_b.json"),
                   ("u34_first.json", "u34_second.json"),
                   ("u34_first.json", "u34_maximal.json"),
                   ("threelines_maximal.json", "threelines_submaximal.json"),
                   tuple(PAIR18)]
COMMAND_NAMES = ["lattice", "sigma", "extend", "maximalize", "minimal", "rank",
                 "supports", "t-lattice", "intersect", "irreducibles",
                 "construct-maximal", "construct-uniform", "ideals", "verify"]

# Calls that read a lattice file, which validation checks with the
# least-containing map computed from its members.
LATTICE_FILE_CALLS = [argv for f in LATTICES
                      for argv in (["irreducibles", f], ["construct-maximal", f],
                                   ["construct-uniform", f, "--n", "7"])]
CALLS = (
    [["lattice", f] for f in PRESENTATIONS + MIXED]
    + [["lattice", "--dot", f] for f in PRESENTATIONS + MIXED]
    + LATTICE_FILE_CALLS
    + [["ideals", "poset_vee.json"], ["ideals", "--dot", "poset_vee.json"]]
    + [["intersect", a, b] for a, b in INTERSECT_PAIRS]
    + [["t-lattice", f] for f in PRESENTATIONS + PAIR18]
    + [["-h"]] + [[name, "-h"] for name in COMMAND_NAMES]
    # Usage errors print the usage line of the parser that saw them.
    + [[], ["bogus"], ["lattice"], ["lattice", "u34_first.json", "--bogus"],
       ["verify", "bogus-suite"],
       ["construct-uniform", "sample_lattice_r6.json", "--n", "x"]])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def call(argv):
    """(exit code, stdout digest, stderr digest) of ``tmlat argv``."""
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, _digest(out.getvalue()), _digest(err.getvalue())


GOLDEN = {
    'lattice meet_pair_a.json': (0, 'c16c67b87bfd46e9', 'e3b0c44298fc1c14'),
    'lattice meet_pair_b.json': (0, 'c16c67b87bfd46e9', 'e3b0c44298fc1c14'),
    'lattice minmax4.json': (0, 'c16c67b87bfd46e9', 'e3b0c44298fc1c14'),
    'lattice threelines_maximal.json': (0, 'ac8e1fa0a2ce8e8a', 'e3b0c44298fc1c14'),
    'lattice threelines_submaximal.json': (0, '12c9e268863877a7', 'e3b0c44298fc1c14'),
    'lattice u34_first.json': (0, '69d5cabdcdb3775c', 'e3b0c44298fc1c14'),
    'lattice u34_maximal.json': (0, '69d5cabdcdb3775c', 'e3b0c44298fc1c14'),
    'lattice u34_minimal.json': (0, 'c1d0edeec9a67efa', 'e3b0c44298fc1c14'),
    'lattice u34_second.json': (0, '69d5cabdcdb3775c', 'e3b0c44298fc1c14'),
    'lattice poset10_uniform.json': (0, '4a59a60ae542ffd2', 'e3b0c44298fc1c14'),
    'lattice --dot meet_pair_a.json': (0, '598b6e7cf6841d4b', 'e3b0c44298fc1c14'),
    'lattice --dot meet_pair_b.json': (0, '598b6e7cf6841d4b', 'e3b0c44298fc1c14'),
    'lattice --dot minmax4.json': (0, '598b6e7cf6841d4b', 'e3b0c44298fc1c14'),
    'lattice --dot threelines_maximal.json': (0, 'df517784389c68e2', 'e3b0c44298fc1c14'),
    'lattice --dot threelines_submaximal.json': (0, '1b9264a125db1f19', 'e3b0c44298fc1c14'),
    'lattice --dot u34_first.json': (0, 'bc1fe0ff29829c13', 'e3b0c44298fc1c14'),
    'lattice --dot u34_maximal.json': (0, 'bc1fe0ff29829c13', 'e3b0c44298fc1c14'),
    'lattice --dot u34_minimal.json': (0, '21c1f79024d43e66', 'e3b0c44298fc1c14'),
    'lattice --dot u34_second.json': (0, 'bc1fe0ff29829c13', 'e3b0c44298fc1c14'),
    'lattice --dot poset10_uniform.json': (0, '31c919fd468472d2', 'e3b0c44298fc1c14'),
    'irreducibles sample_lattice_r6.json': (0, '0dc9e62653c672c8', 'e3b0c44298fc1c14'),
    'construct-maximal sample_lattice_r6.json': (0, '602f89a2a5c4ba5a', 'e3b0c44298fc1c14'),
    'construct-uniform sample_lattice_r6.json --n 7': (0, '2b45cb124858a5b8', 'e3b0c44298fc1c14'),
    'irreducibles nonclosed_meet_r3.json': (3, 'e3b0c44298fc1c14', 'ce61a209829e4cbb'),
    'construct-maximal nonclosed_meet_r3.json': (3, 'e3b0c44298fc1c14', 'ce61a209829e4cbb'),
    'construct-uniform nonclosed_meet_r3.json --n 7': (3, 'e3b0c44298fc1c14', 'ce61a209829e4cbb'),
    'irreducibles nonclosed_join_r6.json': (3, 'e3b0c44298fc1c14', 'f03d07c8a2165e82'),
    'construct-maximal nonclosed_join_r6.json': (3, 'e3b0c44298fc1c14', 'f03d07c8a2165e82'),
    'construct-uniform nonclosed_join_r6.json --n 7': (3, 'e3b0c44298fc1c14', 'f03d07c8a2165e82'),
    'irreducibles powerset_r5.json': (0, '3e53396f618cae57', 'e3b0c44298fc1c14'),
    'construct-maximal powerset_r5.json': (0, 'e80c82ddb706ee4d', 'e3b0c44298fc1c14'),
    'construct-uniform powerset_r5.json --n 7': (0, '2c4e6843b7dd0f05', 'e3b0c44298fc1c14'),
    'ideals poset_vee.json': (0, '3caec79bde258c21', 'e3b0c44298fc1c14'),
    'ideals --dot poset_vee.json': (0, '51f2cbd2d6b89f0d', 'e3b0c44298fc1c14'),
    'intersect meet_pair_a.json meet_pair_b.json': (0, '3dac8ff602171ccd', 'e3b0c44298fc1c14'),
    'intersect u34_first.json u34_second.json': (0, '78fc53da4ddd07f9', 'e3b0c44298fc1c14'),
    'intersect u34_first.json u34_maximal.json': (0, '78fc53da4ddd07f9', 'e3b0c44298fc1c14'),
    'intersect threelines_maximal.json threelines_submaximal.json': (0, '559cc8117b2e1311', 'e3b0c44298fc1c14'),
    'intersect pair18_maximal.json pair18_minimal.json': (0, 'f6f7f014e69221ca', 'e3b0c44298fc1c14'),
    't-lattice meet_pair_a.json': (0, '87c8796653a81f60', 'e3b0c44298fc1c14'),
    't-lattice meet_pair_b.json': (0, 'f030667cfe721352', 'e3b0c44298fc1c14'),
    't-lattice minmax4.json': (0, 'b32e5c7faf3e1f9e', 'e3b0c44298fc1c14'),
    't-lattice threelines_maximal.json': (0, 'cdb9bc6131c9e9b5', 'e3b0c44298fc1c14'),
    't-lattice threelines_submaximal.json': (0, '1458f91c98615da8', 'e3b0c44298fc1c14'),
    't-lattice u34_first.json': (0, 'ce4269d49551e0dd', 'e3b0c44298fc1c14'),
    't-lattice u34_maximal.json': (0, 'ce4269d49551e0dd', 'e3b0c44298fc1c14'),
    't-lattice u34_minimal.json': (0, '9056d01f6c93e151', 'e3b0c44298fc1c14'),
    't-lattice u34_second.json': (0, 'ce4269d49551e0dd', 'e3b0c44298fc1c14'),
    't-lattice pair18_maximal.json': (0, 'b563fd768fd79a5e', 'e3b0c44298fc1c14'),
    't-lattice pair18_minimal.json': (0, 'df9bd9c6bd9f7065', 'e3b0c44298fc1c14'),
    '-h': (0, 'fb24e84bcb4ea9f4', 'e3b0c44298fc1c14'),
    'lattice -h': (0, 'e8c18aba3502deb8', 'e3b0c44298fc1c14'),
    'sigma -h': (0, 'e72ba0356b928134', 'e3b0c44298fc1c14'),
    'extend -h': (0, '7d3d77cc6f79846b', 'e3b0c44298fc1c14'),
    'maximalize -h': (0, '2874935d64d7042d', 'e3b0c44298fc1c14'),
    'minimal -h': (0, '2865859330b3e283', 'e3b0c44298fc1c14'),
    'rank -h': (0, '8085a7251405189a', 'e3b0c44298fc1c14'),
    'supports -h': (0, '71ea5bd8caad53b8', 'e3b0c44298fc1c14'),
    't-lattice -h': (0, 'bcfd09cf1ae7fab1', 'e3b0c44298fc1c14'),
    'intersect -h': (0, '67930e3496858141', 'e3b0c44298fc1c14'),
    'irreducibles -h': (0, '3f02bfbf1584eae6', 'e3b0c44298fc1c14'),
    'construct-maximal -h': (0, 'fb12de60aef3a34f', 'e3b0c44298fc1c14'),
    'construct-uniform -h': (0, '138d2dcc7aae48f9', 'e3b0c44298fc1c14'),
    'ideals -h': (0, '1942f90ff23a0e3d', 'e3b0c44298fc1c14'),
    'verify -h': (0, '2ced0bbb94b18003', 'e3b0c44298fc1c14'),
    '': (2, 'e3b0c44298fc1c14', '0473460e641ca3c5'),
    'bogus': (2, 'e3b0c44298fc1c14', 'af535f0ea2bd18fe'),
    'lattice': (2, 'e3b0c44298fc1c14', '685445497802ee90'),
    'lattice u34_first.json --bogus': (2, 'e3b0c44298fc1c14', 'f24e8388ef8508b6'),
    'verify bogus-suite': (2, 'e3b0c44298fc1c14', 'fe41dca24236e53c'),
    'construct-uniform sample_lattice_r6.json --n x': (2, 'e3b0c44298fc1c14', '0e17dad74e969ee5'),
}


@pytest.mark.parametrize("argv", CALLS, ids=lambda argv: " ".join(argv) or "(none)")
def test_cli_output_matches_golden(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert call(argv) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("argv", CALLS, ids=lambda argv: " ".join(argv) or "(none)")
def test_cli_builds_at_most_one_least_containing_map(monkeypatch, argv):
    """Only a lattice file's validation computes the least-containing map
    from the members, and its read-offs share that one map; the lattices
    that ``lattice`` and ``ideals`` build are handed theirs."""
    calls = []
    original = core.least_containing

    def counted(members):
        calls.append(1)
        return original(members)

    monkeypatch.setattr(core, "least_containing", counted)
    monkeypatch.setenv("COLUMNS", "80")
    call(argv)
    assert len(calls) == (argv in LATTICE_FILE_CALLS)
