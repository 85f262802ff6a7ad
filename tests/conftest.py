import json
from pathlib import Path

import pytest

from tmlat.core import make_system, parse_presentation
from tmlat.matroid import parse_matroid

DATA = Path(__file__).parent / "data"


def load_presentation(name):
    return parse_presentation((DATA / name).read_text())


def load_json(name):
    return json.loads((DATA / name).read_text())


@pytest.fixture(scope="session")
def threelines_maximal():
    """Rank 4, three 3-point lines on consecutive simplex edges; maximal."""
    return make_system("abcdefghi", ["abc", "abcdef", "defghi", "ghi"])


@pytest.fixture(scope="session")
def threelines_submaximal():
    """Same matroid, one element short of maximal: the 12-member lattice."""
    return make_system("abcdefghi", ["abc", "bcdef", "defghi", "ghi"])


@pytest.fixture(scope="session")
def u34_first():
    return make_system("abcd", ["abd", "acd", "bcd"])


@pytest.fixture(scope="session")
def u34_second():
    return make_system("abcd", ["abc", "abd", "acd"])


@pytest.fixture(scope="session")
def u34_maximal():
    return make_system("abcd", ["abcd", "abcd", "abcd"])


@pytest.fixture(scope="session")
def u34_minimal():
    return make_system("abcd", ["ab", "ac", "ad"])


@pytest.fixture(scope="session")
def minmax4():
    """Rank 4, every minimal presentation is also maximal."""
    return make_system("abcdefrstu", ["abcdef", "abrstu", "cdrstu", "efrstu"])


@pytest.fixture(scope="session")
def meet_pair():
    a = make_system("abcdefgh", ["abcdg", "cdefg", "abefg", "gh"])
    b = make_system("abcdefgh", ["abcdh", "cdefh", "abefh", "gh"])
    return a, b


@pytest.fixture(scope="session")
def pair18():
    """Maximal and minimal presentations of one 18-element matroid."""
    return (load_presentation("pair18_maximal.json"),
            load_presentation("pair18_minimal.json"))


@pytest.fixture(scope="session")
def nontransversal_meet():
    return parse_matroid((DATA / "nontransversal_meet.json").read_text())
