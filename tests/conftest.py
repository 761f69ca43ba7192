import pytest

from stringcone import strings
from stringcone.arquiver import build_ar
from stringcone.quiver import adapted_word, parse_quiver
from stringcone.wiring import build_wiring

# the three worked instances used throughout: rank two, the fork-source rank
# three quiver, and the rank four triple-fork quiver
A2_SPEC = "2>1"
A3_SPEC = "2>1,2>3"
D4_SPEC = "4>3,3>1,3>2"


@pytest.fixture(scope="session")
def a2():
    q = parse_quiver(A2_SPEC)
    return q, adapted_word(q)


@pytest.fixture(scope="session")
def a3():
    q = parse_quiver(A3_SPEC)
    return q, adapted_word(q)


@pytest.fixture(scope="session")
def d4():
    q = parse_quiver(D4_SPEC)
    return q, adapted_word(q)


@pytest.fixture(scope="session")
def a3_ar(a3):
    return build_ar(*a3)


@pytest.fixture(scope="session")
def d4_ar(d4):
    return build_ar(*d4)


@pytest.fixture(scope="session")
def a3_wd(a3):
    _, word = a3
    return build_wiring(word, 3)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of calls of each box search, counted wherever it is reached
    through the `strings` module."""
    calls = {"generate_strings": 0, "strings_in_box": 0}
    for name in calls:
        original = getattr(strings, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(strings, name, counted)
    return calls
