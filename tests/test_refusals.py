"""The int-taking exports either answer or refuse with ValueError.

Each int position of each export gets a float, a string, a negative and ints
of 5001 digits either sign.  A call must return or raise ValueError within
1 s, and a refusal must be the library's own text, not CPython's int-to-str
error.  A numpy int is taken as the plain int it stands for: the answer is
the same, and every int it holds is a plain int.
"""

import time

import numpy as np
import pytest

from z2quiver import (
    build_one_quiver,
    build_Qn,
    component_count,
    degeneration_graph,
    enumerate_settings,
    multiset_coeff,
    one_quiver_euler_closed,
    orbit_count,
    orbit_representatives,
    treelike_census,
)
from z2quiver.combinat import Frozen
from z2quiver.quiver import Quiver

# Each export with arguments it answers.
CALLS = [
    (build_Qn, (3,)),
    (build_one_quiver, (3,)),
    (one_quiver_euler_closed, (3,)),
    (treelike_census, (4,)),
    (enumerate_settings, (4, 3)),
    (degeneration_graph, (4, 3)),
    (component_count, (3, 2)),
    (orbit_count, (3, 2)),
    (orbit_representatives, (3, 2)),
    (multiset_coeff, (3, 2)),
]
HOSTILE = [2.0, "3", -1, 10**5000, -(10**5000)]
HOSTILE_IDS = ["float", "str", "negative", "huge", "huge-negative"]


def hostile_cases():
    for call, args in CALLS:
        for i in range(len(args)):
            for value, name in zip(HOSTILE, HOSTILE_IDS):
                bad = args[:i] + (value,) + args[i + 1 :]
                yield pytest.param(call, bad, id=f"{call.__name__}-arg{i}-{name}")


@pytest.mark.parametrize("call, args", hostile_cases())
def test_answers_or_refuses_in_its_own_words(call, args):
    start = time.monotonic()
    try:
        call(*args)
    except ValueError as exc:
        assert "Exceeds the limit" not in str(exc)
    assert time.monotonic() - start < 1


def plain(x) -> bool:
    """Whether every int that x holds is a plain int; arrays, and so quivers, hold none."""
    if isinstance(x, Frozen):
        return all(plain(getattr(x, name)) for name in type(x).__slots__)
    if isinstance(x, dict):
        return plain(list(x.values()))
    if isinstance(x, (list, tuple)):
        return all(map(plain, x))
    return isinstance(x, (np.ndarray, Quiver)) or type(x) is int


@pytest.mark.parametrize("call, args", CALLS, ids=[call.__name__ for call, _ in CALLS])
def test_numpy_ints_give_the_plain_int_answer(call, args):
    # enumerate_settings and degeneration_graph refused a numpy n
    want, got = call(*args), call(*map(np.int64, args))
    if isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want)
    else:
        assert got == want
    assert plain(got)
