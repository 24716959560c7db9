"""The int-taking exports either answer or refuse with ValueError.

Each int position of each export gets a float, a string, a negative and ints
of 5001 digits either sign.  A call must return or raise ValueError within
1 s, and a refusal must be the library's own text, not CPython's int-to-str
error.  A numpy int is taken as the plain int it stands for: the answer is
the same, and every int it holds is a plain int.

Each sequence argument, and each pair inside one, gets a scalar and None, and
a pair a one-item and a three-item tuple too; a digit run past MAX_COUNT_DIGITS in parsed text
is refused by its digit count.  Each must be refused with ValueError in the
library's words.

The contract test holds every export in z2quiver.__all__ to this, with bools
too, and puts the values into the int fields of the values the exports take as
well: DimVector pairs, CharacterMultiset masks and multiplicities, LocalSetting
masks, m and k, QuiverSetting dims, and DegenerationGraph nodes and edge ends.
Its table runs in one child process (run this file as a script to see its
report) under a 1 GiB address-space limit, with an alarm on each call.  A bool or a numpy int must get the answer
of the plain int it stands for, made of the same types, and every library
value in an answer must hash.
"""

import json
import os
import resource
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import z2quiver as z
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


def shape_cases():
    q = z.Quiver([[0, 2], [2, 0]])
    sequences = {  # a sequence is due
        "DimVector-pairs": z.DimVector,
        "LocalSetting-blocks": lambda x: z.LocalSetting(3, 3, x, (3,)),
        "LocalSetting-k": lambda x: z.LocalSetting(3, 3, (7,), x),
        "CharacterMultiset-counts": lambda x: z.CharacterMultiset(3, x),
        "count_settings_for_young-rows": z.count_settings_for_young,
        "young_diagram_slice-sizes": lambda x: z.young_diagram_slice(4, 4, x),
        "QuiverSetting-dims": lambda x: z.QuiverSetting(q, x),
        "euler_form-alpha": lambda x: z.euler_form(q, x, (1, 1)),
        "DegenerationGraph-nodes": lambda x: z.DegenerationGraph(3, 3, x, ()),
        "DegenerationGraph-edges": lambda x: z.DegenerationGraph(3, 3, (), x),
    }
    pairs = {  # a pair is due
        "DimVector-pair": lambda x: z.DimVector((x, (2, 1))),
        "CharacterMultiset-pair": lambda x: z.CharacterMultiset(3, (x, (2, 1))),
        "count_settings_for_young-row": lambda x: z.count_settings_for_young(((3, 1), x)),
        "DegenerationGraph-edge": lambda x: z.DegenerationGraph(3, 3, z.enumerate_settings(3, 3), (x,)),
        "Quiver-row": lambda x: z.Quiver([[0, 1], x]),
    }
    shapes = {"scalar": 5, "none": None}
    for table, values in ((sequences, shapes), (pairs, {**shapes, "short-pair": (1,), "long-pair": (1, 2, 3)})):
        for position, call in table.items():
            for name, value in values.items():
                yield pytest.param(call, value, id=f"{position}-{name}")


@pytest.mark.parametrize("call, value", shape_cases())
def test_shape_refused_in_its_own_words(call, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert not any(map(str(info.value).__contains__, FOREIGN))


LONG_RUN = "1" + "0" * 5000


@pytest.mark.parametrize("parse, text", [
    (z.parse_dim_vector, LONG_RUN + ",0"),
    (z.parse_dim_vector, f"(1,0)*{LONG_RUN}"),
    (z.parse_subset, "{" + LONG_RUN + "}"),
    (z.parse_characters, "{1}^" + LONG_RUN),
    (z.parse_characters, "{" + LONG_RUN + "}"),
], ids=["dim-vector-pair", "dim-vector-repeat", "subset", "characters-multiplicity", "characters-subset"])
def test_long_digit_run_refused_by_its_digit_count(parse, text):
    with pytest.raises(ValueError, match="a 5001-digit integer") as info:
        parse(text)
    assert not any(map(str(info.value).__contains__, FOREIGN))


@pytest.mark.parametrize("parse, text", [(z.parse_subset, "{\u00b2}"), (z.parse_characters, "{1}^\u00b2")],
                         ids=["subset", "characters-multiplicity"])
def test_superscript_digit_refused_in_its_own_words(parse, text):
    # str.isdigit passes a superscript two, which int() refuses in CPython's words
    with pytest.raises(ValueError, match="bad") as info:
        parse(text)
    assert not any(map(str(info.value).__contains__, FOREIGN))


def test_long_text_of_short_runs_parses():
    # the digit-run check reads text past MAX_COUNT_DIGITS characters, and a run of exactly that many passes
    assert z.parse_dim_vector(";".join(["1,0"] * 2000)).n == 2000
    assert z.parse_characters("+".join(["{1}"] * 2000)).counts == ((1, 2000),)
    assert z.parse_dim_vector("1" + "0" * 4299 + ",0").m == 10**4299


# The contract over every export: each int position gets each of these, and the numpy int
# of its plain int, in one child process under a 1 GiB address-space limit, with an alarm
# on each call.
CONTRACT_VALUES = {"float": 2.0, "str": "3", "bool": True, "negative": -1, "huge": 10**5000,
                   "huge-negative": -(10**5000)}
# CPython's own texts, which a refusal in the library's words never holds.
FOREIGN = ("Exceeds the limit", "unpack", "invalid literal", "could not convert", "cannot be interpreted",
           "is not iterable", "inhomogeneous shape")
CALL_SECONDS = 2


def positions(f, *base, label=""):
    """One int position per argument of f(*base): (name, plain int, call of the value there)."""
    return [(f"{label}arg{i}", b, lambda x, i=i: f(*base[:i], x, *base[i + 1 :])) for i, b in enumerate(base)]


def through(build, f):
    """The positions of build, each value handed on to f."""
    return [(name, b, lambda x, call=call: f(call(x))) for name, b, call in build]


def contract_table():
    """{export: [(position, plain int, call)]} for every export in z2quiver.__all__: its int
    arguments, and the int fields of the values it takes.  parse_dim_vector and
    UnsupportedInputError take no int and are called once, as they are."""
    q = z.Quiver([[0, 2], [2, 0]])
    alpha = [  # the int fields of DimVector pairs, given in lists too; the second stays constant-sum at any size
        ("pair", 1, lambda x: z.DimVector([(x, 2), [2, 1], (2, 1)])),
        ("diagonal", 1, lambda x: z.DimVector(((x, 1), (1, x)))),
    ]
    setting = [  # n, m, a block mask and a k of a LocalSetting
        ("n", 4, lambda x: z.LocalSetting(x, 4, (3, 12), (1, 2))),
        ("m", 4, lambda x: z.LocalSetting(4, x, (3, 12), (1, 2))),
        ("block", 1, lambda x: z.LocalSetting(4, 4, (x, 14), (1, 2))),
        ("k", 1, lambda x: z.LocalSetting(4, 4, (3, 12), (x, 2))),
    ]
    fine = z.LocalSetting(4, 4, (1, 2, 12), (1, 1, 1))
    arrows = [("arrow", 2, lambda x: z.Quiver([[0, x], [2, 0]]))]
    table = {
        "DimVector": alpha + positions(z.DimVector.standard, 3, 3, label="standard-")
        + positions(z.DimVector.character, 3, 5, label="character-"),
        "multiset_coeff": positions(z.multiset_coeff, 3, 2),
        "parse_dim_vector": [("none", 0, lambda x: z.parse_dim_vector("(2,1)*2;1,2"))],
        "parse_subset": [("n", 4, lambda x: z.parse_subset("{1,3}", x))],
        "subset_str": positions(z.subset_str, 5),
        "CharacterMultiset": [
            ("n", 3, lambda x: z.CharacterMultiset(x, ((5, 2), (2, 1)))),
            ("mask", 5, lambda x: z.CharacterMultiset(3, ((x, 2), (2, 1)))),
            ("multiplicity", 2, lambda x: z.CharacterMultiset(3, ((5, x), (2, 1)))),
        ],
        "parse_characters": [("n", 3, lambda x: z.parse_characters("{1}+{2}^2", x))],
        "count_settings_for_young": [
            ("size", 3, lambda x: z.count_settings_for_young(((x, 1), (1, 2)))),
            ("count", 2, lambda x: z.count_settings_for_young(((3, 1), (1, x)))),
        ],
        "LocalSetting": setting,
        "degenerates_class": through(setting, lambda s: z.degenerates_class(s, fine)),
        "DegenerationGraph": positions(lambda n, m: z.DegenerationGraph(n, m, (), ()), 4, 3)
        + through(setting, lambda s: z.DegenerationGraph(4, 4, (s, fine), ((0, 1),)))
        + [("edge", 1, lambda x: z.DegenerationGraph(4, 4, (fine, fine), ((0, x),)))],
        "young_diagram_slice": positions(lambda n, m, size: z.young_diagram_slice(n, m, (size, 2)), 4, 3, 2),
        "Quiver": arrows,
        "is_strongly_connected": through(arrows, z.is_strongly_connected),
        "QuiverSetting": [("dim", 1, lambda x: z.QuiverSetting(q, [x, 1]))],
        "euler_form": [("alpha", 1, lambda x: z.euler_form(q, (x, 1), (1, 1))),
                       ("beta", 1, lambda x: z.euler_form(q, (1, 1), (1, x)))],
        "UnsupportedInputError": [("none", 0, lambda x: z.UnsupportedInputError("outside the classification"))],
    }
    for name in ("build_one_quiver", "build_Qn", "one_quiver_euler_closed"):
        table[name] = positions(getattr(z, name), 3)
    table["treelike_census"] = positions(z.treelike_census, 4)
    for name in ("component_count", "orbit_count", "orbit_representatives"):
        table[name] = positions(getattr(z, name), 3, 2)
    for name in ("degeneration_graph", "enumerate_settings"):
        table[name] = positions(getattr(z, name), 4, 3)
    for name in ("bn_canonicalize", "chain_of", "is_iss_smooth", "is_simple_alpha", "is_simple_alpha_oracle",
                 "iss_dim", "simple_alpha_report"):
        table[name] = through(alpha, getattr(z, name))
    for name in ("elementary_moves", "local_euler_matrix", "local_quiver", "smooth_point"):
        table[name] = through(setting, getattr(z, name))
    for name in ("is_simple_dimvector", "is_smooth_setting", "support"):
        table[name] = [("dim", 1, lambda x, f=getattr(z, name): f(q, (x, 1)))]
    return table


def skeleton(x):
    """x with the type of every value it holds beside the value, hashing each
    library value on the way: equal skeletons are equal answers made of the same types."""
    if isinstance(x, (Frozen, Quiver)):
        hash(x)
    if isinstance(x, Frozen):
        return type(x), tuple(skeleton(getattr(x, name)) for name in type(x).__slots__)
    if isinstance(x, Quiver):
        x = x.arrows
    if isinstance(x, np.ndarray):
        return np.ndarray, x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, dict):
        return dict, tuple((key, skeleton(value)) for key, value in x.items())
    if isinstance(x, (list, tuple)):
        return type(x), tuple(map(skeleton, x))
    return type(x), x.args if isinstance(x, BaseException) else x


class Timeout(BaseException):
    pass


def outcome(call, x):
    """("answer", skeleton), ("refused", message) or ("fault", what went wrong) of call(x)."""

    def ring(*_):
        raise Timeout

    signal.signal(signal.SIGALRM, ring)
    signal.alarm(CALL_SECONDS)
    try:
        return "answer", skeleton(call(x))
    except ValueError as exc:
        text = str(exc)
        return ("fault", f"not in the library's words: {text[:200]}") if any(map(text.__contains__, FOREIGN)) else (
            "refused", text)
    except Timeout:
        return "fault", f"no answer within {CALL_SECONDS} s"
    except Exception as exc:  # any other exception, MemoryError included, breaks the contract
        return "fault", f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        signal.alarm(0)


def contract_problems(call, base) -> list[str]:
    """What breaks the contract at one position: a plain int that is not answered, a fault,
    or a bool or numpy int answered otherwise than the plain int it stands for."""
    plain = outcome(call, base)
    problems = [] if plain[0] == "answer" else [f"plain {base}: {plain[1]}"]
    for name, value in [*CONTRACT_VALUES.items(), ("numpy", np.int64(base))]:
        got = outcome(call, value)
        if got[0] == "fault":
            problems.append(f"{name}: {got[1]}")
        elif name in ("bool", "numpy"):
            want = plain if name == "numpy" else outcome(call, 1)
            if got[0] != want[0] or got[0] == "answer" and got[1] != want[1]:
                problems.append(f"{name}: not the plain int's answer")
    return problems


def contract_main() -> None:
    """Run the whole table under a 1 GiB address-space limit and print {case: problems} as JSON."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    report = {f"{export}-{position}": contract_problems(call, base)
              for export, cases in contract_table().items() for position, base, call in cases}
    print(json.dumps(report))


CONTRACT_CASES = [f"{export}-{position}" for export, cases in contract_table().items() for position, _, _ in cases]


@pytest.fixture(scope="module")
def contract():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env, timeout=900)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_contract_covers_every_export():
    # z2quiver.__all__ lists the four library modules after their exports
    assert set(contract_table()) == set(z.__all__) - {"combinat", "freeprod", "localquiver", "quiver"}


@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_contract(contract, case):
    assert contract[case] == []


if __name__ == "__main__":
    contract_main()
