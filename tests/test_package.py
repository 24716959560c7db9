"""The package namespace and the immutable value classes.

`z2quiver` binds its public names on the first one looked up; the names, the
objects and a star import must be those of an eager import.  The value
classes share `combinat.Frozen`: their repr text, hash, equality, order and
immutability are pinned here as a frozen record class gave them, and each
value's slots are its one copy of its fields, stored by `Frozen._set`.  Each
format has one owner: only `quiver` imports numpy, and JSON and CSV are
written as text.
"""

import ast
import copy
import importlib
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

import z2quiver
from z2quiver import (
    CharacterMultiset,
    DegenerationGraph,
    DimVector,
    LocalSetting,
    Quiver,
    QuiverSetting,
    degeneration_graph,
    enumerate_settings,
    local_quiver,
    parse_characters,
)

# Every public name of the package and the submodule that defines it.
PUBLIC = {
    **dict.fromkeys(
        ["DimVector", "bn_canonicalize", "multiset_coeff", "parse_dim_vector", "parse_subset", "subset_str"],
        "combinat",
    ),
    **dict.fromkeys(
        ["CharacterMultiset", "build_Qn", "build_one_quiver", "chain_of", "component_count", "is_iss_smooth",
         "is_simple_alpha", "is_simple_alpha_oracle", "iss_dim", "one_quiver_euler_closed", "orbit_count",
         "orbit_representatives", "parse_characters", "simple_alpha_report", "treelike_census"],
        "freeprod",
    ),
    **dict.fromkeys(
        ["DegenerationGraph", "LocalSetting", "count_settings_for_young", "degenerates_class", "degeneration_graph",
         "elementary_moves", "enumerate_settings", "local_euler_matrix", "local_quiver", "smooth_point",
         "young_diagram_slice"],
        "localquiver",
    ),
    **dict.fromkeys(
        ["Quiver", "QuiverSetting", "UnsupportedInputError", "euler_form", "is_simple_dimvector", "is_smooth_setting",
         "support"],
        "quiver",
    ),
}
SUBMODULES = ("combinat", "freeprod", "localquiver", "quiver")


class TestNamespace:
    def test_names_and_objects_match_an_eager_import(self):
        # z2quiver.cli is bound here once anything imports it, as it was before
        public = {n for n in dir(z2quiver) if not n.startswith("_")} - {"cli"}
        assert sorted(public) == sorted([*PUBLIC, *SUBMODULES])
        star: dict = {}
        exec("from z2quiver import *", star)
        del star["__builtins__"]
        assert star.keys() == {*PUBLIC, *SUBMODULES}
        for name, module in PUBLIC.items():
            obj = getattr(importlib.import_module(f"z2quiver.{module}"), name)
            assert getattr(z2quiver, name) is obj and star[name] is obj, name
        for module in SUBMODULES:
            assert star[module] is getattr(z2quiver, module) is sys.modules[f"z2quiver.{module}"]

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            z2quiver.no_such_name  # noqa: B018
        assert not hasattr(z2quiver, "cli_main")

    def test_first_lookup_binds_every_name(self):
        probe = (
            "import z2quiver\n"
            "before = set(vars(z2quiver))\n"
            "z2quiver.DimVector\n"
            "print(sorted(set(z2quiver.__all__) & before), set(z2quiver.__all__) <= set(vars(z2quiver)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "True"]

    def test_dir_lists_every_name_before_a_lookup(self):
        probe = "import z2quiver\nnames = dir(z2quiver)\nprint(set(z2quiver.__all__) <= set(names))\n"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]

    @pytest.mark.parametrize("module", SUBMODULES)
    def test_each_module_names_its_public_api(self, module):
        # the package's names are the modules' __all__, each defined where it is listed
        mod = importlib.import_module(f"z2quiver.{module}")
        assert sorted(mod.__all__) == sorted(name for name, owner in PUBLIC.items() if owner == module)
        assert len(set(mod.__all__)) == len(mod.__all__)
        for name in mod.__all__:
            assert getattr(mod, name).__module__ == mod.__name__, name
        star: dict = {}
        exec(f"from z2quiver.{module} import *", star)
        del star["__builtins__"]
        assert star.keys() == set(mod.__all__)


def setting() -> LocalSetting:
    return enumerate_settings(3, 3)[1]


# (build a value, its repr, its field tuple) with the reprs recorded from the
# record classes the Frozen base replaced
VALUES = [
    (lambda: DimVector(((2, 1), (1, 2))), "DimVector(pairs=((2, 1), (1, 2)))", lambda v: (v.pairs,)),
    (lambda: parse_characters("{1}+{2}", 3), "CharacterMultiset(n=3, counts=((1, 1), (2, 1)))",
     lambda v: (v.n, v.counts)),
    (setting, "LocalSetting(n=3, m=3, blocks=(3, 4), k=(2, 1))", lambda v: (v.n, v.m, v.blocks, v.k)),
    (lambda: local_quiver(setting()), "QuiverSetting(quiver=Quiver([[1, 2], [2, 0]]), dims=(1, 1))",
     lambda v: (v.quiver, v.dims)),
    (lambda: degeneration_graph(2, 1),
     "DegenerationGraph(n=2, m=1, nodes=(LocalSetting(n=2, m=1, blocks=(3,), k=(1,)),), edges=())",
     lambda v: (v.n, v.m, v.nodes, v.edges)),
]
IDS = ["DimVector", "CharacterMultiset", "LocalSetting", "QuiverSetting", "DegenerationGraph"]


class TestFrozen:
    @pytest.mark.parametrize("build, text, fields", VALUES, ids=IDS)
    def test_repr_hash_and_equality(self, build, text, fields):
        v = build()
        assert repr(v) == text
        assert hash(v) == hash(fields(v))
        assert v == build() and hash(v) == hash(build())
        assert v != fields(v) and fields(v) != v  # another class is never equal

    @pytest.mark.parametrize("build, text, fields", VALUES, ids=IDS)
    def test_immutable(self, build, text, fields):
        v = build()
        with pytest.raises(AttributeError):
            v.n = 5
        with pytest.raises(AttributeError):
            del v.n
        with pytest.raises(AttributeError):
            v.extra = 1
        assert not hasattr(v, "__dict__")
        assert repr(v) == text

    @pytest.mark.parametrize("build, text, fields", VALUES, ids=IDS)
    def test_copies(self, build, text, fields):
        v = build()
        for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert twin == v and type(twin) is type(v) and fields(twin) == fields(v)

    def test_dim_vector_orders_by_pairs(self):
        vs = [DimVector(pairs) for pairs in (((1, 1),), ((2, 0),), ((0, 2),), ((1, 1), (2, 0)), ((1, 1), (0, 2)))]
        for a in vs:
            for b in vs:
                assert (a < b, a <= b, a > b, a >= b) == (
                    a.pairs < b.pairs, a.pairs <= b.pairs, a.pairs > b.pairs, a.pairs >= b.pairs)
                assert (a == b) == (a.pairs == b.pairs)
        assert sorted(vs) == sorted(vs, key=lambda v: v.pairs)
        with pytest.raises(TypeError):
            vs[0] < vs[0].pairs  # noqa: B015

    def test_other_classes_are_unordered(self):
        with pytest.raises(TypeError):
            setting() < setting()  # noqa: B015

    def test_local_setting_sizes_stay_out_of_the_value(self):
        s = LocalSetting(4, 4, (3, 12), (1, 2))
        assert s.sizes == (2, 2) and "sizes" not in repr(s)
        assert hash(s) == hash((s.n, s.m, s.blocks, s.k))

    def test_checks_kept(self):
        with pytest.raises(ValueError, match="at least one pair"):
            DimVector(())
        with pytest.raises(ValueError, match="duplicate subset"):
            CharacterMultiset(2, ((1, 1), (1, 2)))
        with pytest.raises(ValueError, match="nonnegative integers"):
            QuiverSetting(Quiver([[0]]), (-1,))


# each value class built by its checking constructor
CHECKED = [
    lambda: DimVector(((2, 1), (1, 2))),
    lambda: CharacterMultiset(3, ((2, 1), (1, 1))),
    lambda: LocalSetting(3, 3, (4, 3), (1, 2)),
    lambda: Quiver([[1, 2], [2, 0]]),
    lambda: QuiverSetting(Quiver([[1, 2], [2, 0]]), (1, 1)),
    lambda: DegenerationGraph(2, 1, (LocalSetting(2, 1, (3,), (1,)),), ()),
]


@pytest.mark.parametrize("build", CHECKED, ids=[*IDS[:3], "Quiver", *IDS[3:]])
def test_trusted_store_matches_the_checked_constructor(build):
    v = build()
    cls = type(v)
    # the slots of the class and its bases are its own __slots__: no second copy of a field
    assert [name for c in cls.__mro__ for name in getattr(c, "__slots__", ())] == list(cls.__slots__)
    trusted = object.__new__(cls)._set(*(getattr(v, name) for name in cls.__slots__))
    assert trusted == v and hash(trusted) == hash(v) and repr(trusted) == repr(v)
    assert all(getattr(trusted, name) is getattr(v, name) for name in cls.__slots__)
    assert not hasattr(trusted, "__dict__")
    for twin in (pickle.loads(pickle.dumps(trusted)), copy.copy(trusted), copy.deepcopy(trusted)):
        assert type(twin) is cls and twin == v and hash(twin) == hash(v) and repr(twin) == repr(v)


def library_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in pathlib.Path(z2quiver.__file__).parent.glob("*.py")}


def test_one_store_per_value():
    # the slots hold every field once, and Frozen._set is the one way to store them
    for name, source in library_sources().items():
        assert "object.__setattr__" not in source, name
        assert not re.search(r"\b_value\b", source), name


def test_source_parses_on_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10.  This checks syntax only: a
    # standard-library name new in 3.11 still parses, and is not caught here.
    for name, source in library_sources().items():
        ast.parse(source, filename=name, feature_version=(3, 10))


def imported_modules(source: str) -> set[str]:
    """The top-level names of the absolute imports anywhere in source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_one_owner_per_format():
    sources = library_sources()
    imports = {name: imported_modules(source) for name, source in sources.items()}
    assert {name for name, modules in imports.items() if "numpy" in modules} == {"quiver.py"}
    assert all(not modules & {"csv", "json"} for modules in imports.values()), imports
    # the matrix has no setter of its own: Frozen._set stores it
    assert all("_store_arrows" not in source for source in sources.values())


def test_quiver_bound_once_per_module():
    # a function-level relative import resolves the package on every call
    package = pathlib.Path(z2quiver.__file__).parent
    for name in ("localquiver.py", "freeprod.py"):
        tree = ast.parse((package / name).read_text())
        per_call = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                    for inner in ast.walk(node) if isinstance(inner, ast.ImportFrom)
                    and inner.level == 1 and inner.module == "quiver"]
        assert not per_call, (name, per_call)
        # nor a loader of its own: the package imports quiver on first use
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "_load_quiver" not in defined, name


def test_submodule_import_reaches_quiver_through_the_package():
    probe = (
        "from z2quiver.localquiver import enumerate_settings, local_quiver\n"
        "first = [local_quiver(s) for s in enumerate_settings(4, 3)]\n"
        "import z2quiver\n"
        "print(first == [z2quiver.local_quiver(s) for s in z2quiver.enumerate_settings(4, 3)])\n"
        "print(repr(first))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    same, text = proc.stdout.splitlines()
    assert same == "True" and text == repr([local_quiver(s) for s in enumerate_settings(4, 3)])


def test_oracles_import_no_private_name():
    # a reference that borrows the code it checks checks nothing
    tree = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text())
    borrowed = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "z2quiver" for alias in node.names]
    assert borrowed and not [name for name in borrowed if name.startswith("_")], borrowed
