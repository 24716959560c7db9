"""Exact quiver computations for representations of free products of
order-2 groups: component and orbit censuses, the character quiver and its
Euler matrices, simplicity and smoothness classification, local quiver
settings with their degeneration graphs, and DOT/JSON/CSV export.

The public names load on the first one looked up: `import z2quiver` and
`python -m z2quiver` import no submodule here, and each CLI command loads
only the modules it runs."""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("DimVector", "bn_canonicalize", "multiset_coeff", "parse_dim_vector", "parse_subset", "subset_str"),
        "combinat",
    ),
    **dict.fromkeys(
        (
            "CharacterMultiset",
            "build_one_quiver",
            "build_Qn",
            "chain_of",
            "component_count",
            "is_iss_smooth",
            "is_simple_alpha",
            "is_simple_alpha_oracle",
            "iss_dim",
            "one_quiver_euler_closed",
            "orbit_count",
            "orbit_representatives",
            "parse_characters",
            "simple_alpha_report",
            "treelike_census",
        ),
        "freeprod",
    ),
    **dict.fromkeys(
        (
            "DegenerationGraph",
            "LocalSetting",
            "count_settings_for_young",
            "degenerates_class",
            "degeneration_graph",
            "elementary_moves",
            "enumerate_settings",
            "local_euler_matrix",
            "local_quiver",
            "smooth_point",
            "young_diagram_slice",
        ),
        "localquiver",
    ),
    **dict.fromkeys(
        (
            "Quiver",
            "QuiverSetting",
            "UnsupportedInputError",
            "euler_form",
            "is_simple_dimvector",
            "is_smooth_setting",
            "is_strongly_connected",
            "support",
        ),
        "quiver",
    ),
}
# the eager import also bound the four submodules, so a star import gave them
__all__ = [*_EXPORTS, *dict.fromkeys(_EXPORTS.values())]


def __getattr__(name: str):
    """On the first name looked up, import the four library modules and bind
    every public name here, as an eager import would; then answer."""
    from importlib import import_module

    namespace = globals()
    if not _EXPORTS.keys() <= namespace.keys():
        for export, module in _EXPORTS.items():
            namespace[export] = getattr(import_module(f".{module}", __name__), export)
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
