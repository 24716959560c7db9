"""Exact quiver computations for representations of free products of
order-2 groups: component and orbit censuses, the character quiver and its
Euler matrices, simplicity and smoothness classification, local quiver
settings with their degeneration graphs, and DOT/JSON/CSV export.

Each library module names its public API in its own `__all__`.  Those names
load on the first one looked up: `import z2quiver` and `python -m z2quiver`
import no submodule here, and each CLI command loads only the modules it
runs."""

__version__ = "0.1.0"

_SUBMODULES = ("combinat", "freeprod", "localquiver", "quiver")


def __getattr__(name: str):
    """On the first name looked up, import the four library modules and bind
    each one's `__all__` here, and `__all__` as those names then the four
    modules, as an eager import would; then answer."""
    namespace = globals()
    if "__all__" not in namespace:
        from importlib import import_module

        exports = []
        for submodule in _SUBMODULES:
            module = import_module(f".{submodule}", __name__)
            exports += module.__all__
            namespace.update((export, getattr(module, export)) for export in module.__all__)
        namespace["__all__"] = [*exports, *_SUBMODULES]
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    __getattr__("__all__")  # binds every public name
    return sorted(globals())
