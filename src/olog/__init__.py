"""Ologs: finitely presented categories with labeled types and aspects,
path-equation facts, sketch annotations, instance data, and information flow.

``import olog`` loads no submodule. Each name of ``__all__`` is imported from
its submodule on first use (PEP 562), so ``from olog import saturate`` loads
only what ``entail`` needs. The submodules that export those names
(``olog.core``, ``olog.entail`` and so on) are imported on first access.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "DEFAULT_BOUND", "Aspect", "Fact", "Graph", "Path", "Specification",
        "TypeNode", "compose_paths", "enumerate_paths", "format_fact",
        "format_path", "identity_path", "relation_to_span",
        "validate_specification",
    ),
    "entail": (
        "ENTAILED", "NOT_DERIVABLE", "Congruence", "consequence", "entails",
        "saturate", "spec_leq",
    ),
    "errors": ("OlogError",),
    "flow": (
        "GraphMorphism", "dir_flow", "identity_morphism", "inv_flow",
        "is_spec_morphism", "lot_analogy", "lot_contract", "lot_expand",
        "lot_revise", "pullback_instances", "translate_fact", "translate_path",
    ),
    "instances": (
        "KeyDiagram", "SatisfactionReport", "eval_column", "eval_path",
        "intent", "key_diagram", "load_instances", "satisfies_fact",
        "satisfies_spec",
    ),
    "system": (
        "Channel", "DistributedSystem", "InformationSystem", "Shape",
        "SystemMorphism", "check_channel_cover", "check_refinement",
        "check_system_morphism", "fusion", "induced_refinement",
        "optimal_channel", "system_consequence",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
