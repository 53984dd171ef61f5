"""Exception types shared across the package."""

from __future__ import annotations


class OlogError(Exception):
    """Base class for all errors raised by this package."""


class CompositionError(OlogError):
    """Two paths were composed whose endpoints do not meet."""


class BoundExceededError(OlogError):
    """A fact, a path or a bounded structure does not fit the path-length bound."""


class GraphMismatchError(OlogError):
    """An operation required two values over the same graph and got different ones."""


class MorphismError(OlogError):
    """A graph morphism is not total or not endpoint-compatible."""


class InstanceLoadError(OlogError):
    """Tabular instance data failed to load; carries one message per problem."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class EvaluationError(OlogError):
    """A path was evaluated at a key outside its source set."""


class SynthesisError(OlogError):
    """Instance synthesis refused, e.g. because the target set is already populated."""


class SketchError(OlogError):
    """A sketch declaration is structurally unusable for the requested operation."""


class LotError(OlogError):
    """An invalid lattice-of-theories move (bad contraction or expansion)."""


class UnsupportedLinkError(OlogError):
    """A system link maps an aspect to a composite path, which the core colimit
    construction cannot quotient."""
