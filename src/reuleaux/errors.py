"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for failures anywhere in the construction pipeline."""


class DegenerateInputError(GeometryError, ValueError):
    """A primitive construction has no well-defined result."""


class DomainError(GeometryError, ValueError):
    """A formula argument left its mathematical domain."""


class NotExtremalError(GeometryError):
    """A point set failed the extremality check; carries the report."""

    def __init__(self, report):
        super().__init__("point set is not extremal")
        self.report = report


class StructureError(GeometryError):
    """The combinatorial structure contradicts the expected form."""


class MeshError(GeometryError):
    """A triangle mesh violates watertightness or orientation."""
