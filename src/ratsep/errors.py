"""Exception types shared across the library."""


class DimensionMismatchError(ValueError):
    """Operands live in spaces of different dimension."""


class NotPointedError(ValueError):
    """The generator description contains a line, so the set is not pointed."""


class PointInSetError(ValueError):
    """A separation query was made for a point that belongs to the set."""


class SeparationBugError(RuntimeError):
    """An internal exact check failed.

    This cannot happen for valid inputs; if raised it is a bug, not bad
    input (the CLI exits with code 3), and any partial pipeline state is
    attached for debugging.
    """

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = dict(context or {})
