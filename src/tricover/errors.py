"""Exception types shared across the package."""


class TricoverError(Exception):
    """Base class for all package errors."""


class SelfLoopError(TricoverError):
    pass


class DuplicateEdgeError(TricoverError):
    pass


class VertexOutOfRangeError(TricoverError):
    pass


class BadParamsError(TricoverError):
    pass


class InstanceTooLargeError(TricoverError):
    pass


class StructureInvalidError(TricoverError):
    """A charging engine was given a structure with open violations."""


class NotACoverError(TricoverError):
    pass


class NotThirdIntegralError(TricoverError):
    pass


class MissingInputError(TricoverError):
    pass


class PinBaseEdgeError(TricoverError):
    pass


class AlreadyPinnedError(TricoverError):
    pass


class AlreadySpentError(TricoverError):
    pass


class InternalChargeError(TricoverError):
    """Charging produced an impossible state; carries repair focus edges.

    Raised when an intermediate invariant fails (for example an edge
    accumulating more than one unit of credit, or a Discharge-and-Pin step
    not finding a free triangle).  The cover pipeline catches it and feeds
    ``focus_edges`` to the targeted swap search.
    """

    def __init__(self, message: str, focus_edges=()):
        super().__init__(message)
        self.focus_edges = frozenset(focus_edges)


class RepairExhaustedError(TricoverError):
    """A repair failed: the swap escalation found no improving swap for a
    failing charging certificate, or a structure violation's own swap did
    not verify (``detail`` "structure-swap")."""

    def __init__(self, message: str, focus_edges=(), detail=None):
        super().__init__(message)
        self.focus_edges = frozenset(focus_edges)
        self.detail = detail
