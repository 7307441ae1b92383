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
    """No longer raised by the library.

    The charging engines return whatever they reach, and ``verify_cover``
    reports any shortfall; the class is kept only for callers that still
    import it.
    """

    def __init__(self, message: str, focus_edges=()):
        super().__init__(message)
        self.focus_edges = frozenset(focus_edges)


class RepairExhaustedError(TricoverError):
    """A repair failed: the swap search found no improving swap around a
    failed verification (``detail`` "verify"), a structure violation's own
    swap did not verify ("structure-swap"), or the loop guard ran out
    ("loop-guard")."""

    def __init__(self, message: str, focus_edges=(), detail=None):
        super().__init__(message)
        self.focus_edges = frozenset(focus_edges)
        self.detail = detail
