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


class InternalChargeError(TricoverError):
    """No longer raised by the library.

    The charging engines return whatever they reach, and ``verify_cover``
    reports any shortfall; the class is kept only because
    ``perfbench/workloads.py`` still imports and catches it.
    """


class RepairExhaustedError(TricoverError):
    """A repair failed.  ``detail`` says where: "verify" for a failed
    verification that no swap mends, either because every triangle is
    covered (an engine fault) or because the swap search found no
    improving swap around the first uncovered triangle; "structure-swap"
    for a structure violation's own swap that did not verify; and
    "loop-guard" for a repair loop that ran out."""

    def __init__(self, message: str, focus_edges=(), detail=None):
        super().__init__(message)
        self.focus_edges = frozenset(focus_edges)
        self.detail = detail
