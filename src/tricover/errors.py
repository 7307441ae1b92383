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


class InternalChargeError(TricoverError):
    """No longer raised by the library.

    The charging engines return whatever they reach, and ``verify_cover``
    reports any shortfall; the class is kept only because
    ``perfbench/workloads.py`` still imports and catches it.
    """


class RepairExhaustedError(TricoverError):
    """An engine's cover failed verification, which is an engine bug: its
    start packing has no improving swap of size three or less.
    ``focus_edges`` holds the edges of the first uncovered triangle, or
    every packed edge when every triangle is covered."""

    def __init__(self, message: str, focus_edges=()):
        super().__init__(message)
        self.focus_edges = frozenset(focus_edges)
