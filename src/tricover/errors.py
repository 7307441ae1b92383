"""Exception types shared across the package.

``InputError`` rejects input that comes from outside: a graph, an edge
list, a generator's parameters, an order, a cap, a search bound, a
packing or a structure handed to an engine, and a graph whose exact
search would go deeper than the interpreter's recursion limit; on the
command line it is exit 4.  ``SelfCheckError`` is a fault of the
library itself, exit 3, such as a violation in ``cover``'s own start
packing.  It is not a ``ValueError``, so no handler of bad input can
catch it.
"""


class TricoverError(Exception):
    """Base class for all package errors."""


class InputError(TricoverError, ValueError):
    """Input from outside the library that it rejects."""


class InternalChargeError(TricoverError):
    """No longer raised by the library.

    The charging engines return whatever they reach, ``verify_cover``
    reports any shortfall, and ``cover`` raises ``SelfCheckError`` on
    it; the class is kept only because ``perfbench/workloads.py`` still
    imports and catches it, until the benchmark stops doing so.
    """


class SelfCheckError(TricoverError):
    """A result the library built failed its own exact check: a start
    packing of ``cover`` with a structure violation (``focus_edges``
    holds the edges its first swap removes), an engine's cover that
    ``verify_cover`` rejects (the edges of its first uncovered triangle,
    or every packed edge when every triangle is covered), an unbounded
    LP, or an LP optimum whose packing or cover does not certify its
    value."""

    def __init__(self, message: str, focus_edges=()):
        super().__init__(message)
        self.focus_edges = frozenset(focus_edges)
