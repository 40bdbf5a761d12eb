"""Exception hierarchy shared by all mmsfair modules.

The CLI maps these onto exit codes: validation problems exit 2, the
oracle's good limit exits 3, and internal invariant violations exit 4.
"""

from __future__ import annotations


class MmsfairError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MmsfairError):
    """Malformed input data: bad shapes, negative values, unknown ids."""


class ContractError(MmsfairError):
    """A documented precondition of an operation was violated by the caller."""


class CapacityError(MmsfairError):
    """An exact search would cover more goods than its limit, or recursed
    past Python's stack.

    Raised instead of silently approximating; the caller may retry with a
    larger explicit limit, or, past the stack, supply a certificate.
    """


class InternalInvariantError(MmsfairError):
    """A property the solver guarantees by construction failed at runtime.

    The solver's payload is the pair (ReductionLog, BagFillRun or None),
    the solve trace so far; the CLI dumps it as the ``--trace`` document.
    """

    def __init__(self, message: str, payload: object = None):
        super().__init__(message)
        self.payload = payload
