"""Exception hierarchy shared by all mmsfair modules.

Each class below MmsfairError is one CLI exit code: ValidationError
exits 2, CapacityError 3 and InternalInvariantError 4.
"""

from __future__ import annotations


class MmsfairError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MmsfairError):
    """Input the caller can fix: malformed data (bad shapes, negative
    values, unknown ids) or an argument outside an operation's documented
    preconditions."""


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
