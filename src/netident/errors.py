"""Exception hierarchy shared by all netident modules.

Two broad families matter to callers (and to the CLI exit-code mapping):
``InputError`` for malformed or out-of-range inputs, ``DomainError`` for
well-formed problems on which the requested operation cannot proceed
(uncertified targets, degenerate data, blocked deconvolution, ...).
"""


class NetidentError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NetidentError):
    """Malformed, inconsistent, or out-of-range input."""


class DomainError(NetidentError):
    """The inputs are well-formed but the operation cannot proceed on them."""


class UncertifiedTargetError(DomainError):
    """Requested target nodes lie outside the certified (derived) set."""


class DegenerateWeightError(DomainError):
    """A forced edge weight came out (numerically) zero.

    Measured data in which a forced edge vanishes cannot come from a
    positively-weighted system on the declared graph.
    """


class InconsistentDataError(DomainError):
    """Measured data contradicts the declared graph or matrix class."""


class InsufficientOrderError(DomainError):
    """Not enough Markov parameters to run the requested recovery."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class DeconvolutionBlockedError(DomainError):
    """The node-dynamics coupling product vanishes at some order.

    Attributes:
        k: first order at which the coupling product is (numerically) zero.
    """

    def __init__(self, message: str, k: int):
        super().__init__(message)
        self.k = k

    def __reduce__(self):
        # Unpickling calls the class with ``args``, which lack ``k``.
        return type(self), (*self.args, self.k), self.__dict__


class NoHiddenNodesError(DomainError):
    """Counterexample construction needs at least one non-input non-output node."""


class DecoupledHiddenBlockError(DomainError):
    """Hidden block is decoupled: transfer data carries no information about it."""


class SingularShiftError(DomainError, ArithmeticError):
    """The shifted matrix ``s*I - X`` is singular at the requested sample point."""
