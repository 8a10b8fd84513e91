"""Exception types shared across the package."""


class TowerError(Exception):
    """Base class for all errors raised by this package."""


class HypothesisViolation(TowerError):
    """The input graph/voltage pair is outside the supported regime.

    Raised for a vanishing Euler characteristic, a disconnected base
    graph, or a monodromy index different from 1.
    """


class VerificationMismatch(TowerError):
    """An independent oracle disagreed with a formula-path value, or a
    mathematical invariant that every valid input satisfies failed."""


class PrecisionExhausted(TowerError):
    """A p-adic computation stayed ambiguous at the maximal working precision."""


class ResourceLimit(TowerError):
    """A computed integer exceeded the configured bit-size cap."""


class OrderUnavailable(TowerError):
    """A multiplicative order could not be computed within the factoring budget."""
