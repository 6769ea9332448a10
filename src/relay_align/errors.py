"""Exception types shared across the package."""


class RelayAlignError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInput(RelayAlignError):
    """Malformed numeric input (non-finite entries, wrong shape, empty data)."""


class DimensionMismatch(RelayAlignError):
    """Operands live in different ambient spaces or have inconsistent shapes."""


class InfeasibleTuple(RelayAlignError):
    """The requested (K, N, d_1..d_K) tuple admits no strategy."""


class InconsistentPairwise(RelayAlignError):
    """A pairwise dimension table violates its row-sum or integrality constraints."""


class SingularChannel(RelayAlignError):
    """A channel matrix (or scalar coefficient) is singular / zero."""


class SecrecyViolation(RelayAlignError):
    """The relay-side observation exposes some symbol outside a pairwise sum."""


class StrategyInvalid(RelayAlignError):
    """An operation requiring a verified strategy was given one that fails."""
