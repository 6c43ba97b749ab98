"""Exception types shared across the engine.

Every error the engine raises deliberately derives from EngineError and
carries an exit code family so the command line tool can map failures to
stable process exit statuses.
"""


class EngineError(Exception):
    """Base class for all engine-raised failures."""

    exit_code = 1


# ---------------------------------------------------------------- parse (2)

class ParseError(EngineError):
    """Malformed expression text; carries the offending position."""

    exit_code = 2

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class DivisionNotTopLevel(ParseError):
    """'/' may only separate a numerator and denominator at the top level."""

    exit_code = 2


# ----------------------------------------------------- bad input values (3)

class ZeroPolynomial(EngineError):
    """An operation that needs a nonzero polynomial received zero."""

    exit_code = 3


class ZeroInput(EngineError):
    """An operation that needs a nonzero element received zero."""

    exit_code = 3


class EmptyInput(EngineError):
    """A nonempty collection was required."""

    exit_code = 3


class NotMPrimary(EngineError):
    """The ideal's generators share a factor that vanishes at the origin."""

    exit_code = 3


class NonzeroValue(EngineError):
    """A rational function had nonzero value where zero was required."""

    exit_code = 3


class ConstantImage(EngineError):
    """A residue image turned out constant where transcendence was required."""

    exit_code = 3


# ---------------------------------------------------------- unsupported (4)

class NotIrreducible(EngineError):
    """A polynomial required to be irreducible factors properly."""

    exit_code = 4


# ------------------------------------------------------ resource limits (5)

class DepthExceeded(EngineError):
    """A quadratic-transform chain ran past the configured depth bound."""

    exit_code = 5


class NodeBudgetExceeded(EngineError):
    """A base-point tree ran past the configured node budget."""

    exit_code = 5


class BudgetExceeded(EngineError):
    """An iteration bound (for example a reduction-number search) ran out."""

    exit_code = 5


class Unstable(EngineError):
    """A truncation frame failed to stabilize below its size cap."""

    exit_code = 5


# ------------------------------------------------------------- internal (6)

class InternalInconsistency(EngineError):
    """Two independent computations that must agree did not: an engine fault."""

    exit_code = 6
