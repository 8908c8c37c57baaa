"""Exception types shared across the package."""


class DomainMismatch(TypeError):
    """Scalars from different coefficient domains were mixed.

    The only allowed coercion is embedding a rational into a cyclotomic field;
    everything else (two cyclotomic fields of different order, in particular)
    is rejected rather than silently promoted.
    """


class ArityMismatch(ValueError):
    """Operands disagree on the number of variables."""


class LengthMismatch(ValueError):
    """Paired sequences (formulas/weights, partition/variables) disagree in length."""


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a non-zero remainder."""


class NotSquare(ValueError):
    """A square matrix was required."""


class SingularMatrix(ArithmeticError):
    """Matrix inversion was requested for a matrix with zero determinant."""


class BudgetExceeded(RuntimeError):
    """A desk-scale expansion outgrew its configured term budget."""


class NotSymmetric(ValueError):
    """Input polynomial is not invariant under variable permutations."""


class NotContained(ValueError):
    """A skew shape requires the inner partition to fit inside the outer one."""


class ZeroPolynomial(ValueError):
    """The zero polynomial has no well-defined answer for this operation."""


class NoNonvanishingPoint(RuntimeError):
    """Grid search found no point where the divisor is non-zero.

    Signals a degree misconfiguration: a non-zero polynomial of the assumed
    degree cannot vanish on the whole sampled grid.
    """


class GridExhausted(RuntimeError):
    """Seeded grid sampling ran out of attempts before finding a witness."""


class InvalidWitness(ValueError):
    """The supplied point is not a common zero with full Jacobian rank."""


class VerificationFailed(RuntimeError):
    """A witness self-check failed; this indicates an arithmetic bug."""


class NotReducible(ValueError):
    """The partition does not meet the determinant-reduction hypothesis."""


class ReductionMismatch(RuntimeError):
    """Round-trip expansion after a reduction pass did not reproduce the input."""
