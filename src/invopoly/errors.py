"""Exception types shared across the library.

Every error carries an optional ``witness`` (an element, pair or index that
demonstrates the failure) so callers and the CLI can report it, and an
``exit_code`` class attribute, the status the command line exits with:
3 for a failed hypothesis or precondition, 4 for bad input, 5 for an
internal mismatch.
"""


class AlgebraError(Exception):
    """Base class for all library errors."""

    exit_code = 4

    def __init__(self, message: str = "", witness=None):
        super().__init__(message)
        self.witness = witness

    def cli_message(self) -> str:
        """The error as the command line reports it after 'error: '."""
        return f"{type(self).__name__}: {self}"


# -- field construction / arithmetic ----------------------------------------

class NotPrime(AlgebraError):
    """Characteristic is not a prime number."""


class NotIrreducible(AlgebraError):
    """Supplied modulus is not irreducible (or not monic of the right degree)."""


class Overflow(AlgebraError):
    """Field cardinality exceeds the configured integer width."""


class DivisionByZero(AlgebraError, ZeroDivisionError):
    """Inverse or negative power of the zero element."""


class NotADivisor(AlgebraError):
    """Requested subgroup order or exponent step does not divide q - 1."""
    exit_code = 3


class FieldTooLarge(AlgebraError):
    """Operation requires a full-field sweep beyond the configured cap."""


# -- polynomials -------------------------------------------------------------

class HasConstantTerm(AlgebraError):
    """Decomposition requires a polynomial without constant term."""


class ZeroPolynomial(AlgebraError):
    """Decomposition of the zero polynomial is undefined."""


# -- oracle ------------------------------------------------------------------

class NotAPermutation(AlgebraError):
    """Compositional inverse requested for a non-bijective mapping."""


# -- criterion ---------------------------------------------------------------

class NotInSubgroup(AlgebraError):
    """Argument expected to lie in mu_d does not."""
    exit_code = 3


class RSquareCondition(AlgebraError):
    """The exponent condition r^2 = 1 (mod s) does not hold."""
    exit_code = 3


class NotInvolutionOnSubgroup(AlgebraError):
    """The induced subgroup map is not an involution of mu_d."""
    exit_code = 3


# -- constructions / families ------------------------------------------------

class PreconditionViolated(AlgebraError):
    """A stated parameter condition fails; the message lists which."""
    exit_code = 3


class EvenCharacteristic(AlgebraError):
    """Construction requires odd field cardinality."""
    exit_code = 3


class CharacteristicDividesD(AlgebraError):
    """Closed-form coefficients divide by an integer the characteristic kills."""
    exit_code = 3


class WrongFieldShape(AlgebraError):
    """Field does not have the cardinality shape the construction needs."""
    exit_code = 3


class HValueZero(AlgebraError):
    """h vanishes on the relevant subgroup; witness holds the root."""
    exit_code = 3


class UnknownFamily(AlgebraError):
    """Family identifier is not recognised."""


class HypothesisViolated(AlgebraError):
    """A required hypothesis fails; the message names it, witness shows where."""
    exit_code = 3


class EvenQNoSolution(AlgebraError):
    """No parameter over an even-cardinality field satisfies the condition."""
    exit_code = 3


class BaseNotInvolution(AlgebraError):
    """The base-field map that should be lifted is not an involution."""
    exit_code = 3


# -- cross-checks / CLI ------------------------------------------------------

class InternalMismatch(AlgebraError):
    """Fast criterion and brute-force oracle disagree: an implementation bug."""
    exit_code = 5

    def cli_message(self) -> str:
        return f"internal mismatch: {self}"


class ParseError(AlgebraError):
    """Malformed textual input; the message includes the offending fragment."""
