"""Exception hierarchy shared by all diffalg modules."""

from __future__ import annotations


class DiffAlgError(Exception):
    """Base class for every error raised by this package."""


class ZeroDenominator(DiffAlgError):
    """A denominator is zero, or became zero modulo the algebraic relations."""


class DegreeOverflow(DiffAlgError):
    """A polynomial product exceeded the configured total-degree guard."""


class ExponentOverflow(DegreeOverflow):
    """A monomial's total degree would pass the packed exponent field."""


class CyclicDefinition(DiffAlgError):
    """Defining data of a new generator mentions generators not strictly below it."""


class NameClash(DiffAlgError):
    """A generator name is already taken in the tower."""


class InvalidDefiningData(DiffAlgError):
    """Defining data violates the rules of the requested extension kind."""


class UnsupportedHandle(DiffAlgError):
    """The requested derivation handle does not exist for this generator."""


class NotQuadratic(DiffAlgError):
    """Trace/norm/conjugation was requested for a non-square-root generator."""


class ZeroElement(DiffAlgError):
    """The operation needs a nonzero element."""


class FieldMismatch(DiffAlgError):
    """An element does not live in the subfield the operation requires."""


class DegenerateDenominator(DiffAlgError):
    """A curve addition hit a vanishing denominator."""


class DegenerateChord(DiffAlgError):
    """The two points do not span a chord (x1*y2 - x2*y1 = 0)."""


class NonConstantCoefficient(DiffAlgError):
    """A linear-combination coefficient failed the constancy check."""


class NotConstant(DiffAlgError):
    """The pushed-down coefficient is not a constant; the hypothesis fails."""


class IntegrandNotReducible(DiffAlgError):
    """An untagged primitive cannot be pushed below the top extension."""


class FNotBelow(DiffAlgError):
    """The target element is not in the field below the extension being removed."""


class PartNotBelow(DiffAlgError):
    """A form part cannot be rewritten below the extension being removed."""


class UnsupportedTermKind(DiffAlgError):
    """This term kind cannot be pushed through the extension being removed."""


class SelfCheckFailed(DiffAlgError):
    """A reduction step failed its own round-trip verification."""


class CoefficientTooLong(DiffAlgError):
    """A coefficient has more digits than an integer literal may hold."""


class ParseError(DiffAlgError):
    """Syntax error in a tower or form document."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:
        if self.line:
            return f"{self.message} (line {self.line}, column {self.column})"
        return self.message
