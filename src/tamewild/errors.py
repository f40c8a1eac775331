"""Shared error types and the precision sentinel.

Valuation-style queries return the PRECISION_EXHAUSTED sentinel when an
element is indistinguishable from zero at working precision; callers must
branch on it.  Operations whose return type cannot carry the sentinel raise
PrecisionExhausted instead.
"""


class _PrecisionExhausted:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "PRECISION_EXHAUSTED"

    def __bool__(self):
        return False


#: Sentinel: the queried quantity cannot be certified at working precision.
PRECISION_EXHAUSTED = _PrecisionExhausted()


class PrecisionExhausted(ArithmeticError):
    """A computation could not be certified at the working precision."""


class ZeroInput(ValueError):
    """A nonzero argument was required."""


class HenselHypothesisFailed(ArithmeticError):
    """Newton refinement could not be certified from the given approximation."""


class NotPrincipalUnit(ValueError):
    """An element of 1 + m was required."""


class NotInIdeal(ValueError):
    """The element does not lie in the selected ideal."""


class BelowThreshold(ValueError):
    """The filtration level is at or below the critical ramification bound."""


class NotDeepEnough(ValueError):
    """The unit does not lie deep enough in the unit filtration."""


class DegenerateInput(ValueError):
    """The input degenerates the requested relation (e.g. x in {0, 1})."""


class ComplexPlace(ValueError):
    """Complex places carry no symbol data."""


class BadInput(ValueError):
    """Arguments violate a documented precondition."""


class UnsupportedField(ValueError):
    """The requested field is outside the shipped presets."""


class UnsupportedSplitting(RuntimeError):
    """The structure of the Kummer extension cannot be certified or handled."""


class OracleUnavailable(RuntimeError):
    """No total symbol evaluator exists for this field."""


class BudgetExceeded(RuntimeError):
    """The sampling budget ran out before the sweep finished."""


class NormUnitNotPrincipal(RuntimeError):
    """A norm's unit part failed to be a principal unit; indicates a bug."""


class InvariantFailed(RuntimeError):
    """A result contradicts an identity that holds by theory; a bug."""


class PIsTwo(ValueError):
    """Order-theoretic bounds are defined for odd residue characteristic only."""


class FactoringCapExceeded(ArithmeticError):
    """An integer has no factor that rho finds within ntheory.RHO_STEPS."""
