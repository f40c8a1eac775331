"""Shared error types.

Precision is capped absolutely: an element indistinguishable from zero at
working precision has valuation N (val_p_coeffs) or M = e*N (valuation,
unit_level), so valuation-style queries return ints that callers compare.
Operations that need a nonzero element raise PrecisionExhausted instead.
"""


class PrecisionExhausted(ArithmeticError):
    """A computation could not be certified at the working precision."""


class ZeroInput(ValueError):
    """A nonzero argument was required."""


class NotPrincipalUnit(ValueError):
    """An element of 1 + m was required."""


class NotInIdeal(ValueError):
    """The element does not lie in the selected ideal."""


class BelowThreshold(ValueError):
    """The filtration level is at or below the critical ramification bound."""


class NotDeepEnough(ValueError):
    """The unit does not lie deep enough in the unit filtration."""


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


class InvariantFailed(RuntimeError):
    """A result contradicts an identity that holds by theory; a bug."""


class PIsTwo(ValueError):
    """Order-theoretic bounds are defined for odd residue characteristic only."""


class FactoringCapExceeded(ArithmeticError):
    """An integer has no factor that rho finds within ntheory.RHO_STEPS."""
