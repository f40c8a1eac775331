"""Shared error types, one per thing a caller can do about the refusal.

- BadInput: an argument violates a documented precondition (a zero where a
  nonzero element is needed, a unit outside the asked-for filtration
  level, a malformed expression or descriptor); fix the argument.
- Unsupported: the arguments are well formed but the case is not covered
  (p = 2 where only odd p is, a field outside the presets or the caps, a
  Kummer splitting or symbol evaluator that does not exist here).
- PrecisionExhausted, BudgetExceeded, FactoringCapExceeded: a cap was
  reached; raise -N or --budget, or give a smaller integer.
- InvariantFailed: a result contradicts an identity that holds by theory;
  a bug.

Arithmetic on zero (an inverse, a dlog) raises ZeroDivisionError.  Every
message names the precondition that failed, so the type says what to do and
the text says why.  The command line maps all of them to exit code 2.

Precision is capped absolutely: an element indistinguishable from zero at
working precision has valuation N (val_p_coeffs) or M = e*N (valuation,
unit_level), so valuation-style queries return ints that callers compare.
Operations that need a nonzero element raise PrecisionExhausted instead.
"""


class BadInput(ValueError):
    """An argument violates a documented precondition."""


class Unsupported(ValueError):
    """The case is well formed but outside what the program covers."""


class PrecisionExhausted(ArithmeticError):
    """A computation could not be certified at the working precision."""


class BudgetExceeded(RuntimeError):
    """The sampling budget ran out before the sweep finished."""


class FactoringCapExceeded(ArithmeticError):
    """An integer has no factor that rho finds within ntheory.RHO_STEPS."""


class InvariantFailed(RuntimeError):
    """A result contradicts an identity that holds by theory; a bug."""
