"""Old names that perfbench/tracing.py wraps; the unramified ring O0 is
block 0 of a localfield.FElem."""

from .localfield import FElem

# perfbench/tracing.py wraps the F_q methods through this name
from .finitefield import FiniteField as ResidueField  # noqa: F401
# an O0 multiply is an FElem multiply, so padic.o0_mul counts every one
O0Elem = FElem
# nothing calls this name, so padic.invert reads 0
invert = FElem.invert_unit
