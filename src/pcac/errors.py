"""Exception types shared across the package, and the spec fields' one check."""
import math
from numbers import Integral


class NumericalError(RuntimeError):
    """A numerical routine failed (ill-conditioning, non-convergence, lost
    positive definiteness).  Callers decide whether to abort or fall back."""


class PlantDivergedError(RuntimeError):
    """The emulated plant state left the sane range, usually a sign of
    mis-tuned parameters or an unstable closed loop."""


def float_rule(test, what):
    """A float field's (test, what): ``test`` on the value's float, which must
    equal the value; Python compares ints and floats exactly, numpy does not."""
    def check(v):
        try:
            f = float(v)
        except OverflowError:  # an int too large for a float
            return False
        return f == (int(v) if isinstance(v, Integral) else v) and test(f)
    return check, f"{what} as a float"


# Domains shared by the spec fields: (test, what the message says a value must be).
FINITE = float_rule(math.isfinite, "finite")
POSITIVE = float_rule(lambda v: 0 < v < math.inf, "positive and finite")
NONNEGATIVE = float_rule(lambda v: 0 <= v < math.inf, "finite and >= 0")
INTEGER = (lambda v: isinstance(v, Integral), "an integer")


def check_fields(obj, rules) -> None:
    """Raise ValueError for the first (field, (test, what)) row of ``rules``
    whose test fails on that field of ``obj``, naming the field."""
    for name, (test, what) in rules:
        value = getattr(obj, name)
        if not test(value):
            raise ValueError(f"{name} must be {what}, got {value!r}")
