"""Exception types shared across the package, and the spec fields' one check."""
import math
from numbers import Integral


class NumericalError(RuntimeError):
    """A numerical routine failed (ill-conditioning, non-convergence, lost
    positive definiteness).  Callers decide whether to abort or fall back."""


class PlantDivergedError(RuntimeError):
    """The emulated plant state left the sane range, usually a sign of
    mis-tuned parameters or an unstable closed loop."""


# Domains shared by the spec fields: (test, what the message says a value must be).
FINITE = (math.isfinite, "finite")
POSITIVE = (lambda v: 0 < v < math.inf, "positive and finite")
NONNEGATIVE = (lambda v: 0 <= v < math.inf, "finite and >= 0")
INTEGER = (lambda v: isinstance(v, Integral), "an integer")


def check_fields(obj, rules) -> None:
    """Raise ValueError for the first (field, (test, what)) row of ``rules``
    whose test fails on that field of ``obj``, naming the field."""
    for name, (test, what) in rules:
        value = getattr(obj, name)
        if not test(value):
            raise ValueError(f"{name} must be {what}, got {value!r}")
