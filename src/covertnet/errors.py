"""Exception types shared across the package, and the integer and real-number rules.

The CLI maps these onto exit codes: file/format problems exit 1,
violated preconditions and graph invariants exit 2, and
unsatisfiable synthesis targets exit 3.
"""

import numbers
import sys


def _is_int(value) -> bool:
    """Counts and seeds are Python ints: bool, float and str are rejected, never truncated."""
    return isinstance(value, int) and not isinstance(value, bool)


def _set_real(obj, name: str, rule: str, ok=lambda x: True) -> None:
    """Store field `name` of frozen `obj` as a float. NaN, the infinities, bools,
    non-numbers, ints too big for a float and values failing `ok` are rejected."""
    value = getattr(obj, name)
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max and ok(value)):
        raise PreconditionError(f"{name} must be {rule}, got {value!r}")
    object.__setattr__(obj, name, float(value))


class GraphError(ValueError):
    """A graph invariant would be violated, or a label is unknown."""


class FileFormatError(ValueError):
    """An input file or stream does not follow its documented format."""


class PreconditionError(ValueError):
    """An operation's precondition is not met by the given arguments."""


class InfeasibleTargetError(ValueError):
    """A synthesis target's hard constraints cannot all be satisfied."""
