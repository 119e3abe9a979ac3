"""Per-e-class constant analysis.

Each e-class carries an optional constant datum (int or bool). When every
child of an e-node is constant the node folds to a constant; merging two
classes with distinct constants is a fatal contradiction (it can only be
caused by an unsound rule or an engine bug).
"""

from __future__ import annotations

import math

from .expr import apply_op

LEAF_INT = "int"
LEAF_BOOL = "bool"
LEAF_VAR = "var"


def _show(value) -> str:
    """`repr(value)`, or for an integer past the int/str digit limit, which
    `repr` refuses, its sign and its number of decimal digits."""
    try:
        return repr(value)
    except ValueError:
        n = abs(value)
        digits = int(math.log10(n)) + 1  # off by one only next to a power of 10
        if n < 10 ** (digits - 1):
            digits -= 1
        elif n >= 10 ** digits:
            digits += 1
        return f"<{'-' if value < 0 else ''}{digits}-digit integer>"


class ConstantContradiction(Exception):
    def __init__(self, a, b, context: str = ""):
        self.values = (a, b)
        msg = f"constant contradiction: {_show(a)} vs {_show(b)}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


def make(op: str, payload, child_data: tuple):
    """Constant datum for a fresh e-node given its children's data."""
    if op == LEAF_INT or op == LEAF_BOOL:
        return payload
    if op == LEAF_VAR:
        return None
    if None in child_data:
        return None
    return apply_op(op, *child_data)


def join(a, b, context: str = ""):
    """Least upper bound of two data; absent is bottom."""
    if a is None:
        return b
    if b is None:
        return a
    if a == b and isinstance(a, bool) == isinstance(b, bool):
        return a
    raise ConstantContradiction(a, b, context)
