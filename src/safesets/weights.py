"""Weight functions: nonnegative rationals indexed by vertex id.

Weights cross process boundaries as strings ("5" or "5/2") inside JSON; in
memory they are tuples of fractions.Fraction.  Only Fraction, int and those
two string forms are accepted: floats, booleans, decimal strings and
anything else are rejected, so no inexact value enters the exact solver.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .graph import InputError

WeightFn = tuple[Fraction, ...]

_RATIONAL = re.compile(r"\s*[+-]?\d+(?:/\d+)?\s*", re.ASCII)


def parse_rational(value: Fraction | int | str) -> Fraction:
    """Turn a Fraction, an int or a "p" / "p/q" string into a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError("weights must be rationals, not booleans")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise InputError(
            f"cannot parse rational from {type(value).__name__}; "
            'give an integer or a "p/q" string'
        )
    if not _RATIONAL.fullmatch(value):
        raise InputError(f'malformed rational {value!r}: expected "p" or "p/q"')
    try:
        return Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:  # q = 0, or too many digits
        raise InputError(f"malformed rational {value!r}: {exc}") from exc


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def make_weights(values: Iterable[Fraction | int | str], n: int | None = None) -> WeightFn:
    """Normalize raw weight values, enforcing nonnegativity (and length if given)."""
    out = tuple(map(parse_rational, values))
    if n is not None and len(out) != n:
        raise InputError(f"expected {n} weights, got {len(out)}")
    for i, w in enumerate(out):
        if w < 0:
            raise InputError(f"weight at vertex {i} is negative")
    return out


def parse_weights_json(obj: object, n: int | None = None) -> WeightFn:
    """Accept either {"weights": [...]} or a bare list of rational strings."""
    if isinstance(obj, dict):
        if "weights" not in obj:
            raise InputError('weight object must carry a "weights" field')
        obj = obj["weights"]
    if not isinstance(obj, list):
        raise InputError("weights must be a JSON array of rational strings")
    return make_weights(obj, n)


def scaled_integers(w: Sequence[Fraction]) -> tuple[list[int], int]:
    """Clear denominators: returns (integer weights, common denominator).

    Every comparison the solver makes is invariant under positive scaling, so
    working in integers is exact and much faster than summing fractions.
    """
    denom = lcm(*(x.denominator for x in w)) if w else 1
    return [x.numerator * (denom // x.denominator) for x in w], denom
