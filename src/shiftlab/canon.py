"""Canonical JSON presentation: deterministic bytes for equal inputs."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any


# Escaped: the quote, the backslash and U+0000..U+001F; every other character prints raw.
_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _canon_scalar(value: Any) -> str:
    # Strings first: keys and labels are most of what a report holds.  The
    # Fraction test comes last because Fraction is a numbers.Rational, so
    # each miss runs the ABC machinery.  No value fits two branches, so the
    # order changes no output.
    if isinstance(value, str):
        return '"' + value.translate(_ESCAPES) + '"'
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return float_text(value)
    if isinstance(value, Fraction):
        return _canon_scalar(fraction_text(value))
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def float_text(value: float) -> str:
    """A finite float's text in every report, canonical JSON or plain text."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    # 12 significant digits, enough to round-trip every reported rate.
    return format(value, ".12g")


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and fixed float formatting.

    Equal inputs yield byte-identical output; reports and config dumps go
    through here so repeated runs can be compared with a plain diff.
    """
    if isinstance(obj, dict):
        # Keys are unique, so the sort never compares two values.
        items = sorted(obj.items())
        inner = ",".join(f"{_canon_scalar(str(k))}:{canonical_json(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    return _canon_scalar(obj)


def fingerprint(obj: Any) -> str:
    # Imported here: of the CLI's commands only those that print a
    # fingerprint pay for loading hashlib.
    import hashlib

    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def fraction_text(frac: Fraction) -> str:
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"
