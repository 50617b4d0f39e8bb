"""Canonical JSON presentation: deterministic bytes for equal inputs."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any


def _canon_scalar(value: Any) -> str:
    # Strings first: keys and labels are most of what a report holds.  The
    # Fraction test comes last because Fraction is a numbers.Rational, so
    # each miss runs the ABC machinery.  No value fits two branches, so the
    # order changes no output.
    if isinstance(value, str):
        out = ['"']
        for ch in value:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value!r}")
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        # 12 significant digits, enough to round-trip every reported rate.
        return format(value, ".12g")
    if isinstance(value, Fraction):
        return _canon_scalar(fraction_text(value))
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and fixed float formatting.

    Equal inputs yield byte-identical output; reports and config dumps go
    through here so repeated runs can be compared with a plain diff.
    """
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
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
