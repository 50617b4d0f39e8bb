"""The canonical JSON contract: the exact bytes reports and fingerprints rest on."""

from fractions import Fraction

import pytest

from shiftlab.canon import canonical_json


@pytest.mark.parametrize("text, expected", [
    ('say "hi"', r'"say \"hi\""'),
    ("back\\slash", r'"back\\slash"'),
    ("tab\tnew\nline", r'"tab\u0009new\u000aline"'),
    ("\x00\x1f", r'"\u0000\u001f"'),
    ("\x7f", '"\x7f"'),
])
def test_strings_escape_quotes_backslashes_and_control_characters(text, expected):
    assert canonical_json(text) == expected


def test_non_ascii_characters_print_raw():
    assert canonical_json("ε → ∞ é") == '"ε → ∞ é"'


@pytest.mark.parametrize("value, expected", [
    (3.0, "3"),
    (-2.0, "-2"),
    (0.0, "0"),
    (-0.0, "0"),
    (999999999999999.0, "999999999999999"),
    (1e15, "1e+15"),
    (-1e15, "-1e+15"),
    (0.1, "0.1"),
    (2.0 / 3.0, "0.666666666667"),
    (123456.7890123456, "123456.789012"),
    (1e-7, "1e-07"),
    (1.5e300, "1.5e+300"),
])
def test_floats_print_as_integers_below_1e15_and_with_12_digits_otherwise(value, expected):
    assert canonical_json(value) == expected


def test_fractions_print_as_quoted_ratios():
    assert canonical_json(Fraction(3, 7)) == '"3/7"'
    assert canonical_json(Fraction(-6, 4)) == '"-3/2"'
    assert canonical_json(Fraction(5)) == '"5"'


def test_scalars_and_containers():
    assert canonical_json([True, False, None, 1, -7]) == "[true,false,null,1,-7]"
    assert canonical_json((1, (2.5, "a"))) == '[1,[2.5,"a"]]'
    assert canonical_json({}) == "{}" and canonical_json([]) == "[]"


def test_keys_sort_by_raw_value_and_print_as_strings():
    assert canonical_json({10: "x", 9: "y"}) == '{"9":"y","10":"x"}'
    assert canonical_json({"b": 1, "a": {"d": 2, "c": 3}}) == '{"a":{"c":3,"d":2},"b":1}'


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), [1.0, float("nan")]])
def test_non_finite_floats_raise(value):
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json(value)


@pytest.mark.parametrize("value", [{1, 2}, frozenset(), object(), b"bytes"])
def test_other_types_raise(value):
    with pytest.raises(TypeError, match="cannot canonicalize"):
        canonical_json(value)
