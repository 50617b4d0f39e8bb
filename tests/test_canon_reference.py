"""canonical_json against its reference copy: equal bytes or the same exception type."""

from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.canon import canonical_json

from _oracles import canonical_json_reference


class Label(str):
    pass


class Count(int):
    pass


# Characters the escape loop treats apart (quote, backslash, controls), the
# first one it leaves raw (\x7f), and text outside ASCII.
texts = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\x00\x08\t\n\x1f\x7f é→∞ε'), st.characters()),
    max_size=12,
)
floats = st.one_of(
    st.floats(),  # NaN and the infinities included: both sides must refuse them
    st.sampled_from([0.0, -0.0, 1e15, -1e15, 999999999999999.0, 1e-7, 2.0 / 3.0, 1.5e300]),
)
unsupported = st.sampled_from([b"bytes", 1 + 2j, Decimal("1.5"), frozenset({1}), object()])
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    st.fractions(),
    texts,
    texts.map(Label),
    st.integers().map(Count),
    unsupported,
)
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(texts, texts.map(Label)), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
        # keys of mixed types cannot be sorted: both sides raise TypeError
        st.dictionaries(st.one_of(texts, st.integers()), children, max_size=3),
    ),
    max_leaves=16,
)


def outcome(encode, obj):
    try:
        return encode(obj)
    except Exception as err:  # the test compares the exception type
        return type(err)


@settings(max_examples=200, deadline=None)
@given(obj=documents)
def test_canonical_json_matches_the_reference(obj):
    assert outcome(canonical_json, obj) == outcome(canonical_json_reference, obj)

