"""Constant analysis: folding, joining, contradictions."""

import pytest

from caviar.analysis import ConstantContradiction, join, make


def test_make_leaf_constants():
    assert make("int", 7, ()) == 7
    assert make("bool", True, ()) is True
    assert make("var", "x", ()) is None


def test_make_folds_when_all_children_known():
    assert make("+", None, (2, 3)) == 5
    assert make("*", None, (-4, 5)) == -20
    assert make("/", None, (7, 2)) == 3
    assert make("/", None, (7, 0)) == 0
    assert make("%", None, (-7, 2)) == 1
    assert make("<", None, (1, 2)) is True
    assert make("&&", None, (True, False)) is False
    assert make("neg", None, (3,)) == -3
    assert make("!", None, (False,)) is True


def test_make_unknown_child_blocks_folding():
    assert make("+", None, (2, None)) is None
    assert make("min", None, (None, None)) is None


def test_join_propagates_and_agrees():
    assert join(None, None) is None
    assert join(5, None) == 5
    assert join(None, 5) == 5
    assert join(5, 5) == 5
    assert join(True, True) is True


def test_join_contradiction_is_fatal():
    with pytest.raises(ConstantContradiction):
        join(1, 2)
    with pytest.raises(ConstantContradiction):
        join(True, False)


def test_join_distinguishes_bool_from_int():
    # 1 and True are == in Python but are different constants here
    with pytest.raises(ConstantContradiction):
        join(1, True)
    with pytest.raises(ConstantContradiction):
        join(0, False)


def test_contradiction_message_bounds_long_integers():
    # past the int/str digit limit `repr` raises; the message gives the
    # digit count, exact also next to a power of ten
    big = 10 ** 4400
    exc = ConstantContradiction(big - 1, -big, context="here")
    assert str(exc) == ("constant contradiction: <4400-digit integer> vs "
                        "<-4401-digit integer> (here)")
    assert exc.values == (big - 1, -big)
    assert str(ConstantContradiction(3, True)) == "constant contradiction: 3 vs True"
