"""Scalar fields: primality, parsing, exact arithmetic."""
import pytest
from fractions import Fraction

from hopfsplit.fields import GF, QQ, ScalarField, is_prime


def test_primality():
    assert is_prime(2) and is_prime(7) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(9) and not is_prime(2**61 + 1)


def test_field_construction_guards():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(2**63 + 9)
    with pytest.raises(ValueError):
        ScalarField("Q", p=5)


def test_rational_parsing_roundtrip():
    f = QQ
    for s in ("3/4", "-2", "0", "10/15"):
        v = f.parse(s)
        assert f.parse(f.fmt(v)) == v
    assert f.parse("10/15") == Fraction(2, 3)  # lowest terms
    assert f.parse("-3") == Fraction(-3)
    assert f.parse(" 2 ") == Fraction(2)
    assert f.parse("1/2") == Fraction(1, 2)


@pytest.mark.parametrize("s", ["1.0", "0.5e1", "1e3", "1_0", "1/-2", "1 / 2", "inf", "", "abc"])
@pytest.mark.parametrize("f", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_parse_accepts_only_integers_and_fractions(f, s):
    # Fraction() and int() would read several of these; the wire format does not
    with pytest.raises(ValueError):
        f.parse(s)


def test_prime_field_parsing_and_inverse():
    f = GF(7)
    assert f.parse("10") == 3
    assert f.parse("1/3") == f.inv(3) == 5
    assert f.div(f.one(), f.from_int(3)) == 5
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_pow_handles_zero_and_negatives():
    f = GF(5)
    assert f.pow(0, 3) == 0
    assert f.pow(2, -1) == 3
    assert f.pow(2, 0) == 1


def test_primitive_roots():
    assert GF(7).primitive_root_of_unity(3) == 2
    assert GF(7).primitive_root_of_unity(5) is None
    assert QQ.primitive_root_of_unity(2) == Fraction(-1)
    assert QQ.primitive_root_of_unity(3) is None


def test_characteristic():
    assert QQ.characteristic == 0
    assert GF(11).characteristic == 11
