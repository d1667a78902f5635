import fractions

import pytest

from pitkit.fields import FieldError, FieldSpec


def test_rational_basics():
    Q = FieldSpec("rational")
    assert Q.characteristic == 0
    a = Q.from_int(3)
    b = Q.from_int(-2)
    assert Q.add(a, b) == Q.one()
    assert Q.mul(a, b) == Q.from_int(-6)
    assert Q.inv(a) == fractions.Fraction(1, 3)
    assert Q.is_zero(Q.sub(a, a))


def test_prime_basics():
    F = FieldSpec("prime", 7)
    assert F.characteristic == 7
    a = F.from_int(5)
    assert F.add(a, F.from_int(4)) == F.from_int(2)
    assert F.mul(a, a) == F.from_int(4)
    # canonical residues live in [0, p)
    assert F.from_int(-1) == F.from_int(6)
    inv = F.inv(F.from_int(3))
    assert F.mul(inv, F.from_int(3)) == F.one()


def test_inverse_of_zero_rejected():
    F = FieldSpec("prime", 5)
    with pytest.raises((FieldError, ZeroDivisionError)):
        F.inv(F.zero())


def test_nonprime_modulus_rejected():
    with pytest.raises(FieldError):
        FieldSpec("prime", 4)
    with pytest.raises(FieldError):
        FieldSpec("prime", 561)
    with pytest.raises(FieldError):
        FieldSpec("weird")


def test_modulus_past_primality_range_is_a_field_error():
    # 2^89 - 1 is a Mersenne prime beyond the deterministic witness set
    with pytest.raises(FieldError, match="cannot decide"):
        FieldSpec("prime", 2 ** 89 - 1)


def test_helpers_and_equality():
    assert FieldSpec("prime", 11) == FieldSpec("prime", 11)
    assert FieldSpec("prime", 11) != FieldSpec("prime", 13)
    assert FieldSpec("prime", 11) != FieldSpec("rational")
    assert len({FieldSpec("prime", 11), FieldSpec("prime", 11), FieldSpec("rational")}) == 2


def test_json_round_trip():
    for field in (FieldSpec("rational"), FieldSpec("prime", 101), FieldSpec("prime", (1 << 61) - 1)):
        again = FieldSpec.from_json(field.to_json())
        assert again == field
        x = field.from_int(-5)
        assert field.scalar_from_json(field.scalar_to_json(x)) == x


def test_field_arithmetic_properties():
    # every nonzero element of a small prime field is invertible
    F = FieldSpec("prime", 13)
    for v in range(1, 13):
        a = F.from_int(v)
        assert F.mul(a, F.inv(a)) == F.one()
    # Fermat: a^p = a
    for v in range(13):
        a = F.from_int(v)
        assert F.pow(a, 13) == a


def test_a_rational_too_long_for_decimal_is_written_in_hex():
    # 3^10000 has 4,772 digits, past Python's decimal limit of 4300
    Q = FieldSpec("rational")
    big = 3 ** 10000
    cases = {fractions.Fraction(big): hex(big), fractions.Fraction(-big, 7): "-%s/7" % hex(big),
             fractions.Fraction(5, big): "5/" + hex(big), fractions.Fraction(-1, 2): "-1/2"}
    for v, text in cases.items():
        assert Q.scalar_to_json(v) == text
        assert Q.scalar_from_json(text) == v
    for bad in ("0x", "1/0x0", "0x1/", "0xg"):
        with pytest.raises(FieldError):
            Q.scalar_from_json(bad)
