"""The integer form of field elements: FieldSpec.integers and its inverse
FieldSpec.from_integers, the one conversion every exact kernel runs on, and
a guard that keeps the conversion in pitkit.fields."""

import ast
import math
import pathlib
from fractions import Fraction

import pytest

import pitkit
from pitkit.fields import FieldSpec

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FIELDS = [FieldSpec("prime", 2), FieldSpec("prime", 3), FieldSpec("prime", 101),
          FieldSpec("prime", (1 << 61) - 1), FieldSpec("rational")]
FIELD_IDS = ["F2", "F3", "F101", "F2^61-1", "Q"]

INTS = st.integers(-(10 ** 30), 10 ** 30)


def values(field):
    """Lists of ints, of Fractions, or of both; over F_p every denominator
    is a unit."""
    fractions = st.fractions(max_denominator=10 ** 12)
    if field.characteristic:
        fractions = fractions.filter(lambda v: v.denominator % field.characteristic)
    return st.one_of(st.lists(INTS), st.lists(fractions), st.lists(st.one_of(INTS, fractions)))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_from_integers_inverts_integers(field, data):
    vals = data.draw(values(field))
    ints, den = field.integers(vals)
    assert all(type(v) is int for v in ints) and type(den) is int
    back = field.from_integers(ints, den)
    assert back == [field.normalize(v) for v in vals]
    if field.characteristic:
        assert den == 1
        assert all(0 <= v < field.p for v in ints) and ints == back
    else:
        assert back == vals and all(type(v) is Fraction for v in back)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_empty_list(field):
    assert field.integers([]) == ([], 1)
    assert field.from_integers([]) == []


@given(vals=st.lists(st.one_of(INTS, st.fractions(max_denominator=10 ** 12))))
@example(vals=[Fraction(1, 6), Fraction(3, 4), Fraction(5, 4), 2])
def test_den_is_the_least_common_denominator_over_q(vals):
    ints, den = FieldSpec("rational").integers(vals)
    assert den == math.lcm(*(Fraction(v).denominator for v in vals))
    assert [Fraction(a, den) for a in ints] == vals


@pytest.mark.parametrize("field", FIELDS[:4], ids=FIELD_IDS[:4])
def test_from_integers_divides_by_den_over_a_prime_field(field):
    p = field.p
    den = p + 2 if p > 2 else 3
    out = field.from_integers([1, -5, p + 7], den)
    assert [field.mul(v, den % p) for v in out] == [1, (-5) % p, 7 % p]


# -- the conversion lives in one module -----------------------------------------

SRC = pathlib.Path(pitkit.__file__).parent
REMOVED = {"_prepare_point", "_numerators", "_integer_rows", "_eval_prepared",
           "kernel_of_integer_rows", "echelon", "_on_line", "_convolve", "images"}


def _names(tree):
    """Every attribute, imported name and function name of a module's
    syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.alias, ast.FunctionDef)):
            yield node.name


def test_only_fields_takes_a_common_denominator():
    users = {path.name for path in SRC.glob("*.py")
             if "lcm" in set(_names(ast.parse(path.read_text())))}
    assert users == {"fields.py"}


def test_no_module_uses_a_second_conversion():
    for path in SRC.glob("*.py"):
        assert not REMOVED & set(_names(ast.parse(path.read_text()))), path.name
