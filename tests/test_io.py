"""Algebra file format round trips and rejections."""

from fractions import Fraction

import pytest

from rnlie.brackets import FLOAT, Bracket
from rnlie.corpus import corpus
from rnlie.errors import PreconditionError
from rnlie.io import dumps_algebra, load_algebra, loads_algebra, save_algebra


def test_round_trip_corpus_exact():
    for name, param in [("heisenberg", 3), ("heisenberg", 5), ("filiform", 6),
                        ("tricky5", None), ("abelian", 4), ("euclid3", None),
                        ("milnor_hyp", 4)]:
        b = corpus(name, param).bracket
        again = loads_algebra(dumps_algebra(b))
        assert again == b


def test_round_trip_is_stable_text():
    b = corpus("tricky5").bracket
    text = dumps_algebra(b)
    assert dumps_algebra(loads_algebra(text)) == text


def test_rational_third_survives_exactly():
    b = Bracket(3, {(0, 1, 2): Fraction(1, 3)})
    again = loads_algebra(dumps_algebra(b))
    assert again.constants[(0, 1, 2)] == Fraction(1, 3)
    assert '"1/3"' in dumps_algebra(b)


def test_float_seventeen_digits_survive():
    value = 0.1 + 0.2
    b = Bracket(3, {(0, 1, 2): value}, FLOAT)
    again = loads_algebra(dumps_algebra(b))
    assert again.constants[(0, 1, 2)] == value


def test_file_round_trip(tmp_path):
    b = corpus("heisenberg", 5).bracket
    path = tmp_path / "h5.json"
    save_algebra(b, path)
    assert load_algebra(path) == b


def test_zero_scalar_dropped():
    text = ('{"dim": 3, "scalars": "rational", '
            '"brackets": [[1, 2, [[3, "0"]]]]}')
    assert loads_algebra(text).is_zero()


def test_rejects_i_ge_j():
    for i, j in [(2, 1), (2, 2)]:
        text = ('{"dim": 3, "scalars": "rational", '
                f'"brackets": [[{i}, {j}, [[3, "1"]]]]}}')
        with pytest.raises(PreconditionError, match="i < j"):
            loads_algebra(text)


def test_rejects_out_of_range_and_duplicates():
    with pytest.raises(PreconditionError, match="out of range"):
        loads_algebra('{"dim": 3, "scalars": "rational", '
                      '"brackets": [[1, 4, [[3, "1"]]]]}')
    with pytest.raises(PreconditionError, match="out of range"):
        loads_algebra('{"dim": 3, "scalars": "rational", '
                      '"brackets": [[1, 2, [[5, "1"]]]]}')
    with pytest.raises(PreconditionError, match="duplicate"):
        loads_algebra('{"dim": 3, "scalars": "rational", '
                      '"brackets": [[1, 2, [[3, "1"], [3, "2"]]]]}')


def test_rejects_schema_violations():
    cases = [
        ("[1, 2]", "top level"),
        ('{"dim": 3, "scalars": "rational"}', "missing field"),
        ('{"dim": 0, "scalars": "rational", "brackets": []}', "dim"),
        ('{"dim": 3, "scalars": "complex", "brackets": []}', "scalars"),
        ('{"dim": 3, "scalars": "rational", "brackets": 7}', "expected a list"),
        ('{"dim": 3, "scalars": "rational", "brackets": [[1, 2]]}',
         "expected"),
        ('{"dim": 3, "scalars": "rational", "brackets": [[1, 2, [[3]]]]}',
         "expected"),
        ('{"dim": 3, "scalars": "rational", "brackets": [[1, 2, [[3, 1]]]]}',
         "string"),
        ('{"dim": 3, "scalars": "rational", "brackets": [[1, 2, [[3, "x"]]]]}',
         "bad scalar"),
    ]
    for text, fragment in cases:
        with pytest.raises(PreconditionError, match=fragment):
            loads_algebra(text)


def test_bad_json_reports_position():
    with pytest.raises(PreconditionError, match="line 2"):
        loads_algebra('{"dim": 3,\n "scalars": }')


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e999"])
def test_rejects_non_finite_float_scalar(text):
    with pytest.raises(PreconditionError, match=r"brackets\[0\]\.targets\[1\].*not finite"):
        loads_algebra('{"dim": 3, "scalars": "float", '
                      f'"brackets": [[1, 2, [[3, "1"], [1, "{text}"]]]]}}')
