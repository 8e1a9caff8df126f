import importlib
from fractions import Fraction

import numpy as np
import pytest

from rnlie.brackets import center, nilpotency_step, validate_jacobi
from rnlie.corpus import corpus, corpus_names
from rnlie.errors import PreconditionError

# the package's `corpus` attribute is the function, so fetch the module itself
corpus_module = importlib.import_module("rnlie.corpus")

ENTRIES = [("abelian", 4), ("heisenberg", 3), ("heisenberg", 7), ("filiform", 6),
           ("tricky5", None), ("milnor_heis", None), ("milnor_hyp", 4), ("euclid3", None)]

BAD_LOOKUPS = [("nope", None), ("heisenberg", None), ("heisenberg", 4),
               ("tricky5", 5), ("abelian", 0), ("filiform", 2)]


def test_all_entries_pass_jacobi_exactly():
    entries = [corpus(name, param) for name, param in ENTRIES]
    for e in entries:
        assert validate_jacobi(e.bracket) == 0
        assert nilpotency_step(e.bracket) == e.step


def test_heisenberg5_shape():
    e = corpus("heisenberg", 5)
    assert e.dim == 5
    assert e.step == 2
    assert center(e.bracket).shape[1] == 1


def test_tricky5_recorded_shape():
    e = corpus("tricky5")
    assert e.dim == 5
    assert e.step == 3


def test_filiform_step():
    assert corpus("filiform", 5).step == 4


def test_milnor_hyp_not_nilpotent():
    assert corpus("milnor_hyp", 4).step is None


def test_unknown_name():
    with pytest.raises(PreconditionError):
        corpus("nope")


def test_param_validation():
    with pytest.raises(PreconditionError):
        corpus("heisenberg")
    with pytest.raises(PreconditionError):
        corpus("heisenberg", 4)
    with pytest.raises(PreconditionError):
        corpus("tricky5", 5)


@pytest.mark.parametrize("param", [3.7, Fraction(7, 2), "3", True, float("nan")])
def test_non_integral_param_refused(param):
    with pytest.raises(PreconditionError, match="integer parameter"):
        corpus("heisenberg", param)


def test_integer_params_accepted():
    for param in (3, np.int64(3), np.int32(3)):
        assert corpus("heisenberg", param) is corpus("heisenberg", 3)


def test_names_listing():
    names = corpus_names()
    assert "tricky5" in names and "heisenberg" in names and "euclid3" in names


class TestMemo:
    """corpus(name, param) builds and checks each entry once per process,
    then returns that same entry."""

    def test_one_entry_per_lookup(self):
        for name, param in ENTRIES:
            assert corpus(name, param) is corpus(name, param)
        assert corpus("heisenberg", 5) is corpus("heisenberg", 5.0)

    @pytest.mark.parametrize("name, param", BAD_LOOKUPS)
    def test_bad_lookups_raise_every_time(self, name, param):
        for _ in range(2):
            with pytest.raises(PreconditionError):
                corpus(name, param)

    def test_checks_run_on_the_first_build_only(self, monkeypatch):
        calls = []

        def counted(b):
            calls.append(b)
            return validate_jacobi(b)
        monkeypatch.setattr(corpus_module, "validate_jacobi", counted)
        corpus_module._built.cache_clear()
        try:
            first = corpus("tricky5")
            assert len(calls) == 1
            assert corpus("tricky5") is first
            assert len(calls) == 1
        finally:
            corpus_module._built.cache_clear()

    def test_a_failed_check_still_raises(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "validate_jacobi", lambda b: 1)
        corpus_module._built.cache_clear()
        try:
            for _ in range(2):
                with pytest.raises(AssertionError, match="Jacobi"):
                    corpus("milnor_heis")
        finally:
            corpus_module._built.cache_clear()
