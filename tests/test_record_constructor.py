"""The one record constructor, errors.Record's: each record takes its fields
once, by position or by name, and a call that does not give every field
exactly once is a TypeError, as for any function."""

import numpy as np
import pytest

from qposc import FockRep
from test_records import BY_VALUE

A = np.diag([1.0], 1)
CASES = [(cls, names, values) for cls, names, values, _ in BY_VALUE]
CASES.append((FockRep, ("dim", "a_matrix", "a_dagger_matrix", "n_matrix"),
              (2, A, A.T.copy(), np.diag([0.0, 1.0]))))
ids = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize(("cls", "names", "values"), CASES, ids=ids)
def test_a_missing_field_is_a_type_error(cls, names, values):
    # only the second field: FamilyReport defaults its last three
    with pytest.raises(TypeError):
        cls(*values[:1])
    with pytest.raises(TypeError):
        cls(**dict(zip(names[1:], values[1:])))


@pytest.mark.parametrize(("cls", "names", "values"), CASES, ids=ids)
def test_an_unknown_keyword_is_a_type_error(cls, names, values):
    with pytest.raises(TypeError):
        cls(*values, extra=1)
    with pytest.raises(TypeError):
        cls(**dict(zip(names, values)), extra=1)


@pytest.mark.parametrize(("cls", "names", "values"), CASES, ids=ids)
def test_a_field_given_by_position_and_by_name_is_a_type_error(cls, names, values):
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values[:1], **dict(zip(names, values)))


@pytest.mark.parametrize(("cls", "names", "values"), CASES, ids=ids)
def test_one_positional_argument_too_many_is_a_type_error(cls, names, values):
    with pytest.raises(TypeError):
        cls(*values, values[0])


@pytest.mark.parametrize(("cls", "names", "values"), CASES, ids=ids)
def test_keywords_in_any_order_equal_positions(cls, names, values):
    by_position = cls(*values)
    for order in (names[::-1], names[1:] + names[:1]):
        by_name = cls(**{name: values[names.index(name)] for name in order})
        assert all(getattr(by_name, name) is getattr(by_position, name) for name in names)
        if cls is not FockRep:  # FockRep compares by identity
            assert by_name == by_position
