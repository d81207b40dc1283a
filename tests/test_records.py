"""The public records: repr, construction, equality, hashing, immutability,
pickling and copying, record by record."""

import copy
import pickle

import numpy as np
import pytest

from qposc import (CurvePoint, CurveTrace, DeformationPoint, DegeneracyCondition,
                   ExpFamily, FamilyReport, FockRep, InterceptCurve, PowerFamily,
                   SpectrumProfile)

CONDITION = DegeneracyCondition(0, 2)
SAMPLES = (CurvePoint(0.0, 0.5, -1.0), CurvePoint(0.5, 0.0, float("-inf")))

# (class, field names, field values, repr) for every record compared by value
BY_VALUE = [
    (DeformationPoint, ("q", "p"), (0.5, 0.25), "DeformationPoint(q=0.5, p=0.25)"),
    (DegeneracyCondition, ("m1", "m2"), (0, 2), "DegeneracyCondition(m1=0, m2=2)"),
    (CurveTrace, ("condition", "samples"), (CONDITION, SAMPLES),
     "CurveTrace(condition=DegeneracyCondition(m1=0, m2=2), "
     "samples=(CurvePoint(q=0.0, p=0.5, dpdq=-1.0), CurvePoint(q=0.5, p=0.0, dpdq=-inf)))"),
    (FamilyReport, ("passed", "endpoint_value", "violations", "n_violations", "notes"),
     (False, 0.5, [(1.0, "f(1) = 0.5, expected 1")], 1, ["a note"]),
     "FamilyReport(passed=False, endpoint_value=0.5, "
     "violations=[(1.0, 'f(1) = 0.5, expected 1')], n_violations=1, notes=['a note'])"),
    (InterceptCurve, ("family", "samples", "extrapolated"),
     (ExpFamily(0.5), ((0.0, -0.39), (1.0, 1.0)), False),
     "InterceptCurve(family=ExpFamily('exp:0.5'), samples=((0.0, -0.39), (1.0, 1.0)), "
     "extrapolated=False)"),
    (SpectrumProfile, ("family", "q", "energies", "peak_index", "tail_bound",
                       "decay_violations"),
     (PowerFamily(2), 0.5, (0.5, 1.0, 0.75), 1, 0.75, ()),
     "SpectrumProfile(family=PowerFamily('power:2'), q=0.5, energies=(0.5, 1.0, 0.75), "
     "peak_index=1, tail_bound=0.75, decay_violations=())"),
]
FROZEN = [case for case in BY_VALUE if case[0] is not FamilyReport]
ids = [case[0].__name__ for case in BY_VALUE]
frozen_ids = [case[0].__name__ for case in FROZEN]


@pytest.mark.parametrize(("cls", "names", "values", "text"), BY_VALUE, ids=ids)
def test_repr_names_every_field_in_order(cls, names, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize(("cls", "names", "values", "text"), BY_VALUE, ids=ids)
def test_positional_and_keyword_construction_agree(cls, names, values, text):
    by_position, by_name = cls(*values), cls(**dict(zip(names, values)))
    assert by_position == by_name
    assert tuple(getattr(by_name, name) for name in names) == values
    assert cls.__match_args__ == names


@pytest.mark.parametrize(("cls", "names", "values", "text"), FROZEN, ids=frozen_ids)
def test_equal_records_compare_and_hash_equal(cls, names, values, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(("cls", "names", "values", "text"), BY_VALUE, ids=ids)
def test_a_record_never_equals_a_tuple_of_its_values(cls, names, values, text):
    record = cls(*values)
    assert record != values and not record == values
    assert values != record


def test_records_differ_by_field_and_by_class():
    assert DeformationPoint(0.5, 0.25) != DeformationPoint(0.25, 0.5)
    assert DegeneracyCondition(0, 2) != DegeneracyCondition(0, 3)
    assert CurveTrace(CONDITION, SAMPLES) != CurveTrace(CONDITION, SAMPLES[:1])
    assert DeformationPoint(0.0, 1.0) != CurvePoint(0.0, 1.0, 0.0)


@pytest.mark.parametrize(("cls", "names", "values", "text"), FROZEN, ids=frozen_ids)
def test_frozen_record_fields_cannot_be_assigned_or_deleted(cls, names, values, text):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values


ROUND_TRIPS = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize(("cls", "names", "values", "text"), BY_VALUE, ids=ids)
def test_round_trips_compare_equal(cls, names, values, text, how):
    record = cls(*values)
    again = ROUND_TRIPS[how](record)
    assert type(again) is cls
    assert again == record
    assert repr(again) == text


def test_family_report_is_mutable_with_fresh_default_lists():
    a, b = FamilyReport(True, 1.0), FamilyReport(passed=True, endpoint_value=1.0)
    assert (a.violations, a.n_violations, a.notes) == ([], 0, [])
    assert a.violations is not b.violations and a.notes is not b.notes
    a.notes.append("x")
    a.n_violations = 3
    assert b.notes == [] and b.n_violations == 0
    assert a != b
    with pytest.raises(TypeError):
        hash(a)


def test_family_report_deepcopy_does_not_share_lists():
    report = FamilyReport(False, 0.5, [(0.5, "bad")], 1, ["note"])
    again = copy.deepcopy(report)
    assert again == report and again.violations is not report.violations


def test_a_field_beyond_the_float_range_is_shown_by_its_leading_digits():
    # str(10**5000) exceeds Python's int-to-str digit limit
    report = FamilyReport(False, 10 ** 5000, notes=["a note"])
    assert repr(report) == ("FamilyReport(passed=False, endpoint_value=1e+5000, "
                            "violations=[], n_violations=0, notes=['a note'])")
    assert repr(DegeneracyCondition(0, 2 ** 40)) == "DegeneracyCondition(m1=0, m2=1099511627776)"


def fock_fields(rep):
    return rep.dim, rep.a_matrix, rep.a_dagger_matrix, rep.n_matrix


def small_fock():
    a = np.diag([1.0, 1.25], 1)
    return 3, a, a.T.copy(), np.diag([0.0, 1.0, 2.0])


def test_fock_rep_repr_and_construction():
    dim, a, ad, n = small_fock()
    rep = FockRep(dim, a, ad, n)
    assert repr(rep) == f"FockRep(dim=3, a_matrix={a!r}, a_dagger_matrix={ad!r}, n_matrix={n!r})"
    by_name = FockRep(dim=dim, a_matrix=a, a_dagger_matrix=ad, n_matrix=n)
    assert all(x is y for x, y in zip(fock_fields(by_name), (dim, a, ad, n)))
    assert FockRep.__match_args__ == ("dim", "a_matrix", "a_dagger_matrix", "n_matrix")


def test_fock_rep_compares_by_identity_and_hashes():
    fields = small_fock()
    rep, twin = FockRep(*fields), FockRep(*fields)
    assert rep == rep and rep != twin and not rep == twin
    assert rep != fields
    assert hash(rep) == hash(rep)
    assert len({rep, twin, rep}) == 2


def test_fock_rep_is_frozen():
    rep = FockRep(*small_fock())
    for name in ("dim", "a_matrix", "a_dagger_matrix", "n_matrix"):
        with pytest.raises(AttributeError):
            setattr(rep, name, None)
        with pytest.raises(AttributeError):
            delattr(rep, name)


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_fock_rep_round_trips_keep_every_field(how):
    rep = FockRep(*small_fock())
    again = ROUND_TRIPS[how](rep)
    assert type(again) is FockRep and again.dim == rep.dim
    for got, want in zip(fock_fields(again)[1:], fock_fields(rep)[1:]):
        np.testing.assert_array_equal(got, want)
