"""The public API: the names exported by qposc.__all__."""

import qposc

PUBLIC_NAMES = {
    "__version__", "EPS_EQUAL",
    "DomainError", "ConsistencyError",
    "DeformationPoint", "FockRep",
    "qp_bracket", "qp_bracket_int", "energy_level", "energy_spectrum",
    "energy_iter", "fock_rep", "fock_residuals",
    "DegeneracyCondition", "CurvePoint", "CurveTrace",
    "residual", "solve_p_for_q", "implicit_derivative", "endpoint_q",
    "trace_curve",
    "ReductionFamily", "PowerFamily", "LogFamily", "ExpFamily",
    "CustomFamily", "FamilyReport", "family_p", "validate_family",
    "solve_degeneracy_on_family", "family_energy", "parse_family",
    "SpectrumProfile", "profile", "peak_level",
    "InterceptCurve", "asymptotic_intercept", "intercept_curve",
}


def test_exported_names_are_pinned():
    assert sorted(qposc.__all__) == sorted(PUBLIC_NAMES)
    assert all(hasattr(qposc, name) for name in qposc.__all__)
