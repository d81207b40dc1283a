"""qposc: spectra and pairwise level degeneracies of (q, p)-deformed oscillators.

The package evaluates deformed brackets and energy levels, traces the
curves in the (q, p) unit square on which two prescribed levels coincide,
reduces the two-parameter model to one-parameter families p = f(q), solves
for the deformation value realizing a prescribed degeneracy inside a
family, profiles the spectrum shape, and computes the asymptotic
two-particle correlation intercept.  The qposc CLI emits all of it as
deterministic CSV tables.
"""

__version__ = "0.1.0"

import importlib

from .errors import ConsistencyError, DomainError

# Each public name and the submodule that defines it.  Names other than the
# error types are imported on first access (PEP 562), so a process loads only
# the submodules it uses; __all__ keeps this table's order.
_HOME = {name: module for module, names in (
    ("core", "EPS_EQUAL"),
    ("errors", "DomainError ConsistencyError"),
    ("core", "DeformationPoint FockRep qp_bracket qp_bracket_int energy_level "
             "energy_spectrum energy_iter fock_rep fock_residuals"),
    ("degeneracy", "DegeneracyCondition CurvePoint CurveTrace residual solve_p_for_q "
                   "implicit_derivative endpoint_q trace_curve"),
    ("families", "ReductionFamily PowerFamily LogFamily ExpFamily CustomFamily FamilyReport "
                 "family_p validate_family solve_degeneracy_on_family family_energy "
                 "parse_family"),
    ("spectrum", "SpectrumProfile profile peak_level"),
    ("intercept", "InterceptCurve asymptotic_intercept intercept_curve"),
) for name in names.split()}
_SUBMODULES = {*_HOME.values(), "cli"}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _SUBMODULES:  # importing binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
