"""The public API: the names exported by qposc.__all__, and what importing
the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(*argv):
    """Run sys.executable in a new process with the source tree on its path,
    so nothing the test session already imported (numpy) leaks into it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          check=True)


def test_import_leaves_numpy_unloaded():
    # numpy is needed only by fock_rep / fock_residuals, which import it on
    # their first call; only modules the import itself loaded are counted
    loaded = run_fresh("-c", "import sys; before = set(sys.modules); "
                       "import qposc, qposc.cli; "
                       "print(*(set(sys.modules) - before))").stdout.decode().split()
    assert "qposc.cli" in loaded
    assert not [name for name in loaded if name.split(".")[0] == "numpy"]


def test_fock_in_a_fresh_process_matches_readme():
    out = run_fresh("-m", "qposc.cli", "fock", "--dim", "8", "--q", "0.5", "--p", "0.25")
    assert out.stdout == (Path(__file__).parent / "readme_cli" / "fock.csv").read_bytes()


README_CLI = Path(__file__).parent / "readme_cli"
README_ARGV = dict((name, argv) for name, *argv in
                   map(str.split, (README_CLI / "examples.txt").read_text().splitlines()))
# qposc's main on the arguments after -c, with every import of numpy failing
WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                 "from qposc.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("name", sorted(set(README_ARGV) - {"fock"}))
def test_numpy_free_readme_examples_run_without_numpy(name):
    out = run_fresh("-c", WITHOUT_NUMPY, *README_ARGV[name])
    assert out.stdout == (README_CLI / f"{name}.csv").read_bytes()


def test_fock_fails_without_numpy():
    # shows that the block above takes effect
    with pytest.raises(subprocess.CalledProcessError) as exc:
        run_fresh("-c", WITHOUT_NUMPY, *README_ARGV["fock"])
    assert exc.value.stdout == b""
    assert b"numpy" in exc.value.stderr
