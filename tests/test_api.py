"""The public API: the names exported by qposc.__all__, and what importing
the package loads."""

import ast
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


@pytest.mark.parametrize("name", sorted(README_ARGV))
def test_numpy_free_readme_examples_run_without_numpy(name):
    out = run_fresh("-c", WITHOUT_NUMPY, *README_ARGV[name])
    assert out.stdout == (README_CLI / f"{name}.csv").read_bytes()


def test_fock_fails_without_numpy():
    # shows that the block above takes effect: the library's fock_rep needs numpy
    with pytest.raises(subprocess.CalledProcessError) as exc:
        run_fresh("-c", "import sys; sys.modules['numpy'] = None; import qposc; "
                  "pt = qposc.DeformationPoint(0.5, 0.25); "
                  "print(qposc.fock_residuals(qposc.fock_rep(8, pt), pt))")
    assert exc.value.stdout == b""
    assert b"numpy" in exc.value.stderr


def loaded_after(code):
    """The qposc and numpy modules loaded by a fresh process running code."""
    out = run_fresh("-c", f"import sys\n{code}\nprint(*sorted(sys.modules))")
    return {name for name in out.stdout.decode().split()
            if name.split(".")[0] in ("qposc", "numpy")}


CLI = {"qposc", "qposc.cli", "qposc.errors"}
SUBCOMMAND_MODULES = {
    "curve": CLI | {"qposc.degeneracy"},
    "fock": CLI | {"qposc.core"},
    "solve_power": CLI | {"qposc.core", "qposc.degeneracy", "qposc.families"},
    "solve_log": CLI | {"qposc.core", "qposc.degeneracy", "qposc.families"},
    "solve_exp": CLI | {"qposc.core", "qposc.degeneracy", "qposc.families"},
    "spectrum": CLI | {"qposc.core", "qposc.degeneracy", "qposc.families",
                       "qposc.spectrum"},
    "intercept": CLI | {"qposc.core", "qposc.degeneracy", "qposc.families",
                        "qposc.intercept"},
    "spectrum_peak": CLI | {"qposc.core", "qposc.degeneracy", "qposc.families",
                            "qposc.spectrum"},
    "fock_large": CLI | {"qposc.core"},
}


@pytest.mark.parametrize("name", sorted(README_ARGV))
def test_subcommand_loads_only_what_it_runs(name):
    argv = [*README_ARGV[name], "--out", os.devnull]
    assert loaded_after(f"from qposc.cli import main\nmain({argv!r})") \
        == SUBCOMMAND_MODULES[name]


@pytest.mark.parametrize("name", ["curve", "solve_power", "solve_log"])
def test_residual_loads_neither_fractions_nor_decimal(name):
    # F is exact in plain ints; fractions would import decimal, about 3.5 ms
    argv = [*README_ARGV[name], "--out", os.devnull]
    out = run_fresh("-c", f"import sys\nfrom qposc.cli import main\nmain({argv!r})\n"
                    "print(*sorted(sys.modules))")
    assert not {"fractions", "decimal", "_decimal"} & set(out.stdout.decode().split())


@pytest.mark.parametrize("name", sorted(README_ARGV))
def test_subcommand_loads_neither_dataclasses_nor_inspect(name):
    # records are plain classes: dataclasses would import inspect and
    # generate code for each record at start-up
    argv = [*README_ARGV[name], "--out", os.devnull]
    out = run_fresh("-c", f"import sys\nbefore = set(sys.modules)\n"
                    f"from qposc.cli import main\nmain({argv!r})\n"
                    "print(*sorted(set(sys.modules) - before))")
    assert not {"dataclasses", "inspect"} & set(out.stdout.decode().split())


def test_bare_import_loads_only_the_error_types():
    assert loaded_after("import qposc") == {"qposc", "qposc.errors"}


SUBMODULES = ("cli", "core", "degeneracy", "errors", "families", "intercept", "spectrum")


def test_lazy_names_resolve_to_their_home_module():
    # one fresh process: none of these names is resolved before the loop
    run_fresh("-c", f"""
import importlib, qposc
for name in {SUBMODULES!r}:
    assert getattr(qposc, name) is importlib.import_module("qposc." + name), name
for name in qposc.__all__[1:]:  # after __version__
    value = getattr(qposc, name)
    bound = [vars(getattr(qposc, mod))[name] for mod in {SUBMODULES!r}
             if name in vars(getattr(qposc, mod))]
    assert bound and all(other is value for other in bound), name
    home = getattr(value, "__module__", "qposc.core")  # EPS_EQUAL is a float
    assert value is getattr(importlib.import_module(home), name), name
""")


def test_star_import_binds_all_public_names():
    run_fresh("-c", "from qposc import *; import qposc\n"
              "assert all(globals()[name] is getattr(qposc, name) for name in qposc.__all__)")


def test_every_module_level_import_is_used():
    # an unused import is start-up time for every process that loads the
    # module; __init__ binds the error types only to re-export them
    reexported = {name for name, home in qposc._HOME.items() if home == "errors"}
    unused = {}
    for path in sorted((SRC / "qposc").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = imported - used - (reexported if path.name == "__init__.py" else set())
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}


def test_every_private_module_level_name_is_used():
    # a twin or a helper left behind by a consolidation fails here: every
    # private top-level function, class or constant is read somewhere in
    # the package outside its own definition
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((SRC / "qposc").glob("*.py"))}

    def reads(node):
        return ({sub.id for sub in ast.walk(node)
                 if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)}
                | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
                | {sub.name for sub in ast.walk(node) if isinstance(sub, ast.alias)})

    read_by = [(node, reads(node)) for tree in trees.values() for node in tree.body]
    unused = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_") or name.startswith("__") and name.endswith("__"):
                    continue
                if not any(name in seen for other, seen in read_by if other is not node):
                    unused.setdefault(module, []).append(name)
    assert unused == {}


def test_dir_lists_public_and_submodule_names():
    assert set(qposc.__all__) | set(SUBMODULES) <= set(dir(qposc))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        qposc.no_such_name  # noqa: B018


POINT = qposc.DeformationPoint(0.5, 0.25)
FAMILY = qposc.PowerFamily(2)
# every entry point that converts a real argument, fed a value beyond the float range
HUGE_REAL_CALLS = {
    "qp_bracket": lambda x: qposc.qp_bracket(x, POINT),
    "DeformationPoint.q": lambda x: qposc.DeformationPoint(x, 0.5),
    "DeformationPoint.p": lambda x: qposc.DeformationPoint(0.5, x),
    "solve_p_for_q": lambda x: qposc.solve_p_for_q(qposc.DegeneracyCondition(0, 2), x),
    "PowerFamily": qposc.PowerFamily,
    "LogFamily": qposc.LogFamily,
    "ExpFamily": qposc.ExpFamily,
    "CustomFamily.domain_low": lambda x: qposc.CustomFamily(lambda q: q, "id", domain_low=x),
    "family_p": lambda x: qposc.family_p(FAMILY, x),
    "family_energy": lambda x: qposc.family_energy(FAMILY, 2, x),
    "asymptotic_intercept": lambda x: qposc.asymptotic_intercept(FAMILY, x),
    "profile": lambda x: qposc.profile(FAMILY, x),
    "peak_level": lambda x: qposc.peak_level(FAMILY, x),
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", sorted(HUGE_REAL_CALLS))
def test_a_real_argument_beyond_the_float_range_is_a_domain_error(name, sign):
    with pytest.raises(qposc.DomainError, match="lies outside the float range"):
        HUGE_REAL_CALLS[name](sign * 10 ** 400)


# every entry point that takes an integer index or size, called with n
INDEX_CALLS = {
    "qp_bracket_int": lambda n: qposc.qp_bracket_int(n, POINT),
    "energy_level": lambda n: qposc.energy_level(n, POINT),
    "energy_spectrum": lambda n: qposc.energy_spectrum(n, POINT),
    "fock_rep": lambda n: qposc.fock_rep(n, POINT),
    "DegeneracyCondition": lambda n: qposc.DegeneracyCondition(0, n),
    "trace_curve": lambda n: qposc.trace_curve(qposc.DegeneracyCondition(0, 2), n),
    "intercept_curve": lambda n: qposc.intercept_curve(FAMILY, n),
    "profile": lambda n: qposc.profile(FAMILY, 0.5, n),
}


# Only values that the bound rejects: an admitted count near it, such as
# 2**62 samples, would run for ever.
@pytest.mark.parametrize("value", [True, 1.5, "3", -1, 2 ** 63, 10 ** 5000],
                         ids=["True", "1.5", "'3'", "-1", "2**63", "10**5000"])
@pytest.mark.parametrize("name", sorted(INDEX_CALLS))
def test_an_integer_argument_that_is_not_an_admitted_int_is_a_domain_error(name, value):
    with pytest.raises(qposc.DomainError, match=", got "):
        INDEX_CALLS[name](value)


@pytest.mark.parametrize("name", sorted(INDEX_CALLS))
def test_an_integer_argument_may_be_a_numpy_integer(name):
    np = pytest.importorskip("numpy")
    call = INDEX_CALLS[name]
    assert repr(call(np.int64(3))) == repr(call(3))  # FockRep compares by identity
