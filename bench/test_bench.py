"""Tests of the benchmark itself: seeded inputs, the oracle checks and the
result format.  Run with `python3 -m pytest bench` from the repository root.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path and imports qposc)
import workloads  # noqa: E402

import qposc  # noqa: E402


def output(op):
    """The worker's recorded summary of one operation, computed in-process."""
    call = worker._cli_in_process if op["kind"] == "cli" else worker.CALLS[op["kind"]]
    return worker.SUMMARIES[op["kind"]](op, call(op))


def ok(op, out):
    return oracle.check(op, out)[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    pool, defects, _ = workloads.generate(workload, 7)
    other, other_defects, _ = workloads.generate(workload, 8)
    assert pool != other
    assert defects == other_defects == [] or defects != other_defects


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_have_the_same_slots_for_every_seed(workload):
    def kinds(seed):
        pool, _, _ = workloads.generate(workload, seed)
        return [sorted(op["kind"] if op["kind"] != "cli" else op["argv"][0] for op in r)
                for r in pool]

    assert kinds(1) == kinds(2)


def test_strata_draw_once_from_each_part():
    import random

    values = workloads._strata(random.Random(1), 2.0, 4.0, 8)
    assert sorted(int((v - 2.0) / 0.25) for v in values) == list(range(8))
    assert sorted(workloads._int_strata(random.Random(1), 3, 10, 8)) == list(range(3, 11))


def test_pool_cost_hardly_depends_on_the_seed():
    def spectra_levels(seed):
        pool, _, _ = workloads.generate("spectra", seed)
        return sum(op.get("n_max", 0) ** 2 for r in pool for op in r)

    def curves_m2(seed):
        pool, _, _ = workloads.generate("curves", seed)
        return sum(op["m2"] for r in pool for op in r if op["kind"] == "trace")

    for cost in (spectra_levels, curves_m2):
        costs = [cost(seed) for seed in range(1, 11)]
        assert max(costs) / min(costs) < 1.05, costs


def test_score_takes_the_median_pass_in_nominal_time():
    # two slots, three passes; the reference runs at half the nominal speed
    # in the second pass, and slot 0/1 returned a wrong answer
    ref = 1000
    attempts = [[0, 0, 10, None, True, ref], [0, 1, 30, None, True, ref],
                [0, 0, 40, None, True, 2 * ref], [0, 1, 60, None, True, 2 * ref],
                [0, 0, 11, None, True, ref], [0, 1, 31, None, True, ref]]
    verdicts = {"0/0": (True, 0.0, ""), "0/1": (False, 1.0, "wrong")}
    fig = run.score(attempts, verdicts, nominal_ns=ref)
    assert fig["ok_lat_ms"] == [11 / 1e6]
    assert fig["wall_ok_lat_ms"] == [11 / 1e6]
    assert fig["ok_per_s"] == pytest.approx(1 / ((11 + 30) / 1e9))
    assert (fig["attempted"], fig["failed"], fig["wrong"], fig["passes"]) == (6, 3, 3, 3)


def test_timed_inputs_stay_clear_of_the_known_defects():
    pool, defects, _ = workloads.generate("curves", 3)
    for op in (op for r in pool for op in r if op["kind"] == "trace"):
        assert workloads.trace_is_timed(op["m1"], op["m2"])
    for op in defects:
        if op["kind"] == "trace":
            assert not workloads.trace_is_timed(op["m1"], op["m2"])
    pool, defects, _ = workloads.generate("spectra", 3)
    for op in (op for r in pool for op in r if op["kind"] == "peak"):
        f, _ = workloads.family_fn(op["family"])
        assert workloads.peak_estimate(op["q"], f(op["q"])) <= 8_500
    assert all(op["kind"] == "peak" for op in defects)


def _perturbed(out, path, change):
    bad = copy.deepcopy(out)
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = change(target[path[-1]])
    return bad


CASES = [
    ({"kind": "trace", "m1": 0, "m2": 3, "samples": 12}, ("samples", 5, 1), lambda p: p + 1e-6),
    ({"kind": "trace", "m1": 2, "m2": 7, "samples": 12}, ("samples", 6, 1), lambda p: p + 1e-6),
    ({"kind": "trace", "m1": 2, "m2": 7, "samples": 12}, ("samples", 6, 2), lambda s: s * 1.001),
    ({"kind": "solve_p", "m1": 3, "m2": 4, "q": 0.4}, ("p",), lambda p: p + 1e-6),
    ({"kind": "solve_p", "m1": 3, "m2": 4, "q": 0.4}, ("p",), lambda p: None),
    ({"kind": "slope", "m1": 0, "m2": 5, "q": 0.3}, ("slope",), lambda s: s * (1 + 1e-5)),
    ({"kind": "endpoint", "m1": 0, "m2": 9}, ("q",), lambda q: q + 1e-9),
    ({"kind": "family", "family": "power:2.5", "m1": 0, "m2": 5, "samples": 1001},
     ("q",), lambda q: q + 1e-6),
    ({"kind": "family", "family": "power:2.5", "m1": 0, "m2": 5, "samples": 1001},
     ("e2",), lambda e: e * (1 + 1e-9)),
    ({"kind": "family", "family": "log:6.05", "m1": 0, "m2": 5, "samples": 1001},
     ("q",), lambda q: None),
    ({"kind": "family", "family": "exp:0.5", "m1": 0, "m2": 2, "samples": 1001},
     ("samples", 3, 2), lambda lam: lam + 1e-9),
    ({"kind": "spectrum", "n_max": 50, "q": 0.9, "p": 0.95}, ("energies", 17),
     lambda e: e * (1 + 1e-9)),
    ({"kind": "profile", "family": "exp:0.5", "q": 0.9, "n_max": 60}, ("peak",), lambda n: n + 3),
    ({"kind": "profile", "family": "exp:0.5", "q": 0.9, "n_max": 60}, ("energies", 40),
     lambda e: e * (1 + 1e-9)),
    ({"kind": "fock", "dim": 40, "q": 0.6, "p": 0.8}, ("residuals", 0), lambda r: 1e-6),
    ({"kind": "fock", "dim": 40, "q": 0.6, "p": 0.8}, ("super", 20), lambda a: a * (1 + 1e-9)),
    ({"kind": "peak", "family": "exp:0.5", "q": 0.99}, ("n",), lambda n: n + 3),
]


@pytest.mark.parametrize("op, path, change", CASES,
                         ids=[f"{c[0]['kind']}-{'.'.join(map(str, c[1]))}" for c in CASES])
def test_checker_accepts_the_answer_and_rejects_a_perturbed_one(op, path, change):
    out = output(op)
    assert ok(op, out), oracle.check(op, out)
    assert not ok(op, _perturbed(out, path, change))


def _replace_cell(text, row, col, change):
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cells[col] = change(cells[col])
    lines[data[row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


CLI_CASES = [
    (["curve", "--levels", "1,4", "--samples", "9"], 4, 1, lambda v: repr(float(v) + 1e-6)),
    (["solve", "--levels", "0,2", "--family", "power:1"], 0, 0, lambda v: repr(float(v) + 1e-6)),
    (["spectrum", "--family", "exp:0.5", "--q", "0.9", "--n-max", "30"], 10, 1,
     lambda v: repr(float(v) * (1 + 1e-8))),
    (["intercept", "--family", "log:2", "--samples", "21"], 7, 1, lambda v: repr(float(v) + 1e-9)),
    (["fock", "--dim", "12", "--q", "0.5", "--p", "0.25"], 1, 1, lambda v: "1e-6"),
]


@pytest.mark.parametrize("argv, row, col, change", CLI_CASES, ids=[c[0][0] for c in CLI_CASES])
def test_cli_checker_accepts_the_table_and_rejects_a_perturbed_row(argv, row, col, change):
    op = {"kind": "cli", "argv": argv}
    out = output(op)
    assert ok(op, out), oracle.check(op, out)
    assert not ok(op, dict(out, stdout=_replace_cell(out["stdout"], row, col, change)))
    assert not ok(op, dict(out, code=3))


def test_known_defects_fail_at_the_oracle():
    op = {"kind": "solve_p", "m1": 12, "m2": 13, "q": 1 / 33}
    assert not ok(op, {"p": None})
    assert ok(op, {"p": 1.0})


def test_tracer_nests_internal_calls_and_restores_the_library():
    original = qposc.degeneracy.solve_p_for_q
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        tracer.begin_op("trace")
        qposc.trace_curve(qposc.DegeneracyCondition(0, 3), 6)
        tracer.end_op(None)
    finally:
        tracing.uninstall(patches)
    assert qposc.degeneracy.solve_p_for_q is original
    names = [s[1] for s in tracer.spans]
    assert names[:2] == ["op.trace", "degeneracy.trace_curve"]
    assert names.count("degeneracy.solve_p_for_q") == 4  # interior samples only
    assert all(s[0] == 1 for s in tracer.spans if s[1] == "degeneracy.solve_p_for_q")
    layers = tracer.layer_metrics()
    assert layers["degeneracy.samples"] == (6, "count")
    assert layers["degeneracy.solve_p_for_q.calls"] == (4, "count")
    assert 0 < layers["degeneracy.self_s"][0] <= layers["degeneracy.trace_curve.busy_s"][0]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_the_declared_metrics(trace, section):
    proc = _run(ROOT, "--workload", "curves", "--seed", "1", "--seconds", "0.5",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "curves", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
