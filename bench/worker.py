"""The workload process: import qposc, build the inputs, warm up, then run a
closed loop (one client, each call issued after the previous returns) over
the pool: one whole pass, then whole rounds until the time is up.

run.py starts this in a fresh interpreter and reads the one JSON document it
prints.  `--setup-only` stops after warm-up.  `--trace 1` runs the loop
twice from the start of the pool, first untraced and then with spans around
every public qposc call, and adds the per-layer figures.
"""

import time

from reference import reference_ns, reference_process_ns

SETUP_REF_RUNS = 3
_SETUP_REF_BEFORE_NS = reference_ns(SETUP_REF_RUNS)
_T0 = time.perf_counter()  # setup_s counts from here: imports, inputs, warm-up

import argparse
import contextlib
import functools
import hashlib
import io
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402  (after the path set-up, inside setup_s)

import qposc  # noqa: E402
import qposc.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI_TIMEOUT_S = 60


def _cond(op):
    return qposc.DegeneracyCondition(op["m1"], op["m2"])


def _slope(op):
    cond = _cond(op)
    p = qposc.solve_p_for_q(cond, op["q"])
    if p is None:
        return None, None
    return p, qposc.implicit_derivative(cond, qposc.DeformationPoint(op["q"], p))


def _family(op):
    fam = qposc.parse_family(op["family"])
    report = qposc.validate_family(fam)
    cond = _cond(op)
    q = qposc.solve_degeneracy_on_family(fam, cond)
    energies = None
    if q is not None:
        energies = (qposc.family_energy(fam, cond.m1, q), qposc.family_energy(fam, cond.m2, q))
    curve = qposc.intercept_curve(fam, op["samples"])
    return fam, report, q, energies, curve


def _fock(op):
    point = qposc.DeformationPoint(op["q"], op["p"])
    rep = qposc.fock_rep(op["dim"], point)
    return rep, qposc.fock_residuals(rep, point)


def _profile(op):
    fam = qposc.parse_family(op["family"])
    return fam, qposc.profile(fam, op["q"], op["n_max"])


def _cli_subprocess(op):
    proc = subprocess.run([sys.executable, "-m", "qposc.cli", *op["argv"]], cwd=ROOT,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def _cli_in_process(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qposc.cli.main(op["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


CALLS = {
    "trace": lambda op: qposc.trace_curve(_cond(op), op["samples"]),
    "solve_p": lambda op: qposc.solve_p_for_q(_cond(op), op["q"]),
    "slope": _slope,
    "endpoint": lambda op: qposc.endpoint_q(_cond(op)),
    "family": _family,
    "spectrum": lambda op: qposc.energy_spectrum(
        op["n_max"], qposc.DeformationPoint(op["q"], op["p"])),
    "profile": _profile,
    "fock": _fock,
    "peak": lambda op: qposc.peak_level(qposc.parse_family(op["family"]), op["q"]),
    "cli": _cli_subprocess,
}


def _summary_family(op, result):
    fam, report, q, energies, curve = result
    n = len(curve.samples)
    picks = sorted(set(range(0, n, 100)) | {n - 1})
    return {"passed": report.passed, "n_violations": report.n_violations,
            "domain_low": fam.domain_low, "q": q,
            "p": None if q is None else qposc.family_p(fam, q),
            "e1": None if energies is None else energies[0],
            "e2": None if energies is None else energies[1],
            "n_samples": n, "samples": [[i, *curve.samples[i]] for i in picks]}


def _summary_fock(op, result):
    rep, residuals = result
    a = rep.a_matrix
    sup = np.diag(a, 1)
    structure = (rep.dim == op["dim"] and np.array_equal(rep.a_dagger_matrix, a.T)
                 and np.array_equal(rep.n_matrix, np.diag(np.arange(rep.dim, dtype=float)))
                 and np.count_nonzero(a) == np.count_nonzero(sup))
    return {"structure": bool(structure), "super": sup.tolist(),
            "residuals": [float(r) for r in residuals]}


def _summary_profile(op, result):
    fam, prof = result
    return {"energies": list(prof.energies), "peak": prof.peak_index,
            "tail": prof.tail_bound, "violations": list(prof.decay_violations),
            "p": qposc.family_p(fam, op["q"])}


SUMMARIES = {
    "trace": lambda op, r: {"samples": [list(s) for s in r.samples]},
    "solve_p": lambda op, r: {"p": r},
    "slope": lambda op, r: {"p": r[0], "slope": r[1]},
    "endpoint": lambda op, r: {"q": r},
    "family": _summary_family,
    "spectrum": lambda op, r: {"energies": list(r)},
    "profile": _summary_profile,
    "fock": _summary_fock,
    "peak": lambda op, r: {"n": r},
    "cli": lambda op, r: {"code": r[0], "stdout": r[1], "stderr": r[2]},
}


def _attempt(call, op, tracer):
    """(result, error, latency_ns) of one operation."""
    if tracer is not None:
        tracer.begin_op(op["kind"])
    t = time.perf_counter_ns()
    try:
        result, error = call(op), None
    except Exception as exc:  # a failed operation is recorded and the loop goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter_ns() - t
    if tracer is not None:
        tracer.end_op(error)
    return result, error, dt


def _call(op, in_process):
    if op["kind"] == "cli" and in_process:
        return _cli_in_process(op)
    return CALLS[op["kind"]](op)


class Outputs:
    """First output of every pool slot, written to a JSON-lines file as it
    arrives; only a digest stays in memory, so peak memory does not grow
    with the number of operations run."""

    def __init__(self, fh):
        self.fh = fh
        self.digests = {}

    def record(self, key, summary):
        """Store the first output of a slot; True if it matches the first."""
        text = json.dumps(summary)
        digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
        if key in self.digests:
            return self.digests[key] == digest
        self.digests[key] = digest
        self.fh.write(f'{{"key": "{key}", "out": {text}}}\n')
        return True


def run_loop(pool, seconds, outputs, in_process=False, tracer=None, per_round=False):
    """Run the whole pool once, then cycle its rounds until `seconds` have
    passed, so every operation is timed at least once.

    The reference loop is timed before the first operation and after each
    one, or, with per_round (for CLI processes), the reference process
    before the first round and after each round.  Returns attempts as [round, slot,
    latency_ns, error, same_as_first, ref_ns], ref_ns being the mean of the
    reference timings just before and just after the operation (or its
    round); outputs records the output of each operation that returned."""
    ref = reference_process_ns if per_round else reference_ns
    call = functools.partial(_call, in_process=in_process)
    attempts = []
    start = time.perf_counter()
    ref_before = ref()
    r = 0
    while r < len(pool) or time.perf_counter() - start < seconds:
        ri = r % len(pool)
        pending = []
        for j, op in enumerate(pool[ri]):
            result, error, dt = _attempt(call, op, tracer)
            same = True
            if error is None:
                same = outputs.record(f"{ri}/{j}", SUMMARIES[op["kind"]](op, result))
            pending.append([ri, j, dt, error, same])
            if not per_round or j == len(pool[ri]) - 1:
                ref_after = ref()
                attempts += [a + [(ref_before + ref_after) / 2] for a in pending]
                pending, ref_before = [], ref_after
        r += 1
    return attempts


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--outputs", help="JSON-lines file for the operations' outputs")
    parser.add_argument("--spans", help="file for the spans of the traced loop")
    args = parser.parse_args()

    pool, defects, warmup = workloads.generate(args.workload, args.seed)
    for op in warmup:
        SUMMARIES[op["kind"]](op, _call(op, in_process=False))
        if op["kind"] == "cli":
            _cli_in_process(op)
    setup_s = time.perf_counter() - _T0
    # the reference timed just before and just after set-up
    doc = {"setup_s": setup_s,
           "setup_ref_ns": (_SETUP_REF_BEFORE_NS + reference_ns(SETUP_REF_RUNS)) / 2}
    if args.setup_only:
        print(json.dumps(doc))
        return

    # the traced run splits its time between an untraced and a traced loop,
    # calls the CLI's main() in-process, and reports no percentiles
    in_process = bool(args.trace)
    processes = args.workload == "cli" and not in_process
    seconds = args.seconds / 2 if args.trace else args.seconds
    with open(args.outputs, "w") as fh:
        outputs = Outputs(fh)
        doc["attempts"] = run_loop(pool, seconds, outputs, in_process, per_round=processes)
        doc["ref"] = "process" if processes else "loop"
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if processes else resource.RUSAGE_SELF)
        doc["peak_rss_kb"] = usage.ru_maxrss
        if args.trace:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                doc["traced_attempts"] = run_loop(pool, seconds, outputs, in_process, tracer)
            finally:
                tracing.uninstall(patches)
            doc["layers"] = tracer.layer_metrics()
            tracer.write(args.spans)

    doc["defects"] = []
    for j, op in enumerate(defects):
        result, error, dt = _attempt(CALLS[op["kind"]], op, None)
        summary = None if error is not None else SUMMARIES[op["kind"]](op, result)
        doc["defects"].append({"slot": j, "latency_ns": dt, "error": error, "output": summary})
    doc["numpy"] = np.__version__
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
