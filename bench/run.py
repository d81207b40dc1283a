"""Benchmark of the qposc library: one seeded workload, checked against an
mpmath oracle, reported as one JSON line.

    python3 bench/run.py --workload {curves,families,spectra,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
src/.  The load is a closed loop from one client process (worker.py), with
BLAS pinned to one thread and every process pinned to one vCPU, over a
fixed seeded pool of operations that is run once and then cycled until the
time is up.  Each operation's latency is its median over passes, in nominal
time: measured time scaled by a reference timed around it, which cancels the
shared host's swings in speed (see NOMINAL_REF_NS).  Set-up is repeated in
fresh processes and its median reported.  Outputs are checked outside the
timed region.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
The lines before it print every metric by name and unit, the environment and
the known-defect probes; the full record (environment, exact operation
arguments, per-operation verdicts) goes to .bench_out/.
"""

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7       # set-up samples per run: 6 set-up-only processes + the worker
IMPORT_RUNS = 5      # samples of each import-split figure in a traced run
TIME_LIMIT_S = 150   # for all worker processes of a run, leaving time to check
BLAS_THREADS = "1"
# Nominal durations of the references (reference.py): about their duration
# on one vCPU of the 2 GHz Xeon host the benchmark was written on, when that
# host was not slowed by its other tenants.  Shared hosts slow a process by
# up to 1.7x in spells that last longer than a run, so every time the
# benchmark reports is converted to nominal time, dt * nominal / ref_ns,
# with ref_ns the reference timed around that measurement: the time it
# takes on a host that runs the reference in its nominal time.  Wall-clock
# figures are printed alongside.
NOMINAL_REF_NS = {"loop": 550_000, "process": 160_000_000}

END_TO_END_UNITS = {"ok_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args, env, deadline):
    """Run worker.py and return its JSON document.  The worker gets its own
    process group, so a timeout also ends the CLI processes it started."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker ran past the run's time limit: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{err.strip()[-2000:]}")
    try:
        return json.loads(out.splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {out[-500:]!r}") from exc


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed):
    return {"executable": sys.executable, "python": platform.python_version(),
            "commit": commit(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "seed": seed}


def _ms_of(env, code):
    """Wall time of a fresh interpreter running `code`, and the in-process
    time it reports on stdout (if any), both in ms."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    wall = (time.perf_counter() - t) * 1e3
    return wall, float(proc.stdout) * 1e3 if proc.stdout.strip() else None


_TIMED_IMPORT = ("import time; t = time.perf_counter(); import {mod}; "
                 "print(time.perf_counter() - t)")


def import_split(env):
    """Interpreter start, import numpy and import qposc, each in fresh
    processes (median of IMPORT_RUNS), with the -X importtime figures of
    one more process as a cross-check."""
    start, numpy_ms, qposc_ms = [], [], []
    for _ in range(IMPORT_RUNS):
        start.append(_ms_of(env, "pass")[0])
        numpy_ms.append(_ms_of(env, _TIMED_IMPORT.format(mod="numpy"))[1])
        qposc_ms.append(_ms_of(env, _TIMED_IMPORT.format(mod="qposc"))[1])
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qposc"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if match:
            cumulative[match.group(2)] = int(match.group(1)) / 1e3
    return {"cli.interp_start_ms": statistics.median(start),
            "cli.import_numpy_ms": statistics.median(numpy_ms),
            "cli.import_qposc_ms": statistics.median(qposc_ms)}, \
        {"importtime_numpy_ms": cumulative.get("numpy"),
         "importtime_qposc_ms": cumulative.get("qposc")}


def _check(op, out):
    try:
        return oracle.check(op, out)
    except (KeyError, TypeError, ValueError, IndexError, ArithmeticError) as exc:
        return False, 0.0, f"malformed output: {type(exc).__name__}: {exc}"


def verify(pool, outputs):
    """Oracle verdict (ok, err, reason) for every slot that produced output."""
    verdicts = {}
    for key, out in outputs.items():
        ri, j = (int(v) for v in key.split("/"))
        verdicts[key] = _check(pool[ri][j], out)
    return verdicts


def score(attempts, verdicts, nominal_ns):
    """Loop figures of one phase, in nominal time (see NOMINAL_REF_NS) and,
    as a diagnostic, in wall time.

    Each operation of the pool is timed on every pass; its latency is the
    median over passes.  An operation is verified if every attempt returned
    the first output and that output passed the oracle.  ok_per_s is the
    verified operations of the pool over the summed latencies of all its
    operations, failed ones included."""
    nominal, wall, bad, failed, wrong = {}, {}, set(), 0, 0
    for ri, j, dt, error, same, ref in attempts:
        key = f"{ri}/{j}"
        nominal.setdefault(key, []).append(dt * nominal_ns / ref)
        wall.setdefault(key, []).append(dt)
        if error is not None or not same or not verdicts[key][0]:
            failed += 1
            wrong += error is None
            bad.add(key)
    figures = {"attempted": len(attempts), "failed": failed, "wrong": wrong,
               "passes": len(attempts) / len(wall) if wall else 0.0}
    for prefix, times in (("", nominal), ("wall_", wall)):
        lat = {key: statistics.median(v) / 1e6 for key, v in times.items()}
        ok_lat = [ms for key, ms in lat.items() if key not in bad]
        busy_s = sum(lat.values()) / 1e3
        figures[prefix + "ok_lat_ms"] = ok_lat
        figures[prefix + "ok_per_s"] = len(ok_lat) / busy_s if busy_s else 0.0
    figures["host_speed"] = nominal_ns / statistics.median(a[5] for a in attempts)
    return figures


def percentile_figures(lat):
    if len(lat) < 2:
        raise BenchError(f"only {len(lat)} verified operations; cannot report percentiles")
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    p90 = deciles[8]
    return statistics.median(lat), p90, sum(1 for x in lat if x > p90)


def check_defects(defects, results):
    rows = []
    for op, res in zip(defects, results):
        if res["error"] is not None:
            ok, reason = False, res["error"]
        else:
            ok, _, reason = _check(op, res["output"])
        rows.append({"op": op, "ok": ok, "reason": reason, "latency_ms": res["latency_ns"] / 1e6})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qposc" / "__init__.py").is_file():
        raise BenchError(f"no qposc sources under {ROOT / 'src'}; run from a source checkout")
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")

    # one vCPU for this process and every process it starts, so that the
    # reference and the CLI processes it is timed against run on the same one
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [run_worker(common + ["--setup-only"], env, deadline)
              for _ in range(SETUP_RUNS - 1)]
    outputs_path = OUT / f"outputs-{tag}.jsonl"
    worker_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--outputs", str(outputs_path), "--spans", str(OUT / f"spans-{tag}.json")]
    doc = run_worker(worker_args, env, deadline)
    setups.append(doc)
    loop_ns = NOMINAL_REF_NS["loop"]
    setup_s = statistics.median(d["setup_s"] * loop_ns / d["setup_ref_ns"] for d in setups)
    wall_setup_s = statistics.median(d["setup_s"] for d in setups)

    pool, defects, _ = workloads.generate(args.workload, args.seed)
    with open(outputs_path) as fh:
        outputs = dict((rec["key"], rec["out"]) for rec in map(json.loads, fh))
    verdicts = verify(pool, outputs)
    phase = score(doc["attempts"], verdicts, NOMINAL_REF_NS[doc["ref"]])
    defect_rows = check_defects(defects, doc["defects"])
    max_err = max((v[1] for v in verdicts.values()), default=0.0)
    p50, p90, beyond = percentile_figures(phase["ok_lat_ms"])
    metrics = {"ok_per_s": phase["ok_per_s"], "latency_p50_ms": p50, "latency_p90_ms": p90,
               "setup_s": setup_s, "peak_rss_mb": doc["peak_rss_kb"] / 1024}
    wall_p50, wall_p90, _ = percentile_figures(phase["wall_ok_lat_ms"])
    report = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    env_info = environment(args.seed)
    env_info["numpy"] = doc["numpy"]
    extra = {}
    attempted, failed, wrong = phase["attempted"], phase["failed"], phase["wrong"]
    if args.trace:
        traced = score(doc["traced_attempts"], verdicts, loop_ns)
        attempted += traced["attempted"]
        failed += traced["failed"]
        wrong += traced["wrong"]
        layers = dict(doc["layers"])
        split, extra = import_split(env)
        layers.update({name: (value, "ms") for name, value in split.items()})
        layers["trace.overhead_frac"] = (1.0 - traced["ok_per_s"] / phase["ok_per_s"], "frac")
        report = layers

    n_def = len(defect_rows)
    diagnostics = {"failed_frac": (failed / attempted, "frac"),
                   "host_speed": (phase["host_speed"], "x"),
                   "wall.ok_per_s": (phase["wall_ok_per_s"], "1/s"),
                   "wall.latency_p50_ms": (wall_p50, "ms"),
                   "wall.latency_p90_ms": (wall_p90, "ms"),
                   "wall.setup_s": (wall_setup_s, "s"),
                   "check.defect_failed_frac": (sum(not r["ok"] for r in defect_rows) / n_def
                                                if n_def else 0.0, "frac"),
                   "check.max_err": (max_err, "rel")}
    if args.trace:
        report.update({k: v for k, v in diagnostics.items() if k.startswith("check.")})

    rounds = sorted({a[0] for a in doc["attempts"] + doc.get("traced_attempts", [])})
    pool_ops = sum(map(len, pool))
    print(f"# qposc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in env_info.items():
        print(f"# env.{key}: {value}")
    for key, value in extra.items():
        print(f"# cross-check.{key}: {value}")
    print(f"# operations: attempted={attempted} failed={failed} wrong={wrong} "
          f"pool_rounds={len(pool)} pool_ops={pool_ops} passes={phase['passes']:.2f} "
          f"verified_beyond_p90={beyond}")
    if beyond < 10:
        print(f"# warning: only {beyond} verified samples beyond p90 (want >= 10)")
    for row in defect_rows:
        print(f"# defect {'ok  ' if row['ok'] else 'FAIL'} {json.dumps(row['op'])}: "
              f"{(row['reason'] or '')[:120]}")
    for name, (value, unit) in diagnostics.items():
        print(f"# {name:46s} {value:>16.6g} {unit}")
    for name, (value, unit) in report.items():
        print(f"{name:48s} {value:>16.6g} {unit}")

    bad = [(pool[int(k.split('/')[0])][int(k.split('/')[1])], v[2])
           for k, v in verdicts.items() if not v[0]]
    for op, reason in bad[:5]:
        print(f"# wrong: {json.dumps(op)}: {reason}")
    record = {"args": vars(args), "env": env_info, "cross_check": extra,
              "setup": {"fields": ["setup_s", "ref_ns"],
                        "runs": [[d["setup_s"], d["setup_ref_ns"]] for d in setups]},
              "metrics": report,
              "attempted": attempted, "failed": failed, "wrong": wrong,
              "attempts": {"fields": ["round", "slot", "latency_ns", "error", "same_as_first",
                                      "ref_ns"],
                           "untraced": doc["attempts"], "traced": doc.get("traced_attempts")},
              "operations": [pool[ri] for ri in rounds],
              "verdicts": {k: list(v) for k, v in verdicts.items()},
              "defects": defect_rows}
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in report.items()}}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
