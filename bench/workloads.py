"""Seeded operation lists for the benchmark workloads (standard library only).

A workload is a fixed pool of *rounds*.  Every round holds the same slots
(one operation per kind and size band) in a seeded order.  Across the rounds
of a pool, each slot's parameters are stratified: the band is cut into as
many equal parts as there are rounds and each round draws from its own part,
so the pool's mix of work, and its cost, hardly depend on the seed.  A run
executes the whole pool at least once and then keeps cycling it; every
operation is timed on each pass.

Each workload also has a small seeded *defect* list: inputs on which the
library at the time the benchmark was written raises or answers wrongly.
They are run and checked once per run, outside the timed loop, and reported
on their own, so the timed loop measures only operations that succeed while
the known failures stay visible.  The rule that separates the two sets is
stated next to each generator.
"""

import math
import random

WORKLOADS = ("curves", "families", "spectra", "cli")

# rounds in a pool: at least 100 operations (ten beyond p90), and for the
# library as first benchmarked a pass of 3-4 s on one core of a 2-vCPU host,
# so a 20 s run times every operation five or more times and run.py takes
# the median; cli (a process per operation) makes one pass.  Repeats are
# checked against the first output.
POOL_ROUNDS = {"curves": 8, "families": 14, "spectra": 5, "cli": 20}

# Near the (0, 1) corner the neighbour/general curves have 1 - p ~ q^m1, and
# the scan in solve_p_for_q loses the sign of F(q, 1) once q^m1 falls to
# rounding level: solve_p_for_q then reports no root, and trace_curve on a
# neighbour pair (m, m+1) raises ConsistencyError.  Timed probes keep q^m1
# above this floor and timed traces keep neighbour pairs at m <= 8 (a scan
# of n = 10..100 samples finds the first failures at m = 9); the defect
# lists take the inputs beyond both limits.
_CORNER_FLOOR = 1e-8
_NEIGHBOR_TIMED_MAX = 8

# peak_level scans at most this many levels
_PEAK_CAP = 10_000


def _strata(rng, lo, hi, n):
    """n floats in [lo, hi), one uniform in each of n equal parts, shuffled."""
    width = (hi - lo) / n
    values = [lo + (k + rng.random()) * width for k in range(n)]
    rng.shuffle(values)
    return values


def _int_strata(rng, lo, hi, n):
    """n integers in [lo, hi], stratified as in _strata."""
    return [min(hi, int(v)) for v in _strata(rng, lo, hi + 1, n)]


def _balanced(rng, choices, n):
    """n items cycling through choices, shuffled."""
    items = [choices[k % len(choices)] for k in range(n)]
    rng.shuffle(items)
    return items


def _pair(kind, m2, u):
    """The level pair (m1, m2) of the given kind; u in [0, 1) places m1
    among the general pairs' 1..m2-2."""
    if kind == "ground":
        return 0, max(m2, 2)
    if kind == "neighbor":
        return m2 - 1, m2
    return 1 + int(u * (m2 - 2)), m2


def _pairs(rng, kinds, m2_lo, m2_hi, n):
    """n level pairs with m2 stratified over [m2_lo, m2_hi]; kinds is one
    kind or a list of n kinds."""
    kinds = [kinds] * n if isinstance(kinds, str) else kinds
    return [_pair(kind, m2, u) for kind, m2, u in
            zip(kinds, _int_strata(rng, m2_lo, m2_hi, n), _strata(rng, 0.0, 1.0, n))]


def _columns(slots):
    """Rounds (lists of ops) from per-slot columns of ops."""
    return [list(ops) for ops in zip(*slots)]


def trace_is_timed(m1, m2):
    """True when trace_curve(m1, m2, n) stays clear of the corner defect."""
    return m2 != m1 + 1 or m1 <= _NEIGHBOR_TIMED_MAX


def probe_q_floor(m1):
    """Smallest q at which solve_p_for_q is timed for a pair with this m1."""
    return 0.01 if m1 == 0 else max(0.01, _CORNER_FLOOR ** (1.0 / m1))


def ground_endpoint(m):
    """Root of x^m + x^(m-1) = 1 in (0, 1), by float bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid ** m + mid ** (m - 1) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def _family_spec(rng, kind, lo, hi):
    return f"{kind}:{rng.uniform(lo, hi):.4g}"


def family_fn(spec):
    """(f, domain_low) of a built-in family spec, as float functions."""
    kind, _, value = spec.partition(":")
    a = float(value)
    if kind == "power":
        return (lambda q: q ** a), 0.0
    if kind == "log":
        return (lambda q: 1.0 + a * math.log(q)), math.exp(-1.0 / a)
    if kind == "exp":
        return (lambda q: math.exp(a * (q - 1.0))), 0.0
    raise ValueError(f"unknown family {spec!r}")


def peak_estimate(q, p):
    """Continuous peak position n* of E_n at (q, p), from the sign change of
    E_{n+1} - E_n; infinite when p == 1."""
    if p >= 1.0:
        return math.inf
    if q == p:
        return 2.0 * q * q / (1.0 - q * q)
    return math.log((1.0 - q * q) / (1.0 - p * p)) / math.log(p / q)


# ---------------------------------------------------------------- curves

_GROUND_BANDS = ((2, 8), (9, 20), (21, 40))
_NEIGHBOR_BANDS = ((2, 5), (6, _NEIGHBOR_TIMED_MAX + 1))
_GENERAL_BANDS = ((3, 12), (13, 26), (27, 40))


def _curves_pool(rng, n):
    slots = []
    for kind, bands in (("ground", _GROUND_BANDS), ("neighbor", _NEIGHBOR_BANDS),
                        ("general", _GENERAL_BANDS)):
        for lo, hi in bands:
            slots.append([{"kind": "trace", "m1": m1, "m2": m2, "samples": 40}
                          for m1, m2 in _pairs(rng, kind, lo, hi, n)])
    # 22 operations a round: the median falls inside the probes and p90
    # inside the traces
    for probe in ("solve_p", "slope"):
        for kind in ("ground", "neighbor", "general") * 2:
            column = []
            for (m1, m2), u in zip(_pairs(rng, kind, 3, 40, n), _strata(rng, 0.0, 1.0, n)):
                q_lo = probe_q_floor(m1)
                q_hi = ground_endpoint(m2) if m1 == 0 and probe == "slope" else 0.99
                column.append({"kind": probe, "m1": m1, "m2": m2,
                               "q": q_lo + u * (q_hi - q_lo)})
            slots.append(column)
    for _ in range(2):
        slots.append([{"kind": "endpoint", "m1": 0, "m2": m2}
                      for m2 in _int_strata(rng, 2, 40, n)])
    return _columns(slots)


def _curves_defects(rng):
    ops = []
    for _ in range(4):
        m = rng.randint(12, 39)
        ops.append({"kind": "trace", "m1": m, "m2": m + 1, "samples": 100})
    for _ in range(6):
        m = rng.randint(28, 39)
        q = rng.uniform(0.01, 1e-17 ** (1.0 / m))  # q^m below rounding level
        ops.append({"kind": "solve_p", "m1": m, "m2": m + 1, "q": q})
    return ops


# -------------------------------------------------------------- families

# (kind, parameter range); the two fixed members are the non-admitting ones
# named in the acceptance suite
_FAMILY_SLOTS = (("power", 0.25, 1.0), ("power", 1.0, 6.0), ("log", 0.5, 2.0),
                 ("log", 2.0, 8.0), ("exp", 0.1, 0.5), ("exp", 0.5, 3.0),
                 ("log:6.05",), ("exp:0.1653",))


_FIXED_MEMBER_PAIRS = ((0, 2), (0, 3), (0, 4), (0, 5), (3, 4))


def _families_pool(rng, n):
    slots = []
    for slot in _FAMILY_SLOTS:
        if len(slot) == 1:
            specs = [slot[0]] * n
            pairs = _balanced(rng, _FIXED_MEMBER_PAIRS, n)
        else:
            kind, lo, hi = slot
            specs = [f"{kind}:{a:.4g}" for a in _strata(rng, lo, hi, n)]
            pairs = _pairs(rng, _balanced(rng, ("ground", "neighbor", "general"), n), 3, 30, n)
        slots.append([{"kind": "family", "family": spec, "m1": m1, "m2": m2,
                       "samples": 10_001} for spec, (m1, m2) in zip(specs, pairs)])
    return _columns(slots)


# --------------------------------------------------------------- spectra

# Sizes are fixed per slot (spectra with 3 % jitter, Fock dimensions exact,
# which keeps peak memory steady) so every round costs about the same; the
# seed varies the deformation point and the family.  Sorted by cost, the
# 20 operations of a round are 6 peak_level calls, 3 operations at size 250,
# 5 spectra at 350 (which hold the median), 2 at size 500 and 4 spectra at
# 700 (which hold p90), so neither percentile falls on a boundary between
# two kinds of operation.
_SPECTRA_SLOTS = (("profile", 250), ("profile", 250), ("fock", 250)) + (
    ("spectrum", 350),) * 5 + (("profile", 500), ("fock", 500)) + (("spectrum", 700),) * 4
# peak_level targets: continuous peak positions n*, geometric from 4 to 8000
_PEAK_TARGETS = tuple(4.0 * 2000.0 ** (i / 5) for i in range(6))


_SPECTRA_FAMILY_RANGE = {"power": (0.5, 3.0), "log": (0.5, 3.0), "exp": (0.2, 2.0)}


def _spectra_family(rng):
    kind = rng.choice(("power", "log", "exp"))
    return _family_spec(rng, kind, *_SPECTRA_FAMILY_RANGE[kind])


def q_for_peak(spec, target):
    """The q at which the family member's continuous peak n* equals target
    (bisection; n* grows as q approaches 1), or None if out of reach."""
    f, low = family_fn(spec)
    lo, hi = max(low, 0.0) + 1e-3, 1.0 - 1e-15

    def n_star(q):
        return peak_estimate(q, f(q))

    if not n_star(lo) < target < n_star(hi):
        return None
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if n_star(mid) < target:
            lo = mid
        else:
            hi = mid
    return lo


def _spectra_pool(rng, n):
    slots = []
    for kind, size in _SPECTRA_SLOTS:
        if kind == "spectrum":
            slots.append([{"kind": kind, "n_max": round(size * j), "q": q, "p": p}
                          for j, q, p in zip(_strata(rng, 0.97, 1.03, n),
                                             _strata(rng, 0.85, 1.0, n),
                                             _strata(rng, 0.85, 1.0, n))])
        elif kind == "profile":
            specs = []
            for kind_ in _balanced(rng, ("power", "log", "exp"), n):
                specs.append(_family_spec(rng, kind_, *_SPECTRA_FAMILY_RANGE[kind_]))
            slots.append([{"kind": kind, "family": spec, "q": q, "n_max": round(size * j)}
                          for spec, q, j in zip(specs, _strata(rng, 0.85, 0.999, n),
                                                _strata(rng, 0.97, 1.03, n))])
        else:
            slots.append([{"kind": kind, "dim": size, "q": q, "p": p}
                          for q, p in zip(_strata(rng, 0.05, 1.0, n),
                                          _strata(rng, 0.05, 1.0, n))])
    for target in _PEAK_TARGETS:
        column = []
        for j in _strata(rng, 0.97, 1.03, n):
            q = None
            while q is None:
                spec = _spectra_family(rng)
                q = q_for_peak(spec, target * j)
            column.append({"kind": "peak", "family": spec, "q": q})
        slots.append(column)
    return _columns(slots)


def _spectra_defects(rng):
    """peak_level beyond its scan cap: n* above twice the cap."""
    ops = []
    while len(ops) < 6:
        spec = _spectra_family(rng)
        q = q_for_peak(spec, 2 * _PEAK_CAP * 10 ** rng.uniform(0.0, 2.0))
        if q is not None:
            ops.append({"kind": "peak", "family": spec, "q": q})
    return ops


# ------------------------------------------------------------------- cli

_CLI_FAMILY_RANGE = {"power": (0.25, 4.0), "log": (0.5, 8.0), "exp": (0.1, 3.0)}


def _cli_families(rng, n):
    return [f"{kind}:{a:.4g}" for kind, a in
            ((kind, rng.uniform(*_CLI_FAMILY_RANGE[kind]))
             for kind in _balanced(rng, ("power", "log", "exp"), n))]


def _cli_pool(rng, n):
    # one call of each subcommand a round: the reference process is timed
    # between rounds, so short rounds track the host's speed closely
    slots = []
    column = []
    for kind, u, v, samples in zip(_balanced(rng, ("ground", "neighbor", "general"), n),
                                   _strata(rng, 0.0, 1.0, n), _strata(rng, 0.0, 1.0, n),
                                   _int_strata(rng, 10, 30, n)):
        m2_hi = _NEIGHBOR_TIMED_MAX + 1 if kind == "neighbor" else 40
        m1, m2 = _pair(kind, 3 + int(u * (m2_hi - 2)), v)
        column.append(["curve", "--levels", f"{m1},{m2}", "--samples", str(samples)])
    slots.append(column)
    pairs = _pairs(rng, _balanced(rng, ("ground", "neighbor", "general"), n), 3, 20, n)
    slots.append([["solve", "--levels", f"{m1},{m2}", "--family", spec]
                  for (m1, m2), spec in zip(pairs, _cli_families(rng, n))])
    column = []
    for spec, u, n_max in zip(_cli_families(rng, n), _strata(rng, 0.0, 1.0, n),
                              _int_strata(rng, 20, 100, n)):
        q_lo = max(family_fn(spec)[1], 0.3) + 0.01
        column.append(["spectrum", "--family", spec, "--q", f"{q_lo + u * (0.99 - q_lo):.6g}",
                       "--n-max", str(n_max)])
    slots.append(column)
    slots.append([["intercept", "--family", spec, "--samples", str(samples)]
                  for spec, samples in zip(_cli_families(rng, n),
                                           _int_strata(rng, 11, 101, n))])
    slots.append([["fock", "--dim", str(dim), "--q", f"{q:.6g}", "--p", f"{p:.6g}"]
                  for dim, q, p in zip(_int_strata(rng, 5, 60, n),
                                       _strata(rng, 0.05, 1.0, n),
                                       _strata(rng, 0.05, 1.0, n))])
    return [[{"kind": "cli", "argv": argv} for argv in ops] for ops in _columns(slots)]


def _cli_defects(rng):
    ops = []
    for _ in range(2):
        m = rng.randint(12, 20)
        ops.append({"kind": "cli", "argv": ["curve", "--levels", f"{m},{m + 1}", "--samples", "100"]})
    return ops


_POOL = {"curves": _curves_pool, "families": _families_pool, "spectra": _spectra_pool,
         "cli": _cli_pool}
_DEFECTS = {"curves": _curves_defects, "families": lambda rng: [],
            "spectra": _spectra_defects, "cli": _cli_defects}

# one small operation of each kind, run before timing starts
_WARMUP = {
    "curves": [{"kind": "trace", "m1": 0, "m2": 3, "samples": 5},
               {"kind": "solve_p", "m1": 2, "m2": 5, "q": 0.5},
               {"kind": "slope", "m1": 0, "m2": 4, "q": 0.3},
               {"kind": "endpoint", "m1": 0, "m2": 6}],
    "families": [{"kind": "family", "family": "exp:0.5", "m1": 0, "m2": 2, "samples": 101}],
    "spectra": [{"kind": "spectrum", "n_max": 20, "q": 0.9, "p": 0.8},
                {"kind": "profile", "family": "exp:0.5", "q": 0.9, "n_max": 20},
                {"kind": "fock", "dim": 10, "q": 0.5, "p": 0.7},
                {"kind": "peak", "family": "exp:0.5", "q": 0.9}],
    "cli": [{"kind": "cli", "argv": ["fock", "--dim", "4", "--q", "0.5", "--p", "0.7"]}],
}


def generate(workload, seed):
    """The seeded (pool, defects, warmup) operation lists of a workload.

    pool is a list of rounds, each a list of operation dicts; the same
    (workload, seed) always gives the same lists."""
    if workload not in _POOL:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    pool = _POOL[workload](rng, POOL_ROUNDS[workload])
    for ops in pool:
        rng.shuffle(ops)
    defects = _DEFECTS[workload](random.Random(f"{workload}/{seed}/defects"))
    return pool, defects, _WARMUP[workload]
