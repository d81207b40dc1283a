"""Independent mpmath oracle and the per-operation output checks.

Every check takes an operation dict (see workloads.py) and the output
summary the worker recorded for it, and returns (ok, err, reason): err is
the largest normalised error found (a dimensionless diagnostic) and reason
says what failed.  Nothing here imports qposc; floats from the library are
converted to mpf exactly and all arithmetic runs at 60 digits.
"""

import math

import mpmath

mp = mpmath.mp
mp.dps = 60

# normalised residual |F| / max(1, |grad F|): the distance to the curve
CURVE_TOL = 1e-10
SLOPE_RTOL = 1e-7
ENDPOINT_TOL = 1e-12
ENERGY_RTOL = 1e-12
ROOT_TOL = 1e-10
INTERCEPT_TOL = 1e-13
# CLI tables print 12 significant digits; values derived from rounded
# inputs get this relative tolerance instead of the in-process ones
CLI_RTOL = 1e-9
# ties in E_n closer than this (relative) may pick either index
TIE_RTOL = 1e-13
EPS = 2.0 ** -52


def _m(x):
    return mp.mpf(x)


def bracket_and_grad(k, q, p):
    """([[k]], d[[k]]/dq, d[[k]]/dp) from the closed form, at mp precision."""
    if k == 0:
        return mp.zero, mp.zero, mp.zero
    if q == p:
        b = k * q ** (k - 1)
        d = k * (k - 1) * q ** (k - 2) / 2 if k >= 2 else mp.zero
        return b, d, d
    qk, pk = q ** k, p ** k
    h = q - p
    b = (qk - pk) / h
    dq = (k * q ** (k - 1) * h - (qk - pk)) / h ** 2
    dp = ((qk - pk) - k * p ** (k - 1) * h) / h ** 2
    return b, dq, dp


def gap(m1, m2, q, p):
    """(F, dF/dq, dF/dp) with F = 2 (E_m2 - E_m1)."""
    f = fq = fp = mp.zero
    for k, sign in ((m2 + 1, 1), (m2, 1), (m1 + 1, -1), (m1, -1)):
        b, dq, dp = bracket_and_grad(k, q, p)
        f += sign * b
        fq += sign * dq
        fp += sign * dp
    return f, fq, fp


def spectrum(n_max, q, p):
    """[E_0, ..., E_n_max] from the recurrence [[n+1]] = q [[n]] + p^n."""
    out = []
    b, pn = mp.zero, mp.one
    for _ in range(n_max + 1):
        nxt = q * b + pn
        out.append((nxt + b) / 2)
        b, pn = nxt, pn * p
    return out


def energy(n, q, p):
    return (bracket_and_grad(n + 1, q, p)[0] + bracket_and_grad(n, q, p)[0]) / 2


def ground_endpoint(m):
    """Root of x^m + x^(m-1) = 1 in (0, 1)."""
    return mp.findroot(lambda x: x ** m + x ** (m - 1) - 1, (mp.mpf("0.5"), mp.one),
                       solver="anderson")


def family(spec):
    """(f, f', domain_low) of a built-in family spec, at mp precision."""
    kind, _, value = spec.partition(":")
    a = mp.mpf(float(value))  # the member the library parses: a double
    if kind == "power":
        return (lambda q: q ** a), (lambda q: a * q ** (a - 1)), mp.zero
    if kind == "log":
        return (lambda q: 1 + a * mp.log(q), lambda q: a / q, mp.exp(-1 / a))
    if kind == "exp":
        return (lambda q: mp.exp(a * (q - 1)), lambda q: a * mp.exp(a * (q - 1)), mp.zero)
    raise ValueError(f"unknown family {spec!r}")


def _rel(x, ref, floor=1e-300):
    """|x - ref| / |ref|, with |ref| raised to `floor` for values near the
    bottom of the float range."""
    return float(abs(_m(x) - ref) / max(abs(ref), mp.mpf(floor)))


class _Check:
    """Accumulates the largest error and the first failure reason."""

    def __init__(self):
        self.err = 0.0
        self.reason = None

    def need(self, cond, reason):
        if not cond and self.reason is None:
            self.reason = reason

    def within(self, err, tol, what):
        err = float(err)
        if not math.isnan(err):
            self.err = max(self.err, err)
        self.need(err <= tol, f"{what}: error {err:.3g} > {tol:.3g}")

    def result(self):
        return self.reason is None, self.err, self.reason


def _curve_point(chk, m1, m2, q, p, slope=None, rtol=SLOPE_RTOL):
    qm, pm = _m(q), _m(p)
    f, fq, fp = gap(m1, m2, qm, pm)
    norm = max(mp.one, mp.sqrt(fq ** 2 + fp ** 2))
    chk.within(abs(f) / norm, CURVE_TOL, f"residual at ({q!r}, {p!r})")
    if slope is None:
        return
    if fp == 0:
        chk.need(math.isinf(slope), f"slope at ({q!r}, {p!r}) should be infinite, got {slope!r}")
        return
    ref = -fq / fp
    chk.need(math.isfinite(slope), f"slope at ({q!r}, {p!r}) is {slope!r}, oracle {float(ref):.6g}")
    if math.isfinite(slope):
        chk.within(abs(_m(slope) - ref) / max(mp.one, abs(ref)), rtol, f"slope at ({q!r}, {p!r})")


def check_trace(op, out, endpoint_tol=ENDPOINT_TOL, slope_rtol=SLOPE_RTOL):
    m1, m2, n = op["m1"], op["m2"], op["samples"]
    chk = _Check()
    samples = out["samples"]
    chk.need(len(samples) == n, f"{len(samples)} samples, expected {n}")
    if not samples:
        return chk.result()
    qs = [s[0] for s in samples]
    ps = [s[1] for s in samples]
    chk.need(qs[0] == 0.0, f"first sample at q={qs[0]!r}, expected 0")
    chk.need(all(a < b for a, b in zip(qs, qs[1:])), "q is not strictly increasing")
    chk.need(all(0.0 <= p <= 1.0 for p in ps), "p leaves [0, 1]")
    chk.need(all(b <= a for a, b in zip(ps, ps[1:])), "p increases along the curve")
    chk.need(ps[-1] == 0.0, f"last sample at p={ps[-1]!r}, expected 0")
    q_hi = ground_endpoint(m2) if m1 == 0 else mp.one
    chk.within(abs(_m(qs[-1]) - q_hi), endpoint_tol, "curve extent")
    for q, p, slope in samples:
        _curve_point(chk, m1, m2, q, p, slope, slope_rtol)
    return chk.result()


def _no_root_in_p(chk, m1, m2, q):
    qm = _m(q)
    p_lo = mp.mpf("1e-3") if q == 0.0 else mp.zero  # (0, 0) is excluded
    f_lo, f_hi = gap(m1, m2, qm, p_lo)[0], gap(m1, m2, qm, mp.one)[0]
    chk.need(f_lo * f_hi > 0,
             f"no root reported at q={q!r}, but F changes sign ({float(f_lo):.3g}, {float(f_hi):.3g})")


def check_solve_p(op, out):
    chk = _Check()
    p = out["p"]
    if p is None:
        _no_root_in_p(chk, op["m1"], op["m2"], op["q"])
    else:
        chk.need(0.0 <= p <= 1.0, f"p={p!r} outside [0, 1]")
        _curve_point(chk, op["m1"], op["m2"], op["q"], p)
    return chk.result()


def check_slope(op, out):
    chk = _Check()
    p = out["p"]
    if p is None:
        _no_root_in_p(chk, op["m1"], op["m2"], op["q"])
        chk.need(False, "slope probe has no curve point")
    else:
        chk.need(0.0 <= p <= 1.0, f"p={p!r} outside [0, 1]")
        _curve_point(chk, op["m1"], op["m2"], op["q"], p, out["slope"])
    return chk.result()


def check_endpoint(op, out):
    chk = _Check()
    chk.within(abs(_m(out["q"]) - ground_endpoint(op["m2"])), ENDPOINT_TOL, "endpoint")
    return chk.result()


def _family_root(chk, spec, m1, m2, q_star, p_star, e1, e2, rtol):
    f, df, low = family(spec)
    chk.need(low < q_star < 1.0, f"root q*={q_star!r} outside ({float(low):.6g}, 1)")
    q = _m(q_star)
    g, gq, gp = gap(m1, m2, q, f(q))
    slope = abs(gq + gp * df(q))
    chk.within(abs(g) / max(mp.one, slope), ROOT_TOL, f"in-family residual at q*={q_star!r}")
    chk.within(abs(_m(p_star) - f(q)), max(1e-13, rtol), f"p*={p_star!r}")
    pm = _m(p_star)
    chk.within(_rel(e1, energy(m1, q, pm)), max(ENERGY_RTOL, rtol), "E_m1 at q*")
    chk.within(_rel(e2, energy(m2, q, pm)), max(ENERGY_RTOL, rtol), "E_m2 at q*")


def _family_none(chk, spec, m1, m2):
    """A 'none' answer is right when g(q) = F(q, f(q)) has the same sign at
    both ends of the domain (a zero at the boundary does not count)."""
    f, _, low = family(spec)
    q_lo = low if f(low) != 0 or low > 0 else mp.mpf("1e-4")
    g_lo, g_hi = gap(m1, m2, q_lo, f(q_lo))[0], gap(m1, m2, mp.one, mp.one)[0]
    chk.need(g_lo * g_hi >= 0,
             f"none reported for {spec} but g changes sign ({float(g_lo):.3g}, {float(g_hi):.3g})")


def check_family(op, out):
    chk = _Check()
    spec, m1, m2 = op["family"], op["m1"], op["m2"]
    chk.need(out["passed"] and out["n_violations"] == 0,
             f"{spec} reported inadmissible ({out['n_violations']} violations)")
    _, _, low = family(spec)
    chk.within(abs(_m(out["domain_low"]) - low), 1e-15, "domain_low")
    if out["q"] is None:
        _family_none(chk, spec, m1, m2)
    else:
        _family_root(chk, spec, m1, m2, out["q"], out["p"], out["e1"], out["e2"], 0.0)
    _intercept_samples(chk, spec, op["samples"], out["n_samples"], out["samples"], INTERCEPT_TOL)
    return chk.result()


def _intercept_samples(chk, spec, n, n_got, samples, tol):
    """samples: (index, q, lambda) triples taken from an n-point curve."""
    f, _, low = family(spec)
    chk.need(n_got == n, f"{n_got} intercept samples, expected {n}")
    for i, q, lam in samples:
        q_ref = mp.one if i == n - 1 else low + (1 - low) * i / (n - 1)
        chk.within(abs(_m(q) - q_ref), tol, f"intercept grid q[{i}]")
        qm = _m(q)
        chk.within(abs(_m(lam) - (qm + f(qm) - 1)), tol, f"lambda at q={q!r}")


def _energies(chk, energies, n_max, q, p, rtol):
    chk.need(len(energies) == n_max + 1, f"{len(energies)} levels, expected {n_max + 1}")
    ref = spectrum(n_max, _m(q), _m(p))
    worst = max((_rel(e, r) for e, r in zip(energies, ref)), default=0.0)
    chk.within(worst, rtol, "energy levels")
    return ref


def _argmax_ok(chk, ref, peak):
    best = max(ref)
    chk.need(0 <= peak < len(ref), f"peak index {peak} outside the spectrum")
    if 0 <= peak < len(ref):
        chk.need(ref[peak] >= best * (1 - mp.mpf(TIE_RTOL)),
                 f"peak index {peak} is not the argmax (E there {float(ref[peak]):.17g}, "
                 f"max {float(best):.17g})")


def check_spectrum(op, out):
    chk = _Check()
    _energies(chk, out["energies"], op["n_max"], op["q"], op["p"], ENERGY_RTOL)
    return chk.result()


def check_profile(op, out):
    chk = _Check()
    f, _, _ = family(op["family"])
    q = op["q"]
    ref = _energies(chk, out["energies"], op["n_max"], q, out["p"], ENERGY_RTOL)
    chk.within(abs(_m(out["p"]) - f(_m(q))), 1e-15, "family p")
    _argmax_ok(chk, ref, out["peak"])
    chk.need(out["tail"] == out["energies"][-1], "tail_bound is not E_n_max")
    peak = out["peak"]
    expected = [n for n in range(peak + 1, len(ref)) if ref[n] >= ref[n - 1]]
    chk.need(out["violations"] == expected,
             f"decay violations {out['violations'][:5]} differ from the oracle's {expected[:5]}")
    return chk.result()


def _brackets(dim, q, p):
    """[[1]], ..., [[dim]] from the recurrence [[n+1]] = q [[n]] + p^n."""
    out, b, pn = [], mp.zero, mp.one
    for _ in range(dim):
        b, pn = q * b + pn, pn * p
        out.append(b)
    return out


def _fock_residuals(chk, residuals, dim, q, p):
    """Both ladder-relation residuals must be rounding-sized: at most 64 ulp
    of the largest bracket on the truncation."""
    scale = max(1.0, float(max(_brackets(dim, _m(q), _m(p)))))
    chk.need(len(residuals) == 2, f"{len(residuals)} relation residuals, expected 2")
    for i, r in enumerate(residuals, 1):
        chk.need(r >= 0.0, f"relation {i} residual {r!r} is negative")
        chk.within(r / scale, 64 * EPS, f"relation {i} residual")


def check_fock(op, out):
    chk = _Check()
    dim, q, p = op["dim"], op["q"], op["p"]
    chk.need(out["structure"], "a_dagger is not a^T, or N is not diag(0..dim-1), "
                               "or a has entries off its superdiagonal")
    sup = out["super"]
    chk.need(len(sup) == dim - 1, f"{len(sup)} superdiagonal entries, expected {dim - 1}")
    # [[n]] underflows for small q, p and large n; the square root of a
    # subnormal is good only to about 1e-150 absolute
    worst = max((_rel(a, mp.sqrt(b), floor=1e-138)
                 for a, b in zip(sup, _brackets(dim - 1, _m(q), _m(p)))), default=0.0)
    chk.within(worst, ENERGY_RTOL, "sqrt([[n]]) on the superdiagonal")
    _fock_residuals(chk, out["residuals"], dim, q, p)
    return chk.result()


def _peak_window(spec, q):
    """Oracle argmax of E_n along a family member, from the sign change of
    E_{n+1} - E_n, confirmed on a window of exact levels."""
    f, _, _ = family(spec)
    qm = _m(q)
    pm = f(qm)
    if qm == pm:
        n_star = 2 * qm ** 2 / (1 - qm ** 2)
    else:
        n_star = mp.log((1 - qm ** 2) / (1 - pm ** 2)) / mp.log(pm / qm)
    lo = max(0, int(mp.floor(n_star)) - 2)
    window = {n: energy(n, qm, pm) for n in range(lo, int(mp.ceil(n_star)) + 3)}
    return window, qm, pm


def check_peak(op, out):
    chk = _Check()
    window, q, p = _peak_window(op["family"], op["q"])
    n = out["n"]
    best = max(window.values())
    e_n = window[n] if n in window else energy(n, q, p)
    chk.need(n >= 0 and e_n >= best * (1 - mp.mpf(TIE_RTOL)),
             f"peak index {n} is not the argmax (oracle near {max(window, key=window.get)})")
    return chk.result()


# ------------------------------------------------------------------- cli

def _cli_table(text):
    """(comments, header, rows) of a qposc CSV table."""
    comments, rows, header = [], [], None
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def check_cli(op, out):
    chk = _Check()
    argv = op["argv"]
    cmd = argv[0]
    chk.need(out["code"] == 0, f"exit code {out['code']}: {out.get('stderr', '').strip()[:200]}")
    if out["code"] != 0:
        return chk.result()
    comments, header, rows = _cli_table(out["stdout"])
    chk.need(bool(comments) and comments[0] == f"# qposc {cmd}", "missing provenance header")
    if cmd == "curve":
        m1, m2 = (int(v) for v in _flag(argv, "--levels").split(","))
        chk.need(header == ["q", "p", "dpdq"], f"header {header}")
        samples = [[float(v) for v in row] for row in rows]
        op2 = {"m1": m1, "m2": m2, "samples": int(_flag(argv, "--samples"))}
        ok, err, reason = check_trace(op2, {"samples": samples}, endpoint_tol=1e-11,
                                      slope_rtol=CLI_RTOL)
        chk.within(err, math.inf, "curve rows")
        chk.need(ok, reason)
    elif cmd == "solve":
        m1, m2 = (int(v) for v in _flag(argv, "--levels").split(","))
        spec = _flag(argv, "--family")
        chk.need(header == ["q_star", "p_star", "E_m1", "E_m2"], f"header {header}")
        chk.need(len(rows) == 1, f"{len(rows)} result rows")
        if rows and rows[0] == ["none"]:
            _family_none(chk, spec, m1, m2)
        elif rows:
            q_star, p_star, e1, e2 = (float(v) for v in rows[0])
            _family_root(chk, spec, m1, m2, q_star, p_star, e1, e2, CLI_RTOL)
    elif cmd == "spectrum":
        spec, q, n_max = _flag(argv, "--family"), float(_flag(argv, "--q")), int(_flag(argv, "--n-max"))
        f, _, _ = family(spec)
        chk.need(header == ["n", "E_n"], f"header {header}")
        chk.need([int(r[0]) for r in rows] == list(range(len(rows))), "level indices out of order")
        ref = _energies(chk, [float(r[1]) for r in rows], n_max, q, f(_m(q)), CLI_RTOL)
        peaks = [c for c in comments if c.startswith("# n0=")]
        chk.need(len(peaks) == 1, "missing '# n0=' line")
        if peaks and q < 1.0:
            _argmax_ok(chk, ref, int(peaks[0][5:]))
    elif cmd == "intercept":
        spec, n = _flag(argv, "--family"), int(_flag(argv, "--samples"))
        chk.need(header == ["q", "lambda"], f"header {header}")
        samples = [(i, float(r[0]), float(r[1])) for i, r in enumerate(rows)]
        _intercept_samples(chk, spec, n, len(rows), samples, 1e-11)
    elif cmd == "fock":
        dim, q, p = int(_flag(argv, "--dim")), float(_flag(argv, "--q")), float(_flag(argv, "--p"))
        chk.need(header == ["relation", "max_residual"], f"header {header}")
        chk.need([r[0] for r in rows] == ["1", "2"], "relation rows")
        _fock_residuals(chk, [float(r[1]) for r in rows], dim, q, p)
    else:
        chk.need(False, f"unknown subcommand {cmd!r}")
    return chk.result()


CHECKS = {"trace": check_trace, "solve_p": check_solve_p, "slope": check_slope,
          "endpoint": check_endpoint, "family": check_family, "spectrum": check_spectrum,
          "profile": check_profile, "fock": check_fock, "peak": check_peak, "cli": check_cli}


def check(op, out):
    """(ok, err, reason) for one operation's recorded output."""
    return CHECKS[op["kind"]](op, out)
