"""Command line surface: deterministic CSV tables for all solver operations.

Subcommands: curve, solve, spectrum, intercept, fock.  Output is CSV with
'#'-prefixed comment lines carrying provenance (tool, version, parameters);
numbers are printed as shortest 12-significant-digit decimals with LF line
endings, so identical invocations produce byte-identical output.

Exit codes: 0 success, 1 usage/parse error, 2 domain error, 3 solver
consistency error.
"""

import argparse
import sys

from . import __version__
from .core import DeformationPoint, energy_spectrum, fock_rep, fock_residuals
from .degeneracy import DegeneracyCondition, trace_curve
from .errors import ConsistencyError, DomainError
from .families import (family_energy, family_p, parse_family,
                       solve_degeneracy_on_family, validate_family)
from .intercept import intercept_curve
from .spectrum import profile


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return f"{x + 0.0:.12g}"  # + 0.0 folds -0.0 into 0


def _header(command, params):
    lines = [f"# qposc {command}", f"# version: {__version__}"]
    lines += [f"# {key}: {value}" for key, value in params]
    return lines


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_levels(text):
    parts = str(text).split(",")
    if len(parts) != 2:
        raise ValueError(f"--levels expects two comma-separated integers, got {text!r}")
    try:
        m1, m2 = (int(part) for part in parts)
    except ValueError:
        raise ValueError(f"--levels expects integers, got {text!r}") from None
    return DegeneracyCondition(m1, m2)


def _validated_family(text):
    fam = parse_family(text)
    report = validate_family(fam)
    if not report.passed:
        q, reason = report.violations[0]  # add() keeps the first _CAP of them
        raise DomainError(f"{fam.label} is not admissible: {reason} at q={q}")
    return fam


def _cmd_curve(args):
    cond = _parse_levels(args.levels)
    trace = trace_curve(cond, args.samples)
    lines = _header("curve", [("levels", f"{cond.m1},{cond.m2}"),
                              ("samples", args.samples)])
    lines.append("q,p,dpdq")
    for sample in trace.samples:
        lines.append(",".join(_fmt(v) for v in sample))
    _emit(lines, args.out)


def _cmd_solve(args):
    cond = _parse_levels(args.levels)
    fam = _validated_family(args.family)
    q_star = solve_degeneracy_on_family(fam, cond)
    lines = _header("solve", [("levels", f"{cond.m1},{cond.m2}"),
                              ("family", fam.label)])
    lines.append("q_star,p_star,E_m1,E_m2")
    if q_star is None:
        lines.append("none")
    else:
        row = (q_star, family_p(fam, q_star),
               family_energy(fam, cond.m1, q_star),
               family_energy(fam, cond.m2, q_star))
        lines.append(",".join(_fmt(v) for v in row))
    _emit(lines, args.out)


def _cmd_spectrum(args):
    fam = _validated_family(args.family)
    point = DeformationPoint(args.q, family_p(fam, args.q))
    energies = energy_spectrum(args.n_max, point)
    lines = _header("spectrum", [("family", fam.label), ("q", _fmt(args.q)),
                                 ("n_max", args.n_max)])
    lines.append("n,E_n")
    for n, e in enumerate(energies):
        lines.append(f"{n},{_fmt(e)}")
    if args.q < 1.0 and args.n_max >= 2:
        peak = profile(fam, args.q, args.n_max).peak_index
        lines.append(f"# n0={peak}")
    else:
        lines.append("# n0=none")  # the q = 1 spectrum is linear, no peak
    _emit(lines, args.out)


def _cmd_intercept(args):
    fam = _validated_family(args.family)
    curve = intercept_curve(fam, args.samples)
    lines = _header("intercept", [("family", fam.label), ("samples", args.samples)])
    lines.append(f"# form: {'extrapolated' if curve.extrapolated else 'exact'}")
    lines.append("q,lambda")
    for q, lam in curve.samples:
        lines.append(f"{_fmt(q)},{_fmt(lam)}")
    _emit(lines, args.out)


def _cmd_fock(args):
    point = DeformationPoint(args.q, args.p)
    rep = fock_rep(args.dim, point)
    r1, r2 = fock_residuals(rep, point)
    lines = _header("fock", [("dim", args.dim), ("q", _fmt(args.q)),
                             ("p", _fmt(args.p))])
    lines.append("relation,max_residual")
    lines.append(f"1,{_fmt(r1)}")
    lines.append(f"2,{_fmt(r2)}")
    _emit(lines, args.out)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="qposc",
                     description="Deformed-oscillator spectra, degeneracy curves, "
                                 "reduction families and correlation intercepts.")
    parser.add_argument("--version", action="version", version=f"qposc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="trace a degeneracy curve as (q, p, dp/dq) rows")
    curve.add_argument("--levels", required=True, help="level pair, e.g. 0,2")
    curve.add_argument("--samples", type=int, default=100)
    curve.add_argument("--out", default=None)
    curve.set_defaults(handler=_cmd_curve)

    solve = sub.add_parser("solve", help="deformation value giving a degeneracy on a family")
    solve.add_argument("--levels", required=True)
    solve.add_argument("--family", required=True, help="power:<l> | log:<alpha> | exp:<alpha>")
    solve.add_argument("--out", default=None)
    solve.set_defaults(handler=_cmd_solve)

    spectrum = sub.add_parser("spectrum", help="energy levels (n, E_n) of a family member")
    spectrum.add_argument("--family", required=True)
    spectrum.add_argument("--q", type=float, required=True)
    spectrum.add_argument("--n-max", dest="n_max", type=int, default=200)
    spectrum.add_argument("--out", default=None)
    spectrum.set_defaults(handler=_cmd_spectrum)

    intercept = sub.add_parser("intercept", help="asymptotic correlation intercept over q")
    intercept.add_argument("--family", required=True)
    intercept.add_argument("--samples", type=int, default=101)
    intercept.add_argument("--out", default=None)
    intercept.set_defaults(handler=_cmd_intercept)

    fock = sub.add_parser("fock", help="ladder-relation residuals of the truncated matrices")
    fock.add_argument("--dim", type=int, required=True)
    fock.add_argument("--q", type=float, required=True)
    fock.add_argument("--p", type=float, required=True)
    fock.add_argument("--out", default=None)
    fock.set_defaults(handler=_cmd_fock)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        args.handler(args)
    except DomainError as exc:
        print(f"qposc: domain error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"qposc: consistency error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"qposc: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
