"""Command line surface: deterministic CSV tables for all solver operations.

Subcommands: curve, solve, spectrum, intercept, fock.  Output is CSV with
'#'-prefixed comment lines carrying provenance (tool, version, parameters);
numbers are printed as shortest 12-significant-digit decimals with LF line
endings, so identical invocations produce byte-identical output.

Each _cmd_* handler returns its table as (header params, body lines), and
main writes it once, to stdout or --out, after the handler has returned:
nothing is written unless the command succeeds.  Each handler imports the
submodules it runs, so a process loads only its subcommand's share of the
package; none loads numpy (fock evaluates the ladder relations from the
superdiagonal of A, in O(dim), without building the matrices).

Exit codes: 0 success, 1 usage/parse error or an --out file that cannot be
written (one 'qposc: cannot write ...' line on stderr, nothing on stdout),
2 domain error, 3 solver consistency error.
"""

import argparse
import sys

from . import __version__
from .errors import ConsistencyError, DomainError


def _fmt(x):
    return f"{x + 0.0:.12g}"  # + 0.0 folds -0.0 into 0


def _row(values):
    return ",".join(_fmt(v) for v in values)


def _parse_levels(text):
    from .degeneracy import DegeneracyCondition
    parts = str(text).split(",")
    if len(parts) != 2:
        raise ValueError(f"--levels expects two comma-separated integers, got {text!r}")
    try:
        m1, m2 = (int(part) for part in parts)
    except ValueError:
        raise ValueError(f"--levels expects integers, got {text!r}") from None
    return DegeneracyCondition(m1, m2)


def _cmd_curve(args):
    from .degeneracy import trace_curve
    cond = _parse_levels(args.levels)
    rows = [_row(sample) for sample in trace_curve(cond, args.samples).samples]
    return [("levels", f"{cond.m1},{cond.m2}"), ("samples", args.samples)], ["q,p,dpdq"] + rows


def _cmd_solve(args):
    from .families import family_energy, family_p, parse_family, solve_degeneracy_on_family
    cond = _parse_levels(args.levels)
    fam = parse_family(args.family)
    q_star = solve_degeneracy_on_family(fam, cond)
    row = "none"
    if q_star is not None:
        row = _row((q_star, family_p(fam, q_star), family_energy(fam, cond.m1, q_star),
                    family_energy(fam, cond.m2, q_star)))
    params = [("levels", f"{cond.m1},{cond.m2}"), ("family", fam.label)]
    return params, ["q_star,p_star,E_m1,E_m2", row]


def _cmd_spectrum(args):
    from .core import DeformationPoint, energy_spectrum
    from .families import family_p, parse_family
    from .spectrum import profile
    fam = parse_family(args.family)
    if args.q < 1.0 and args.n_max >= 2:
        shape = profile(fam, args.q, args.n_max)
        energies, peak = shape.energies, shape.peak_index
    else:  # the q = 1 spectrum is linear, no peak
        point = DeformationPoint(args.q, family_p(fam, args.q))
        energies, peak = energy_spectrum(args.n_max, point), "none"
    body = ["n,E_n"] + [f"{n},{_fmt(e)}" for n, e in enumerate(energies)]
    body.append(f"# n0={peak}")
    return [("family", fam.label), ("q", _fmt(args.q)), ("n_max", args.n_max)], body


def _cmd_intercept(args):
    from .families import parse_family
    from .intercept import intercept_curve
    fam = parse_family(args.family)
    curve = intercept_curve(fam, args.samples)
    body = [f"# form: {'extrapolated' if curve.extrapolated else 'exact'}", "q,lambda"]
    body += [_row(sample) for sample in curve.samples]
    return [("family", fam.label), ("samples", args.samples)], body


def _cmd_fock(args):
    from .core import DeformationPoint, _ladder_residuals, _superdiagonal
    point = DeformationPoint(args.q, args.p)
    r1, r2 = _ladder_residuals(_superdiagonal(args.dim, point), point.q, point.p)
    params = [("dim", args.dim), ("q", _fmt(args.q)), ("p", _fmt(args.p))]
    return params, ["relation,max_residual", f"1,{_fmt(r1)}", f"2,{_fmt(r2)}"]


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
    curve.set_defaults(handler=_cmd_curve)

    solve = sub.add_parser("solve", help="deformation value giving a degeneracy on a family")
    solve.add_argument("--levels", required=True)
    solve.add_argument("--family", required=True, help="power:<l> | log:<alpha> | exp:<alpha>")
    solve.set_defaults(handler=_cmd_solve)

    spectrum = sub.add_parser("spectrum", help="energy levels (n, E_n) of a family member")
    spectrum.add_argument("--family", required=True)
    spectrum.add_argument("--q", type=float, required=True)
    spectrum.add_argument("--n-max", dest="n_max", type=int, default=200)
    spectrum.set_defaults(handler=_cmd_spectrum)

    intercept = sub.add_parser("intercept", help="asymptotic correlation intercept over q")
    intercept.add_argument("--family", required=True)
    intercept.add_argument("--samples", type=int, default=101)
    intercept.set_defaults(handler=_cmd_intercept)

    fock = sub.add_parser("fock", help="ladder-relation residuals of the truncated matrices")
    fock.add_argument("--dim", type=int, required=True)
    fock.add_argument("--q", type=float, required=True)
    fock.add_argument("--p", type=float, required=True)
    fock.set_defaults(handler=_cmd_fock)

    for command in sub.choices.values():  # last, so --help lists it last
        command.add_argument("--out")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        params, body = args.handler(args)
    except DomainError as exc:
        print(f"qposc: domain error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"qposc: consistency error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"qposc: {exc}", file=sys.stderr)
        return 1
    head = [f"# qposc {args.command}", f"# version: {__version__}"]
    text = "\n".join(head + [f"# {key}: {value}" for key, value in params] + body) + "\n"
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"qposc: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
