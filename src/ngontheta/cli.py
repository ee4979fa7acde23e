"""Command-line interface.

Subcommands:
  ngon  validate | eps | w        exact N-gon validation and sign kernel
  theta series | complete | modularity
                                  q-expansions, completed values, transforms
  sig12 recover | winding | zagier
                                  signature-(1,2) geometry utilities; winding
                                  takes any N-gon file in signature (p, 2)
  dodec validate | kernel | series
                                  dodecahedral collections
  errfn eval                      generalized error function values

Exit codes: 0 success; 1 malformed input (bad JSON, missing file, a field
or vector argument of the wrong shape, a non-finite tau or |tau| > TAU_MAX,
an errfn --x entry above X_MAX in absolute value); 2 validation failure
(also theta modularity on a lattice with |det G| above lattice.DISC_MAX);
3 certification or quadrature failure.
"""

import argparse
import cmath
import functools
import sys
from fractions import Fraction

from . import jsonio
from .jsonio import InputError, parse_rational, rat_to_str
from .ngon import (NGonValidationError, validate, epsilon, w_invariant,
                   linking_number)

TAU_MAX = 1e50  # beyond it Im(-1/tau) can underflow or floats overflow
X_MAX = 1e50    # cap on errfn eval --x entries; near 1e308 (x, c) overflows


def _parse_vector_arg(s, flag, dim):
    """The rational vector of option `flag`, which must have `dim` entries."""
    try:
        v = tuple(parse_rational(t.strip()) for t in s.split(","))
    except InputError as e:
        raise InputError(f"bad vector argument {s!r}: {e}") from None
    if len(v) != dim:
        raise InputError(
            f"{flag} has {len(v)} entries; the space has dimension {dim}")
    return v


def _parse_tau(s):
    try:
        tau = complex(s.replace("i", "j"))
    except ValueError:
        raise InputError(f"bad tau {s!r}; expected a+bi") from None
    if not cmath.isfinite(tau):
        raise InputError(f"bad tau {s!r}; both parts must be finite")
    if abs(tau) > TAU_MAX:
        raise InputError(f"--tau {s!r}: |tau| must be at most {TAU_MAX:g}")
    if tau.imag <= 0:
        raise InputError("tau must lie in the upper half plane")
    return tau


@functools.cache
def build_parser():
    """Built once per process; parse_args keeps no state between calls."""
    p = argparse.ArgumentParser(
        prog="ngontheta",
        description="Indefinite theta series for geodesic polygons and "
                    "dodecahedra.")
    sub = p.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="FILE")
    series = argparse.ArgumentParser(add_help=False, parents=[out])
    series.add_argument("--format", choices=("json", "csv"), default="json")
    series.add_argument("--emit-plot-data", metavar="FILE")

    ngon = sub.add_parser("ngon", help="N-gon validation and kernels")
    ngon_sub = ngon.add_subparsers(dest="action", required=True)
    for name in ("validate", "eps", "w"):
        sp = ngon_sub.add_parser(name, parents=[out])
        sp.add_argument("--ngon", required=True, metavar="FILE")
        if name == "eps":
            sp.add_argument("--x", required=True, metavar="RAT,RAT,...")
        if name == "w":
            sp.add_argument("--v", metavar="RAT,RAT,...")

    theta = sub.add_parser("theta", help="q-expansions and modularity")
    theta_sub = theta.add_subparsers(dest="action", required=True)
    for name in ("series", "complete", "modularity"):
        sp = theta_sub.add_parser(
            name, parents=[series if name == "series" else out])
        sp.add_argument("--lattice", required=True, metavar="FILE")
        sp.add_argument("--ngon", required=True, metavar="FILE")
        sp.add_argument("--nmax", required=True)
        if name != "modularity":        # modularity reads every coset
            sp.add_argument("--mu", metavar="RAT,RAT,...")
        if name == "series":
            sp.add_argument("--normalized", action="store_true")
        else:
            sp.add_argument("--tau", required=True, metavar="A+BI")

    sig12 = sub.add_parser("sig12", help="signature-(1,2) utilities")
    sig_sub = sig12.add_subparsers(dest="action", required=True)
    sp = sig_sub.add_parser("recover", parents=[out])
    sp.add_argument("--points", required=True, metavar="FILE")
    sp = sig_sub.add_parser("winding", parents=[out])
    sp.add_argument("--ngon", required=True, metavar="FILE")
    sp.add_argument("--x", required=True, metavar="RAT,RAT,...")
    sp = sig_sub.add_parser("zagier", parents=[series])
    sp.add_argument("--T", required=True, dest="t")
    sp.add_argument("--nmax", required=True)

    dodec = sub.add_parser("dodec", help="dodecahedral collections")
    dodec_sub = dodec.add_subparsers(dest="action", required=True)
    for name in ("validate", "kernel", "series"):
        sp = dodec_sub.add_parser(
            name, parents=[series if name == "series" else out])
        sp.add_argument("--data", required=True, metavar="FILE")
        if name == "kernel":
            sp.add_argument("--x", required=True, metavar="RAT,RAT,...")
        if name == "series":
            sp.add_argument("--nmax", required=True)
            sp.add_argument("--mu", metavar="RAT,RAT,...")

    errfn = sub.add_parser("errfn", help="generalized error functions")
    errfn_sub = errfn.add_subparsers(dest="action", required=True)
    sp = errfn_sub.add_parser("eval", parents=[out])
    sp.add_argument("--space", required=True, metavar="FILE",
                    help='JSON file with {"gram": ...}')
    sp.add_argument("--c", action="append", required=True,
                    metavar="RAT,RAT,...", help="repeat for E2/E3")
    sp.add_argument("--x", required=True, metavar="FLOAT,FLOAT,...")
    return p


def _load_ngon(path):
    space, cs = jsonio.load_ngon_file(path)
    return space, validate(space, cs)


def _dump_invalid(violations, out):
    """The report of a collection that fails its conditions: exit code 2."""
    jsonio.dump_report(out, valid=False, violations=violations)
    return 2


def cmd_ngon(args):
    space, cs = jsonio.load_ngon_file(args.ngon)
    try:
        ngon = validate(space, cs)
    except NGonValidationError as e:
        if args.action != "validate":
            raise
        return _dump_invalid([{"j": v.j, "condition": v.condition,
                               "message": v.message} for v in e.violations],
                             args.out)
    if args.action == "validate":
        jsonio.dump_report(args.out, valid=True, n=ngon.n)
    elif args.action == "eps":
        kv = epsilon(ngon, _parse_vector_arg(args.x, "--x", space.dim))
        jsonio.dump_report(args.out, eps=kv.eps, regular=kv.regular)
    else:
        v = _parse_vector_arg(args.v, "--v", space.dim) if args.v else None
        jsonio.dump_report(args.out, w=w_invariant(ngon, v))
    return 0


def cmd_theta(args):
    from .lattice import LatticeCoset, holomorphic_series, completion_eval, \
        modularity_check
    lat_space, mu = jsonio.load_lattice_file(args.lattice)
    ngon_space, ngon = _load_ngon(args.ngon)
    if lat_space.gram != ngon_space.gram:
        raise InputError("lattice and N-gon Gram matrices differ")
    if args.action == "modularity":
        nmax, tau = parse_rational(args.nmax), _parse_tau(args.tau)
        rep = modularity_check(lat_space, ngon, tau, nmax)
        jsonio.dump_report(
            args.out, **{k: rep[k] for k in (
                "t_defect", "s_defect", "tail", "weil_unitarity",
                "weil_composition")},
            theta=[[z.real, z.imag] for z in rep["theta"]])
        return 0
    if args.mu:
        mu = _parse_vector_arg(args.mu, "--mu", lat_space.dim)
    coset = LatticeCoset(lat_space, mu)
    nmax = parse_rational(args.nmax)
    if args.action == "series":
        qe = holomorphic_series(coset, ngon, nmax,
                                normalized=args.normalized)
        jsonio.dump_series(qe, args.format, args.out, args.emit_plot_data)
    else:
        tau = _parse_tau(args.tau)
        value, tail = completion_eval(coset, ngon, tau, nmax)
        jsonio.dump_report(args.out, tau=[tau.real, tau.imag],
                           value=[value.real, value.imag], tail=tail)
    return 0


def cmd_sig12(args):
    from .sig12 import SPACE_ABC, recover_ngon, truncated_class_series
    if args.action == "recover":
        pts = jsonio.load_points_file(args.points)
        ngon = recover_ngon(pts)
        jsonio.dump_report(args.out, space=jsonio.space_to_json(SPACE_ABC),
                           cs=[jsonio.vector_to_json(c) for c in ngon.cs],
                           w=w_invariant(ngon))
    elif args.action == "winding":
        space, ngon = _load_ngon(args.ngon)
        x = _parse_vector_arg(args.x, "--x", space.dim)
        jsonio.dump_report(args.out, winding=linking_number(ngon, x),
                           eps=epsilon(ngon, x).eps)
    else:
        qe = truncated_class_series(parse_rational(args.t),
                                    parse_rational(args.nmax))
        jsonio.dump_series(qe, args.format, args.out, args.emit_plot_data)
    return 0


def cmd_dodec(args):
    from .dodec import (DodecValidationError, validate_dodec, dodec_P_kernel,
                        dodec_series)
    from .lattice import LatticeCoset
    space, cs = jsonio.load_dodec_file(args.data)
    try:
        dodec = validate_dodec(space, cs)
    except DodecValidationError as e:
        # a face with (C_i, C_i) >= 0 has no projected 5-gon to report on
        if args.action != "validate" or isinstance(e.diagnostics[0][1], str):
            raise
        return _dump_invalid([{"face": i, "j": v.j, "condition": v.condition,
                               "message": v.message}
                              for i, v in e.diagnostics], args.out)
    if args.action == "validate":
        jsonio.dump_report(args.out, valid=True)
    elif args.action == "kernel":
        p = dodec_P_kernel(dodec, _parse_vector_arg(args.x, "--x", space.dim))
        jsonio.dump_report(args.out,
                           D=rat_to_str(p + Fraction(dodec.level_at(), 8)),
                           P=rat_to_str(p))
    else:
        mu = _parse_vector_arg(args.mu, "--mu", space.dim) if args.mu \
            else None
        qe = dodec_series(LatticeCoset(space, mu), dodec,
                          parse_rational(args.nmax))
        jsonio.dump_series(qe, args.format, args.out, args.emit_plot_data)
    return 0


def cmd_errfn(args):
    from .errfn import E1, E2, E3
    space = jsonio.space_from_json(jsonio.load_json(args.space), args.space)
    cs = [_parse_vector_arg(c, "--c", space.dim) for c in args.c]
    x = _parse_vector_arg(args.x, "--x", space.dim)
    if any(abs(t) > X_MAX for t in x):
        raise InputError(f"--x {args.x!r}: entries must be at most "
                         f"{X_MAX:g} in absolute value")
    x = [float(t) for t in x]
    fn = {1: E1, 2: E2, 3: E3}.get(len(cs))
    if fn is None:
        raise InputError("errfn eval takes 1, 2, or 3 --c vectors")
    jsonio.write(f"E{len(cs)} = {fn(space, *cs, x):.10f}\n", args.out)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    from .lattice import CertificationError
    from .errfn import QuadratureError
    try:
        if args.command == "ngon":
            return cmd_ngon(args)
        if args.command == "theta":
            return cmd_theta(args)
        if args.command == "sig12":
            return cmd_sig12(args)
        if args.command == "dodec":
            return cmd_dodec(args)
        return cmd_errfn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CertificationError, QuadratureError) as e:
        print(f"numerical certification error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
