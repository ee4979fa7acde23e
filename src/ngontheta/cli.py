"""Command-line interface.

Subcommands:
  ngon  validate | eps | w        exact N-gon validation and sign kernel
  theta series | complete | modularity
                                  q-expansions, completed values, transforms
  sig12 recover | winding | zagier
                                  signature-(1,2) geometry utilities
  dodec validate | kernel | series
                                  dodecahedral collections
  errfn eval                      generalized error function values

Exit codes: 0 success; 1 malformed input (bad JSON, missing file, a field
or vector argument of the wrong shape, a non-finite tau or |tau| > TAU_MAX); 2
validation failure; 3 certification or quadrature failure.
"""

import argparse
import cmath
import functools
import sys

from . import jsonio
from .jsonio import InputError, parse_rational, rat_to_str
from .ngon import (NGonValidationError, validate, epsilon, w_invariant,
                   check_conditions)

TAU_MAX = 1e50  # beyond it Im(-1/tau) can underflow or floats overflow


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

    ngon = sub.add_parser("ngon", help="N-gon validation and kernels")
    ngon_sub = ngon.add_subparsers(dest="action", required=True)
    for name in ("validate", "eps", "w"):
        sp = ngon_sub.add_parser(name)
        sp.add_argument("--ngon", required=True, metavar="FILE")
        if name == "eps":
            sp.add_argument("--x", required=True, metavar="RAT,RAT,...")
        if name == "w":
            sp.add_argument("--v", metavar="RAT,RAT,...")
        sp.add_argument("--out", metavar="FILE")

    theta = sub.add_parser("theta", help="q-expansions and modularity")
    theta_sub = theta.add_subparsers(dest="action", required=True)
    for name in ("series", "complete", "modularity"):
        sp = theta_sub.add_parser(name)
        sp.add_argument("--lattice", required=True, metavar="FILE")
        sp.add_argument("--ngon", required=True, metavar="FILE")
        sp.add_argument("--nmax", required=True)
        sp.add_argument("--mu", metavar="RAT,RAT,...")
        sp.add_argument("--out", metavar="FILE")
        if name == "series":
            sp.add_argument("--normalized", action="store_true")
            sp.add_argument("--format", choices=("json", "csv"),
                            default="json")
            sp.add_argument("--emit-plot-data", metavar="FILE")
            sp.add_argument("--safety", type=float, default=1.5)
        else:
            sp.add_argument("--tau", required=True, metavar="A+BI")

    sig12 = sub.add_parser("sig12", help="signature-(1,2) utilities")
    sig_sub = sig12.add_subparsers(dest="action", required=True)
    sp = sig_sub.add_parser("recover")
    sp.add_argument("--points", required=True, metavar="FILE")
    sp.add_argument("--out", metavar="FILE")
    sp = sig_sub.add_parser("winding")
    sp.add_argument("--ngon", required=True, metavar="FILE")
    sp.add_argument("--x", required=True, metavar="RAT,RAT,RAT")
    sp.add_argument("--out", metavar="FILE")
    sp = sig_sub.add_parser("zagier")
    sp.add_argument("--T", required=True, dest="t")
    sp.add_argument("--nmax", required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--emit-plot-data", metavar="FILE")
    sp.add_argument("--out", metavar="FILE")

    dodec = sub.add_parser("dodec", help="dodecahedral collections")
    dodec_sub = dodec.add_subparsers(dest="action", required=True)
    for name in ("validate", "kernel", "series"):
        sp = dodec_sub.add_parser(name)
        sp.add_argument("--data", required=True, metavar="FILE")
        sp.add_argument("--out", metavar="FILE")
        if name == "kernel":
            sp.add_argument("--x", required=True, metavar="RAT,RAT,...")
        if name == "series":
            sp.add_argument("--nmax", required=True)
            sp.add_argument("--mu", metavar="RAT,RAT,...")
            sp.add_argument("--format", choices=("json", "csv"),
                            default="json")
            sp.add_argument("--emit-plot-data", metavar="FILE")

    errfn = sub.add_parser("errfn", help="generalized error functions")
    errfn_sub = errfn.add_subparsers(dest="action", required=True)
    sp = errfn_sub.add_parser("eval")
    sp.add_argument("--space", required=True, metavar="FILE",
                    help='JSON file with {"gram": ...}')
    sp.add_argument("--c", action="append", required=True,
                    metavar="RAT,RAT,...", help="repeat for E2/E3")
    sp.add_argument("--x", required=True, metavar="FLOAT,FLOAT,...")
    sp.add_argument("--out", metavar="FILE")
    return p


def _load_ngon(path):
    space, cs = jsonio.load_ngon_file(path)
    return space, validate(space, cs)


def cmd_ngon(args):
    space, cs = jsonio.load_ngon_file(args.ngon)
    if args.action == "validate":
        bad = check_conditions(space, cs)
        if bad:
            report = {"schema_version": jsonio.SCHEMA_VERSION, "valid": False,
                      "violations": [{"j": v.j, "condition": v.condition,
                                      "message": v.message} for v in bad]}
            jsonio.dump_json(report, args.out)
            return 2
        jsonio.dump_json({"schema_version": jsonio.SCHEMA_VERSION,
                          "valid": True, "n": len(cs)}, args.out)
        return 0
    ngon = validate(space, cs)
    if args.action == "eps":
        kv = epsilon(ngon, _parse_vector_arg(args.x, "--x", space.dim))
        jsonio.dump_json({"schema_version": jsonio.SCHEMA_VERSION,
                          "eps": kv.eps, "regular": kv.regular}, args.out)
    else:
        v = _parse_vector_arg(args.v, "--v", space.dim) if args.v else None
        jsonio.dump_json({"schema_version": jsonio.SCHEMA_VERSION,
                          "w": w_invariant(ngon, v)}, args.out)
    return 0


def cmd_theta(args):
    from .lattice import LatticeCoset, holomorphic_series, completion_eval, \
        modularity_check
    lat_space, mu = jsonio.load_lattice_file(args.lattice)
    ngon_space, ngon = _load_ngon(args.ngon)
    if lat_space.gram != ngon_space.gram:
        raise InputError("lattice and N-gon Gram matrices differ")
    if args.mu:
        mu = _parse_vector_arg(args.mu, "--mu", lat_space.dim)
    coset = LatticeCoset(lat_space, mu)
    nmax = parse_rational(args.nmax)
    if args.action == "series":
        qe = holomorphic_series(coset, ngon, nmax,
                                normalized=args.normalized,
                                safety=args.safety)
        _emit_series(qe, args)
    elif args.action == "complete":
        tau = _parse_tau(args.tau)
        value, tail = completion_eval(coset, ngon, tau, nmax)
        jsonio.dump_json({"schema_version": jsonio.SCHEMA_VERSION,
                          "tau": [tau.real, tau.imag],
                          "value": [value.real, value.imag],
                          "tail": tail}, args.out)
    else:
        tau = _parse_tau(args.tau)
        rep = modularity_check(lat_space, ngon, tau, nmax)
        jsonio.dump_json({
            "schema_version": jsonio.SCHEMA_VERSION,
            "t_defect": rep["t_defect"],
            "s_defect": rep["s_defect"],
            "tail": rep["tail"],
            "weil_unitarity": rep["weil_unitarity"],
            "weil_composition": rep["weil_composition"],
            "theta": [[z.real, z.imag] for z in rep["theta"]],
        }, args.out)
    return 0


def _emit_series(qe, args):
    if getattr(args, "emit_plot_data", None):
        jsonio.dump_plot_data(qe, args.emit_plot_data)
    if getattr(args, "format", "json") == "csv":
        jsonio.dump_qexpansion_csv(qe, args.out)
    else:
        jsonio.dump_json(jsonio.qexpansion_to_json(qe), args.out)


def cmd_sig12(args):
    from .sig12 import (SPACE_ABC, recover_ngon, winding_number,
                        truncated_class_series)
    if args.action == "recover":
        pts = jsonio.load_points_file(args.points)
        ngon = recover_ngon(pts)
        jsonio.dump_json({
            "schema_version": jsonio.SCHEMA_VERSION,
            "space": jsonio.space_to_json(SPACE_ABC),
            "cs": [jsonio.vector_to_json(c) for c in ngon.cs],
            "w": w_invariant(ngon),
        }, args.out)
    elif args.action == "winding":
        space, ngon = _load_ngon(args.ngon)
        x = _parse_vector_arg(args.x, "--x", space.dim)
        k = winding_number(ngon, x)
        jsonio.dump_json({"schema_version": jsonio.SCHEMA_VERSION,
                          "winding": k, "eps": epsilon(ngon, x).eps},
                         args.out)
    else:
        qe = truncated_class_series(parse_rational(args.t),
                                    parse_rational(args.nmax))
        _emit_series(qe, args)
    return 0


def cmd_dodec(args):
    from .dodec import (check_dodec_conditions, validate_dodec,
                        dodec_D_kernel, dodec_P_kernel, dodec_series)
    from .lattice import LatticeCoset
    space, cs = jsonio.load_dodec_file(args.data)
    if args.action == "validate":
        bad = check_dodec_conditions(space, cs)
        if bad:
            report = {"schema_version": jsonio.SCHEMA_VERSION, "valid": False,
                      "violations": [{"face": i, "j": v.j,
                                      "condition": v.condition,
                                      "message": v.message}
                                     for i, v in bad]}
            jsonio.dump_json(report, args.out)
            return 2
        jsonio.dump_json({"schema_version": jsonio.SCHEMA_VERSION,
                          "valid": True}, args.out)
        return 0
    dodec = validate_dodec(space, cs)
    if args.action == "kernel":
        x = _parse_vector_arg(args.x, "--x", space.dim)
        jsonio.dump_json({
            "schema_version": jsonio.SCHEMA_VERSION,
            "D": rat_to_str(dodec_D_kernel(dodec, x)),
            "P": rat_to_str(dodec_P_kernel(dodec, x)),
        }, args.out)
    else:
        mu = _parse_vector_arg(args.mu, "--mu", space.dim) if args.mu \
            else None
        qe = dodec_series(LatticeCoset(space, mu), dodec,
                          parse_rational(args.nmax))
        _emit_series(qe, args)
    return 0


def cmd_errfn(args):
    from .errfn import E1, E2, E3
    space = jsonio.space_from_json(jsonio.load_json(args.space), args.space)
    cs = [_parse_vector_arg(c, "--c", space.dim) for c in args.c]
    x = [float(t) for t in _parse_vector_arg(args.x, "--x", space.dim)]
    fn = {1: E1, 2: E2, 3: E3}.get(len(cs))
    if fn is None:
        raise InputError("errfn eval takes 1, 2, or 3 --c vectors")
    out = f"E{len(cs)} = {fn(space, *cs, x):.10f}\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    from .dodec import DodecValidationError
    from .sig12 import OrientationError
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
    except (NGonValidationError, DodecValidationError, OrientationError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except (CertificationError, QuadratureError) as e:
        print(f"numerical certification error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
