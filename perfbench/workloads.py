"""Seeded inputs, op lists and output checks for the three workloads.

Every workload is a closed loop: one process runs a fixed op list, one op
after another.  The op list depends only on the seed and on the requested
run length; it is never cut by the clock.  Each op is either a call of
``ngontheta.cli.main`` (captured stdout) or, where no subcommand exists, a
call of the public function.  Functions are looked up on their module at
call time, so the tracer's wrappers see them.

Draws are stratified: a pass of k ops over a range splits the range into k
equal bins and draws once per bin, in seed-shuffled order.  Every seed then
gets the same spread of op sizes, which keeps pass cost nearly independent
of the seed while the inputs themselves differ.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

# One pass is sized for this many seconds; --seconds scales the op counts.
BASE_SECONDS = 20.0

# class_series: `sig12 zagier` ops (counts per BASE_SECONDS, nmax ranges).
# Narrow ranges keep the ops alike in cost, so op_s.p50 is the typical op,
# not whichever op sits at the middle of a wide size spread.
ZAGIER_T2_OPS, ZAGIER_T2_NMAX = 13, (140, 170)
ZAGIER_T3_OPS, ZAGIER_T3_NMAX = 4, (100, 115)

# modularity: `theta modularity` on fundamental_ngon(2) over SPACE_ABC.
# nmax = 6 keeps the tail bound below 1e-6 over the whole tau box (the
# worst corner, tau = -1/2 + 1.25i, gives about 2e-8).
MODULARITY_OPS, MODULARITY_NMAX = 3, 6
TAU_RE, TAU_IM = (-0.5, 0.5), (0.8, 1.25)

# dodec: series over 13 of the 16 cosets, kernel at +-x pairs (the majority,
# so op_s.p50 is a kernel op), E at a few points
DODEC_SERIES_OPS, DODEC_SERIES_NMAX = 13, (2, 8)
DODEC_KERNEL_PAIRS = 16
DODEC_E_OPS = 2
E_REF_TOL = 1e-9          # |E - E_ref| allowed against the recorded values

# the seed dodecahedron of tests/conftest.py
Q3_GRAM = ((2, 0, 0, 0), (0, -2, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2))
Q3_Z0 = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
Q3_V0 = (1, 0, 0, 0)
Q3_T = tuple(Fraction(a + 3, 40) for a in range(12))

WORKLOADS = ("class_series", "modularity", "dodec")


@dataclass
class Op:
    kind: str
    argv: list = None          # cli.main arguments, or None for a direct call
    call: tuple = None         # (module name, function name, args)
    meta: dict = field(default_factory=dict)


@dataclass
class Inputs:
    """Generated input files and the validated objects behind them."""
    files: dict = field(default_factory=dict)
    objects: dict = field(default_factory=dict)


def _scaled(count, seconds):
    return max(1, round(count * seconds / BASE_SECONDS))


def _stratified(rng, k, lo, hi):
    """k floats, one uniform draw in each of k equal bins of [lo, hi],
    in shuffled order."""
    vals = [lo + (hi - lo) * (j + rng.random()) / k for j in range(k)]
    rng.shuffle(vals)
    return vals


def _rat(r):
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else \
        f"{r.numerator}/{r.denominator}"


def vec_arg(v):
    return ",".join(_rat(c) for c in v)


def series_key(mu, nmax):
    """Key of a dodec series reference: coset and nmax."""
    return f"{vec_arg(mu)}|{nmax}"


def _dump(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")


# --- inputs -----------------------------------------------------------------

def make_inputs(workload, workdir):
    """Write the workload's input JSON from code, load it back through
    ngontheta.jsonio and validate it.  Part of set-up time."""
    from ngontheta import jsonio
    from ngontheta.ngon import validate
    inp = Inputs()
    if workload == "modularity":
        from ngontheta.sig12 import SPACE_ABC, fundamental_ngon
        ngon = fundamental_ngon(2)
        ngon_path, lat_path = workdir / "funddom.json", workdir / "lattice.json"
        _dump(ngon_path, {"schema_version": 1,
                          "space": jsonio.space_to_json(SPACE_ABC),
                          "cs": [jsonio.vector_to_json(c) for c in ngon.cs]})
        _dump(lat_path, {"schema_version": 1,
                         **jsonio.space_to_json(SPACE_ABC)})
        space, cs = jsonio.load_ngon_file(str(ngon_path))
        validate(space, cs)
        lat_space, _ = jsonio.load_lattice_file(str(lat_path))
        if lat_space.gram != space.gram:
            raise ValueError("generated lattice and N-gon Gram matrices differ")
        inp.files.update(ngon=str(ngon_path), lattice=str(lat_path))
    elif workload == "dodec":
        from ngontheta.dodec import seed_construction, validate_dodec
        from ngontheta.qspace import QuadraticSpace
        space = QuadraticSpace(Q3_GRAM)
        cs = seed_construction(space, Q3_Z0, Q3_V0, Q3_T)
        path = workdir / "dodec_seed.json"
        _dump(path, {"schema_version": 1,
                     "space": jsonio.space_to_json(space),
                     "cs": [jsonio.vector_to_json(c) for c in cs]})
        space2, cs2 = jsonio.load_dodec_file(str(path))
        dodec = validate_dodec(space2, cs2)
        inp.files["dodec"] = str(path)
        inp.objects["dodec"] = dodec
    elif workload != "class_series":
        raise ValueError(f"unknown workload {workload!r}")
    return inp


# --- op lists -----------------------------------------------------------------

def make_ops(workload, seed, seconds, inp):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "class_series":
        return _class_series_ops(rng, seconds)
    if workload == "modularity":
        return _modularity_ops(rng, seconds, inp)
    return _dodec_ops(rng, seed, seconds, inp)


def _class_series_ops(rng, seconds):
    ops = []
    for t, count, (lo, hi) in ((2, ZAGIER_T2_OPS, ZAGIER_T2_NMAX),
                               (3, ZAGIER_T3_OPS, ZAGIER_T3_NMAX)):
        k = _scaled(count, seconds)
        for v in _stratified(rng, k, lo, hi + 1):
            n = min(int(v), hi)
            ops.append(Op("zagier",
                          argv=["sig12", "zagier", "--T", str(t),
                                "--nmax", str(n)],
                          meta={"T": t, "nmax": n}))
    rng.shuffle(ops)
    return ops


def _modularity_ops(rng, seconds, inp):
    k = _scaled(MODULARITY_OPS, seconds)
    res = _stratified(rng, k, *TAU_RE)
    ims = _stratified(rng, k, *TAU_IM)
    ops = []
    for re_, im in zip(res, ims):
        tau = f"{re_:.4f}{im:+.4f}i"
        ops.append(Op("modularity",
                      argv=["theta", "modularity",
                            "--ngon", inp.files["ngon"],
                            "--lattice", inp.files["lattice"],
                            f"--tau={tau}", "--nmax", str(MODULARITY_NMAX)],
                      meta={"tau": tau}))
    return ops


def e_point(seed, i):
    """The i-th E-kernel point of a seed; independent of the run length, so
    the recorded references apply to any --seconds."""
    rng = random.Random(f"dodec:{seed}:E:{i}")
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(4))


def dodec_cosets():
    """The 16 coset representatives of L∨/L for diag(2,-2,-2,-2)."""
    return [tuple(Fraction(b >> k & 1, 2) for k in (3, 2, 1, 0))
            for b in range(16)]


def _dodec_ops(rng, seed, seconds, inp):
    data = inp.files["dodec"]
    ops = []
    cosets = dodec_cosets()
    rng.shuffle(cosets)
    lo, hi = DODEC_SERIES_NMAX
    for j in range(_scaled(DODEC_SERIES_OPS, seconds)):
        mu, nmax = cosets[j % len(cosets)], rng.randint(lo, hi)
        ops.append(Op("dodec_series",
                      argv=["dodec", "series", "--data", data,
                            "--mu", vec_arg(mu), "--nmax", str(nmax)],
                      meta={"key": series_key(mu, nmax)}))
    for pair in range(_scaled(DODEC_KERNEL_PAIRS, seconds)):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(4))
        for sign in (1, -1):
            ops.append(Op("dodec_kernel",
                          argv=["dodec", "kernel", "--data", data,
                                "--x=" + vec_arg(sign * c for c in x)],
                          meta={"pair": pair, "sign": sign}))
    for i in range(_scaled(DODEC_E_OPS, seconds)):
        x = e_point(seed, i)
        ops.append(Op("dodec_E",
                      call=("dodec", "dodec_E_kernel",
                            (inp.objects["dodec"], x)),
                      meta={"x": vec_arg(x)}))
    rng.shuffle(ops)
    return ops


# --- running ------------------------------------------------------------------

def run_op(op):
    """Run one op; returns its output (text for CLI ops, the value for
    direct calls).  Raises on a nonzero exit code."""
    import importlib
    if op.argv is not None:
        cli = importlib.import_module("ngontheta.cli")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()
    mod, name, args = op.call
    fn = getattr(importlib.import_module(f"ngontheta.{mod}"), name)
    return fn(*args)


# --- checks -------------------------------------------------------------------

def load_refs():
    refs = {}
    for name in ("dodec_series", "dodec_E"):
        path = REFS / f"{name}.json"
        refs[name] = json.loads(path.read_text()) if path.exists() else {}
    return refs


def reduced_form_count(n, cut):
    """2 * #{reduced forms [a,b,c] of discriminant -n with c/a < cut}:
    |b| <= a <= c, b >= 0 when |b| = a or a = c."""
    count = 0
    b = n % 2
    while 3 * b * b <= n:
        ac, rem = divmod(b * b + n, 4)
        if rem == 0:
            a = max(b, 1)
            while a * a <= ac:
                if ac % a == 0:
                    c = ac // a
                    for bb in {b, -b}:
                        if bb < 0 and (b == a or a == c):
                            continue
                        if Fraction(c, a) < cut:
                            count += 1
                a += 1
        b += 2
    return 2 * count


def _eighth_integral(coeffs):
    return all((8 * Fraction(c)).denominator == 1 for c in coeffs.values())


def check_outputs(ops, outputs, refs):
    """List of (op index, reason) for every op whose output fails its check.
    Outputs that raised are already failures and are not passed here."""
    bad = []
    kernel = {}
    for i, op in enumerate(ops):
        if i not in outputs:
            continue
        why = _check_one(op, outputs[i], refs)
        if why:
            bad.append((i, why))
        elif op.kind == "dodec_kernel":
            kernel.setdefault(op.meta["pair"], {})[op.meta["sign"]] = i
    # kernel oracle: D is odd in x, and P - D = -D(v) is the same constant
    # for every x
    shift = None
    for pair, idx in sorted(kernel.items()):
        vals = {s: json.loads(outputs[i]) for s, i in idx.items()}
        if len(vals) != 2:
            continue
        d_pos, d_neg = Fraction(vals[1]["D"]), Fraction(vals[-1]["D"])
        shifts = {Fraction(v["P"]) - Fraction(v["D"]) for v in vals.values()}
        if shift is None:
            shift = next(iter(shifts))
        if d_pos != -d_neg or shifts != {shift}:
            bad.extend((i, f"kernel pair {pair}: D not odd or P - D varies")
                       for i in idx.values())
    return bad


def _check_one(op, out, refs):
    if op.kind == "zagier":
        obj = json.loads(out)
        coeffs = obj["coeffs"]
        if not _eighth_integral(coeffs):
            return "coefficient with 8c not integral"
        nmax, cut = op.meta["nmax"], Fraction(op.meta["T"]) ** 2 + Fraction(1, 4)
        flags = {Fraction(f) for f in obj["flags"]}
        got = {Fraction(k): Fraction(v) for k, v in coeffs.items()}
        if any(not 0 < k <= nmax or k.denominator != 1 for k in got):
            return "exponent outside 1..nmax"
        for n in range(1, nmax + 1):
            if n in flags:
                continue
            want = reduced_form_count(n, cut)
            if got.get(Fraction(n), 0) != want:
                return f"c({n}) = {got.get(Fraction(n), 0)}, oracle {want}"
        return None
    if op.kind == "modularity":
        rep = json.loads(out)
        if not (rep["t_defect"] < 1e-8 and rep["s_defect"] < 1e-3
                and rep["tail"] < 1e-6):
            return (f"t/s defect {rep['t_defect']:.3g}/{rep['s_defect']:.3g}, "
                    f"tail {rep['tail']:.3g}")
        if not (rep["weil_unitarity"] < 1e-9 and rep["weil_composition"] < 1e-9):
            return "Weil matrices fail unitarity or composition"
        if len(rep["theta"]) != 32 or not all(
                math.isfinite(v) for z in rep["theta"] for v in z):
            return "theta vector is not 32 finite values"
        return None
    if op.kind == "dodec_series":
        if not _eighth_integral(json.loads(out)["coeffs"]):
            return "coefficient with 8c not integral"
        ref = refs["dodec_series"].get(op.meta["key"])
        if ref is None:
            return f"no reference for series {op.meta['key']}"
        return None if out == ref else "series differs from the reference"
    if op.kind == "dodec_kernel":
        obj = json.loads(out)
        if not _eighth_integral({k: obj[k] for k in ("D", "P")}):
            return "kernel value with 8D or 8P not integral"
        return None
    if op.kind == "dodec_E":
        # |E| <= (20 vertex terms + sum of |w| over the 12 faces) / 8 <= 7
        if not (isinstance(out, float) and math.isfinite(out) and abs(out) <= 7):
            return f"E = {out!r} is not a finite value in [-7, 7]"
        ref = refs["dodec_E"].get(op.meta["x"])
        if ref is not None and abs(out - ref) > E_REF_TOL:
            return f"E = {out!r}, reference {ref!r}"
        return None
    return f"unknown op kind {op.kind!r}"
