"""JSON/CSV serialization: rationals as "p/q" strings, floats as shortest
round-trip decimals, one schema version field per file, deterministic
formatting (byte-identical from run to run); parse_rational
reads ASCII integers and p/q with int(), other strings with Fraction.
Series are written from QExpansion's integers, with one gcd per string."""

import json
import math
import re
import sys
from fractions import Fraction

from .qspace import QuadraticSpace, vec

SCHEMA_VERSION = 1
EXP_MAX = 4300      # larger exponents are refused: Python's cap on int(str)
_INTEGER = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")
_EXPONENT = re.compile(r"\s*[-+]?(?=\.?\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?"
                       r"[eE]([-+]?\d+(?:_\d+)*)\s*")


class InputError(ValueError):
    """Malformed input file (bad JSON, missing fields, bad rationals)."""


def rat_to_str(p, q=1):
    """p/q in lowest terms as "p/q", or "p" if whole; p int or Fraction."""
    p, q = p.numerator, p.denominator * q
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def parse_rational(s):
    """The Fraction of a JSON int or rational string, with Fraction(s)'s
    values and error texts; a decimal exponent above EXP_MAX is refused."""
    if isinstance(s, str):
        try:
            if m := _INTEGER.fullmatch(s):
                n, q = int(m[1]), m[2]
                return Fraction(n) if q is None else Fraction(n, int(q))
            if (m := _EXPONENT.fullmatch(s)) and abs(int(m[1])) > EXP_MAX:
                raise ValueError(f"exponent above {EXP_MAX} in absolute value")
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational string {s!r}: {e}") from None
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    floats = " (floats are not accepted)" if isinstance(s, float) else ""
    raise InputError(f"not a rational: {s!r}{floats}")


def parse_vector(obj, key=None, path=None):
    """The rationals of a JSON array, as a tuple; an error names the file
    `path` and the field `key` of the array, when given."""
    try:
        if not isinstance(obj, (list, tuple)):
            raise InputError(f"vector must be an array, got {obj!r}")
        return tuple(map(parse_rational, obj))
    except InputError as e:
        raise InputError(f"{path}: field {key!r}: {e}") if key else e from None


def vector_to_json(v):
    return [rat_to_str(t) for t in vec(v)]


def load_json(path):
    """The JSON document of the UTF-8 file `path`; every failure to read or
    parse it is an InputError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text: byte {e.start}: "
                         f"{e.reason}") from None
    except json.JSONDecodeError as e:
        raise InputError(
            f"{path}: malformed JSON at line {e.lineno}, column {e.colno}: "
            f"{e.msg}") from None


def _field(obj, key, path):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{path}: missing field {key!r}")
    return obj[key]


def _array(obj, key, path):
    """The field `key` of obj, which must be a JSON array."""
    v = _field(obj, key, path)
    if not isinstance(v, list):
        raise InputError(f"{path}: field {key!r} must be an array, got {v!r}")
    return v


def _vector(obj, key, path, dim):
    """The field `key` of obj: one rational vector of dim entries."""
    v = _array(obj, key, path)
    if len(v) != dim:
        raise InputError(f"{path}: {key} has {len(v)} entries; the space has "
                         f"dimension {dim}")
    return parse_vector(v, key, path)


def _vectors(obj, key, path, dim):
    """The field `key` of obj: an array of rational vectors of dim entries."""
    vs = _array(obj, key, path)
    for v in vs:
        if not isinstance(v, list) or len(v) != dim:
            raise InputError(f"{path}: field {key!r} must hold vectors of "
                             f"{dim} entries, got {v!r}")
    return [parse_vector(v, key, path) for v in vs]


def space_from_json(obj, path="<input>"):
    rows = [parse_vector(r, "gram", path) for r in _array(obj, "gram", path)]
    try:
        return QuadraticSpace(rows)
    except ValueError as e:
        raise InputError(f"{path}: bad gram matrix: {e}") from None


def space_to_json(space):
    return {"gram": [[rat_to_str(v) for v in row] for row in space.gram]}


def load_ngon_file(path):
    """{"schema_version": 1, "space": {"gram": ...}, "cs": [[rat, ...], ...]}"""
    obj = load_json(path)
    space = space_from_json(_field(obj, "space", path), path)
    return space, _vectors(obj, "cs", path, space.dim)


def load_lattice_file(path):
    """{"schema_version": 1, "gram": ..., "mu": [rat, ...] (optional)}"""
    obj = load_json(path)
    space = space_from_json(obj, path)
    return space, _vector(obj, "mu", path, space.dim) if "mu" in obj else None


def load_points_file(path):
    """{"schema_version": 1, "points": [["x", "y"], ...]} upper-half-plane."""
    obj = load_json(path)
    pts = _array(obj, "points", path)
    if not all(isinstance(p, list) and len(p) == 2 for p in pts):
        raise InputError(f"{path}: field 'points' must hold [x, y] pairs")
    return [parse_vector(p, "points", path) for p in pts]


def load_dodec_file(path):
    """{"schema_version": 1, "space": ..., "cs": [12 vectors]} or with a
    "seed": {"z0_basis": [3 vectors], "v0": vector, "t": rational or [12]}."""
    from .dodec import seed_construction
    obj = load_json(path)
    space = space_from_json(_field(obj, "space", path), path)
    if "cs" in obj:
        cs = _vectors(obj, "cs", path, space.dim)
    elif "seed" in obj:
        seed = obj["seed"]
        basis = _vectors(seed, "z0_basis", path, space.dim)
        v0 = _vector(seed, "v0", path, space.dim)
        traw = seed.get("t", 0)
        t = parse_vector(traw, "t", path) if isinstance(traw, list) \
            else parse_vector([traw], "t", path)[0]
        cs = seed_construction(space, basis, v0, t)
    else:
        raise InputError(f"{path}: need either 'cs' or 'seed'")
    return space, cs


def qexpansion_to_json(qe):
    q, d = qe.qden, qe.den
    return {
        "schema_version": SCHEMA_VERSION,
        "mu": vector_to_json(qe.mu),
        "nmax": rat_to_str(qe.nmax),
        "normalized": bool(qe.normalized),
        "flags": [rat_to_str(f, q) for f in qe.flag_exps],
        "coeffs": {rat_to_str(e, q): rat_to_str(c, d) if c % d else c // d
                   for e, c in zip(qe.exps, qe.nums)},
    }


def dump_json(obj, out=None):
    text = json.dumps(obj, indent=2, separators=(",", ": ")) + "\n"
    write(text, out)
    return text


def dump_report(out, **fields):
    """A CLI report: {"schema_version": SCHEMA_VERSION, **fields}."""
    return dump_json({"schema_version": SCHEMA_VERSION, **fields}, out)


def dump_series(qe, fmt="json", out=None, plot=None):
    """JSON or CSV (fmt) of a series to out; its (n, c(n)) TSV to plot."""
    q, d, terms = qe.qden, qe.den, list(zip(qe.exps, qe.nums))
    if plot:
        write("".join(f"{e / q!r}\t{c / d!r}\n" for e, c in terms), plot)
    if fmt == "csv":
        write("n,c\n" + "".join(f"{rat_to_str(e, q)},{rat_to_str(c, d)}\n"
                                for e, c in terms), out)
    else:
        dump_json(qexpansion_to_json(qe), out)


def write(text, out=None):
    """Write text to the file `out`, or to stdout when out is None or "";
    a file that cannot be written is an InputError naming it."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {out}: {e.strerror or e}") from None
