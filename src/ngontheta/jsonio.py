"""JSON/CSV serialization: rationals as "p/q" strings, floats as shortest
round-trip decimals, one schema version field per file, deterministic
formatting (byte-identical across runs and thread counts)."""

import json
import sys
from fractions import Fraction

from .qspace import QuadraticSpace, vec

SCHEMA_VERSION = 1


class InputError(ValueError):
    """Malformed input file (bad JSON, missing fields, bad rationals)."""


def rat_to_str(r):
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else \
        f"{r.numerator}/{r.denominator}"


def parse_rational(s):
    if isinstance(s, bool):
        raise InputError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational string {s!r}: {e}") from None
    raise InputError(f"not a rational: {s!r} (floats are not accepted)")


def parse_vector(obj):
    if not isinstance(obj, (list, tuple)):
        raise InputError(f"vector must be an array, got {obj!r}")
    return vec(tuple(parse_rational(t) for t in obj))


def vector_to_json(v):
    return [rat_to_str(t) for t in vec(v)]


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
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


def _vectors(obj, key, path, dim):
    """The field `key` of obj: an array of rational vectors of dim entries."""
    vs = _array(obj, key, path)
    for v in vs:
        if not isinstance(v, list) or len(v) != dim:
            raise InputError(f"{path}: field {key!r} must hold vectors of "
                             f"{dim} entries, got {v!r}")
    return [parse_vector(v) for v in vs]


def space_from_json(obj, path="<input>"):
    gram = _field(obj, "gram", path)
    try:
        return QuadraticSpace([[parse_rational(t) for t in row]
                               for row in gram])
    except (TypeError, ValueError) as e:
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
    mu = parse_vector(obj["mu"]) if "mu" in obj else None
    if mu is not None and len(mu) != space.dim:
        raise InputError(f"{path}: mu has {len(mu)} entries; the space has "
                         f"dimension {space.dim}")
    return space, mu


def load_points_file(path):
    """{"schema_version": 1, "points": [["x", "y"], ...]} upper-half-plane."""
    obj = load_json(path)
    pts = _array(obj, "points", path)
    if not all(isinstance(p, list) and len(p) == 2 for p in pts):
        raise InputError(f"{path}: field 'points' must hold [x, y] pairs")
    return [(parse_rational(p[0]), parse_rational(p[1])) for p in pts]


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
        v0 = parse_vector(_field(seed, "v0", path))
        traw = seed.get("t", 0)
        t = [parse_rational(u) for u in traw] if isinstance(traw, list) \
            else parse_rational(traw)
        cs = seed_construction(space, basis, v0, t)
    else:
        raise InputError(f"{path}: need either 'cs' or 'seed'")
    return space, cs


def coeff_to_json(c):
    if isinstance(c, Fraction) and c.denominator != 1:
        return rat_to_str(c)
    return int(c)


def qexpansion_to_json(qe):
    return {
        "schema_version": SCHEMA_VERSION,
        "mu": vector_to_json(qe.mu),
        "nmax": rat_to_str(qe.nmax),
        "normalized": bool(qe.normalized),
        "flags": [rat_to_str(n) for n in sorted(qe.flags)],
        "coeffs": {rat_to_str(n): coeff_to_json(c)
                   for n, c in sorted(qe.entries.items())},
    }


def dump_json(obj, out=None):
    text = json.dumps(obj, indent=2, separators=(",", ": ")) + "\n"
    _write(text, out)
    return text


def dump_qexpansion_csv(qe, out=None):
    lines = ["n,c"]
    for n, c in sorted(qe.entries.items()):
        lines.append(f"{rat_to_str(n)},{rat_to_str(Fraction(c))}")
    _write("\n".join(lines) + "\n", out)


def dump_plot_data(qe, path):
    """Tab-separated (n, c(n)) table for plotting."""
    with open(path, "w") as fh:
        for n, c in sorted(qe.entries.items()):
            fh.write(f"{float(n)!r}\t{float(c)!r}\n")


def _write(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)
