import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ngontheta import jsonio
from ngontheta.cli import main
from ngontheta.jsonio import (InputError, parse_rational, rat_to_str,
                              parse_vector, qexpansion_to_json)

from conftest import EXAMPLES, REPO

FUNDDOM = str(EXAMPLES / "funddom.json")
LATTICE = str(EXAMPLES / "lattice_sig12.json")
SPACE = str(EXAMPLES / "space_sig12.json")
POINTS = str(EXAMPLES / "points_square.json")
DODEC = str(EXAMPLES / "dodec_seed.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- jsonio unit behaviour ---------------------------------------------------

def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(-2) == -2
    for bad in (True, 0.5, "x", "1/0", None):
        with pytest.raises(InputError):
            parse_rational(bad)


def test_rat_to_str_round_trip():
    for r in (Fraction(3, 4), Fraction(-5), Fraction(0), Fraction(7, 2)):
        assert parse_rational(rat_to_str(r)) == r


def test_parse_vector_rejects_non_array():
    with pytest.raises(InputError):
        parse_vector("1,2,3")


def test_load_json_errors(tmp_path):
    with pytest.raises(InputError, match="no such file"):
        jsonio.load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(InputError, match="line 1"):
        jsonio.load_json(str(bad))


def test_qexpansion_to_json_shape():
    from ngontheta.lattice import QExpansion
    qe = QExpansion(mu=(0, Fraction(1, 2), 0),
                    entries={Fraction(2): 4, Fraction(1, 2): Fraction(1, 4)},
                    nmax=Fraction(3), flags={Fraction(2)}, normalized=True)
    obj = qexpansion_to_json(qe)
    assert obj["schema_version"] == 1
    assert obj["mu"] == ["0", "1/2", "0"]
    assert obj["normalized"] is True
    assert obj["flags"] == ["2"]
    assert obj["coeffs"] == {"1/2": "1/4", "2": 4}


def test_dump_json_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    obj = {"schema_version": 1, "x": ["1/2", "3"]}
    jsonio.dump_json(obj, str(p1))
    jsonio.dump_json(obj, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")


def test_examples_match_code(space_abc, funddom, space_q3, seed_dodec):
    """Each file under examples/ loads to the in-code object it mirrors."""
    from test_acceptance import SQUARE

    def load(loader, path):
        assert (EXAMPLES / path).is_file(), f"missing example file {path}"
        return loader(str(EXAMPLES / path))

    space, cs = load(jsonio.load_ngon_file, "funddom.json")
    assert space.gram == space_abc.gram and tuple(cs) == funddom.cs
    space, mu = load(jsonio.load_lattice_file, "lattice_sig12.json")
    assert space.gram == space_abc.gram and mu is None
    space = load(lambda p: jsonio.space_from_json(jsonio.load_json(p), p),
                 "space_sig12.json")
    assert space.gram == space_abc.gram
    assert load(jsonio.load_points_file, "points_square.json") == SQUARE
    space, cs = load(jsonio.load_dodec_file, "dodec_seed.json")
    assert space.gram == space_q3.gram and tuple(cs) == seed_dodec.cs


# --- ngon subcommand ---------------------------------------------------------

def test_cli_ngon_validate_ok(capsys):
    code, out, _ = run(capsys, "ngon", "validate", "--ngon", FUNDDOM)
    assert code == 0
    obj = json.loads(out)
    assert obj == {"schema_version": 1, "valid": True, "n": 4}


def test_cli_ngon_validate_bad(capsys, tmp_path):
    from ngontheta.sig12 import SPACE_ABC, butterfly_collection
    doc = {"schema_version": 1,
           "space": jsonio.space_to_json(SPACE_ABC),
           "cs": [jsonio.vector_to_json(c) for c in butterfly_collection()]}
    path = tmp_path / "butterfly.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "ngon", "validate", "--ngon", str(path))
    assert code == 2
    obj = json.loads(out)
    assert obj["valid"] is False
    assert [(v["j"], v["condition"]) for v in obj["violations"]] == \
        [(1, 3), (3, 3)]


def test_cli_ngon_validate_diagnostics(capsys, tmp_path):
    # C_2 = 0 and C_4 = 2 C_3: conditions (1), (2) and (3) all fail; the
    # full report is pinned byte for byte
    doc = json.loads(open(FUNDDOM).read())
    doc["cs"] = [["0", "-1", "1/2"], ["0", "0", "0"],
                 ["-1/3", "1/5", "17/8"], ["-2/3", "2/5", "17/4"],
                 ["1/2", "0", "-1/2"]]
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "ngon", "validate", "--ngon", str(path))
    assert code == 2
    zero = "plane Gram determinant 0 not > 0"
    turn = "turning quantity 0 not < 0"
    violations = [
        {"j": 2, "condition": 1, "message": "(C_2,C_2) = 0 not < 0"},
        {"j": 1, "condition": 2, "message": zero},
        {"j": 2, "condition": 2, "message": zero},
        {"j": 3, "condition": 2, "message": zero},
        {"j": 4, "condition": 2,
         "message": "plane Gram determinant -45649/900 not > 0"},
    ] + [{"j": j, "condition": 3, "message": turn} for j in (1, 2, 3, 4)]
    assert out == json.dumps({"schema_version": 1, "valid": False,
                              "violations": violations}, indent=2) + "\n"


def test_cli_ngon_eps_and_w(capsys):
    code, out, _ = run(capsys, "ngon", "eps", "--ngon", FUNDDOM,
                       "--x", "1,0,2")
    assert code == 0
    assert json.loads(out) == {"schema_version": 1, "eps": 4, "regular": True}
    code, out, _ = run(capsys, "ngon", "w", "--ngon", FUNDDOM)
    assert code == 0
    assert json.loads(out)["w"] == 0
    code, out, _ = run(capsys, "ngon", "w", "--ngon", FUNDDOM,
                       "--v", "0,1,0")
    assert json.loads(out)["w"] == 0


def test_cli_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "ngon", "validate", "--ngon", "/nonexistent")
    assert code == 1
    assert "no such file" in err


def test_cli_bad_vector_is_input_error(capsys):
    code, _, err = run(capsys, "ngon", "eps", "--ngon", FUNDDOM,
                       "--x", "1,x,2")
    assert code == 1
    assert "error" in err


# --- theta subcommand --------------------------------------------------------

def test_cli_theta_series_json(capsys):
    code, out, _ = run(capsys, "theta", "series", "--lattice", LATTICE,
                       "--ngon", FUNDDOM, "--nmax", "10", "--normalized")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    assert obj["normalized"] is True
    assert obj["coeffs"]["8"] == 2


def test_cli_theta_series_csv_and_plot(capsys, tmp_path):
    plot = tmp_path / "plot.tsv"
    code, out, _ = run(capsys, "theta", "series", "--lattice", LATTICE,
                       "--ngon", FUNDDOM, "--nmax", "10", "--normalized",
                       "--format", "csv", "--emit-plot-data", str(plot))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,c"
    assert "8,2" in lines
    rows = plot.read_text().strip().splitlines()
    assert len(rows) == len(lines) - 1
    assert all("\t" in r for r in rows)


def test_cli_theta_out_file(capsys, tmp_path):
    dest = tmp_path / "series.json"
    code, out, _ = run(capsys, "theta", "series", "--lattice", LATTICE,
                       "--ngon", FUNDDOM, "--nmax", "8", "--out", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["schema_version"] == 1


def test_cli_theta_gram_mismatch(capsys, tmp_path):
    from ngontheta.sig12 import SPACE_E
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps(
        {"schema_version": 1,
         "gram": jsonio.space_to_json(SPACE_E)["gram"]}))
    code, _, err = run(capsys, "theta", "series", "--lattice", str(lat),
                       "--ngon", FUNDDOM, "--nmax", "4")
    assert code == 1
    assert "Gram" in err


@pytest.mark.parametrize("safety", ["0", "-1", "nan", "0.5"])
def test_cli_safety_below_one_is_validation_error(capsys, safety):
    # below 1 the window falls short of the proven vertex kappa
    code, out, err = run(capsys, "theta", "series", "--lattice", LATTICE,
                         "--ngon", FUNDDOM, "--nmax", "6",
                         f"--safety={safety}")
    assert (code, out) == (2, "")
    assert err == "validation error: safety must be a finite number >= 1\n"


def test_cli_theta_complete(capsys):
    code, out, _ = run(capsys, "theta", "complete", "--lattice", LATTICE,
                       "--ngon", FUNDDOM, "--nmax", "4", "--tau", "0.1+2i")
    assert code == 0
    obj = json.loads(out)
    assert obj["tau"] == [0.1, 2.0]
    assert len(obj["value"]) == 2
    assert obj["tail"] < 1e-6


def test_cli_theta_bad_tau(capsys):
    code, _, err = run(capsys, "theta", "complete", "--lattice", LATTICE,
                       "--ngon", FUNDDOM, "--nmax", "4", "--tau", "0.1-2i")
    assert code == 1
    assert "upper half plane" in err


def test_cli_theta_modularity(capsys):
    code, out, _ = run(capsys, "theta", "modularity", "--lattice", LATTICE,
                       "--ngon", FUNDDOM, "--nmax", "4", "--tau", "i")
    assert code == 0
    obj = json.loads(out)
    assert obj["t_defect"] < 1e-8
    assert obj["weil_unitarity"] < 1e-12
    assert len(obj["theta"]) == 32


def test_cli_thread_count_invariance(capsys, tmp_path, monkeypatch):
    outs = []
    for nt in ("1", "2", "8"):
        monkeypatch.setenv("NGON_THETA_THREADS", nt)
        dest = tmp_path / f"t{nt}.json"
        code, _, _ = run(capsys, "theta", "complete", "--lattice", LATTICE,
                         "--ngon", FUNDDOM, "--nmax", "6",
                         "--tau", "0.31+0.83i", "--out", str(dest))
        assert code == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1] == outs[2]


# --- sig12 subcommand --------------------------------------------------------

def test_cli_sig12_recover(capsys):
    code, out, _ = run(capsys, "sig12", "recover", "--points", POINTS)
    assert code == 0
    obj = json.loads(out)
    assert obj["w"] == 0
    assert len(obj["cs"]) == 4


def test_cli_sig12_recover_orientation_error(capsys, tmp_path):
    doc = {"schema_version": 1,
           "points": [["0", "2"], ["1", "1"], ["0", "1"]]}
    path = tmp_path / "rev.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "sig12", "recover", "--points", str(path))
    assert code == 2
    assert "reverse" in err


def test_cli_sig12_winding(capsys):
    code, out, _ = run(capsys, "sig12", "winding", "--ngon", FUNDDOM,
                       "--x", "1,0,2")
    assert code == 0
    obj = json.loads(out)
    assert obj["winding"] == 1
    assert obj["eps"] == 4


def test_cli_sig12_zagier(capsys, tmp_path):
    plot = tmp_path / "z.tsv"
    code, out, _ = run(capsys, "sig12", "zagier", "--T", "2", "--nmax", "10",
                       "--format", "csv", "--emit-plot-data", str(plot))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,c"
    assert "8,2" in lines
    assert plot.exists()


# --- dodec subcommand --------------------------------------------------------

def test_cli_dodec_validate(capsys):
    code, out, _ = run(capsys, "dodec", "validate", "--data", DODEC)
    assert code == 0
    assert json.loads(out) == {"schema_version": 1, "valid": True}


def test_cli_dodec_validate_bad(capsys, tmp_path):
    doc = json.loads(open(DODEC).read())
    seed = doc.pop("seed")
    from ngontheta.qspace import QuadraticSpace
    from ngontheta.dodec import seed_construction
    space = jsonio.space_from_json(doc["space"])
    cs = list(seed_construction(
        space, [parse_vector(b) for b in seed["z0_basis"]],
        parse_vector(seed["v0"]), [parse_rational(t) for t in seed["t"]]))
    cs[0] = tuple(-t for t in cs[0])
    doc["cs"] = [jsonio.vector_to_json(c) for c in cs]
    path = tmp_path / "bad_dodec.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "dodec", "validate", "--data", str(path))
    assert code == 2
    obj = json.loads(out)
    assert obj["valid"] is False
    assert {v["face"] for v in obj["violations"]} == {1, 2, 3, 4, 5}
    # the exact rationals of every diagnostic, byte for byte
    assert out == json.dumps({"schema_version": 1, "valid": False,
                              "violations": DODEC_BAD_VIOLATIONS},
                             indent=2) + "\n"
    code, out, err = run(capsys, "dodec", "kernel", "--data", str(path),
                         "--x", "1,0,0,0")
    assert (code, out) == (2, "")
    assert err == "validation error: " + DODEC_BAD_MESSAGE + "\n"


def _turning(face, j, q):
    return {"face": face, "j": j, "condition": 3,
            "message": f"turning quantity {q} not < 0"}


DODEC_BAD_VIOLATIONS = [
    _turning(1, 2, "13537957286008813/450990500000000"),
    _turning(1, 5, "2728762522281039/90198100000000"),
    _turning(2, 2, "2728762522281039/90057475000000"),
    _turning(2, 5, "13598482782981313/450287375000000"),
    _turning(3, 2, "277520056795537/9172000000000"),
    _turning(3, 5, "483451192025311/16051000000000"),
    _turning(4, 2, "3384158344177177/112103093750000"),
    _turning(4, 5, "1685163889539491/56051546875000"),
    _turning(5, 2, "1685163889539491/55905062500000"),
    _turning(5, 5, "1933993898001259/63891500000000"),
]

DODEC_BAD_MESSAGE = (
    "dodecahedron conditions fail: "
    "face 1: N-gon condition (3) fails at j=2: turning quantity "
    "13537957286008813/450990500000000 not < 0; "
    "face 1: N-gon condition (3) fails at j=5: turning quantity "
    "2728762522281039/90198100000000 not < 0; "
    "face 2: N-gon condition (3) fails at j=2: turning quantity "
    "2728762522281039/90057475000000 not < 0; "
    "face 2: N-gon condition (3) fails at j=5: turning quantity "
    "13598482782981313/450287375000000 not < 0 (+6 more)")


def test_cli_dodec_kernel(capsys):
    code, out, _ = run(capsys, "dodec", "kernel", "--data", DODEC,
                       "--x", "1,0,0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["D"] == "1"
    assert obj["P"] == "1"


def test_cli_dodec_series(capsys):
    code, out, _ = run(capsys, "dodec", "series", "--data", DODEC,
                       "--nmax", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    assert "coeffs" in obj


# --- errfn subcommand --------------------------------------------------------

def test_cli_errfn_eval(capsys):
    from ngontheta.errfn import E1
    from ngontheta.sig12 import SPACE_ABC
    code, out, _ = run(capsys, "errfn", "eval", "--space", SPACE,
                       "--c", "0,1,0", "--x", "0.5,0.5,0.5")
    assert code == 0
    assert out.startswith("E1 = ")
    want = E1(SPACE_ABC, (0, 1, 0), [0.5, 0.5, 0.5])
    assert abs(float(out.split("=")[1]) - want) < 1e-9


def test_cli_errfn_eval_e2(capsys):
    code, out, _ = run(capsys, "errfn", "eval", "--space", SPACE,
                       "--c", "0,1,0", "--c", "1/2,0,-1/2",
                       "--x", "0.3,0.1,0.7")
    assert code == 0
    assert out.startswith("E2 = ")
    assert -1.0 <= float(out.split("=")[1]) <= 1.0


def test_cli_errfn_eval_e3(capsys, tmp_path):
    space = tmp_path / "space_q3.json"
    space.write_text(json.dumps({"schema_version": 1, "gram": [
        ["2", "0", "0", "0"], ["0", "-2", "0", "0"],
        ["0", "0", "-2", "0"], ["0", "0", "0", "-2"]]}))
    code, out, _ = run(capsys, "errfn", "eval", "--space", str(space),
                       "--c", "1/4,1,0,0", "--c", "0,1,1,0",
                       "--c", "0,-1,1,1", "--x", "0.1,0.4,-0.3,0.2")
    assert code == 0
    # the value computed with an adaptive dblquad for every cone mass
    assert out == "E3 = 0.1491077194\n"


def test_cli_parser_built_once(capsys, monkeypatch):
    # main reuses one parser: a second call constructs no ArgumentParser,
    # an append option does not accumulate across calls, and a usage error
    # still exits 2
    import argparse
    from ngontheta import cli
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    argv = ("errfn", "eval", "--space", SPACE, "--c", "0,1,0",
            "--c", "1/2,0,-1/2", "--x", "0.3,0.1,0.7")
    first = run(capsys, *argv)
    n = len(built)
    assert n > 0 and first[0] == 0 and first[1].startswith("E2 = ")
    assert run(capsys, *argv) == first
    with pytest.raises(SystemExit) as exc:
        main(["errfn", "eval", "--space", SPACE, "--bogus"])
    assert exc.value.code == 2
    assert len(built) == n


def test_cli_errfn_too_many_vectors(capsys):
    code, _, err = run(capsys, "errfn", "eval", "--space", SPACE,
                       "--c", "0,1,0", "--c", "0,1,0", "--c", "0,1,0",
                       "--c", "0,1,0", "--x", "0.5,0.5,0.5")
    assert code == 1
    assert "1, 2, or 3" in err


@pytest.mark.parametrize("argv,flag,entries,dim", [
    (["theta", "series", "--lattice", LATTICE, "--ngon", FUNDDOM,
      "--nmax", "2", "--mu", "0,0"], "--mu", 2, 3),
    (["dodec", "series", "--data", DODEC, "--nmax", "2", "--mu", "1/2,0,0"],
     "--mu", 3, 4),
    (["ngon", "eps", "--ngon", FUNDDOM, "--x", "1,0,2,1"], "--x", 4, 3),
    (["ngon", "w", "--ngon", FUNDDOM, "--v", "0,1"], "--v", 2, 3),
    (["sig12", "winding", "--ngon", FUNDDOM, "--x", "1,0"], "--x", 2, 3),
    (["dodec", "kernel", "--data", DODEC, "--x", "1,0,0"], "--x", 3, 4),
    (["errfn", "eval", "--space", SPACE, "--c", "0,1", "--x", "0.5,0.5,0.5"],
     "--c", 2, 3),
    (["errfn", "eval", "--space", SPACE, "--c", "0,1,0", "--x", "0.5,0.5"],
     "--x", 2, 3),
], ids=["theta-mu", "dodec-mu", "eps-x", "w-v", "winding-x", "kernel-x",
        "errfn-c", "errfn-x"])
def test_cli_wrong_length_vector_is_input_error(capsys, argv, flag, entries,
                                                dim):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: {flag} has {entries} entries; "
                   f"the space has dimension {dim}\n")


def test_cli_lattice_file_wrong_length_mu_is_input_error(capsys, tmp_path):
    obj = json.loads((EXAMPLES / "lattice_sig12.json").read_text())
    obj["mu"] = ["1/2", "0"]
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps(obj))
    code, out, err = run(capsys, "theta", "series", "--lattice", str(lat),
                         "--ngon", FUNDDOM, "--nmax", "2")
    assert (code, out) == (1, "")
    assert err == (f"error: {lat}: mu has 2 entries; "
                   "the space has dimension 3\n")


def _seed_doc(n):
    """The committed seed dodecahedron with its first n vectors written out
    as "cs"."""
    from ngontheta.dodec import seed_construction
    doc = json.loads(Path(DODEC).read_text())
    seed = doc.pop("seed")
    cs = seed_construction(
        jsonio.space_from_json(doc["space"]),
        [parse_vector(b) for b in seed["z0_basis"]], parse_vector(seed["v0"]),
        [parse_rational(t) for t in seed["t"]])
    doc["cs"] = [jsonio.vector_to_json(c) for c in cs[:n]]
    return doc


def _malformed_files():
    funddom = json.loads(Path(FUNDDOM).read_text())
    neg = [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]
    dodec12 = _seed_doc(12)
    cs12 = dodec12["cs"]
    return {
        # signature (0, 3): no N-gon
        "negdef.json": {"schema_version": 1, "space": {"gram": neg},
                        "cs": [["-2", "-2", "-2"], ["-2", "-2", "0"],
                               ["2", "2", "1"]]},
        "two.json": {**funddom, "cs": funddom["cs"][:2]},
        "ngon_cs5.json": {**funddom, "cs": 5},
        "ngon_cs_entry5.json": {**funddom, "cs": [5]},
        "ngon_cs_short.json": {**funddom,
                               "cs": [funddom["cs"][0][:2]] + funddom["cs"][1:]},
        "dodec_cs_long.json": {**dodec12,
                               "cs": [cs12[0] + ["0"]] + cs12[1:]},
        "dodec11.json": _seed_doc(11),
        "dodec_cs5.json": {**_seed_doc(0), "cs": 5},
        "points5.json": {"schema_version": 1, "points": 5},
        "points1.json": {"schema_version": 1,
                         "points": [["0", "1"], ["1"], ["1", "2"]]},
    }


THETA = ["--lattice", LATTICE, "--ngon", FUNDDOM]
NOT_NGON = "validation error: N-gon collections live in signature (p, 2)"
NOT_12 = "validation error: need exactly 12 vectors indexed by Z/12Z"
TAIL = "numerical certification error: tail estimate overflows"
MALFORMED = {
    "ngon-validate-signature": (["ngon", "validate", "--ngon", "negdef.json"],
                                2, NOT_NGON),
    "ngon-w-signature": (["ngon", "w", "--ngon", "negdef.json"], 2, NOT_NGON),
    "ngon-validate-count": (["ngon", "validate", "--ngon", "two.json"], 2,
                            "validation error: need N >= 3 vectors"),
    "dodec-validate-signature": (["dodec", "validate", "--data", FUNDDOM],
                                 2, "validation error: dodecahedral "
                                    "collections live in signature (p, 3)"),
    "dodec-validate-count": (["dodec", "validate", "--data", "dodec11.json"],
                             2, NOT_12),
    "dodec-kernel-count": (["dodec", "kernel", "--data", "dodec11.json",
                            "--x", "1,0,0,0"], 2, NOT_12),
    "ngon-cs-not-array": (["ngon", "validate", "--ngon", "ngon_cs5.json"], 1,
                          "ngon_cs5.json: field 'cs' must be an array"),
    "dodec-cs-not-array": (["dodec", "validate", "--data", "dodec_cs5.json"],
                           1, "dodec_cs5.json: field 'cs' must be an array"),
    "ngon-cs-entry-not-array": (["ngon", "validate", "--ngon",
                                 "ngon_cs_entry5.json"], 1,
                                "ngon_cs_entry5.json: field 'cs' must hold "
                                "vectors of 3 entries, got 5"),
    "ngon-cs-wrong-length": (["ngon", "eps", "--ngon", "ngon_cs_short.json",
                              "--x", "1,0,0"], 1,
                             "ngon_cs_short.json: field 'cs' must hold "
                             "vectors of 3 entries, got ['"),
    "dodec-cs-wrong-length": (["dodec", "series", "--data",
                               "dodec_cs_long.json", "--nmax", "2"], 1,
                              "dodec_cs_long.json: field 'cs' must hold "
                              "vectors of 4 entries, got ['"),
    "points-not-array": (["sig12", "recover", "--points", "points5.json"], 1,
                         "points5.json: field 'points' must be an array"),
    "points-one-coordinate": (["sig12", "recover", "--points", "points1.json"],
                              1, "points1.json: field 'points' must hold "
                                 "[x, y] pairs"),
    "modularity-nmax-negative": (["theta", "modularity", *THETA, "--nmax",
                                  "-1", "--tau", "i"], 2,
                                 "validation error: nmax must be >= 0"),
    "complete-tau-nan": (["theta", "complete", *THETA, "--nmax", "2",
                          "--tau", "nan+1i"], 1,
                         "error: bad tau 'nan+1i'; both parts must be finite"),
    "complete-tau-tiny": (["theta", "complete", *THETA, "--nmax", "2",
                           "--tau", "0+1e-320i"], 3, TAIL),
    "modularity-tau-tiny": (["theta", "modularity", *THETA, "--nmax", "2",
                             "--tau", "0+1e-320i"], 3, TAIL),
    # the smallest Im tau tried whose tail estimate stays finite
    "complete-tau-small": (["theta", "complete", *THETA, "--nmax", "2",
                            "--tau", "0+1e-200i"], 0, ""),
    # |tau| is capped at cli.TAU_MAX = 1e50; at the cap the value is the
    # x = 0 term
    "complete-tau-cap": (["theta", "complete", *THETA, "--nmax", "2",
                          "--tau", "0+1e50i"], 0, ""),
    "complete-tau-huge": (["theta", "complete", *THETA, "--nmax", "2",
                           "--tau", "0+1e308i"], 1, "error: --tau '0+1e308i': "
                          "|tau| must be at most 1e+50"),
    "modularity-tau-huge": (["theta", "modularity", *THETA, "--nmax", "2",
                             "--tau", "0+5e306i"], 1,
                            "error: --tau '0+5e306i': |tau| must be"),
    "modularity-tau-huge-real": (["theta", "modularity", *THETA, "--nmax",
                                  "2", "--tau", "1e300+1i"], 1,
                                 "error: --tau '1e300+1i': |tau| must be"),
    # Im(-1/tau) = 1e-200/|tau|^2 underflowed to 0 (exit 2) beyond the cap;
    # at the cap it is 1e-300, whose tail estimate overflows
    "modularity-tau-underflow": (["theta", "modularity", *THETA, "--nmax",
                                  "2", "--tau=1e60+1e-200i"], 1,
                                 "error: --tau '1e60+1e-200i': |tau| must"),
    "modularity-tau-cap-tail": (["theta", "modularity", *THETA, "--nmax",
                                 "2", "--tau=1e50+1e-200i"], 3, TAIL),
}


def _no_nan(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_input(capsys, tmp_path, monkeypatch, name):
    """Each malformed input gets its documented exit code and one stderr
    line, never a traceback or a warning; an exit-0 output is JSON without
    NaN or Infinity."""
    monkeypatch.chdir(tmp_path)
    for file, doc in _malformed_files().items():
        (tmp_path / file).write_text(json.dumps(doc))
    argv, want, message = MALFORMED[name]
    code, out, err = run(capsys, *argv)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_no_nan)
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert code == want
    assert message in err


PINNED = json.loads((REPO / "tests" / "pinned_cli_outputs.json").read_text())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_pinned_output(capsys, monkeypatch, name):
    """Full stdout of each command in tests/pinned_cli_outputs.json, byte
    for byte as recorded there."""
    monkeypatch.chdir(REPO)
    code, out, _ = run(capsys, *PINNED[name]["argv"])
    assert code == 0
    assert out == PINNED[name]["stdout"]


def test_exact_commands_load_no_scipy_special():
    """In a fresh interpreter, `dodec kernel` imports no scipy module and
    `sig12 zagier` only scipy.linalg (the eigenvalues of kappa), not
    scipy.special: the error functions are imported where they are used."""
    script = (
        "import contextlib, io, json, sys\n"
        "from ngontheta import cli\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(list(argv)) == 0\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        f"print(json.dumps([run('dodec', 'kernel', '--data', {DODEC!r},\n"
        "                       '--x', '1,0,0,0'),\n"
        "                   run('sig12', 'zagier', '--T', '2', '--nmax', '30')]))\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    res = subprocess.run([sys.executable, "-c", script], env=env, cwd=REPO,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    after_kernel, after_zagier = json.loads(res.stdout)
    assert after_kernel == []
    assert "scipy.linalg" in after_zagier
    assert not [m for m in after_zagier if m.startswith("scipy.special")]


def _readme_commands():
    """Every `ngontheta ...` command of the README's CLI `sh` block, with
    backslash continuations joined."""
    text = (REPO / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("ngontheta ")]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) == 14
    monkeypatch.chdir(REPO)
    for argv in commands:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    assert (tmp_path / "series.csv").read_text().startswith("n,")
