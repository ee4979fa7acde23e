import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ngontheta import jsonio, lattice
from ngontheta.cli import main
from ngontheta.jsonio import (InputError, parse_rational, rat_to_str,
                              parse_vector, qexpansion_to_json)

from conftest import (EXAMPLES, REPO, SPACE_E, abc_to_e, butterfly_collection,
                      plot_data_fraction, qexpansion_csv_fraction,
                      qexpansion_to_json_fraction)

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
    # n = e/8 with dmu = 2, c(n) = c/4: {1/2: 1/4, 2: 4}, flags {2}
    qe = QExpansion(mu=(0, Fraction(1, 2), 0), nmax=Fraction(3), qden=8,
                    exps=[4, 16], nums=[1, 16], den=4, flag_exps=[16])
    assert qe.entries == {Fraction(1, 2): Fraction(1, 4), Fraction(2): 4}
    assert qe.flags == {Fraction(2)}
    obj = qexpansion_to_json(qe)
    assert obj["schema_version"] == 1
    assert obj["mu"] == ["0", "1/2", "0"]
    assert obj["normalized"] is True
    assert obj["flags"] == ["2"]
    assert obj["coeffs"] == {"1/2": "1/4", "2": 4}


def _stdout(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        fn(*args)
    return out.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_series_writers_match_fraction_oracle(data):
    # the integer writers against the Fraction formatter they replace, on
    # the integers a series driver holds: ascending distinct exponent
    # numerators over 2 dmu^2 (0 for x = 0), int64 coefficient sums over den
    # (negative, 0 where terms cancel, multiples of den), and the positive
    # flagged exponents of some rows, repeats and 0 included
    from ngontheta.lattice import QExpansion
    dmu = data.draw(st.sampled_from([1, 2, 3, 4, 6, 10]), label="dmu")
    qden, den = 2 * dmu * dmu, data.draw(st.sampled_from([1, 4, 8]))
    exps = np.unique(np.array(data.draw(st.lists(
        st.integers(0, 40) | st.integers(0, 10 ** 6), max_size=30)),
        dtype=np.int64))
    sums = np.array(data.draw(st.lists(
        st.sampled_from([0, den, -den, 2 * den]) | st.integers(-99, 99),
        min_size=len(exps), max_size=len(exps))), dtype=np.int64)
    rows = np.array(data.draw(st.lists(
        st.sampled_from([0, *exps.tolist()]) | st.integers(0, 40))),
        dtype=np.int64)
    flags = np.unique(rows)
    mu = tuple(Fraction(data.draw(st.integers(0, dmu - 1)), dmu)
               for _ in range(3))
    qe = QExpansion(mu=mu, nmax=Fraction(data.draw(st.integers(0, 99)), 2),
                    qden=qden, exps=exps.tolist(), nums=sums.tolist(),
                    den=den, flag_exps=flags[flags > 0].tolist())
    # the views equal the Fraction dict and set built from the int64 arrays
    old_entries = {Fraction(int(e), qden): int(c) if den == 1 else
                   Fraction(int(c), den) for e, c in zip(exps, sums)}
    assert list(qe.entries.items()) == list(old_entries.items())
    assert [type(c) for c in qe.entries.values()] == \
        [type(c) for c in old_entries.values()]
    assert qe.flags == {Fraction(int(e), qden) for e in set(rows) if e > 0}
    assert all(type(n) is Fraction for n in [*qe.entries, *qe.flags])
    for n, c in old_entries.items():
        assert qe.coeff(n) == c and type(qe.coeff(n)) is type(c)
    got, want = qexpansion_to_json(qe), qexpansion_to_json_fraction(qe)
    assert got == want
    assert json.dumps(got) == json.dumps(want)
    assert _stdout(jsonio.dump_series, qe) == _stdout(jsonio.dump_json, want)
    assert _stdout(jsonio.dump_series, qe, "csv") == \
        qexpansion_csv_fraction(qe)
    with tempfile.TemporaryDirectory() as tmp:
        plot = Path(tmp) / "plot.tsv"
        jsonio.dump_series(qe, "json", os.devnull, str(plot))
        assert plot.read_text() == plot_data_fraction(qe)


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
    # the same seed on diag(6, -2, -2, -2)
    from ngontheta.dodec import seed_construction
    space, cs = load(jsonio.load_dodec_file, "dodec_seed48.json")
    assert space.gram == ((6, 0, 0, 0),) + space_q3.gram[1:]
    assert tuple(cs) == seed_construction(
        space, ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), (1, 0, 0, 0),
        [Fraction(a + 3, 40) for a in range(12)])


# --- ngon subcommand ---------------------------------------------------------

def test_cli_ngon_validate_ok(capsys):
    code, out, _ = run(capsys, "ngon", "validate", "--ngon", FUNDDOM)
    assert code == 0
    obj = json.loads(out)
    assert obj == {"schema_version": 1, "valid": True, "n": 4}


def test_cli_ngon_validate_bad(capsys, tmp_path):
    from ngontheta.sig12 import SPACE_ABC
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
    # theta series proves its window exactly and has no --safety: the
    # parser refuses the option, below one or not (2 as well), with exit 2
    for value in (safety, "2"):
        with pytest.raises(SystemExit) as exc:
            main(["theta", "series", "--lattice", LATTICE, "--ngon", FUNDDOM,
                  "--nmax", "6", f"--safety={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: unrecognized arguments: --safety={value}\n")


@pytest.mark.parametrize("argv", [
    ["theta", "series", "--lattice", LATTICE, "--ngon", FUNDDOM],
    ["dodec", "series", "--data", DODEC, "--mu", "1/2,0,0,0"]],
    ids=["theta", "dodec"])
def test_cli_unproved_window_exits_3(capsys, monkeypatch, argv):
    # a window 1% below the float kappa fails the exact proof: exit 3 with
    # one stderr line, nothing on stdout
    monkeypatch.setattr(lattice, "SAFETY", 0.99)
    code, out, err = run(capsys, *argv, "--nmax", "6")
    assert (code, out) == (3, "")
    assert err.startswith("numerical certification error: series window B")
    assert " not proved for nmax = 6 at vertex plane " in err
    assert err.count("\n") == 1


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


def test_cli_modularity_takes_no_mu(capsys, tmp_path):
    """theta modularity reads every coset: its parser has no --mu, and a
    lattice file's mu, even one not in the dual lattice, changes nothing."""
    argv = ["theta", "modularity", "--ngon", FUNDDOM, "--nmax", "2",
            "--tau", "i"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--lattice", LATTICE, "--mu", "1/4,1/2,1/4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mu" in capsys.readouterr().err
    obj = json.loads(Path(LATTICE).read_text())
    obj["mu"] = ["1/3", "0", "0"]
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps(obj))
    code, out, err = run(capsys, *argv, "--lattice", str(lat))
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *argv, "--lattice", LATTICE)


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


@pytest.mark.parametrize("coords", ["abc", "e", "padded"])
def test_cli_sig12_winding(capsys, tmp_path, coords):
    # funddom as stored ([a,b,c] coordinates), written in SPACE_E
    # coordinates, and padded into SPACE_ABC + <2>, at the image of (1,0,2)
    from ngontheta.qspace import QuadraticSpace
    path, x = FUNDDOM, (1, 0, 2)
    if coords != "abc":
        space, cs = jsonio.load_ngon_file(FUNDDOM)
        if coords == "e":
            space, cs, x = SPACE_E, [abc_to_e(c) for c in cs], abc_to_e(x)
        else:
            space = QuadraticSpace([[0, 0, 4, 0], [0, -2, 0, 0],
                                    [4, 0, 0, 0], [0, 0, 0, 2]])
            cs, x = [c + (0,) for c in cs], x + (0,)
        path = tmp_path / "funddom.json"
        path.write_text(json.dumps({
            "schema_version": 1, "space": jsonio.space_to_json(space),
            "cs": [jsonio.vector_to_json(c) for c in cs]}))
    code, out, _ = run(capsys, "sig12", "winding", "--ngon", str(path),
                       "--x", ",".join(map(rat_to_str, x)))
    assert code == 0
    assert json.loads(out) == {"schema_version": 1, "winding": 1, "eps": 4}


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


def _scaled_gram(doc, k):
    """The Gram matrix of a file's space times the integer k."""
    return {"gram": [[str(k * int(v)) for v in row] for row in doc["gram"]]}


def _malformed_files():
    funddom = json.loads(Path(FUNDDOM).read_text())
    lattice = json.loads(Path(LATTICE).read_text())
    scaled = {}
    for k in (10, 1000):     # |L'/L| = 32 k^3
        scaled[f"funddom_x{k}.json"] = {
            **funddom, "space": _scaled_gram(funddom["space"], k)}
        scaled[f"lattice_x{k}.json"] = {**lattice,
                                        **_scaled_gram(lattice, k)}
    seed = json.loads(Path(DODEC).read_text())
    seed["seed"]["v0"] = seed["seed"]["v0"][:3]
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
        # (C_0, C_0) > 0: C_0^perp is no space to project a face into
        "dodec_c0_positive.json": {**dodec12,
                                   "cs": [["1", "0", "0", "0"]] + cs12[1:]},
        "dodec_cs5.json": {**_seed_doc(0), "cs": 5},
        "dodec_v0_short.json": seed,
        "lattice_mu5.json": {**lattice, "mu": 5},
        "points5.json": {"schema_version": 1, "points": 5},
        "points1.json": {"schema_version": 1,
                         "points": [["0", "1"], ["1"], ["1", "2"]]},
        "points_y0.json": {"schema_version": 1,
                           "points": [["0", "1"], ["1", "0"], ["0", "2"]]},
        # the first three vertices lie on the geodesic x = 0
        "points_collinear.json": {"schema_version": 1,
                                  "points": [["0", "1"], ["0", "2"],
                                             ["0", "3"], ["1", "1"]]},
        "points_two.json": {"schema_version": 1,
                            "points": [["0", "1"], ["1", "1"]]},
        # an entry that is no rational, in each field that holds rationals
        "dodec_cs_entry.json": {**dodec12,
                                "cs": [[["1"], "0", "0", "0"]] + cs12[1:]},
        "dodec_t_dict.json": _seed_with(t={"a": 1}),
        "dodec_t_true.json": _seed_with(t=True),
        "dodec_t_float.json": _seed_with(t=[0.5] * 12),
        "dodec_z0_entry.json": _seed_with(z0_basis=[[None, "1", "0", "0"],
                                                    ["0", "0", "1", "0"],
                                                    ["0", "0", "0", "1"]]),
        "dodec_v0_entry.json": _seed_with(v0=["x", "0", "0", "0"]),
        "ngon_gram_entry.json": {**funddom, "space": {"gram": [
            [[1], "0", "0"]] + funddom["space"]["gram"][1:]}},
        "lattice_mu_entry.json": {**lattice, "mu": [0.5, "0", "0"]},
        "points_entry.json": {"schema_version": 1,
                              "points": [["0", "1"], ["1", True]]},
        # bytes are written as they are: Latin-1, not UTF-8
        "latin1.json": b'{"name": "caf\xe9"}',
        **scaled,
    }


def _seed_with(**fields):
    """The committed seed dodecahedron with some of its seed fields set."""
    doc = json.loads(Path(DODEC).read_text())
    doc["seed"].update(fields)
    return doc


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
    "dodec-validate-positive-wall": (["dodec", "validate", "--data",
                                      "dodec_c0_positive.json"], 2,
                                     "validation error: dodecahedron "
                                     "conditions fail: face 0: (C_0, C_0) = "
                                     "2 not < 0\n"),
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
    "dodec-v0-wrong-length": (["dodec", "validate", "--data",
                               "dodec_v0_short.json"], 1,
                              "dodec_v0_short.json: v0 has 3 entries; the "
                              "space has dimension 4"),
    "lattice-mu-not-array": (["theta", "series", "--lattice",
                              "lattice_mu5.json", "--ngon", FUNDDOM,
                              "--nmax", "2"], 1,
                             "lattice_mu5.json: field 'mu' must be an array, "
                             "got 5"),
    "points-not-array": (["sig12", "recover", "--points", "points5.json"], 1,
                         "points5.json: field 'points' must be an array"),
    "points-one-coordinate": (["sig12", "recover", "--points", "points1.json"],
                              1, "points1.json: field 'points' must hold "
                                 "[x, y] pairs"),
    "points-y-zero": (["sig12", "recover", "--points", "points_y0.json"], 2,
                      "validation error: upper-half-plane point needs y > 0\n"),
    "points-collinear": (["sig12", "recover", "--points",
                          "points_collinear.json"], 2,
                         "validation error: three consecutive vertices "
                         "collinear at index 2\n"),
    "points-two": (["sig12", "recover", "--points", "points_two.json"], 2,
                   "validation error: need at least 3 vertices\n"),
    # a window whose coordinates pass 2^53 is refused before any int64 cast
    "series-nmax-huge": (["theta", "series", *THETA, "--nmax", "1e40"], 2,
                         "validation error: enumeration window too large: a "
                         "coordinate of its lattice vectors passes 2^53\n"),
    # under 2^53, but one level of the search would hold 4.1e8 rows (3 GiB
    # per int64 array): refused before numpy allocates them
    "series-nmax-rows": (["theta", "series", *THETA, "--nmax", "1e17"], 2,
                         "validation error: enumeration window too large: "
                         "one level of its search needs 4.09e+08 rows, more "
                         "than 1e+07\n"),
    "series-nmax-float-overflow": (["theta", "series", *THETA, "--nmax",
                                    "1e400"], 2,
                                   "validation error: nmax too large: the "
                                   "window bound overflows a float\n"),
    # |L'/L| = 32,000 asked numpy for 7.6 GiB of Weil matrices, and
    # 3.2e10 never left disc_group's closure: both refused before any set
    "modularity-disc-32000": (["theta", "modularity", "--lattice",
                               "lattice_x10.json", "--ngon",
                               "funddom_x10.json", "--nmax", "2",
                               "--tau=0.1+1.1i"], 2,
                              "validation error: discriminant group too "
                              "large: |det G| = 32000, more than 4096\n"),
    "modularity-disc-3.2e10": (["theta", "modularity", "--lattice",
                                "lattice_x1000.json", "--ngon",
                                "funddom_x1000.json", "--nmax", "2",
                                "--tau=0.1+1.1i"], 2,
                               "validation error: discriminant group too "
                               "large: |det G| = 32000000000, more than "
                               "4096\n"),
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
    # the completion driver estimates the tails in the order tau, -1/tau:
    # Im tau = 1e-210 overflows first, though Im(-1/tau) = 1e-310 would too
    "complete-tau-tail-order": (["theta", "complete", *THETA, "--nmax", "2",
                                 "--tau=1e50+1e-210i"], 3,
                                TAIL + " at Im tau = 1e-210\n"),
    "modularity-tau-tail-order": (["theta", "modularity", *THETA, "--nmax",
                                   "2", "--tau=1e50+1e-210i"], 3,
                                  TAIL + " at Im tau = 1e-210\n"),
    # an --x entry beyond cli.X_MAX = 1e50: 1e400 overflowed float(), 1e308
    # the inner products (E1 = nan)
    "errfn-x-overflow": (["errfn", "eval", "--space", SPACE, "--c", "0,1,0",
                          "--x", "1e400,0,0"], 1,
                         "error: --x '1e400,0,0': entries must be at most"),
    "errfn-x-huge": (["errfn", "eval", "--space", SPACE, "--c", "0,1,0",
                      "--x", "1e308,0,0"], 1,
                     "error: --x '1e308,0,0': entries must be at most"),
    # E2 of proportional vectors is the sign of their ratio only for
    # negative ones; (1,0,0) is null in this space
    "errfn-e2-null-pair": (["errfn", "eval", "--space", SPACE, "--c", "1,0,0",
                            "--c", "2,0,0", "--x", "0.3,0.7,1.1"], 2,
                           "validation error: unit_negative requires a "
                           "negative vector\n"),
    # Fraction would build 10^|e| (13 s at 1e10000000); refused at once
    "ngon-eps-exponent": (["ngon", "eps", "--ngon", FUNDDOM, "--x",
                           "1e10000000,0,0"], 1,
                          "error: bad vector argument '1e10000000,0,0': bad "
                          "rational string '1e10000000': exponent above 4300 "
                          "in absolute value\n"),
    # a non-rational entry names the file and the field; only a float is
    # called a float
    "dodec-cs-entry": (["dodec", "kernel", "--data", "dodec_cs_entry.json",
                        "--x", "1,0,0,0"], 1,
                       "error: dodec_cs_entry.json: field 'cs': not a "
                       "rational: ['1']\n"),
    "dodec-t-dict": (["dodec", "validate", "--data", "dodec_t_dict.json"], 1,
                     "error: dodec_t_dict.json: field 't': not a rational: "
                     "{'a': 1}\n"),
    "dodec-t-true": (["dodec", "validate", "--data", "dodec_t_true.json"], 1,
                     "error: dodec_t_true.json: field 't': not a rational: "
                     "True\n"),
    "dodec-t-float": (["dodec", "series", "--data", "dodec_t_float.json",
                       "--nmax", "2"], 1,
                      "error: dodec_t_float.json: field 't': not a rational: "
                      "0.5 (floats are not accepted)\n"),
    "dodec-z0-entry": (["dodec", "validate", "--data",
                        "dodec_z0_entry.json"], 1,
                       "error: dodec_z0_entry.json: field 'z0_basis': not a "
                       "rational: None\n"),
    "dodec-v0-entry": (["dodec", "validate", "--data",
                        "dodec_v0_entry.json"], 1,
                       "error: dodec_v0_entry.json: field 'v0': bad rational "
                       "string 'x': Invalid literal for Fraction: 'x'\n"),
    "ngon-gram-entry": (["ngon", "validate", "--ngon",
                         "ngon_gram_entry.json"], 1,
                        "error: ngon_gram_entry.json: field 'gram': not a "
                        "rational: [1]\n"),
    "lattice-mu-entry": (["theta", "series", "--lattice",
                          "lattice_mu_entry.json", "--ngon", FUNDDOM,
                          "--nmax", "2"], 1,
                         "error: lattice_mu_entry.json: field 'mu': not a "
                         "rational: 0.5 (floats are not accepted)\n"),
    "points-entry": (["sig12", "recover", "--points", "points_entry.json"], 1,
                     "error: points_entry.json: field 'points': not a "
                     "rational: True\n"),
    # a file that cannot be read or written names itself (the working
    # directory "." is a directory)
    "out-directory": (["ngon", "validate", "--ngon", FUNDDOM, "--out", "."],
                      1, "error: cannot write .: Is a directory\n"),
    "plot-data-missing-dir": (["theta", "series", *THETA, "--nmax", "2",
                               "--emit-plot-data", "missing/p.tsv"], 1,
                              "error: cannot write missing/p.tsv: No such "
                              "file or directory\n"),
    "ngon-directory": (["ngon", "validate", "--ngon", "."], 1,
                       "error: cannot read .: Is a directory\n"),
    "ngon-not-utf8": (["ngon", "validate", "--ngon", "latin1.json"], 1,
                      "error: latin1.json: not UTF-8 text: byte 13: invalid "
                      "continuation byte\n"),
}
QUICK = {"ngon-eps-exponent": 2.0,     # seconds a case may take at most
         "series-nmax-rows": 2.0,
         "modularity-disc-32000": 2.0,
         "modularity-disc-3.2e10": 2.0,
         "out-directory": 2.0,
         "plot-data-missing-dir": 2.0,
         "ngon-directory": 2.0,
         "ngon-not-utf8": 2.0}


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
        if isinstance(doc, bytes):
            (tmp_path / file).write_bytes(doc)
        else:
            (tmp_path / file).write_text(json.dumps(doc))
    argv, want, message = MALFORMED[name]
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < QUICK.get(name, math.inf)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_no_nan)
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert code == want
    assert message in err


def test_cli_dodec_series_huge_mu(capsys):
    """mu matters only mod L: a coset numerator past int64 gives the series
    of mu = 0, with mu printed as given."""
    outs = []
    for mu in ("1e19,0,0,0", "0,0,0,0"):
        code, out, err = run(capsys, "dodec", "series", "--data", DODEC,
                             "--mu", mu, "--nmax", "1")
        assert (code, err) == (0, "")
        outs.append(json.loads(out))
    assert outs[0]["mu"] == ["10000000000000000000", "0", "0", "0"]
    assert outs[1]["mu"] == ["0", "0", "0", "0"]
    assert outs[0]["coeffs"]
    assert {**outs[0], "mu": None} == {**outs[1], "mu": None}


PINNED = json.loads((REPO / "tests" / "pinned_cli_outputs.json").read_text())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_pinned_output(capsys, monkeypatch, name):
    """Full stdout of each command in tests/pinned_cli_outputs.json, byte
    for byte as recorded there."""
    monkeypatch.chdir(REPO)
    code, out, _ = run(capsys, *PINNED[name]["argv"])
    assert code == 0
    assert out == PINNED[name]["stdout"]


OUT_ARGV = {
    **{name: pin["argv"] for name, pin in PINNED.items()},
    "errfn": ["errfn", "eval", "--space", SPACE, "--c", "0,1,0",
              "--x", "0.3,0.7,1.1"],
    "series_csv_plot": ["theta", "series", *THETA, "--nmax", "10",
                        "--format", "csv", "--emit-plot-data", "plot.tsv"],
    "zagier_csv": ["sig12", "zagier", "--T", "2", "--nmax", "30",
                   "--format", "csv"],
    "ngon_invalid": ["ngon", "validate", "--ngon", "butterfly.json"],
}


@pytest.mark.parametrize("name", sorted(OUT_ARGV))
def test_cli_out_file_matches_stdout(capsys, tmp_path, monkeypatch, name):
    """--out FILE writes exactly the bytes that stdout gets without it and
    leaves stdout empty; the exit code, stderr and plot data stay as they
    are."""
    from ngontheta.sig12 import SPACE_ABC
    monkeypatch.chdir(tmp_path)
    (tmp_path / "examples").symlink_to(EXAMPLES)
    (tmp_path / "butterfly.json").write_text(json.dumps({
        "schema_version": 1, "space": jsonio.space_to_json(SPACE_ABC),
        "cs": [jsonio.vector_to_json(c) for c in butterfly_collection()]}))
    plot = tmp_path / "plot.tsv"
    code, out, err = run(capsys, *OUT_ARGV[name])
    plotted = plot.read_bytes() if plot.exists() else None
    assert out
    got = run(capsys, *OUT_ARGV[name], "--out", "report")
    assert got == (code, "", err)
    assert (tmp_path / "report").read_bytes() == out.encode()
    assert (plot.read_bytes() if plot.exists() else None) == plotted
    assert code == (2 if name == "ngon_invalid" else 0)


def test_exact_commands_load_no_scipy_special():
    """In a fresh interpreter, neither `dodec kernel` nor `sig12 zagier`
    imports any scipy module: kappa's eigenvalues come from numpy, and the
    error functions are imported where they are used."""
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
    assert after_zagier == []


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
