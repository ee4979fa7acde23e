"""The integer front end of the cell commands: rational parsing against
fractions.Fraction, the integer Gram and signature of QuadraticSpace, and
the integer N-gon and dodecahedron checks against Fraction references
built from projected vectors."""

import fractions
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ngontheta import jsonio
from ngontheta.dodec import (DodecValidationError, seed_construction,
                             validate_dodec)
from ngontheta.jsonio import EXP_MAX, InputError, parse_rational, parse_vector
from ngontheta.ngon import NGonValidationError, validate
from ngontheta.qspace import QuadraticSpace, _charpoly, _signature

from conftest import (check_conditions_vec, check_dodec_conditions_vec,
                      dodec_D_vec, dodec_violations, face_w_vec,
                      regular_negative_vector_vec, vec_add, vec_scale)


# --- parse_rational against Fraction ------------------------------------

def _parsed(s):
    try:
        return "value", parse_rational(s)
    except InputError as e:
        return "error", str(e)


def _fraction(s):
    """What parse_rational must give for a string s: Fraction(s), or its
    error text behind "bad rational string"; an exponent above EXP_MAX (as
    Fraction's own grammar reads it) is refused before Fraction is called."""
    m = fractions._RATIONAL_FORMAT.match(s)
    try:
        big = bool(m and m.group("exp")) and abs(int(m.group("exp"))) > EXP_MAX
    except ValueError:      # past int's digit cap, where Fraction raises too
        big = False
    if big:
        return "error", (f"bad rational string {s!r}: exponent above "
                         f"{EXP_MAX} in absolute value")
    try:
        return "value", Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        return "error", f"bad rational string {s!r}: {e}"


CORPUS = ["0", "7", "-7", "+7", "007", "-007/010", "-0", "-0/7", "+0/3",
          "3/4", "-3/40", "6/8", "3/0", "0/0", "3/-4", "-3/+4", "+-3",
          "1_000", "1_000/3", "1__0", "0.3", "-.5", "5.", ".", "2e-3",
          "2E3", "1.5e+2", "1e4300", "-1e-4300", "1e4301", "1e-4301",
          "1e1_0000", "1/2e3", " 5", "5 ", " -3/4 ", "5 / 3", "\t5\n",
          "٣", "-٣/٤", "١e٣", "", " ", "+", "-", "/", "1/", "/2", "e5",
          "1e", "1e+", "inf", "nan", "0x10", "1" * 4300, "1" * 4301,
          "3/" + "1" * 4301, "0." + "1" * 4301, "1e" + "0" * 4301 + "5"]


@pytest.mark.parametrize("s", CORPUS, ids=lambda s: repr(s[:12]))
def test_parse_rational_matches_fraction_corpus(s):
    assert _parsed(s) == _fraction(s)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(s=st.text(alphabet="0123456789+-/._eE ٣", max_size=12))
def test_parse_rational_matches_fraction(s):
    assert _parsed(s) == _fraction(s)


def test_parse_rational_fast_path_and_exponent_cap(monkeypatch):
    """ASCII integers and p/q reach Fraction only as ints; an exponent
    above the cap is refused before Fraction is called, so it costs no
    10^|e|."""
    calls = []

    def spy(*args):
        calls.append(args)
        return Fraction(*args)

    monkeypatch.setattr(jsonio, "Fraction", spy)
    for s, want in (("-3/40", Fraction(-3, 40)), ("+12", Fraction(12)),
                    ("8/6", Fraction(4, 3))):
        assert parse_rational(s) == want
    assert all(isinstance(a, int) for args in calls for a in args)
    calls.clear()
    start = time.monotonic()
    for s in ("1e10000000", "-2.5E-99999999", "1e4301"):
        with pytest.raises(InputError, match="exponent above 4300"):
            parse_rational(s)
    assert time.monotonic() - start < 1.0
    assert calls == []
    assert parse_rational("1e4300") == 10 ** 4300


@pytest.mark.parametrize("obj, message", [
    (True, "not a rational: True"),
    (False, "not a rational: False"),
    (None, "not a rational: None"),
    ({"a": 1}, "not a rational: {'a': 1}"),
    (["1"], "not a rational: ['1']"),
    (1.5, "not a rational: 1.5 (floats are not accepted)"),
])
def test_parse_rational_non_strings(obj, message):
    with pytest.raises(InputError) as e:
        parse_rational(obj)
    assert str(e.value) == message


def test_parse_vector_is_one_pass():
    v = parse_vector(["1/2", 3, "-0/7", "2e-1"])
    assert v == (Fraction(1, 2), 3, 0, Fraction(1, 5))
    assert all(type(t) is Fraction for t in v)


# --- QuadraticSpace: integer Gram and signature ---------------------------

@st.composite
def congruent_diagonals(draw):
    """(A, (p, q) or None) with A = P^T D P for a unimodular P, a product
    of elementary integer row operations, and a diagonal D; None when D
    has a zero."""
    m = draw(st.integers(1, 5))
    diag = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    p = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(draw(st.integers(0, 8)) if m > 1 else 0):
        i, j = draw(st.permutations(range(m)))[:2]
        c = draw(st.integers(-3, 3))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
    a = [[sum(p[k][i] * diag[k] * p[k][j] for k in range(m)) for j in range(m)]
         for i in range(m)]
    sig = None if 0 in diag else (sum(d > 0 for d in diag),
                                  sum(d < 0 for d in diag))
    return a, sig


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=congruent_diagonals(),
       scale=st.fractions(Fraction(1, 12), 12, max_denominator=12))
def test_signature_of_congruent_diagonal(case, scale):
    """_signature of the _charpoly coefficients and QuadraticSpace read the
    signature of P^T D P off D; a degenerate form raises.  The space's
    integer Gram is G = gi / den, den the lcm of G's denominators."""
    a, sig = case
    gram = [[scale * v for v in row] for row in a]
    if sig is None:
        with pytest.raises(ValueError, match="degenerate"):
            _signature(_charpoly(a)[0])
        with pytest.raises(ValueError, match="degenerate"):
            QuadraticSpace(gram)
        return
    assert _signature(_charpoly(a)[0]) == sig
    space = QuadraticSpace(gram)
    assert space.sig == sig
    assert space._den == math.lcm(*(v.denominator for r in gram for v in r))
    assert [[Fraction(v, space._den) for v in r] for r in space._gi] == gram
    assert space.gram_f.tolist() == [[float(v) for v in r] for r in gram]


def test_quadratic_space_shape_checks():
    with pytest.raises(ValueError, match="square"):
        QuadraticSpace([[1, 0], [0]])
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticSpace([[1, Fraction(1, 2)], [Fraction(1, 3), -1]])


# --- the integer checks against projected Fraction references ----------

Z0 = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
V0 = (1, 0, 0, 0)
small = st.fractions(-3, 3, max_denominator=5)


def _report(check, space, cs):
    try:
        return [(i, v.j, v.condition, v.message) for i, v in check(space, cs)]
    except DodecValidationError as e:
        return "raised", e.diagnostics, str(e)


def test_dodec_validator_matches_projected_reference(space_q3):
    """Perturbed seed cells, valid and invalid: violation reports (messages
    included) that validate_dodec raises, face_w and 8 D(v) at the default
    negative v equal a Fraction reference built from projected vectors and
    the three conditions on each projected 5-tuple."""
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ts=st.lists(st.fractions(0, 1, max_denominator=60), min_size=12,
                       max_size=12),
           moves=st.lists(st.tuples(st.integers(0, 11),
                                    st.tuples(small, small, small, small)),
                          max_size=3),
           scale=st.sampled_from([Fraction(1, 1000), Fraction(1, 20),
                                  Fraction(1, 2), 2]))
    def check(ts, moves, scale):
        sp = space_q3
        cs = list(seed_construction(sp, Z0, V0, ts))
        for j, delta in moves:
            cs[j] = vec_add(cs[j], vec_scale(scale, delta))
        want = _report(check_dodec_conditions_vec, sp, cs)
        assert _report(dodec_violations, sp, cs) == want
        seen.add(want == [])
        if want != []:
            return
        d = validate_dodec(sp, cs)
        face_w = face_w_vec(sp, cs)
        assert d.face_w == face_w
        v = regular_negative_vector_vec(sp, cs)
        assert d.level_at() == 8 * dodec_D_vec(sp, cs, face_w, v)

    check()
    assert seen == {True, False}


def test_ngon_validator_matches_reference(funddom):
    """NGon raises every violation of the Fraction reference, and its
    message names the first, on perturbed fundamental domains."""
    sp = funddom.space
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(j=st.integers(0, 3), delta=st.tuples(small, small, small),
           scale=st.sampled_from([Fraction(1, 100), Fraction(1, 3), 2]))
    def check(j, delta, scale):
        cs = list(funddom.cs)
        cs[j] = vec_add(cs[j], vec_scale(scale, delta))
        want = check_conditions_vec(sp, cs)
        seen.add(want == [])
        if want:
            with pytest.raises(NGonValidationError) as e:
                validate(sp, cs)
            assert e.value.violations == want
            assert str(e.value) == str(want[0])
        else:
            validate(sp, cs)

    check()
    assert seen == {True, False}
