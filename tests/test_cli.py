import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import binom
from zeta3forms import bounds
from zeta3forms import zeta3 as zmod
from zeta3forms.beukers import dn_cubed
from zeta3forms.cli import (
    EXIT_FAILS,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    enclosure_decimal,
    fraction_places,
    fraction_sci,
    main,
)
from zeta3forms.exactnum import Enclosure

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def widen_form_abs(monkeypatch):
    """widen_form_abs(n0) replaces |I_n| for n >= n0 by [0, 2h], h its upper
    end: an enclosure touching 0, which no check can decide and no decay cell
    can print to one digit. Both sides of every check have relative width
    10**-digits at every n, so no real precision leaves a check unknown."""
    exact = bounds.form_abs_enclosure

    def widen(n0: int) -> None:
        def widened(n: int, digits: int) -> Enclosure:
            enc = exact(n, digits)
            return enc if n < n0 else Enclosure.from_parts(0, 2 * enc.hi_num, enc.den)

        monkeypatch.setattr(bounds, "form_abs_enclosure", widened)
        bounds.ratio_enclosure.cache_clear()

    yield widen
    bounds.ratio_enclosure.cache_clear()  # drop the R_n built from the widened route


# -- decimal formatting -------------------------------------------------------


def test_fraction_sci_basic():
    assert fraction_sci(-12, 1, 7) == "-1.200000e+01"
    assert fraction_sci(1, 3, 4) == "3.333e-01"
    assert fraction_sci(2, 3, 4) == "6.667e-01"
    assert fraction_sci(0, 1, 5) == "0"
    assert fraction_sci(999999, 10**6, 3) == "1.00e+00"  # carry into next decade


def test_fraction_sci_rejects_unknown_mode_at_zero_too():
    with pytest.raises(ValueError, match="bogus"):
        fraction_sci(1, 1, 5, "bogus")
    with pytest.raises(ValueError, match="bogus"):
        fraction_sci(0, 1, 5, "bogus")


def test_fraction_sci_directed_up():
    assert fraction_sci(1001, 10**6, 2, "up") == "1.1e-03"


# The Fraction printer the integer one replaced, kept as its reference.


def _ref_pow10(e: int) -> Fraction:
    return Fraction(10**e) if e >= 0 else Fraction(1, 10**-e)


def _ref_floor_log10(x: Fraction) -> int:
    e = (x.numerator.bit_length() - x.denominator.bit_length()) * 30103 // 100000
    while _ref_pow10(e) > x:
        e -= 1
    while _ref_pow10(e + 1) <= x:
        e += 1
    return e


def _ref_fraction_sci(x: Fraction, sig: int, mode: str = "half_up") -> str:
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    ax = abs(x)
    e = _ref_floor_log10(ax)
    y = ax / _ref_pow10(e - sig + 1)
    if mode == "half_up":
        m = (2 * y.numerator + y.denominator) // (2 * y.denominator)
    else:
        m = -((-y.numerator) // y.denominator)
    if m >= 10**sig:
        m //= 10
        e += 1
    digs = str(m)
    mant = digs if sig == 1 else digs[0] + "." + digs[1:]
    return f"{sign}{mant}e{e:+03d}"


def _ref_enclosure_decimal(enc: Enclosure, max_sig: int) -> str:
    mid = enc.midpoint()
    width = enc.width()
    if width == 0:
        return _ref_fraction_sci(mid, max_sig)
    if mid == 0:
        return "0±" + _ref_fraction_sci(width / 2, 2, "up")
    e = _ref_floor_log10(abs(mid))
    sig = max_sig
    while sig > 1 and width >= _ref_pow10(e - sig + 1):
        sig -= 1
    if width < _ref_pow10(e - sig + 1):
        return _ref_fraction_sci(mid, sig)
    return _ref_fraction_sci(mid, sig) + "±" + _ref_fraction_sci(width / 2, 2, "up")


SHAPES = ("any", "point", "zero_midpoint", "negative", "straddle", "boundary")


@st.composite
def unreduced_enclosures(draw, shapes=SHAPES):
    """Enclosures of every shape the printer branches on, over a den that
    shares a random factor with both numerators and may have thousands of bits."""
    shape = draw(st.sampled_from(shapes))
    a = draw(st.integers(min_value=0, max_value=10**30))
    w = draw(st.integers(min_value=0, max_value=10 ** draw(st.integers(min_value=0, max_value=30))))
    den = draw(
        st.one_of(
            st.integers(min_value=1, max_value=10**12),
            st.integers(min_value=2**3000, max_value=2**3100),
        )
    )
    if shape == "point":
        lo = hi = draw(st.sampled_from((a, -a)))
    elif shape == "zero_midpoint":
        lo, hi = -a, a
    elif shape == "negative":
        hi = -a - 1
        lo = hi - w
    elif shape == "straddle":
        lo, hi = -a - 1, w + 1
    elif shape == "boundary":
        # width exactly 10**j or one 1/den below it, and the midpoint at
        # +-10**i or 1/(2 den) beside it: where "< 1 ulp" and "<= 1 ulp" differ.
        # den carries 10**t so that j and i may go down to -t.
        t = draw(st.integers(min_value=0, max_value=12))
        den *= 10**t
        j = draw(st.integers(min_value=-t, max_value=20))
        i = max(-t, j + draw(st.integers(min_value=-2, max_value=12)))

        def times_den(p: int) -> int:  # 10**p * den, an integer for p >= -t
            return den * 10**p if p >= 0 else den // 10**-p

        w = times_den(j) - draw(st.sampled_from((0, 1)))
        m = draw(st.sampled_from((2, -2))) * times_den(i) + draw(st.sampled_from((0, 1, -1)))
        # over 2 den: midpoint m / (2 den), width 2 w / (2 den) = w / den
        lo, hi, den = m - w, m + w, 2 * den
    else:
        lo = draw(st.sampled_from((a, -a)))
        hi = lo + w
    k = draw(st.integers(min_value=1, max_value=2**100))
    return Enclosure.from_parts(lo * k, hi * k, den * k)


@given(unreduced_enclosures())
def test_enclosure_decimal_matches_fraction_reference(enc):
    for sig in range(1, 11):
        assert enclosure_decimal(enc, sig) == _ref_enclosure_decimal(enc, sig)


@given(unreduced_enclosures(shapes=("boundary",)))
def test_enclosure_decimal_matches_fraction_reference_at_the_boundary(enc):
    for sig in range(1, 11):
        assert enclosure_decimal(enc, sig) == _ref_enclosure_decimal(enc, sig)


@given(
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=1, max_value=2**70),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(("half_up", "up")),
)
def test_fraction_sci_reads_unreduced_integers(num, den, k, sig, mode):
    assert fraction_sci(num * k, den * k, sig, mode) == _ref_fraction_sci(F(num, den), sig, mode)


def test_enclosure_decimal_certifies_precision():
    # width 0.1 around 1.25: exactly at the 2-digit ulp, so only 1 digit is
    # strictly below one unit in the last place
    assert enclosure_decimal(Enclosure(F("1.2"), F("1.3")), 7) == "1e+00"
    # width 0.09 < 0.1 certifies two digits
    assert enclosure_decimal(Enclosure(F("1.20"), F("1.29")), 7) == "1.2e+00"
    exact = Enclosure.point(F(1, 4))
    assert enclosure_decimal(exact, 4) == "2.500e-01"


def test_enclosure_decimal_error_field_when_uncertifiable():
    foggy = Enclosure(F(-5), F(9))  # width 14 around midpoint 2
    assert "±" in enclosure_decimal(foggy, 7)


def test_fraction_places():
    assert fraction_places(120205690315959428, 10**17, 10) == "1.2020569032"
    assert fraction_places(5, 4, 0) == "1"
    with pytest.raises(ValueError):
        fraction_places(-1, 1, 3)
    with pytest.raises(ValueError):
        fraction_places(1, 0, 3)


def _places_reference(x: Fraction, places: int) -> str:
    """fraction_places on a reduced Fraction, as it read before taking integers."""
    scale = 10**places
    n = (2 * x.numerator * scale + x.denominator) // (2 * x.denominator)
    if places == 0:
        return str(n)
    q, r = divmod(n, scale)
    return f"{q}.{r:0{places}d}"


@given(
    st.integers(min_value=0, max_value=10**40),
    st.integers(min_value=1, max_value=10**20),
    st.integers(min_value=1, max_value=2**70),
    st.integers(min_value=0, max_value=40),
)
def test_fraction_places_reads_unreduced_integers(num, den, k, places):
    assert fraction_places(num * k, den * k, places) == _places_reference(F(num, den), places)


@given(
    st.integers(min_value=0, max_value=10**60),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=40),
)
def test_fraction_places_over_a_power_of_two(num, j, places):
    # den = 2**j takes the shift branch
    assert fraction_places(num, 2**j, places) == _places_reference(F(num, 2**j), places)


# -- form ----------------------------------------------------------------------


def test_form_n1_exact_line(capsys):
    code, out, _ = run_cli(capsys, "form", "--n", "1", "--quiet")
    assert code == EXIT_OK
    assert out == "alpha=-12 beta=10 A=-12 B=10 dn3=1\n"


def test_form_n2_rational_alpha(capsys):
    code, out, _ = run_cli(capsys, "form", "--n", "2", "--quiet")
    assert code == EXIT_OK
    assert out == "alpha=-351/2 beta=146 A=-1404 B=1168 dn3=8\n"


def test_form_json(capsys):
    code, out, _ = run_cli(capsys, "form", "--n", "2", "--json", "--quiet")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {"n": 2, "alpha": "-351/2", "beta": 146, "A": -1404, "B": 1168, "dn3": 8}


def test_form_json_at_n_1000(capsys):
    code, out, _ = run_cli(capsys, "form", "--n", "1000", "--json", "--quiet")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dn3"] == dn_cubed(1000)
    apery_1000 = sum((binom(1000, k) * binom(1000 + k, k)) ** 2 for k in range(1001))
    assert payload["B"] == 2 * apery_1000 * dn_cubed(1000)
    assert F(payload["alpha"]) * payload["dn3"] == payload["A"]


# -- verify ----------------------------------------------------------------------


def test_verify_five_rows_all_hold(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "5", "--digits", "20", "--quiet")
    lines = out.strip().splitlines()
    assert code == EXIT_OK
    assert len(lines) == 5
    assert all("bound=holds" in line and "ratio=holds" in line for line in lines)


def test_verify_unknown_after_cap_exits_3(capsys, widen_form_abs):
    # verify evaluates each check once; rows whose |I_n| touches 0 stay unknown
    widen_form_abs(40)
    code, out, _ = run_cli(capsys, "verify", "--n-max", "50", "--digits", "1", "--quiet")
    assert code == EXIT_UNKNOWN
    assert "bound=unknown" in out
    assert "n=1 bound=holds" in out  # small n still resolve


def test_verify_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "6", "--digits", "25", "--csv", "--quiet")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["n"] for row in rows] == [str(n) for n in range(1, 7)]
    for row in rows:
        n = int(row["n"])
        assert bounds.verify_form_bound(n, 25).status.value == row["bound_status"]
        assert bounds.verify_ratio_bound(n, 25).status.value == row["ratio_status"]


# -- zeta3 -----------------------------------------------------------------------


def test_zeta3_digits_output(capsys):
    code, out, _ = run_cli(capsys, "zeta3", "--digits", "15", "--quiet")
    assert code == EXIT_OK
    assert out == "1.202056903159594\n"


def test_zeta3_large_digit_output(capsys):
    # far beyond CPython's default int->str guard; first digits pinned to the
    # independently verified expansion
    code, out, _ = run_cli(capsys, "zeta3", "--digits", "5000", "--quiet")
    assert code == EXIT_OK
    value = out.strip()
    assert len(value) == 5002  # "1." + 5000 places
    assert value.startswith("1.2020569031595942853997381615114499907649862923404988817922")


def test_zeta3_methods_agree(capsys):
    outs = set()
    for method in ("direct", "accelerated", "cross"):
        code, out, _ = run_cli(capsys, "zeta3", "--digits", "11", "--method", method, "--quiet")
        assert code == EXIT_OK
        outs.add(out)
    assert len(outs) == 1


def test_zeta3_direct_infeasible_digits_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "zeta3", "--digits", "400", "--method", "direct", "--quiet")
    assert code == EXIT_USAGE
    assert "error" in err
    # The CLI asks for one guard digit, so its limit is one below the library's.
    code, out, _ = run_cli(capsys, "zeta3", "--digits", "17", "--method", "direct", "--quiet")
    assert (code, out) == (EXIT_OK, "1.20205690315959429\n")
    code, _, err = run_cli(capsys, "zeta3", "--digits", "18", "--method", "direct", "--quiet")
    assert code == EXIT_USAGE
    assert "--method direct goes up to --digits 17; use --method accelerated or cross" in err


def test_zeta3_direct_limit_follows_the_term_limit(capsys, monkeypatch):
    # 10^(d+1) <= 1000^3 for d <= 8: the library goes to 8 digits, the CLI to 7.
    monkeypatch.setattr(zmod, "_DIRECT_TERM_LIMIT", 1000)
    assert zmod.direct_max_digits() == 8
    code, _, err = run_cli(capsys, "zeta3", "--digits", "8", "--method", "direct", "--quiet")
    assert code == EXIT_USAGE
    assert "--method direct goes up to --digits 7;" in err


# -- audit -----------------------------------------------------------------------


def test_audit_json_final_contradiction_fails(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--coeffs", "1,1", "--n", "1", "--digits", "30", "--json", "--quiet"
    )
    assert code == EXIT_FAILS
    payload = json.loads(out)
    steps = {step["id"]: step for step in payload["steps"]}
    assert steps["final_contradiction"]["numeric"] == "fails"
    assert payload["c0_positive"] is True
    assert payload["coeffs"] == [1, 1]


def test_audit_negative_coeffs_text(capsys):
    code, out, _ = run_cli(capsys, "audit", "--coeffs", "-6,5", "--n", "1", "--quiet")
    assert code == EXIT_FAILS
    assert "c0_positive=false" in out
    assert "weighted_sum: fails" in out
    assert "(unmet)" in out


def test_audit_invalid_vector_usage_error(capsys):
    code, _, err = run_cli(capsys, "audit", "--coeffs", "0,0", "--n", "1", "--quiet")
    assert code == EXIT_USAGE
    assert "error" in err


def test_audit_malformed_coeffs_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "audit", "--coeffs", "1,x", "--n", "1", "--quiet")
    assert exc.value.code == EXIT_USAGE


# -- decay ------------------------------------------------------------------------


def test_decay_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "decay", "--n-max", "5", "--digits", "60", "--csv", "--quiet")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "d_n", "abs_form", "rhs_bound", "ratio", "T_n"]
    assert len(rows) == 6
    assert [row[0] for row in rows[1:]] == ["1", "2", "3", "4", "5"]
    assert rows[5][1] == "60"  # d_5


def test_decay_text_mode(capsys):
    code, out, _ = run_cli(capsys, "decay", "--n-max", "2", "--digits", "60", "--quiet")
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("n=1 d_n=1 abs_form=")


def test_decay_exits_3_on_an_uncertified_cell(capsys, widen_form_abs):
    # a row whose |I_n| touches 0 cannot certify one significant digit of its
    # abs_form and ratio cells and prints a +/- field instead
    widen_form_abs(72)
    code, out, _ = run_cli(capsys, "decay", "--n-max", "72", "--digits", "220", "--quiet")
    assert "±" in out.splitlines()[-1]
    assert code == EXIT_UNKNOWN


def test_decay_exits_0_when_every_cell_is_certified(capsys):
    code, out, _ = run_cli(capsys, "decay", "--n-max", "71", "--digits", "220", "--quiet")
    assert "±" not in out
    assert code == EXIT_OK


# -- plumbing ----------------------------------------------------------------------


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n-max", "3", "--frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_missing_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_banner_suppression(capsys):
    _, _, err_loud = run_cli(capsys, "form", "--n", "1")
    _, _, err_quiet = run_cli(capsys, "form", "--n", "1", "--quiet")
    assert err_loud.startswith("[zeta3forms]")
    assert err_quiet == ""


def test_repeat_runs_byte_identical(capsys):
    first = run_cli(capsys, "verify", "--n-max", "4", "--digits", "20", "--csv", "--quiet")
    second = run_cli(capsys, "verify", "--n-max", "4", "--digits", "20", "--csv", "--quiet")
    assert first == second
