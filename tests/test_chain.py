import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zeta3forms import chain
from zeta3forms.beukers import linear_form
from zeta3forms.bounds import CheckStatus, ratio_enclosure, sandwich_status
from zeta3forms.chain import (
    MAX_REFINEMENTS,
    ChainReport,
    CoeffVector,
    InvalidCoeffVector,
    JustificationKind,
    _poly_enclosure,
    audit,
    fixed_corpus,
    random_corpus,
    report_to_dict,
    report_to_json,
)
from zeta3forms.exactnum import Enclosure
from zeta3forms.zeta3 import zeta3

F = Fraction


def _within(enc, lo, hi):
    return F(lo) <= enc.lo and enc.hi <= F(hi)


# -- coefficient vectors ----------------------------------------------------------


def test_vector_validation():
    with pytest.raises(InvalidCoeffVector):
        CoeffVector((0, 0))
    with pytest.raises(InvalidCoeffVector):
        CoeffVector((5,))
    v = CoeffVector((0, 1))
    assert v.m == 1
    assert not v.c0_positive
    assert not v.all_positive
    assert CoeffVector((1, 2, 3)).all_positive


@pytest.mark.parametrize("bad", [0.5, 1.9, F(7, 2), F(4, 1), "3"])
def test_vector_rejects_non_integer_coefficients(bad):
    # int() would truncate these to a different relation: (0.5, 1.9) -> (0, 1).
    with pytest.raises(InvalidCoeffVector):
        CoeffVector((1, bad))
    with pytest.raises(InvalidCoeffVector):
        CoeffVector((bad, 1))


# -- residuals ---------------------------------------------------------------------


def _decided(n: int, c: tuple[int, ...], digits: int) -> ChainReport:
    """audit(n, c, digits), which must decide every step at ``digits``."""
    report = audit(n, CoeffVector(c), digits)
    assert report.digits_used == digits
    return report


def test_residual_examples():
    assert _within(_decided(1, (0, 1), 30).residual, "1.2020569031595942853", "1.2020569031595942855")
    assert _within(_decided(1, (1, 1), 30).residual, "2.2020569031595942853", "2.2020569031595942855")
    small = _decided(1, (-6, 5), 30).residual
    assert _within(small, "0.0102845157979714269", "0.0102845157979714270")
    assert small.lo > 0  # small but certifiedly nonzero


def test_residual_minus6_5_equals_half_form_abs():
    # 5*zeta(3) - 6 = I_1/2; the residual and |I_1| built from the same zeta(3)
    # enclosure (the oracle route of bounds.form_abs_enclosure) are exact
    # affine images of it, so the enclosures agree bit for bit
    form = linear_form(1)
    for digits in (10, 30, 60):
        rhs = abs((zeta3(digits) * form.B + form.A) / form.dn3) / 2
        assert _decided(1, (-6, 5), digits).residual == rhs


# -- the Horner kernel ---------------------------------------------------------------


def _generic_horner(coeffs: tuple[int, ...], x: Enclosure) -> Enclosure:
    """sum_i coeffs[i] * x**i by Enclosure's own * and +: the kernel's oracle."""
    acc = Enclosure(coeffs[-1], coeffs[-1])
    for ck in reversed(coeffs[:-1]):
        acc = acc * x + ck
    return acc


def _fields(e: Enclosure) -> tuple[int, int, int]:
    return e.lo_num, e.hi_num, e.den


def _kernel_points() -> list[Enclosure]:
    points = []
    for n in (1, 20, 50, 200):
        for digits in (1, 2, 60, 230):
            r = ratio_enclosure(n, digits)
            points += [r, Enclosure(0, r.hi_num, r.den)]  # R_n, and R_n widened to [0, h]
    points += [zeta3(digits) for digits in (1, 2, 60, 230)]
    return points + [Enclosure(5, 5, 7), Enclosure(0, 3, 8)]


def test_horner_kernel_gives_the_fields_of_the_generic_operators():
    # large and small coefficients, so the ends of the running sum change sign
    rng = random.Random(20261019)
    for x in _kernel_points():
        for _ in range(12):
            bound = rng.choice((2, 10**6))
            c = tuple(rng.randint(-bound, bound) for _ in range(rng.randint(2, 7)))
            assert _fields(_poly_enclosure(c, x)) == _fields(_generic_horner(c, x)), (x, c)
            # S's form: the coefficients (0,) + c give x * P(x), field for field
            product = x * _generic_horner(c, x)
            assert _fields(_poly_enclosure((0,) + c, x)) == _fields(product), (x, c)


def test_horner_kernel_refuses_a_negative_lower_end_under_python_O():
    with pytest.raises(ValueError):
        _poly_enclosure((1, 2), Enclosure(-1, 1))
    code = (
        "import sys\n"
        "from zeta3forms.chain import _poly_enclosure\n"
        "from zeta3forms.exactnum import Enclosure\n"
        "try:\n"
        "    _poly_enclosure((1, 2), Enclosure(-1, 1))\n"
        "except ValueError:\n"
        "    sys.exit(10 + sys.flags.optimize)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, env=env)
    # 10 for the ValueError, plus 1 for the asserts that -O strips
    assert (proc.returncode, proc.stderr) == (11, b"")


# -- power bounds ------------------------------------------------------------------


def test_power_bound_first_power():
    step = audit(1, CoeffVector((-6, 5)), 30).step("power_1")
    assert step.step_id == "power_1"
    assert step.numeric is CheckStatus.HOLDS
    assert step.justification.kind is JustificationKind.JUSTIFIED


def test_power_bound_square():
    # R_1^2 ~ 0.12206 < zeta(3)^2 ~ 1.44494
    step = audit(1, CoeffVector((-6, 5)), 30).step("power_2")
    assert step.numeric is CheckStatus.HOLDS


# -- weighted sums ------------------------------------------------------------------


def test_weighted_sum_examples():
    s = _decided(1, (1, 1), 30).S
    assert _within(s, "0.4714307376357423070", "0.4714307376357423071")
    s = _decided(1, (-6, 5), 30).S
    assert _within(s, "-1.4859249936009093954", "-1.4859249936009093953")


def test_weighted_sum_single_positive_leading_term():
    for m, cm in [(1, 3), (2, 1), (3, 7)]:
        s = _decided(2, (0,) * m + (cm,), 40).S
        assert s.lo > 0  # c_m * R^(m+1) with c_m > 0


# -- audits -------------------------------------------------------------------------


def test_audit_all_positive_vector():
    report = audit(1, CoeffVector((1, 1)), 30)
    by_id = {s.step_id: s for s in report.steps}
    assert [s.step_id for s in report.steps] == [
        "power_1",
        "power_2",
        "weighted_sum",
        "substitution",
        "final_contradiction",
    ]
    assert by_id["power_1"].numeric is CheckStatus.HOLDS
    assert by_id["power_2"].numeric is CheckStatus.HOLDS
    ws = by_id["weighted_sum"]
    assert ws.numeric is CheckStatus.HOLDS
    assert ws.justification.kind is JustificationKind.JUSTIFIED
    sub = by_id["substitution"]
    assert sub.numeric is CheckStatus.FAILS  # residual ~ 2.202, certified nonzero
    assert sub.justification.kind is JustificationKind.REQUIRES_CONDITION
    assert sub.justification.met is False
    final = by_id["final_contradiction"]
    assert final.numeric is CheckStatus.FAILS
    assert final.justification.kind is JustificationKind.NOT_APPLICABLE
    assert report.coeffs.c0_positive


def test_audit_negative_coefficient_vector():
    report = audit(1, CoeffVector((-6, 5)), 30)
    ws = report.step("weighted_sum")
    assert ws.numeric is CheckStatus.FAILS  # S ~ -1.486, so 0 < S is refuted
    assert ws.justification.kind is JustificationKind.REQUIRES_CONDITION
    assert ws.justification.met is False
    assert not report.coeffs.c0_positive


def test_audit_rejects_bad_inputs():
    with pytest.raises(InvalidCoeffVector):
        audit(1, CoeffVector((0, 0)), 30)
    with pytest.raises(ValueError):
        audit(0, CoeffVector((1, 1)), 30)


def test_monotone_refinement_never_flips_determinate_status():
    vectors = [(1, 1), (-6, 5), (2, -3, 1), (0, 0, 0, 0, 1), (-1, -1, -1)]
    for vec in vectors:
        for n in (1, 4, 9):
            coarse = audit(n, CoeffVector(vec), 20)
            fine = audit(n, CoeffVector(vec), 40)
            for a, b in zip(coarse.steps, fine.steps):
                assert a.step_id == b.step_id
                if a.numeric is not CheckStatus.UNKNOWN:
                    assert a.numeric is b.numeric


def test_audit_step_count_tracks_degree():
    report = audit(1, CoeffVector((1, 2, 3, 4)), 40)
    power_steps = [s for s in report.steps if s.step_id.startswith("power_")]
    assert len(power_steps) == 4  # k = 1..m+1 with m = 3


# -- corpora ------------------------------------------------------------------------


def test_fixed_corpus_is_deterministic():
    a = fixed_corpus()
    b = fixed_corpus()
    assert a == b
    assert len(a) == 200
    assert all(v.m <= 4 and max(abs(x) for x in v.c) <= 10 for v in a)


def test_random_corpus_is_seed_deterministic():
    a = random_corpus(50, seed=7)
    b = random_corpus(50, seed=7)
    c = random_corpus(50, seed=8)
    assert a == b
    assert a != c
    assert all(v.m <= 4 and max(abs(x) for x in v.c) <= 10 for v in a)


def test_soundness_on_small_sample():
    for i, vec in enumerate(fixed_corpus()[:30]):
        report = audit(1 + (i % 5), vec, 60)
        assert report.step("final_contradiction").numeric is not CheckStatus.HOLDS


# -- serialization --------------------------------------------------------------------


def test_report_json_schema_and_determinism():
    report = audit(1, CoeffVector((1, 1)), 30)
    payload = report_to_dict(report)
    assert list(payload) == [
        "n",
        "coeffs",
        "R",
        "S",
        "residual",
        "c0_positive",
        "digits_used",
        "steps",
    ]
    assert payload["coeffs"] == [1, 1]
    assert payload["R"].startswith("[") and payload["R"].endswith("]")
    assert all(set(step) == {"id", "numeric", "justification"} for step in payload["steps"])
    assert report_to_json(report) == report_to_json(audit(1, CoeffVector((1, 1)), 30))


def test_report_step_lookup():
    report = audit(1, CoeffVector((1, 1)), 20)
    assert isinstance(report, ChainReport)
    with pytest.raises(KeyError):
        report.step("nonexistent")


LADDER_VECTORS = [
    CoeffVector(c) for c in ((-6, 5), (1, 1), (3, -1, 4, 1, -5), (2, 0, -7), (1, 2, 3, 4))
]


HOLDS_AND_UNKNOWN = {CheckStatus.HOLDS, CheckStatus.UNKNOWN}


@pytest.mark.parametrize(
    ("digits", "statuses"),
    [(1, HOLDS_AND_UNKNOWN), (2, HOLDS_AND_UNKNOWN), (3, HOLDS_AND_UNKNOWN),
     (7, HOLDS_AND_UNKNOWN), (30, {CheckStatus.HOLDS})],
)
def test_power_steps_match_the_multiplied_out_powers(ratio_touches_zero, digits, statuses):
    """Every power_k step reports what the powers themselves decide:
    sandwich_status(R**k, zeta(3)**k) at the precision the audit ended on,
    with x**k built as [lo_num**k, hi_num**k] / den**k as _audit_once states.
    R_n's grid follows its size, so at n = 1..40 and n = 60 * digits the power
    steps hold at the requested digits. The low precisions then audit
    n = 60 * digits again with R at [0, h] at every rung of the ladder, where
    every power step ends unknown."""

    def power(x: Enclosure, k: int) -> Enclosure:
        return Enclosure(x.lo_num**k, x.hi_num**k, x.den**k)

    def powers_seen(n: int) -> set[CheckStatus]:
        seen = set()
        for c in LADDER_VECTORS:
            report = audit(n, c, digits)
            z = zeta3(report.digits_used)
            for k in range(1, c.m + 2):
                status = sandwich_status(power(report.R, k), power(z, k))
                assert report.step(f"power_{k}").numeric is status, (n, c, k)
                seen.add(status)
        return seen

    for n in [*range(1, 41), 60 * digits]:
        assert sandwich_status(ratio_enclosure(n, digits), zeta3(digits)) is CheckStatus.HOLDS, n
        assert powers_seen(n) == {CheckStatus.HOLDS}, n
    seen = {CheckStatus.HOLDS}
    if CheckStatus.UNKNOWN in statuses:
        ratio_touches_zero()
        seen |= powers_seen(60 * digits)
    assert seen == statuses


def test_grid_ratio_lower_end_is_positive_up_to_300():
    # R_n ~ 10**(-1.3 n) is rounded onto a grid relative to its size, so its
    # lower end never rounds to 0
    for n in range(1, 301):
        for digits in range(1, 9):
            assert ratio_enclosure(n, digits).lo_num > 0, (n, digits)


@pytest.mark.parametrize("n", [60, 200])
def test_power_steps_hold_at_one_digit_over_the_fixed_corpus(n):
    for c in fixed_corpus():
        report = audit(n, c, 1)
        assert report.digits_used == 1, c
        for k in range(1, c.m + 2):
            assert report.step(f"power_{k}").numeric is CheckStatus.HOLDS, (c, k)


@pytest.mark.parametrize("n", [1, 7, 20])
@pytest.mark.parametrize("digits", [60, 1])
def test_audit_builds_S_and_residual_as_the_public_helpers(n, digits):
    # _audit_once builds S and the residual with its Horner kernel from the
    # R_n and zeta(3) it already holds; they must equal R_n * P(R_n) and
    # P(zeta(3)) built by Enclosure's * and + from the public ratio_enclosure
    # and zeta3 at the digits the audit ended on
    for c in fixed_corpus():
        report = audit(n, c, digits)
        ratio = ratio_enclosure(n, report.digits_used)
        assert report.S == ratio * _generic_horner(c.c, ratio), c
        assert report.residual == _generic_horner(c.c, zeta3(report.digits_used)), c


# -- the verdicts at zero, on hand-built enclosures -------------------------------

LADDER_TOP = 3 << MAX_REFINEMENTS  # digits_used when audit(n, c, 3) never decides


def _audit_on(monkeypatch, c: tuple[int, ...], ratio: Enclosure, z: Enclosure) -> ChainReport:
    """audit(1, c, 3) with R_n and zeta(3) replaced by ``ratio`` and ``z`` on every rung."""
    monkeypatch.setattr(chain, "ratio_enclosure", lambda n, digits: ratio)
    monkeypatch.setattr(chain, "zeta3", lambda digits: z)
    report = audit(1, CoeffVector(c), 3)
    unknown = any(s.numeric is CheckStatus.UNKNOWN for s in report.steps)
    assert report.digits_used == (LADDER_TOP if unknown else 3)
    return report


TENTH = Enclosure(1, 1, 10)


@pytest.mark.parametrize(
    ("z", "residual"),
    [
        (Enclosure(1, 1), (0, 0, 1)),
        (Enclosure(100, 101, 100), (0, 1, 100)),
        (Enclosure(99, 100, 100), (-1, 0, 100)),
        (Enclosure(99, 101, 100), (-1, 1, 100)),
    ],
    ids=["zero", "0-to-h", "minus-h-to-0", "minus-h-to-h"],
)
def test_a_residual_touching_zero_leaves_the_substitution_undetermined(monkeypatch, z, residual):
    # c = (-1, 1): the residual is zeta(3) - 1, so these z put it at [0, 0],
    # [0, h], [-h, 0] and [-h, h]
    report = _audit_on(monkeypatch, (-1, 1), TENTH, z)
    assert report.residual == Enclosure(*residual)
    step = report.step("substitution")
    assert step.numeric is CheckStatus.UNKNOWN
    assert step.justification.met is None
    assert step.justification.as_text().endswith("(undetermined)")
    assert report.digits_used == LADDER_TOP


@pytest.mark.parametrize("z", [Enclosure(2, 2), Enclosure(1, 1, 2)], ids=["positive", "negative"])
def test_a_residual_clear_of_zero_fails_the_substitution(monkeypatch, z):
    report = _audit_on(monkeypatch, (-1, 1), TENTH, z)
    assert not report.residual.contains(0)
    step = report.step("substitution")
    assert step.numeric is CheckStatus.FAILS
    assert step.justification.met is False
    assert step.justification.as_text().endswith("(unmet)")


@pytest.mark.parametrize(
    ("c", "ratio", "S", "status"),
    [
        ((-1, 1), Enclosure(1, 1), (0, 0, 1), CheckStatus.FAILS),
        ((-1, 1), Enclosure(100, 101, 100), (0, 101, 10000), CheckStatus.UNKNOWN),
        ((-1, 1), Enclosure(99, 101, 100), (-101, 101, 10000), CheckStatus.UNKNOWN),
        ((-1, 1), TENTH, (-9, -9, 100), CheckStatus.FAILS),
        ((1, 1), TENTH, (11, 11, 100), CheckStatus.FAILS),
    ],
    ids=["zero", "0-to-h", "minus-h-to-h", "negative", "positive"],
)
def test_the_final_step_fails_unless_S_straddles_zero_with_width(monkeypatch, c, ratio, S, status):
    # zeta(3) at 2 keeps the residual clear of zero, so only S can leave a step open
    report = _audit_on(monkeypatch, c, ratio, Enclosure(2, 2))
    assert report.S == Enclosure(*S)
    assert report.step("substitution").numeric is CheckStatus.FAILS
    assert report.step("final_contradiction").numeric is status
