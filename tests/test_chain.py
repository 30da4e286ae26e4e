from fractions import Fraction

import pytest

from zeta3forms.beukers import linear_form
from zeta3forms.bounds import CheckStatus, ratio_enclosure, sandwich_status
from zeta3forms.chain import (
    ChainReport,
    CoeffVector,
    InvalidCoeffVector,
    JustificationKind,
    audit,
    fixed_corpus,
    random_corpus,
    report_to_dict,
    report_to_json,
    residual_enclosure,
    weighted_sum_enclosure,
)
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


def test_residual_examples():
    assert _within(
        residual_enclosure(CoeffVector((0, 1)), 30),
        "1.2020569031595942853",
        "1.2020569031595942855",
    )
    assert _within(
        residual_enclosure(CoeffVector((1, 1)), 30),
        "2.2020569031595942853",
        "2.2020569031595942855",
    )
    small = residual_enclosure(CoeffVector((-6, 5)), 30)
    assert _within(small, "0.0102845157979714269", "0.0102845157979714270")
    assert small.lo > 0  # small but certifiedly nonzero


def test_residual_minus6_5_equals_half_form_abs():
    # 5*zeta(3) - 6 = I_1/2; the residual and |I_1| built from the same zeta(3)
    # enclosure (the oracle route of bounds.form_abs_enclosure) are exact
    # affine images of it, so the enclosures agree bit for bit
    form = linear_form(1)
    for digits in (10, 30, 60):
        lhs = residual_enclosure(CoeffVector((-6, 5)), digits)
        rhs = abs((zeta3(digits) * form.B + form.A) / form.dn3) * F(1, 2)
        assert lhs == rhs


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
    s = weighted_sum_enclosure(1, CoeffVector((1, 1)), 30)
    assert _within(s, "0.4714307376357423070", "0.4714307376357423071")
    s = weighted_sum_enclosure(1, CoeffVector((-6, 5)), 30)
    assert _within(s, "-1.4859249936009093954", "-1.4859249936009093953")


def test_weighted_sum_single_positive_leading_term():
    for m, cm in [(1, 3), (2, 1), (3, 7)]:
        c = CoeffVector((0,) * m + (cm,))
        s = weighted_sum_enclosure(2, c, 40)
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
    assert report.c0_positive


def test_audit_negative_coefficient_vector():
    report = audit(1, CoeffVector((-6, 5)), 30)
    ws = report.step("weighted_sum")
    assert ws.numeric is CheckStatus.FAILS  # S ~ -1.486, so 0 < S is refuted
    assert ws.justification.kind is JustificationKind.REQUIRES_CONDITION
    assert ws.justification.met is False
    assert not report.c0_positive


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
    sandwich_status(R**k, zeta(3)**k) at the precision the audit ended on.
    R_n's grid follows its size, so at n = 1..40 and n = 60 * digits the power
    steps hold at the requested digits. The low precisions then audit
    n = 60 * digits again with R at [0, h] at every rung of the ladder, where
    every power step ends unknown."""

    def powers_seen(n: int) -> set[CheckStatus]:
        seen = set()
        for c in LADDER_VECTORS:
            report = audit(n, c, digits)
            z = zeta3(report.digits_used)
            for k in range(1, c.m + 2):
                status = sandwich_status(report.R**k, z**k)
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
    # _audit_once builds S and the residual inline, from the R_n and zeta(3)
    # it already holds; they must equal the public helpers' enclosures
    for c in fixed_corpus():
        report = audit(n, c, digits)
        assert report.S == weighted_sum_enclosure(n, c, report.digits_used), c
        assert report.residual == residual_enclosure(c, report.digits_used), c
