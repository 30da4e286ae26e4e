"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles
from oracles import binom, encloses, moment, moment_series_oracle, width
from zeta3forms import beukers, bounds, chain
from zeta3forms.beukers import linear_form
from zeta3forms.bounds import CheckStatus, decay_table, verify_form_bound, verify_ratio_bound
from zeta3forms.chain import Justification
from zeta3forms.zeta3 import zeta3

F = Fraction

# beta_50 ~ 2e74 amplifies zeta(3) width; 170 working digits leave every
# enclosure for n <= 50 far below the 1e-20 width tolerance.
SWEEP_DIGITS = 170


def _criterion(num: int, label: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {label}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def test_criterion_1_integrality():
    started = time.perf_counter()
    violations = []
    for n in range(51):
        # alpha_n from the moment double sum, a route independent of the
        # integer Apery table; _assemble raises unless d_n^3 * alpha_n is an integer
        try:
            independent = oracles._assemble(n, moment)
        except beukers.IntegralityViolation:
            violations.append(n)
            continue
        if independent.A != linear_form(n).A:
            violations.append(n)
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 60.0
    _criterion(
        1,
        "d_n^3 * alpha_n is an integer for n = 0..50",
        ok,
        f"violations={violations}, {elapsed:.2f}s < 60s",
    )


def test_criterion_2_sandwich_bound():
    started = time.perf_counter()
    width_cap = F(1, 10**20)
    bad = []
    for n in range(1, 51):
        fb = verify_form_bound(n, SWEEP_DIGITS)
        rb = verify_ratio_bound(n, SWEEP_DIGITS)
        if fb.status is not CheckStatus.HOLDS or rb.status is not CheckStatus.HOLDS:
            bad.append((n, fb.status.value, rb.status.value))
        if width(fb.lhs) > width_cap or width(fb.rhs) > width_cap:
            bad.append((n, "width"))
    # spot values, against independently computed 60-digit references
    fb1 = verify_form_bound(1, 30)
    fb2 = verify_form_bound(2, 30)
    spot_ok = (
        F("0.0205690315959428539") <= fb1.lhs.lo
        and fb1.lhs.hi <= F("0.0205690315959428540")
        and F("0.0707705028061968769") <= fb1.rhs.lo
        and fb1.rhs.hi <= F("0.0707705028061968770")
        and F("0.000307861300765668361") <= fb2.lhs.lo
        and fb2.lhs.hi <= F("0.000307861300765668362")
        and F("0.00208328909150524547") <= fb2.rhs.lo
        and fb2.rhs.hi <= F("0.00208328909150524548")
    )
    elapsed = time.perf_counter() - started
    ok = not bad and spot_ok
    _criterion(
        2,
        "0 < |A+B*zeta(3)|/d^3 < 2(sqrt(2)-1)^(4n) zeta(3) holds for n = 1..50",
        ok,
        f"bad={bad}, spot_ok={spot_ok}, widths<=1e-20, {elapsed:.2f}s",
    )


def test_criterion_3_beta_two_oracles():
    started = time.perf_counter()
    bad = []
    for n in range(51):
        beta = linear_form(n).beta
        coeff_sum = 2 * sum((binom(n, k) * binom(n + k, k)) ** 2 for k in range(n + 1))
        if beta != coeff_sum:
            bad.append(n)
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 10.0
    _criterion(
        3,
        "beta_n = 2*b_n (recurrence) = 2*sum(C(n,k)C(n+k,k))^2 for n = 0..50",
        ok,
        f"bad={bad}, {elapsed:.2f}s < 10s",
    )


def test_criterion_4_zeta3_thousand_digits():
    started = time.perf_counter()
    enc = zeta3(1000)
    elapsed = time.perf_counter() - started
    bracket = beukers.apery_bracket(beukers.apery_index(0, 1000))  # the bracket zeta3 checks against
    ok = (
        oracles.overlaps(enc, bracket)
        and width(enc) <= F(1, 10**1000)
        and width(bracket) <= F(1, 10**1000)
        and elapsed <= 10.0
    )
    scaled = float(width(enc) * 10**1000)  # in units of 1e-1000
    _criterion(
        4,
        "zeta(3) series meets Apery's bracket; both widths <= 1e-1000; <= 10s",
        ok,
        f"{elapsed:.2f}s, width = {scaled:.2e} x 1e-1000",
    )


def test_criterion_5_moment_oracle_containment():
    started = time.perf_counter()
    from zeta3forms.zeta3 import zeta3 as zeta3_cross

    z = zeta3_cross(40)
    oracle_cache: dict[tuple[int, int], object] = {}
    violations = []
    for r in range(31):
        for s in range(31):
            key = (min(r, s), max(r, s))
            if key not in oracle_cache:
                oracle_cache[key] = moment_series_oracle(key[0], key[1], 10**5)
            enc = oracle_cache[key]
            closed = moment(r, s).value_enclosure(z)
            if not encloses(enc, closed):
                violations.append((r, s))
    elapsed = time.perf_counter() - started
    ok = not violations
    _criterion(
        5,
        "closed-form moments lie inside the 10^5-term series enclosures, r,s <= 30",
        ok,
        f"violations={violations}, {elapsed:.2f}s",
    )


def test_criterion_6_decay():
    started = time.perf_counter()
    rows = decay_table(50, 220)
    elapsed = time.perf_counter() - started
    t50 = rows[-1].t_n
    ok = t50.hi < F(1, 10**10) and elapsed < 60.0
    _criterion(
        6,
        "T_50 = 2 d_50^3 (sqrt(2)-1)^200 zeta(3) certified below 1e-10",
        ok,
        f"T_50 <= {float(t50.hi):.3e}, table {elapsed:.2f}s < 60s",
    )


def test_criterion_7_auditor_soundness():
    started = time.perf_counter()
    corpus = list(chain.fixed_corpus()) + list(chain.random_corpus(1000, seed=20260810))
    contradiction_holds = []
    positive_ws_not_holds = []
    negative_without_flag = []
    for i, vector in enumerate(corpus):
        n = (i % 20) + 1
        report = chain.audit(n, vector, 60)
        if report.step("final_contradiction").numeric is CheckStatus.HOLDS:
            contradiction_holds.append((n, vector.c))
        ws = report.step("weighted_sum")
        if vector.all_positive and ws.numeric is not CheckStatus.HOLDS:
            positive_ws_not_holds.append((n, vector.c))
        if any(x < 0 for x in vector.c):
            unmet = any(
                s.justification in (Justification.POSITIVITY_UNMET, Justification.RELATION_UNMET)
                for s in report.steps
            )
            fails = any(s.numeric is CheckStatus.FAILS for s in report.steps)
            if not (unmet or fails):
                negative_without_flag.append((n, vector.c))
    elapsed = time.perf_counter() - started
    ok = (
        not contradiction_holds
        and not positive_ws_not_holds
        and not negative_without_flag
        and elapsed < 120.0
    )
    _criterion(
        7,
        "auditor sound on 200 fixed + 1000 random vectors (n <= 20)",
        ok,
        f"contradiction_holds={contradiction_holds[:3]}, "
        f"positive_ws={positive_ws_not_holds[:3]}, "
        f"negatives={negative_without_flag[:3]}, {elapsed:.1f}s < 120s",
    )


CLI_COMMANDS = [
    ["form", "--n", "1"],
    ["form", "--n", "7", "--json"],
    ["verify", "--n-max", "5", "--digits", "20", "--csv"],
    ["zeta3", "--digits", "50"],
    ["audit", "--coeffs=1,1", "--n", "1", "--digits", "30", "--json"],
    ["audit", "--coeffs=-6,5", "--n", "2", "--digits", "40"],
    ["decay", "--n-max", "8", "--digits", "80", "--csv"],
]


def _run_cli(command: list[str], hash_seed: str) -> tuple[int, bytes]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-m", "zeta3forms", *command, "--quiet"],
        capture_output=True,
        env=env,
    )
    return proc.returncode, proc.stdout


def test_criterion_8_cli_determinism():
    started = time.perf_counter()
    mismatches = []
    for command in CLI_COMMANDS:
        first = _run_cli(command, "1")
        second = _run_cli(command, "2")
        if first != second:
            mismatches.append(command)
    elapsed = time.perf_counter() - started
    ok = not mismatches
    _criterion(
        8,
        "repeated CLI runs are byte-identical",
        ok,
        f"mismatches={mismatches}, {elapsed:.1f}s",
    )
