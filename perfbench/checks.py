"""Independent reference for every output the benchmark checks.

Nothing here imports zeta3forms. The linear forms come from the Apery
recurrence n^3 u_n = (34n^3 - 51n^2 + 27n - 5) u_{n-1} - (n-1)^3 u_{n-2},
with a_0 = 0, a_1 = 6 and b_0 = 1, b_1 = 5, so that alpha_n = -2 a_n and
beta_n = 2 b_n. Real values are evaluated in mpmath with enough working
digits to cover the ~3.07 n digits that cancel in alpha_n + beta_n zeta(3).
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from workloads import AUDIT_DIGITS, audit_n

# The zeta(3) output is one 20001-digit number; parsing it needs the
# integer-string limit lifted, as zeta3forms itself does.
sys.set_int_max_str_digits(0)

VERIFY_HEADER = "n,bound_status,ratio_status,lhs,rhs,bound_digits,ratio_digits"

# A certified decimal as cli.enclosure_decimal prints it: a midpoint in
# scientific notation (or 0), optionally followed by a +/- half-width.
_SCI = r"-?\d(?:\.\d+)?e[+-]\d+"
_DECIMAL = re.compile(rf"({_SCI}|0)(?:±({_SCI}))?")

# Relative slack when testing that an exact enclosure contains a reference
# value computed with far more working digits than the slack.
_CONTAIN_SLACK_DIGITS = 150


@dataclass
class Outcome:
    """What one program output says, judged against the reference."""

    items: int
    wrong: int = 0
    uncertified: int = 0
    problems: list[str] = field(default_factory=list)

    def flag(self, count: int, problem: str) -> None:
        self.wrong += count
        if len(self.problems) < 5:
            self.problems.append(problem)


def apery_forms(n_max: int) -> list[tuple[Fraction, int]]:
    """(alpha_n, beta_n) for n = 0..n_max from the Apery recurrence."""
    a = [Fraction(0), Fraction(6)]
    b = [1, 5]
    for k in range(2, n_max + 1):
        p = 34 * k**3 - 51 * k**2 + 27 * k - 5
        q = (k - 1) ** 3
        a.append((p * a[-1] - q * a[-2]) / k**3)
        bk, rem = divmod(p * b[-1] - q * b[-2], k**3)
        if rem:
            raise ArithmeticError(f"Apery recurrence not integral at n={k}")
        b.append(bk)
    return [(-2 * ak, 2 * bk) for ak, bk in zip(a, b)][: n_max + 1]


class FormReference:
    """|I_n|, the bound 2 (sqrt2-1)^(4n) zeta(3) and R_n for n = 1..n_max.

    R_n is |I_n| divided by 2 (sqrt2-1)^(4n) d_n^3, d_n = lcm(1..n), as
    ``bounds.ratio_enclosure`` computes it.
    """

    def __init__(self, n_max: int, extra_digits: int = 200):
        self.dps = 4 * n_max + extra_digits
        self.lhs: dict[int, mpmath.mpf] = {}
        self.rhs: dict[int, mpmath.mpf] = {}
        self.ratio: dict[int, mpmath.mpf] = {}
        with mpmath.workdps(self.dps):
            z = +mpmath.apery
            unit = (mpmath.sqrt(2) - 1) ** 4
            dn = 1
            for n, (alpha, beta) in enumerate(apery_forms(n_max)):
                if n == 0:
                    continue
                dn = math.lcm(dn, n)
                lhs = abs(mpmath.mpf(alpha.numerator) / alpha.denominator + beta * z)
                shrink = 2 * unit**n
                if not 0 < lhs < shrink * z:
                    raise ArithmeticError(f"reference violates the sandwich bound at n={n}")
                self.lhs[n] = lhs
                self.rhs[n] = shrink * z
                self.ratio[n] = lhs / (shrink * dn**3)

    def decimal_matches(self, text: str, true: mpmath.mpf) -> bool:
        """True when a printed certified decimal is consistent with ``true``.

        Without an error field the printed midpoint is within one unit in
        its last place; with one it is within the error plus half a unit.
        """
        m = _DECIMAL.fullmatch(text)
        if m is None:
            return False
        value, err = m.groups()
        with mpmath.workdps(self.dps):
            if value == "0":
                return err is not None and abs(true) <= mpmath.mpf(err)
            mantissa, exponent = value.lstrip("-").split("e")
            sig = len(mantissa.replace(".", ""))
            ulp = mpmath.mpf(10) ** (int(exponent) - sig + 1)
            miss = abs(true - mpmath.mpf(value))
            if err is None:
                return miss < ulp
            return miss <= mpmath.mpf(err) + ulp / 2

    def contains(self, lo: Fraction, hi: Fraction, true: mpmath.mpf) -> bool:
        with mpmath.workdps(self.dps):
            slack = abs(true) * mpmath.mpf(10) ** -_CONTAIN_SLACK_DIGITS
            lo_f = mpmath.mpf(lo.numerator) / lo.denominator
            hi_f = mpmath.mpf(hi.numerator) / hi.denominator
            return lo_f - slack <= true <= hi_f + slack


def check_verify(text: str, exit_code: int, ref: FormReference, n_max: int, digits: int = 30) -> Outcome:
    """Judge ``verify --n-max N --csv`` output: 2 checks per row."""
    out = Outcome(items=2 * n_max)
    lines = text.splitlines()
    if not lines or lines[0] != VERIFY_HEADER:
        out.flag(out.items, "missing or wrong CSV header")
        return out
    rows = lines[1:]
    if len(rows) != n_max:
        out.flag(2 * abs(n_max - len(rows)), f"{len(rows)} rows, expected {n_max}")
    for n, line in enumerate(rows[:n_max], start=1):
        cells = line.split(",")
        if len(cells) != 7 or cells[0] != str(n):
            out.flag(2, f"malformed row for n={n}: {line!r}")
            continue
        _, bound, ratio, lhs, rhs, bound_digits, ratio_digits = cells
        bound_ok = (
            bound in ("holds", "unknown")
            and _digits_ok(bound_digits, digits)
            and ref.decimal_matches(lhs, ref.lhs[n])
            and ref.decimal_matches(rhs, ref.rhs[n])
        )
        ratio_ok = ratio in ("holds", "unknown") and _digits_ok(ratio_digits, digits)
        if not bound_ok:
            out.flag(1, f"bound check wrong at n={n}: {line!r}")
        if not ratio_ok:
            out.flag(1, f"ratio check wrong at n={n}: {line!r}")
        out.uncertified += (bound == "unknown") + (ratio == "unknown")
    expected_exit = 3 if out.uncertified else 0
    if exit_code != expected_exit:
        out.flag(1, f"exit code {exit_code}, expected {expected_exit}")
    return out


def _digits_ok(cell: str, requested: int) -> bool:
    return cell.isdigit() and int(cell) >= requested


def check_audits(text: str, exit_code: int, vectors: list[tuple[int, ...]], ref: FormReference) -> Outcome:
    """Judge one line of ``child.audit_record`` JSON per input vector, in order."""
    out = Outcome(items=len(vectors))
    lines = text.splitlines()
    if exit_code != 0:
        out.flag(1, f"exit code {exit_code}")
    if len(lines) != len(vectors):
        out.flag(abs(len(vectors) - len(lines)), f"{len(lines)} reports for {len(vectors)} vectors")
    for i, (vector, line) in enumerate(zip(vectors, lines)):
        try:
            rec = json.loads(line)
            n = audit_n(i)
            lo, hi = (Fraction(x) for x in rec["R"])
            steps = dict(rec["steps"])
            expected_ids = [f"power_{k}" for k in range(1, len(vector) + 1)]
            expected_ids += ["weighted_sum", "substitution", "final_contradiction"]
            ok = (
                rec["n"] == n
                and tuple(rec["c"]) == vector
                and [s[0] for s in rec["steps"]] == expected_ids
                and rec["digits_used"] >= AUDIT_DIGITS
                and ref.contains(lo, hi, ref.ratio[n])
                and all(steps[k] != "fails" for k in expected_ids if k.startswith("power_"))
                and steps["final_contradiction"] != "holds"
            )
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            ok = False
            line = f"{line[:200]} ({exc})"
        if not ok:
            out.flag(1, f"audit {i} wrong: {line[:200]}")
        elif "unknown" in steps.values():
            out.uncertified += 1
    return out


class Zeta3Reference:
    """zeta(3) to ``digits`` places, from ``mpmath.apery``."""

    def __init__(self, digits: int):
        self.digits = digits
        self.dps = digits + 30
        with mpmath.workdps(self.dps):
            self.value = +mpmath.apery
            self.ulp = mpmath.mpf(10) ** -digits

    def check(self, text: str, exit_code: int) -> Outcome:
        """The printed value must be within one unit in its last place."""
        out = Outcome(items=self.digits)
        line = text.rstrip("\n")
        if exit_code != 0:
            out.uncertified = self.digits
            out.flag(self.digits, f"exit code {exit_code}")
            return out
        if not re.fullmatch(rf"1\.\d{{{self.digits}}}", line):
            out.flag(self.digits, f"malformed output {line[:40]!r}...")
            return out
        with mpmath.workdps(self.dps):
            miss = abs(mpmath.mpf(line) - self.value) / self.ulp
            if not miss < 1:
                out.flag(self.digits, f"printed value is {mpmath.nstr(miss, 5)} units from zeta(3)")
        return out
