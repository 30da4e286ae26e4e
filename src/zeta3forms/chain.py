"""Auditor for power-and-sum inequality chains over the linear-form ratio.

Given integers c_0..c_m (m >= 1, c_m != 0), the audited derivation starts
from the certified base bound 0 < R_n < zeta(3), raises it to the powers
k = 1..m+1, multiplies the k-th power by c_{k-1}, sums, substitutes the
assumed relation sum_i c_i zeta(3)^i = 0 into the upper bound, and ends at
the literal statement 0 < S < 0.

Each step gets two independent verdicts:

* ``numeric``: is the displayed inequality true for this n, as certified by
  enclosures (holds / fails / unknown)? Power steps share the base bound's.
* ``justification``: does the step follow from the previous one, or does it
  silently require a condition? Multiplying a strict inequality by c <= 0
  does not preserve it, and replacing the upper bound by zero requires the
  assumed relation to actually vanish. Conditions are reported, never
  assumed; certified-unmet conditions are flagged.

The two verdicts are kept separate on purpose: an inequality can be
numerically true for a given n while the inference that produced it is
unjustified, and vice versa.
"""

from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Optional, Sequence

from .bounds import CheckStatus, ratio_enclosure, sandwich_status
from .exactnum import Enclosure, Trichotomy, trichotomy
from .zeta3 import zeta3


class InvalidCoeffVector(ValueError):
    """Coefficient vector has a non-integer entry, or violates m >= 1 or c_m != 0."""


@dataclass(frozen=True, slots=True)
class CoeffVector:
    """Integer coefficients c_0..c_m of a degree-m candidate relation.

    Positivity of c_0 is audited on reports, never enforced here. A float,
    Fraction or str entry is rejected, never truncated to another relation.
    """

    c: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            c = tuple(operator.index(x) for x in self.c)
        except TypeError as exc:
            raise InvalidCoeffVector(f"coefficients must be integers: {exc}") from None
        if len(c) < 2:
            raise InvalidCoeffVector("need m >= 1, i.e. at least c_0 and c_1")
        if c[-1] == 0:
            raise InvalidCoeffVector("leading coefficient c_m must be nonzero")
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        return len(self.c) - 1

    @property
    def c0_positive(self) -> bool:
        return self.c[0] > 0

    @property
    def all_positive(self) -> bool:
        return all(x > 0 for x in self.c)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.c)


class JustificationKind(Enum):
    JUSTIFIED = "justified"
    REQUIRES_CONDITION = "requires_condition"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True, slots=True)
class Justification:
    kind: JustificationKind
    condition: str = ""
    met: Optional[bool] = None  # None when undetermined or not a condition

    @staticmethod
    def justified() -> Justification:
        return Justification(JustificationKind.JUSTIFIED)

    @staticmethod
    def not_applicable() -> Justification:
        return Justification(JustificationKind.NOT_APPLICABLE)

    @staticmethod
    def requires(condition: str, met: Optional[bool]) -> Justification:
        return Justification(JustificationKind.REQUIRES_CONDITION, condition, met)

    def as_text(self) -> str:
        if self.kind is JustificationKind.JUSTIFIED:
            return "justified"
        if self.kind is JustificationKind.NOT_APPLICABLE:
            return "not_applicable"
        state = "undetermined" if self.met is None else ("met" if self.met else "unmet")
        return f"requires_condition: {self.condition} ({state})"


@dataclass(frozen=True, slots=True)
class StepReport:
    step_id: str
    numeric: CheckStatus
    justification: Justification


@dataclass(frozen=True, slots=True)
class ChainReport:
    n: int
    coeffs: CoeffVector
    R: Enclosure
    S: Enclosure
    residual: Enclosure
    steps: tuple[StepReport, ...]
    digits_used: int

    @property
    def c0_positive(self) -> bool:
        return self.coeffs.c0_positive

    def step(self, step_id: str) -> StepReport:
        for s in self.steps:
            if s.step_id == step_id:
                return s
        raise KeyError(step_id)


_POSITIVITY_CONDITION = "all weight coefficients c_i strictly positive"
_RELATION_CONDITION = "assumed integer relation evaluates to zero (residual = 0)"


def residual_enclosure(c: CoeffVector, digits: int) -> Enclosure:
    """Enclosure of sum_i c_i * zeta(3)^i, by Horner over enclosures."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return _poly_enclosure(c.c, zeta3(digits))


def _poly_enclosure(coeffs: Sequence[int], x: Enclosure) -> Enclosure:
    acc = Enclosure.point(coeffs[-1])
    for ck in reversed(coeffs[:-1]):
        acc = acc * x + ck
    return acc


def weighted_sum_enclosure(n: int, c: CoeffVector, digits: int) -> Enclosure:
    """Enclosure of S = sum_{k=1..m+1} c_{k-1} * R_n^k = R_n * sum_i c_i R_n^i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    ratio = ratio_enclosure(n, digits)
    return ratio * _poly_enclosure(c.c, ratio)


# The audit doubles its working digits up to this many times while a step is Unknown.
MAX_REFINEMENTS = 4


def refinement_digits(digits: int):
    """The refinement ladder: digits * 2**k for k = 0..MAX_REFINEMENTS."""
    dd = digits
    for _ in range(MAX_REFINEMENTS + 1):
        yield dd
        dd *= 2


def audit(n: int, c: CoeffVector, digits: int) -> ChainReport:
    """Replay the whole chain for (n, c), refining precision while any step
    is undetermined."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    report = None
    for dd in refinement_digits(digits):
        report = _audit_once(n, c, dd)
        if all(s.numeric is not CheckStatus.UNKNOWN for s in report.steps):
            break
    return report


def _audit_once(n: int, c: CoeffVector, digits: int) -> ChainReport:
    z = zeta3(digits)
    ratio = ratio_enclosure(n, digits)

    # Powers k = 1..m+1 of the base bound: 0 < R_n^k < zeta(3)^k. R_n's enclosure
    # is >= 0 (round_out, a floor, of a positive enclosure), zeta(3)'s
    # is > 0, and on such enclosures [lo^k, hi^k] (numerators and denominator
    # raised to the k) compares with 0 and with the other side as [lo, hi] does.
    base = sandwich_status(ratio, z)
    steps = [StepReport(f"power_{k}", base, Justification.justified()) for k in range(1, c.m + 2)]

    # Weighted sum: 0 < S < sum_k c_{k-1} zeta(3)^k. Summing the scaled power
    # bounds is only an inference when every multiplier is positive. The
    # upper bound is z * residual with residual = sum_i c_i zeta(3)^i, so one
    # Horner pass serves this step and the substitution.
    weighted = weighted_sum_enclosure(n, c, digits)
    residual = residual_enclosure(c, digits)
    upper = z * residual
    if c.all_positive:
        ws_just = Justification.justified()
    else:
        ws_just = Justification.requires(_POSITIVITY_CONDITION, met=False)
    steps.append(StepReport("weighted_sum", sandwich_status(weighted, upper), ws_just))

    # Substitution: the upper bound is replaced using the assumed relation.
    # Numeric verdict reflects whether the residual enclosure still allows
    # zero: certified-nonzero residual refutes the substitution.
    tri = trichotomy(residual)
    if tri is Trichotomy.CONTAINS_ZERO:
        sub_status = CheckStatus.UNKNOWN
        sub_met: Optional[bool] = None
    else:
        sub_status = CheckStatus.FAILS
        sub_met = False
    steps.append(
        StepReport("substitution", sub_status, Justification.requires(_RELATION_CONDITION, sub_met))
    )

    # Final statement 0 < S < 0: unsatisfiable; Fails once S has a
    # determinate sign (or is exactly zero), Unknown only while S straddles
    # zero with positive width.
    s_tri = trichotomy(weighted)
    if s_tri is not Trichotomy.CONTAINS_ZERO or weighted.is_point():
        final_status = CheckStatus.FAILS
    else:
        final_status = CheckStatus.UNKNOWN
    steps.append(StepReport("final_contradiction", final_status, Justification.not_applicable()))

    return ChainReport(
        n=n,
        coeffs=c,
        R=ratio,
        S=weighted,
        residual=residual,
        steps=tuple(steps),
        digits_used=digits,
    )


# -- report serialization ---------------------------------------------------


def report_to_dict(report: ChainReport) -> dict:
    return {
        "n": report.n,
        "coeffs": list(report.coeffs.c),
        "R": str(report.R),
        "S": str(report.S),
        "residual": str(report.residual),
        "c0_positive": report.c0_positive,
        "digits_used": report.digits_used,
        "steps": [
            {
                "id": s.step_id,
                "numeric": s.numeric.value,
                "justification": s.justification.as_text(),
            }
            for s in report.steps
        ],
    }


def report_to_json(report: ChainReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


# -- deterministic test corpora ----------------------------------------------

FIXED_CORPUS_SIZE = 200
CORPUS_M_MAX = 4
CORPUS_COEFF_BOUND = 10
_FIXED_FILL_SEED = 0x5EED


def fixed_corpus() -> tuple[CoeffVector, ...]:
    """Deterministic 200-vector corpus: exhaustive small vectors topped up
    with seeded pseudo-random ones (m <= 4, |c_i| <= 10)."""
    out: list[CoeffVector] = []
    for c0, c1 in product(range(-2, 3), range(-2, 3)):
        if c1 != 0:
            out.append(CoeffVector((c0, c1)))
    for c0, c1, c2 in product((-1, 0, 1), (-1, 0, 1), (-1, 1)):
        out.append(CoeffVector((c0, c1, c2)))
    for bits in product((-1, 1), repeat=4):
        out.append(CoeffVector(bits))
    for bits in product((-1, 1), repeat=5):
        out.append(CoeffVector(bits))
    out.extend(random_corpus(FIXED_CORPUS_SIZE - len(out), seed=_FIXED_FILL_SEED))
    return tuple(out[:FIXED_CORPUS_SIZE])


def random_corpus(count: int, seed: int) -> tuple[CoeffVector, ...]:
    """Seeded pseudo-random coefficient vectors, m <= CORPUS_M_MAX and
    |c_i| <= CORPUS_COEFF_BOUND; reproducible across runs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.randint(1, CORPUS_M_MAX)
        c = [rng.randint(-CORPUS_COEFF_BOUND, CORPUS_COEFF_BOUND) for _ in range(m + 1)]
        while c[-1] == 0:
            c[-1] = rng.randint(-CORPUS_COEFF_BOUND, CORPUS_COEFF_BOUND)
        out.append(CoeffVector(tuple(c)))
    return tuple(out)
