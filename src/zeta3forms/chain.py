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

S and the residual are one integer Horner pass each over a non-negative
enclosure (R_n, zeta(3)), S over the coefficients (0, c_0, ..., c_m). Their
fields equal those of Enclosure's ``*`` and ``+``; the kernel test checks it.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Sequence

from .bounds import CheckStatus, ratio_enclosure, sandwich_status
from .exactnum import Enclosure
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


class Justification(Enum):
    """Whether a step follows from the one before; the value is its printed text."""

    JUSTIFIED = "justified"
    NOT_APPLICABLE = "not_applicable"
    POSITIVITY_UNMET = "requires_condition: all weight coefficients c_i strictly positive (unmet)"
    RELATION_UNMET = "requires_condition: assumed integer relation evaluates to zero (residual = 0) (unmet)"
    RELATION_UNDETERMINED = (
        "requires_condition: assumed integer relation evaluates to zero (residual = 0) (undetermined)"
    )


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

    def step(self, step_id: str) -> StepReport:
        for s in self.steps:
            if s.step_id == step_id:
                return s
        raise KeyError(step_id)


def _poly_enclosure(coeffs: Sequence[int], x: Enclosure) -> Enclosure:
    """Enclosure of sum_i coeffs[i] * x^i for x = [a, b]/d with a >= 0. Each
    Horner step is acc * x + c_k on integers, with the fields Enclosure's
    operators give: an end >= 0 pairs with its own end of x, else the other."""
    a, b, d = x.lo_num, x.hi_num, x.den
    if a < 0:
        raise ValueError("the Horner kernel needs an enclosure with lo >= 0")
    lo, hi, den = coeffs[-1], coeffs[-1], 1
    for ck in coeffs[-2::-1]:
        den *= d
        shift = ck * den
        lo = (lo * a if lo >= 0 else lo * b) + shift
        hi = (hi * b if hi >= 0 else hi * a) + shift
    return Enclosure(lo, hi, den)


# The audit doubles its working digits up to this many times while a step is Unknown.
MAX_REFINEMENTS = 4


def audit(n: int, c: CoeffVector, digits: int) -> ChainReport:
    """Replay the whole chain for (n, c), refining precision while any step
    is undetermined: digits * 2**k for k = 0..MAX_REFINEMENTS."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    unknown = CheckStatus.UNKNOWN  # one member lookup, not one per step
    for k in range(MAX_REFINEMENTS + 1):
        report = _audit_once(n, c, digits << k)
        if all(s.numeric is not unknown for s in report.steps):
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
    justified = Justification.JUSTIFIED  # one member lookup, not one per power
    steps = [StepReport(f"power_{k}", base, justified) for k in range(1, c.m + 2)]

    # Weighted sum: 0 < S < sum_k c_{k-1} zeta(3)^k. Summing the scaled power
    # bounds is only an inference when every multiplier is positive. The
    # upper bound is z * residual with residual = sum_i c_i zeta(3)^i, so one
    # Horner pass serves this step and the substitution. S = R_n * P(R_n) is
    # one pass over R_n with the coefficients (0, c_0, ..., c_m).
    weighted = _poly_enclosure((0,) + c.c, ratio)
    residual = _poly_enclosure(c.c, z)
    upper = z * residual
    ws_just = justified if c.all_positive else Justification.POSITIVITY_UNMET
    steps.append(StepReport("weighted_sum", sandwich_status(weighted, upper), ws_just))

    # Substitution: the upper bound is replaced using the assumed relation.
    # Numeric verdict reflects whether the residual enclosure still allows
    # zero: certified-nonzero residual refutes the substitution.
    if residual.contains(0):
        sub_status, sub_just = CheckStatus.UNKNOWN, Justification.RELATION_UNDETERMINED
    else:
        sub_status, sub_just = CheckStatus.FAILS, Justification.RELATION_UNMET
    steps.append(StepReport("substitution", sub_status, sub_just))

    # Final statement 0 < S < 0: unsatisfiable; Fails once S has a
    # determinate sign (or is exactly zero), Unknown only while S straddles
    # zero with positive width.
    if weighted.contains(0) and not weighted.is_point():
        final_status = CheckStatus.UNKNOWN
    else:
        final_status = CheckStatus.FAILS
    steps.append(StepReport("final_contradiction", final_status, Justification.NOT_APPLICABLE))

    return ChainReport(
        n=n,
        coeffs=c,
        R=ratio,
        S=weighted,
        residual=residual,
        steps=tuple(steps),
        digits_used=digits,
    )


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
