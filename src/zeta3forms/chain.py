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
from collections import namedtuple
from collections.abc import Iterable, Sequence
from enum import Enum
from functools import lru_cache
from itertools import product

from .bounds import CheckStatus, ratio_enclosure, sandwich_status
from .exactnum import DIGITS_CACHE_SIZE, Enclosure
from .zeta3 import zeta3


class InvalidCoeffVector(ValueError):
    """Coefficient vector has a non-integer entry, or violates m >= 1 or c_m != 0."""


class CoeffVector(namedtuple("CoeffVector", "c")):
    """Integer coefficients c_0..c_m of a degree-m candidate relation.

    Positivity of c_0 is audited on reports, never enforced here. A float,
    Fraction or str entry is rejected, never truncated to another relation.
    """

    __slots__ = ()

    def __new__(cls, c: Iterable[int]) -> CoeffVector:
        try:
            c = tuple(operator.index(x) for x in c)
        except TypeError as exc:
            raise InvalidCoeffVector(f"coefficients must be integers: {exc}") from None
        if len(c) < 2:
            raise InvalidCoeffVector("need m >= 1, i.e. at least c_0 and c_1")
        if c[-1] == 0:
            raise InvalidCoeffVector("leading coefficient c_m must be nonzero")
        return super().__new__(cls, c)

    @classmethod
    def _make(cls, iterable: Iterable) -> CoeffVector:
        # namedtuple's _make, and so _replace, would skip the checks in __new__
        return cls(*iterable)

    @property
    def m(self) -> int:
        return len(self.c) - 1

    @property
    def c0_positive(self) -> bool:
        return self.c[0] > 0

    @property
    def all_positive(self) -> bool:
        return min(self.c) > 0

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


# One step of the chain: its id, its numeric CheckStatus and its Justification.
StepReport = namedtuple("StepReport", "step_id numeric justification")


class ChainReport(namedtuple("ChainReport", "n coeffs R S residual steps digits_used")):
    """The audit of one vector at n: the enclosures R (of R_n), S and residual,
    and the steps in chain order, all built at digits_used."""

    __slots__ = ()

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


# Every step record is immutable, so the audits share them: the steps after the
# powers are built here, the powers once per (m, base verdict) by _power_steps.
# weighted_sum by (its verdict, c.all_positive): summing the scaled power bounds
# is only an inference when every multiplier is positive.
_WEIGHTED_SUM = {
    (status, positive): StepReport(
        "weighted_sum", status, Justification.JUSTIFIED if positive else Justification.POSITIVITY_UNMET
    )
    for status in CheckStatus
    for positive in (True, False)
}
# substitution by whether the residual's enclosure holds 0: a residual that
# may vanish leaves it undetermined; a certified-nonzero residual refutes it.
_SUBSTITUTION = {
    True: StepReport("substitution", CheckStatus.UNKNOWN, Justification.RELATION_UNDETERMINED),
    False: StepReport("substitution", CheckStatus.FAILS, Justification.RELATION_UNMET),
}
# final_contradiction by whether S straddles zero with positive width.
_FINAL_CONTRADICTION = {
    True: StepReport("final_contradiction", CheckStatus.UNKNOWN, Justification.NOT_APPLICABLE),
    False: StepReport("final_contradiction", CheckStatus.FAILS, Justification.NOT_APPLICABLE),
}


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def _power_steps(m: int, base: CheckStatus) -> tuple[StepReport, ...]:
    """The steps power_1..power_{m+1}, each with the base bound's verdict."""
    return tuple(StepReport(f"power_{k}", base, Justification.JUSTIFIED) for k in range(1, m + 2))


def _audit_once(n: int, c: CoeffVector, digits: int) -> ChainReport:
    z = zeta3(digits)
    ratio = ratio_enclosure(n, digits)

    # Powers k = 1..m+1 of the base bound: 0 < R_n^k < zeta(3)^k. R_n's enclosure
    # is >= 0 (round_out, a floor, of a positive enclosure), zeta(3)'s
    # is > 0, and on such enclosures [lo^k, hi^k] (numerators and denominator
    # raised to the k) compares with 0 and with the other side as [lo, hi] does.
    powers = _power_steps(c.m, sandwich_status(ratio, z))

    # Weighted sum: 0 < S < sum_k c_{k-1} zeta(3)^k. The upper bound is
    # z * residual with residual = sum_i c_i zeta(3)^i, so one Horner pass
    # serves this step and the substitution. S = R_n * P(R_n) is one pass
    # over R_n with the coefficients (0, c_0, ..., c_m).
    weighted = _poly_enclosure((0,) + c.c, ratio)
    residual = _poly_enclosure(c.c, z)
    weighted_sum = _WEIGHTED_SUM[sandwich_status(weighted, z * residual), c.all_positive]

    # Substitution: the upper bound is replaced using the assumed relation.
    # Final statement 0 < S < 0: unsatisfiable; Fails once S has a
    # determinate sign (or is exactly zero), Unknown only while S straddles
    # zero with positive width. Both tests read the numerators, over positive
    # denominators.
    s_lo, s_hi = weighted.lo_num, weighted.hi_num
    steps = powers + (
        weighted_sum,
        _SUBSTITUTION[residual.lo_num <= 0 <= residual.hi_num],
        _FINAL_CONTRADICTION[s_lo <= 0 <= s_hi and s_lo < s_hi],
    )
    return ChainReport(n, c, ratio, weighted, residual, steps, digits)


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
    import random  # here, not at the top: importing the package need not load it

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.randint(1, CORPUS_M_MAX)
        c = [rng.randint(-CORPUS_COEFF_BOUND, CORPUS_COEFF_BOUND) for _ in range(m + 1)]
        while c[-1] == 0:
            c[-1] = rng.randint(-CORPUS_COEFF_BOUND, CORPUS_COEFF_BOUND)
        out.append(CoeffVector(tuple(c)))
    return tuple(out)
