"""Exact-arithmetic linear forms in 1 and zeta(3).

Constructs the classical double-integral linear forms I_n = A_n/d_n^3 +
(B_n/d_n^3) zeta(3), certifies the sandwich bound
0 < |A_n + B_n zeta(3)|/d_n^3 < 2 (sqrt(2)-1)^(4n) zeta(3) with exact
rational interval enclosures, tabulates the decay of the bound, and audits
power-and-sum inequality chains for arbitrary integer coefficient vectors.
"""

from .beukers import IntegralityViolation, LinearForm, d, linear_form
from .bounds import (
    CheckResult,
    CheckStatus,
    DecayRow,
    decay_table,
    rhs_bound,
    verify_form_bound,
    verify_ratio_bound,
)
from .chain import (
    ChainReport,
    CoeffVector,
    InvalidCoeffVector,
    StepReport,
    audit,
    fixed_corpus,
    random_corpus,
    residual_enclosure,
    weighted_sum_enclosure,
)
from .exactnum import Enclosure, Rat, Trichotomy, rat_str, trichotomy
from .zeta3 import DisjointEnclosures, zeta3_accelerated

__version__ = "0.1.0"

__all__ = [
    "ChainReport",
    "CheckResult",
    "CheckStatus",
    "CoeffVector",
    "DecayRow",
    "DisjointEnclosures",
    "Enclosure",
    "IntegralityViolation",
    "InvalidCoeffVector",
    "LinearForm",
    "Rat",
    "StepReport",
    "Trichotomy",
    "audit",
    "d",
    "decay_table",
    "fixed_corpus",
    "linear_form",
    "random_corpus",
    "rat_str",
    "residual_enclosure",
    "rhs_bound",
    "trichotomy",
    "verify_form_bound",
    "verify_ratio_bound",
    "weighted_sum_enclosure",
    "zeta3_accelerated",
    "__version__",
]
