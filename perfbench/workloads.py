"""The three benchmark workloads and the inputs they are given.

Each workload stresses a different layer of zeta3forms:

* ``verify_sweep`` runs ``zeta3forms verify --n-max 200 --csv``. Almost all
  of its time is linear-form construction (beukers), and rows past n ~ 160
  climb the whole refinement ladder and stay ``unknown``, so it also shows
  the precision rule at work.
* ``audit_corpus`` audits 1200 seeded coefficient vectors in one process
  with ``chain.audit``. Its time goes to many small enclosure operations
  (exactnum).
* ``zeta3_digits`` runs ``zeta3forms zeta3 --digits 20000``: binary
  splitting of the zeta(3) series plus huge-rational rounding and printing.

The seed drives only ``audit_corpus``; the two CLI workloads are fixed by
their size parameter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

AUDIT_VECTORS = 1200
AUDIT_N_CYCLE = 20
AUDIT_DIGITS = 60
AUDIT_M_MAX = 4
AUDIT_COEFF_BOUND = 10

VERIFY_N_MAX = 200
ZETA3_DIGITS = 20000


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]  # empty for the in-process audit workload
    item: str


WORKLOADS = {
    "verify_sweep": Workload("verify_sweep", ("verify", "--n-max", str(VERIFY_N_MAX), "--csv"), "check"),
    "audit_corpus": Workload("audit_corpus", (), "audit"),
    "zeta3_digits": Workload("zeta3_digits", ("zeta3", "--digits", str(ZETA3_DIGITS)), "digit"),
}


def audit_vectors(seed: int, count: int = AUDIT_VECTORS) -> list[tuple[int, ...]]:
    """Vectors drawn uniformly from all c_0..c_m with 1 <= m <= 4, |c_i| <= 10, c_m != 0.

    Drawing c_0..c_4 uniformly and dropping trailing zeros gives that
    distribution, in which about 95 % of vectors have m = 4. Audit latency
    clusters tightly by m; drawing m uniformly instead would put the median
    audit on the gap between the m = 2 and m = 3 clusters, so its latency
    would follow the seed's mix of degrees rather than the program.
    """
    rng = random.Random(seed)
    out: list[tuple[int, ...]] = []
    while len(out) < count:
        c = [rng.randint(-AUDIT_COEFF_BOUND, AUDIT_COEFF_BOUND) for _ in range(AUDIT_M_MAX + 1)]
        while c and c[-1] == 0:
            c.pop()
        if len(c) >= 2:
            out.append(tuple(c))
    return out


def audit_n(index: int) -> int:
    """The linear-form index the i-th vector is audited at."""
    return index % AUDIT_N_CYCLE + 1
