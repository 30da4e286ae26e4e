import sys
from pathlib import Path

import pytest

# Allow running the suite from a fresh checkout without installing.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def ratio_touches_zero(monkeypatch):
    """ratio_touches_zero(below) replaces the audit's R_n by [0, h], h its upper
    end, at every rung under ``below`` digits (at every rung by default): the
    power steps cannot decide there, so the audit's ladder climbs. R_n's grid
    follows its size, so no real precision leaves R_n at [0, h]."""
    from zeta3forms import chain
    from zeta3forms.exactnum import Enclosure

    exact = chain.ratio_enclosure

    def widen(below: float = float("inf")) -> None:
        def widened(n: int, digits: int) -> Enclosure:
            enc = exact(n, digits)
            return enc if digits >= below else Enclosure.from_parts(0, enc.hi_num, enc.den)

        monkeypatch.setattr(chain, "ratio_enclosure", widened)

    return widen
