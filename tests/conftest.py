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
            return enc if digits >= below else Enclosure(0, enc.hi_num, enc.den)

        monkeypatch.setattr(chain, "ratio_enclosure", widened)

    return widen


@pytest.fixture
def zeta3_methods_disagree(monkeypatch):
    """zeta(3)'s check, Apery's bracket, replaced by [0, 1/1000], which misses
    the AZ series' enclosure, so every zeta3() call raises DisjointEnclosures:
    an internal fault no input can cause. zeta3's cache is cleared before and
    after, so no enclosure cached elsewhere hides it or outlives it."""
    from zeta3forms import zeta3 as zmod
    from zeta3forms.exactnum import Enclosure

    monkeypatch.setattr(zmod, "apery_bracket", lambda N: Enclosure(0, 1, 1000))
    zmod.zeta3.cache_clear()
    yield
    zmod.zeta3.cache_clear()


@pytest.fixture
def out_of_memory(monkeypatch):
    """zeta(3)'s series replaced by one that raises MemoryError, as a size too
    large for the memory at hand does: a run that cannot complete, not a
    verdict. zeta3's cache is cleared before and after, as above."""
    from zeta3forms import zeta3 as zmod

    def exhausted(digits: int):
        raise MemoryError

    monkeypatch.setattr(zmod, "zeta3_accelerated", exhausted)
    zmod.zeta3.cache_clear()
    yield
    zmod.zeta3.cache_clear()


@pytest.fixture
def ratio_straddles_zero(monkeypatch):
    """The audit's R_n replaced by [-1, 1], which no R_n > 0 can be, so the
    Horner kernel raises ValueError: an internal fault no input can cause."""
    from zeta3forms import chain
    from zeta3forms.exactnum import Enclosure

    monkeypatch.setattr(chain, "ratio_enclosure", lambda n, digits: Enclosure(-1, 1, 1))
