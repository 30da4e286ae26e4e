"""Regression nets: pinned CLI stdout, and the package's source rules.

The sha256 digests were recorded from the Fraction-endpoint enclosure
kernel, before the integer-endpoint kernel replaced it; every value and
every outward rounding is unchanged, so the bytes must be too.
"""

import ast
import hashlib
from pathlib import Path

import pytest

from zeta3forms.cli import EXIT_FAILS, EXIT_OK, main

PINNED_STDOUT = {
    ("audit", "--coeffs", "3,-1,4,1,-5", "--n", "17", "--digits", "60", "--json"): (
        EXIT_FAILS,
        "b696fe27a552d42cefd38835f5edca8e35de3afcad7b12887b58351816f5190f",
    ),
    ("verify", "--n-max", "40", "--csv"): (
        EXIT_OK,
        "8cce68d17d554a3f4d4e91e87c8b78eadb026e34b76e899785bc8a28ea64659b",
    ),
    ("decay", "--n-max", "30", "--digits", "220", "--csv"): (
        EXIT_OK,
        "54b352c403cbf14b221eadd67decd24a753ad6d450b80acf4ca66cc9ec5a181d",
    ),
    ("zeta3", "--digits", "2000"): (
        EXIT_OK,
        "3425ae2c0582a90162c3e347ef233adaf98d9f0c391a63c533a02592ad2ed722",
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=lambda argv: argv[0])
def test_stdout_matches_pinned_sha256(capsys, argv):
    code = main([*argv, "--quiet"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == PINNED_STDOUT[argv]


# -- source rules: no floating point, no assert ------------------------------------

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zeta3forms"


def _violations(source: str, name: str) -> list[str]:
    """assert statements (stripped by python -O), float or complex literals,
    and float(...) calls in one module's source."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Assert):
            found.append(f"{name}:{node.lineno}: assert statement")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{name}:{node.lineno}: floating-point literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{name}:{node.lineno}: float() call")
    return found


def test_rule_checker_flags_each_construct():
    source = "assert x\ny = 0.5\nz = 2j\nw = float(3)\nv = 1e3\n"
    assert [v.split(": ", 1)[1] for v in _violations(source, "sample.py")] == [
        "assert statement",
        "floating-point literal 0.5",
        "floating-point literal 2j",
        "float() call",
        "floating-point literal 1000.0",
    ]


def test_package_has_no_assert_and_no_floating_point():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = [v for path in modules for v in _violations(path.read_text(encoding="utf-8"), path.name)]
    assert found == []
