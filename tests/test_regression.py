"""Regression nets: pinned CLI stdout, and the package's source rules.

The first four sha256 digests were recorded from the Fraction-endpoint
enclosure kernel, before the integer-endpoint kernel replaced it; every value
and every outward rounding is unchanged, so the bytes must be too. The rest
(the zeta(3) methods and help, form JSON, text audit, an uncertified decay
table) were recorded before the zeta(3) method dispatch, the audit power step
and the decay formatting were simplified.
"""

import ast
import hashlib
from pathlib import Path

import pytest

from zeta3forms.cli import EXIT_FAILS, EXIT_OK, EXIT_UNKNOWN, main

# Test id -> (argv, exit code, sha256 of stdout). Help text wraps at the
# terminal width, so the test fixes COLUMNS at 80.
PINNED_STDOUT = {
    "audit": (
        ("audit", "--coeffs", "3,-1,4,1,-5", "--n", "17", "--digits", "60", "--json"),
        EXIT_FAILS,
        "b696fe27a552d42cefd38835f5edca8e35de3afcad7b12887b58351816f5190f",
    ),
    "verify": (
        ("verify", "--n-max", "40", "--csv"),
        EXIT_OK,
        "8cce68d17d554a3f4d4e91e87c8b78eadb026e34b76e899785bc8a28ea64659b",
    ),
    "decay": (
        ("decay", "--n-max", "30", "--digits", "220", "--csv"),
        EXIT_OK,
        "54b352c403cbf14b221eadd67decd24a753ad6d450b80acf4ca66cc9ec5a181d",
    ),
    "zeta3": (
        ("zeta3", "--digits", "2000"),
        EXIT_OK,
        "3425ae2c0582a90162c3e347ef233adaf98d9f0c391a63c533a02592ad2ed722",
    ),
    "zeta3-direct": (
        ("zeta3", "--digits", "12", "--method", "direct"),
        EXIT_OK,
        "7d5cb124e0c2cd7ef6b9bf3cb48c3e8c2a0a1e2f3bd300037feb7b72bf2bb675",
    ),
    "zeta3-accelerated": (
        ("zeta3", "--digits", "200", "--method", "accelerated"),
        EXIT_OK,
        "5b27def154784fa9753177800329d89fc9f9df1e4d2d499206e044865530b001",
    ),
    "zeta3-help": (
        ("zeta3", "--help"),
        EXIT_OK,
        "f32fcece5082cd38789315c4ccf4dcb7e113c60f760cc09016a100a951c3e3b2",
    ),
    "form-json": (
        ("form", "--n", "50", "--json"),
        EXIT_OK,
        "1ea1ac9e4615f99bfb214023716a2f708094e7fc8a9a80ddae1005fe4508d96a",
    ),
    "audit-text": (
        ("audit", "--coeffs", "-6,5", "--n", "1", "--digits", "30"),
        EXIT_FAILS,
        "3bf4f1134d2dd9606ad23c26f68744a07004077a524d565f90687a1589f173b5",
    ),
    "decay-unknown": (
        ("decay", "--n-max", "72", "--digits", "220", "--csv"),
        EXIT_UNKNOWN,
        "a83b6af43ef3d1499279e9db226fcdd9d7cc24ab573647c7c2bc6dbeda715c16",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_STDOUT))
def test_stdout_matches_pinned_sha256(capsys, monkeypatch, name):
    argv, code, digest = PINNED_STDOUT[name]
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main([*argv, "--quiet"])
    except SystemExit as exc:  # --help exits through argparse
        got = exc.code
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, digest)


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
