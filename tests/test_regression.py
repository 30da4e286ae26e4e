"""Regression nets: pinned CLI stdout, and the package's source rules.

The first four sha256 digests were recorded from the Fraction-endpoint
enclosure kernel, before the integer-endpoint kernel replaced it; every value
and every outward rounding is unchanged, so the bytes must be too. The rest
(the zeta(3) methods and help, form JSON, text audit, an uncertified decay
table) were recorded before the zeta(3) method dispatch, the audit power step
and the decay formatting were simplified. ``zeta3-accelerated-6000`` was
recorded while outward rounding still used plain long division; at 6000
digits its quotient has about 96k bits. It then went through the Newton
path of ``Enclosure.round_out``, and now through the Decimal bracket of
``zeta3._round_out``.
``form-json-2000`` was recorded while the Apery table still held a_n as
Fractions, before the integer table Y_n = 2 d_n^3 a_n replaced it.
``verify-unknown``, ``verify-digits-1`` and ``verify-digits-700`` were
recorded while every check still built its enclosures at every rung of the
refinement ladder, before rungs where the enclosure of |I_n| touches zero
were skipped.
``verify-digits-2500`` and ``audit-json-2500`` were recorded while
`Enclosure.round_out` still divided large operands through a Newton
reciprocal: all 20 roundings of `bounds.ratio_enclosure` in that verify run,
and the rounding of R in that audit (whose exact endpoints the JSON prints),
took that path. Both now cancel the grid's power of two and divide once.
``audit-unknown-power`` pins an audit whose power steps end ``unknown``,
because R's enclosure at the last rung (16 digits) is [0, h]; every power
step carries the base bound's status.

When zeta(3)'s accelerated series became the Amdeberhan-Zeilberger series,
its enclosure moved inside the old one at every precision, so the
enclosures built on it moved and ``audit``, ``verify``, ``decay-unknown``,
``verify-unknown``, ``verify-digits-1`` and ``audit-json-2500`` were
re-pinned: each printed interval overlaps its old one, no ``holds`` or
``fails`` changed, rows 160-161 of ``verify-unknown`` and 7-8 of
``verify-digits-1`` went from ``unknown`` to ``holds``, and some checks
decide at a lower rung, so they print fewer digits (``verify`` rows 12-14
and 22-23). ``decay-unknown``, ``verify-unknown`` and ``verify-digits-1``
still exit 3. The printed
zeta(3) digits did not move. ``audit-unknown-power`` used to pin n = 8,
whose power steps the narrower enclosure certifies (``holds``); n = 12
still ends ``unknown``, so the pin moved there. ``zeta3-20000`` is the
size the benchmark prints, recorded from the central-binomial route.
"""

import ast
import fractions
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zeta3forms import beukers, bounds, zeta3
from zeta3forms.beukers import linear_form
from zeta3forms.cli import EXIT_FAILS, EXIT_OK, EXIT_UNKNOWN, main
from zeta3forms.exactnum import sqrt2_enclosure

# Test id -> (argv, exit code, sha256 of stdout). Help text wraps at the
# terminal width, so the test fixes COLUMNS at 80.
PINNED_STDOUT = {
    "audit": (
        ("audit", "--coeffs", "3,-1,4,1,-5", "--n", "17", "--digits", "60", "--json"),
        EXIT_FAILS,
        "6e09419917671f1f14738018d6264a946518563ea7f6073409f59e9b8f1c5cda",
    ),
    "verify": (
        ("verify", "--n-max", "40", "--csv"),
        EXIT_OK,
        "82389d6291928faddc71f24f2fed94220a6f93ce937cc0e68c0dbc63898de764",
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
    "zeta3-accelerated-6000": (
        ("zeta3", "--digits", "6000", "--method", "accelerated"),
        EXIT_OK,
        "a024c81cf303cdee6ce9372fb2c21a5bcbb47180c43e7f82cabd582b8f819d70",
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
        "0d8a1ba7cdb34b67c170a19003b205a3eced9f6f4f968651e607ae0c93e8c1bb",
    ),
    "form-json-2000": (
        ("form", "--n", "2000", "--json"),
        EXIT_OK,
        "c2ed45bb8fb1100230b887318a6782d7dd5087f74a3a47d57334183b25727416",
    ),
    "verify-unknown": (
        ("verify", "--n-max", "200", "--csv"),
        EXIT_UNKNOWN,
        "2093078cbbb4d41597884f2ba064e884a462e09a83e404b00fc98c899962c897",
    ),
    "verify-digits-1": (
        ("verify", "--n-max", "50", "--digits", "1", "--csv"),
        EXIT_UNKNOWN,
        "68cd5c28f321ee3fe37727614232b4d88b4e934bdfa73c5422ad29336afc95e7",
    ),
    "verify-digits-700": (
        ("verify", "--n-max", "60", "--digits", "700", "--csv"),
        EXIT_OK,
        "4ef8f20e67961283298f859a794932284bfe419125bd12b9488bb1968de6ddef",
    ),
    "verify-digits-2500": (
        ("verify", "--n-max", "20", "--digits", "2500", "--csv"),
        EXIT_OK,
        "0c8c0528610dc51a7f5e578f9689852acfa18e415ee51650683981708524fe7e",
    ),
    "audit-json-2500": (
        ("audit", "--coeffs", "3,-1,4,1,-5", "--n", "17", "--digits", "2500", "--json"),
        EXIT_FAILS,
        "ff7b837129f6d362cc09763b77d4d7d0815af4d2d8c94be8b565efd909ebaf56",
    ),
    "audit-unknown-power": (
        ("audit", "--coeffs", "3,-1,4,1,-5", "--n", "12", "--digits", "1", "--json"),
        EXIT_FAILS,
        "3c2e02f885ed348d697ee375af7a01b151378f557227607e98d9c9536c946521",
    ),
    "zeta3-20000": (
        ("zeta3", "--digits", "20000"),
        EXIT_OK,
        "ad29cfa8a231b7113ed14bc6f4251bde634af1d0c3ee86eb8711cadfb867b3b4",
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


def test_audit_unknown_power_pin_reaches_unknown_power_steps(capsys):
    argv, _, _ = PINNED_STDOUT["audit-unknown-power"]
    main([*argv, "--quiet"])
    steps = json.loads(capsys.readouterr().out)["steps"]
    powers = [s["numeric"] for s in steps if s["id"].startswith("power_")]
    assert powers == ["unknown"] * 5


@pytest.mark.parametrize("name", ["verify", "decay", "audit", "zeta3"])
def test_stdout_matches_pinned_sha256_under_python_O(name):
    """The guards are not asserts: under ``python -O`` the CLI prints the
    same bytes and exits the same. Only the child runs with -O; this
    process's asserts stay live."""
    argv, code, digest = PINNED_STDOUT[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "zeta3forms", *argv, "--quiet"], capture_output=True, env=env
    )
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == (code, digest)


class _FractionBuilt(Exception):
    pass


def _refuse_fraction(cls, *args, **kwargs):
    raise _FractionBuilt(f"Fraction{args}")


@pytest.mark.parametrize("name", ["verify", "decay"])
def test_verify_and_decay_build_no_fraction(capsys, monkeypatch, name):
    # Start from the seeded Apery tables and empty caches, so every form and
    # enclosure the command prints is built while Fraction refuses to construct.
    monkeypatch.setattr(beukers, "_APERY", beukers._APERY[:2])
    monkeypatch.setattr(beukers, "_APERY_Y", beukers._APERY_Y[:2])
    caches = (
        linear_form,
        bounds.form_abs_enclosure,
        bounds.shrink_enclosure,
        bounds.ratio_enclosure,
        sqrt2_enclosure,
        zeta3.zeta3,
        zeta3.zeta3_accelerated,
        zeta3.zeta3_direct,
    )
    for cached in caches:
        cached.cache_clear()
    monkeypatch.setattr(fractions.Fraction, "__new__", _refuse_fraction)
    argv, code, digest = PINNED_STDOUT[name]
    try:
        got = main([*argv, "--quiet"])
    finally:
        monkeypatch.undo()
        for cached in caches:
            cached.cache_clear()
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, digest)


# -- source rules: no floating point, no assert, no thread-local decimal context,
# -- no unbounded cache ---------------------------------------------------------

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zeta3forms"

# Functions that read or swap the calling thread's decimal context; the package
# passes its own contexts explicitly instead.
_THREAD_CONTEXT = {"getcontext", "setcontext", "localcontext"}


# The only functions whose caches may grow without bound: test-only oracles,
# the kernel moments of the O(n^2) double sum and the Legendre coefficients it
# pairs them with. Every other lru_cache states a maxsize other than None.
_UNBOUNDED_CACHE_ALLOWED = {"beukers.moment", "legendre.coeffs"}


def _name_of(node: ast.AST) -> str:
    """The identifier a name, attribute or imported alias node spells, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return ""


def _unbounded_cache(node: ast.AST, decorators: set[int]) -> str:
    """What makes ``node`` an unbounded or unsized cache, else ''.

    ``decorators`` holds the ids of the decorator nodes of the module."""
    if isinstance(node, ast.Call) and _name_of(node.func) == "lru_cache":
        sizes = node.args[:1] or [k.value for k in node.keywords if k.arg == "maxsize"]
        if not sizes:
            return "lru_cache without maxsize"
        if isinstance(sizes[0], ast.Constant) and sizes[0].value is None:
            return "lru_cache(maxsize=None)"
    elif id(node) in decorators and _name_of(node) == "lru_cache":
        return "bare lru_cache"
    elif isinstance(node, ast.Attribute) and node.attr == "cache" and _name_of(node.value) == "functools":
        return "functools.cache"
    elif isinstance(node, ast.ImportFrom) and node.module == "functools":
        if any(alias.name == "cache" for alias in node.names):
            return "functools.cache"
    return ""


def _violations(source: str, name: str) -> list[str]:
    """assert statements (stripped by python -O), float or complex literals,
    float(...) calls, any mention of the thread-local decimal context
    functions, and caches with no stated bound (outside
    _UNBOUNDED_CACHE_ALLOWED) in one module's source."""
    tree = ast.parse(source, filename=name)
    module = Path(name).stem
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    decorators = {id(dec) for fn in functions for dec in fn.decorator_list}
    allowed = {
        id(dec)
        for fn in functions
        if f"{module}.{fn.name}" in _UNBOUNDED_CACHE_ALLOWED
        for dec in fn.decorator_list
    }
    found = []
    for node in ast.walk(tree):
        cache = "" if id(node) in allowed else _unbounded_cache(node, decorators)
        if cache:
            found.append(f"{name}:{node.lineno}: unbounded cache {cache}")
        elif isinstance(node, ast.Assert):
            found.append(f"{name}:{node.lineno}: assert statement")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{name}:{node.lineno}: floating-point literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{name}:{node.lineno}: float() call")
        elif _name_of(node) in _THREAD_CONTEXT:
            found.append(f"{name}:{node.lineno}: thread-local decimal context {_name_of(node)}")
    return found


def test_rule_checker_flags_each_construct():
    source = (
        "assert x\ny = 0.5\nz = 2j\nw = float(3)\nv = 1e3\n"
        "from decimal import getcontext\nc = decimal.setcontext(c)\nwith localcontext(): pass\n"
    )
    assert [v.split(": ", 1)[1] for v in _violations(source, "sample.py")] == [
        "assert statement",
        "floating-point literal 0.5",
        "floating-point literal 2j",
        "float() call",
        "floating-point literal 1000.0",
        "thread-local decimal context getcontext",
        "thread-local decimal context setcontext",
        "thread-local decimal context localcontext",
    ]
    caches = (
        "@lru_cache\ndef f(n): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef g(n): pass\n"
        "@lru_cache()\ndef h(n): pass\n"
        "k = lru_cache(None)(k)\n"
        "from functools import cache\n"
        "m = functools.cache(m)\n"
        "@lru_cache(maxsize=DIGITS_CACHE_SIZE)\ndef bounded(n): pass\n"
        "@lru_cache(maxsize=None)\ndef moment(r, s): pass\n"
    )

    def by_line(found: list[str]) -> list[str]:
        return sorted(found, key=lambda v: int(v.split(":")[1]))

    flagged = [
        "sample.py:1: unbounded cache bare lru_cache",
        "sample.py:3: unbounded cache lru_cache(maxsize=None)",
        "sample.py:5: unbounded cache lru_cache without maxsize",
        "sample.py:7: unbounded cache lru_cache(maxsize=None)",
        "sample.py:8: unbounded cache functools.cache",
        "sample.py:9: unbounded cache functools.cache",
        "sample.py:12: unbounded cache lru_cache(maxsize=None)",
    ]
    assert by_line(_violations(caches, "sample.py")) == flagged
    # the exemption names one function of one module: beukers.moment
    assert by_line(_violations(caches, "beukers.py")) == [
        v.replace("sample", "beukers") for v in flagged if ":12:" not in v
    ]


def test_package_has_no_assert_and_no_floating_point():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = [v for path in modules for v in _violations(path.read_text(encoding="utf-8"), path.name)]
    assert found == []
