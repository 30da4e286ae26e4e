"""Regression nets: pinned CLI stdout, and the package's source rules.

Each pin is an argv with its exit code and the sha256 of its stdout:

- ``audit``, ``audit-text``, ``audit-json-2500``, ``audit-unknown-power``:
  the chain audit's report, JSON endpoints and text, at 60, 30, 2500 and 1 digits.
- ``verify``, ``verify-unknown``, ``verify-digits-*``: the verify table for
  n up to 200, at 1 to 2500 digits.
- ``decay``, ``decay-unknown``: the decay table at 220 digits.
- ``zeta3*``: zeta(3)'s printed digits, up to 20000 digits, and the
  subcommand's help text. ``zeta3-direct`` and ``zeta3-accelerated*`` are
  named for the series that first printed their digits; one series prints
  them all now.
- ``form-json``, ``form-json-2000``: the exact linear forms at n = 50 and 2000.

The names ending in ``unknown`` keep the argv of sweeps that once ended
uncertified; every check in them now decides.

The source rules: no assert, no floating point, no thread-local decimal
context, and no unbounded cache outside the test oracles; no unused import
in the package or the scripts; no public name, and no method or property of
a package class, that only the tests use; and the commands import nothing
outside the standard library.
"""

import argparse
import ast
import fractions
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import zeta3forms
from zeta3forms import beukers, bounds, chain, cli, zeta3
from zeta3forms.cli import EXIT_FAILS, EXIT_OK, main

# Test id -> (argv, exit code, sha256 of stdout). Help text wraps at the
# terminal width, so the test fixes COLUMNS at 80.
PINNED_STDOUT = {
    "audit": (
        ("audit", "--coeffs", "3,-1,4,1,-5", "--n", "17", "--digits", "60", "--json"),
        EXIT_FAILS,
        "65f662d854dc192a5d78ebcd4af12a5043def2087dbb9b44b7c7adbd7b246223",
    ),
    "verify": (
        ("verify", "--n-max", "40", "--csv"),
        EXIT_OK,
        "994a25d33c7c912df51c681277793e5a03df343e9cb5e4ee2407b1d5803d8a0c",
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
        ("zeta3", "--digits", "12"),
        EXIT_OK,
        "7d5cb124e0c2cd7ef6b9bf3cb48c3e8c2a0a1e2f3bd300037feb7b72bf2bb675",
    ),
    "zeta3-accelerated": (
        ("zeta3", "--digits", "200"),
        EXIT_OK,
        "5b27def154784fa9753177800329d89fc9f9df1e4d2d499206e044865530b001",
    ),
    "zeta3-accelerated-6000": (
        ("zeta3", "--digits", "6000"),
        EXIT_OK,
        "a024c81cf303cdee6ce9372fb2c21a5bcbb47180c43e7f82cabd582b8f819d70",
    ),
    "zeta3-help": (
        ("zeta3", "--help"),
        EXIT_OK,
        "54bb97912fa59083de18f1d8728ddac736c096388494975b207ec822f08ab9c8",
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
        EXIT_OK,
        "b66364240b77c0b5583b842f1db33f0dbee1fd74612741f78d9ebb3ef6959b6e",
    ),
    "form-json-2000": (
        ("form", "--n", "2000", "--json"),
        EXIT_OK,
        "c2ed45bb8fb1100230b887318a6782d7dd5087f74a3a47d57334183b25727416",
    ),
    "verify-unknown": (
        ("verify", "--n-max", "200", "--csv"),
        EXIT_OK,
        "a34d055325b488cbe4056a17ac7a4bcb0fd09aeb8cce76b7c649038432942748",
    ),
    "verify-digits-1": (
        ("verify", "--n-max", "50", "--digits", "1", "--csv"),
        EXIT_OK,
        "4cf660791e93cad73017a45817b0f467c134cb8e6e12ef27aa66ab9c17ad3605",
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
        "0eb20c12197c1c895ce9c951310f9390221f96d17bfd9bb231808092bfab60e4",
    ),
    "audit-unknown-power": (
        ("audit", "--coeffs", "3,-1,4,1,-5", "--n", "60", "--digits", "1", "--json"),
        EXIT_FAILS,
        "6e86682a6a3d852ced374402752e385b8d1bead40d34ae030cb6edaad0e983a9",
    ),
    "zeta3-20000": (
        ("zeta3", "--digits", "20000"),
        EXIT_OK,
        "ad29cfa8a231b7113ed14bc6f4251bde634af1d0c3ee86eb8711cadfb867b3b4",
    ),
}


# sha256 of report_to_json(audit(n, c, digits)) + "\n" over n in (1, 7, 20), digits
# in (1, 60) and every c of chain.fixed_corpus(), in that loop order.
CORPUS_AUDIT_SHA256 = "db25471df053ff2e36552e5f533b6062325c7ed642ad750a53fe48cc8c644474"


def test_corpus_audit_json_matches_pinned_sha256():
    digest = hashlib.sha256()
    for n in (1, 7, 20):
        for digits in (1, 60):
            for c in chain.fixed_corpus():
                report = cli.report_to_json(chain.audit(n, c, digits))
                digest.update((report + "\n").encode("utf-8"))
    assert digest.hexdigest() == CORPUS_AUDIT_SHA256


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


def _power_steps(capsys, argv) -> tuple[list[str], int]:
    main([*argv, "--quiet"])
    report = json.loads(capsys.readouterr().out)
    powers = [s["numeric"] for s in report["steps"] if s["id"].startswith("power_")]
    return powers, report["digits_used"]


def test_audit_unknown_power_pin_reaches_unknown_power_steps(capsys, ratio_touches_zero):
    argv, _, _ = PINNED_STDOUT["audit-unknown-power"]
    # the pinned audit decides every power step at the requested digit
    assert _power_steps(capsys, argv) == (["holds"] * 5, 1)
    # with R_60 at [0, h] on every rung, the ladder climbs to its last rung
    # and every power step ends unknown
    ratio_touches_zero()
    assert _power_steps(capsys, argv) == (["unknown"] * 5, 16)


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


def test_every_check_and_cell_certified_at_default_flags(capsys):
    """At default digits every verify check decides and no decay cell
    carries a +/- field, also under ``python -O``, and the 1-digit audit at
    n = 200 holds every power step without refining."""
    for argv in (("verify", "--n-max", "1000"), ("decay", "--n-max", "200")):
        assert main([*argv, "--quiet"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "unknown" not in out and "±" not in out
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "zeta3forms", "verify", "--n-max", "200", "--quiet"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == EXIT_OK
    assert b"unknown" not in proc.stdout and "±".encode() not in proc.stdout
    audit = ("audit", "--coeffs", "3,-1,4,1,-5", "--n", "200", "--digits", "1", "--json")
    assert _power_steps(capsys, audit) == (["holds"] * 5, 1)


class _FractionBuilt(Exception):
    pass


def _refuse_fraction(cls, *args, **kwargs):
    raise _FractionBuilt(f"Fraction{args}")


@pytest.mark.parametrize("name", ["verify", "decay"])
def test_verify_and_decay_build_no_fraction(capsys, monkeypatch, name):
    # Start from the seeded Apery table and empty caches, so every form and
    # enclosure the command prints is built while Fraction refuses to construct.
    monkeypatch.setattr(beukers, "_APERY", beukers._APERY[:2])
    caches = (
        bounds.form_abs_enclosure,
        bounds.ratio_enclosure,
        bounds._growth_enclosure,
        zeta3.zeta3,
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
    functions, and caches with no stated bound in one module's source."""
    tree = ast.parse(source, filename=name)
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    decorators = {id(dec) for fn in functions for dec in fn.decorator_list}
    found = []
    for node in ast.walk(tree):
        cache = _unbounded_cache(node, decorators)
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
    # no module and no function is exempt: a moment cache in beukers is flagged
    assert by_line(_violations(caches, "beukers.py")) == [v.replace("sample", "beukers") for v in flagged]


def test_package_has_no_assert_and_no_floating_point():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = [v for path in modules for v in _violations(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


# -- no unused import -----------------------------------------------------------

SCRIPTS = PACKAGE.parent.parent / "scripts"


def _unused_imports(source: str, name: str) -> list[str]:
    """Names an import binds that the module never reads. Names listed in
    the module's ``__all__`` count as read; ``from __future__`` is exempt."""
    tree = ast.parse(source, filename=name)
    bound: dict[str, int] = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(_name_of(t) == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return [f"{name}:{line}: unused import {key}" for key, line in bound.items() if key not in read]


def test_unused_import_rule_flags_each_construct():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport json as j\n"
        "from fractions import Fraction, Decimal\nfrom .beukers import d\n"
        "from .exactnum import Enclosure\n"
        "__all__ = ['d']\n"
        "def f(x: Fraction) -> int:\n    from signal import SIGKILL\n    return math.floor(x)\n"
    )
    assert _unused_imports(source, "sample.py") == [
        "sample.py:3: unused import os",
        "sample.py:4: unused import j",
        "sample.py:5: unused import Decimal",
        "sample.py:7: unused import Enclosure",
        "sample.py:10: unused import SIGKILL",
    ]


def test_package_and_scripts_have_no_unused_import():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    assert len(paths) >= 10
    found = [v for path in paths for v in _unused_imports(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


# -- every public name is used by the package or the scripts -----------------------


def _unreferenced(public: list[str], sources: list[tuple[str, str]]) -> list[str]:
    """Names in ``public``, dunders aside, that no Name, Attribute or import
    alias in the (file name, source) pairs spells: a definition alone does
    not count."""
    trees = [ast.parse(source, filename=name) for name, source in sources]
    spelled = {_name_of(node) for tree in trees for node in ast.walk(tree)}
    return [p for p in public if not (p.startswith("__") and p.endswith("__")) and p not in spelled]


def test_public_name_rule_flags_each_construct():
    sources = [
        ("a.py", "from .b import by_import as alias\nx = by_name\ny = obj.by_attribute\n"),
        ("b.py", "def defined_only(): pass\nclass DefinedOnly: pass\n'in_a_string'\n"),
    ]
    public = ["by_import", "by_name", "by_attribute", "defined_only", "DefinedOnly", "in_a_string"]
    public.append("__version__")
    assert _unreferenced(public, sources) == ["defined_only", "DefinedOnly", "in_a_string"]


def _package_and_script_sources() -> list[tuple[str, str]]:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths = modules + sorted(SCRIPTS.glob("*.py"))
    return [(path.name, path.read_text(encoding="utf-8")) for path in paths]


def test_every_public_name_is_used_by_the_package_or_the_scripts():
    # A name the package exports but only the tests read belongs in tests/.
    assert _unreferenced(zeta3forms.__all__, _package_and_script_sources()) == []


def _written_in_body(cls: type, value: object) -> bool:
    """True when ``value`` is a method or property that the class statement of
    ``cls`` defines, not one that a factory such as namedtuple adds."""
    func = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
    path = sys.modules[cls.__module__].__file__
    return isinstance(func, FunctionType) and func.__code__.co_filename == path


def _test_only_members(classes: list[type], sources: list[tuple[str, str]]) -> list[str]:
    """"Class.name" for each method or property a class body defines that
    no attribute access in the sources reads: a bare name, such as a local
    that shares the member's name, does not count. Dunders and overrides of
    a member that a base class defines are exempt."""
    trees = [ast.parse(source, filename=name) for name, source in sources]
    read = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [
        f"{cls.__name__}.{name}"
        for cls in classes
        for name, value in vars(cls).items()
        if _written_in_body(cls, value)
        and not (name.startswith("__") and name.endswith("__"))
        and not any(hasattr(base, name) for base in cls.__mro__[1:])
        and name not in read
    ]


def test_member_rule_flags_each_construct():
    class Planted(argparse.ArgumentParser):
        def print_help(self, file=None):  # overrides the base class: exempt
            pass

        def __len__(self):  # a dunder: exempt
            return 0

        def called(self):
            pass

        @property
        def read(self):
            return 0

        def test_only(self):
            pass

        @classmethod
        def test_only_classmethod(cls):
            pass

        @staticmethod
        def test_only_staticmethod():
            pass

        def width(self):  # shares its name with a local below, which is no read
            pass

        limit = 3  # a class attribute, not a method

    sources = [("a.py", "p.called()\nx = p.read\n'test_only'\nwidth = 0\n")]
    assert _test_only_members([Planted], sources) == [
        "Planted.test_only",
        "Planted.test_only_classmethod",
        "Planted.test_only_staticmethod",
        "Planted.width",
    ]


def test_every_class_member_is_used_by_the_package_or_the_scripts():
    # A method or property that only the tests read belongs in tests/ too.
    stems = [path.stem for path in sorted(PACKAGE.glob("*.py")) if not path.stem.startswith("__")]
    modules = [importlib.import_module(f"zeta3forms.{stem}") for stem in stems]
    classes = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    assert {"Enclosure", "LinearForm", "CoeffVector", "ArgumentParser"} <= {c.__name__ for c in classes}
    assert _test_only_members(classes, _package_and_script_sources()) == []


# -- the runtime imports the standard library only -----------------------------------

_STDLIB_ONLY = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from zeta3forms.cli import main
for argv in (
    ["form", "--n", "30", "--json"],
    ["verify", "--n-max", "40"],
    ["decay", "--n-max", "20"],
    ["audit", "--coeffs", "3,-1,4,1,-5", "--n", "17"],
    ["zeta3", "--digits", "3000"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        main([*argv, "--quiet"])
allowed = set(sys.stdlib_module_names) | {"zeta3forms", "__main__"}
print(" ".join(sorted({m.split(".")[0] for m in sys.modules} - allowed)))
"""


def test_the_commands_import_only_the_standard_library():
    # -I ignores PYTHON* variables and the user site, -S skips site and the
    # .pth files that installed packages add, which may import third-party
    # modules at start-up; -B writes no bytecode cache into src/, which -I
    # would otherwise do even under PYTHONDONTWRITEBYTECODE; zeta3 at 3000
    # digits takes the forked path where two CPUs are free.
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", _STDLIB_ONLY, str(PACKAGE.parent)],
        capture_output=True,
        encoding="utf-8",
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "\n")


# Modules a library import and verify and decay runs, plain or --csv, leave
# unloaded: dataclasses alone loads inspect, ast, dis and tokenize; json is
# loaded only by the commands that write it, csv by none; typing is read by no
# annotation at run time; fractions only where an exact endpoint is read as a
# Fraction (form, audit --json).
_UNLOADED = ("dataclasses", "inspect", "ast", "json", "csv", "typing", "fractions")

_IMPORT_STATE = """
import sys
sys.path.insert(0, sys.argv[1])
limit = getattr(sys, "get_int_max_str_digits", lambda: None)  # absent before 3.10.7
before = limit()
import zeta3forms
print(limit() == before, *sorted(set(sys.argv[2:]) & set(sys.modules)))
"""

_COMMAND_MODULES = """
import runpy, sys
sys.path.insert(0, sys.argv[1])
unloaded = set(sys.argv[2:])
for command in ("verify", "decay"):
    for table in ([], ["--csv"]):
        sys.argv = ["zeta3forms", command, "--n-max", "1", *table, "--quiet"]
        try:
            runpy.run_module("zeta3forms", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            print("exit", command, *table, exc.code, *sorted(unloaded & set(sys.modules)))
"""


def test_importing_the_package_changes_no_interpreter_state():
    # The limit on int-str conversion is lifted by the CLI's runner, for the
    # process it runs; a library import neither lifts it nor loads the modules above.
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", _IMPORT_STATE, str(PACKAGE.parent), *_UNLOADED],
        capture_output=True,
        encoding="utf-8",
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "True\n")


def test_a_verify_run_loads_no_record_or_format_module():
    # -S also keeps out the typing that some hosts' site module imports
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", _COMMAND_MODULES, str(PACKAGE.parent), *_UNLOADED],
        capture_output=True,
        encoding="utf-8",
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    exits = [line for line in proc.stdout.splitlines() if line.startswith("exit ")]
    assert exits == ["exit verify 0", "exit verify --csv 0", "exit decay 0", "exit decay --csv 0"]


# -- a cache is kept only where its keys come back ---------------------------------


def _package_caches() -> dict[str, object]:
    """Every lru_cache on a zeta3forms module attribute, by module.function."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("zeta3forms."):
            for value in vars(module).values():
                if hasattr(value, "cache_info") and hasattr(value, "__wrapped__"):
                    inner = value.__wrapped__
                    found[f"{inner.__module__.rsplit('.', 1)[1]}.{inner.__qualname__}"] = value
    return found


def test_every_production_cache_records_hits(capsys):
    # From cleared caches, a verify sweep, a decay table and the benchmark's
    # audit pattern (n = i mod 20 + 1 at 60 digits) hit every production cache.
    caches = _package_caches()
    assert {"bounds.ratio_enclosure", "zeta3.zeta3"} <= set(caches)
    for fn in caches.values():
        fn.cache_clear()
    assert main(["verify", "--n-max", "200", "--quiet"]) == EXIT_OK
    assert main(["decay", "--n-max", "30", "--quiet"]) == EXIT_OK
    for i, c in enumerate(chain.random_corpus(100, seed=3)):
        chain.audit(i % 20 + 1, c, 60)
    capsys.readouterr()
    idle = {k: fn.cache_info() for k, fn in caches.items() if fn.cache_info().hits == 0}
    assert idle == {}
