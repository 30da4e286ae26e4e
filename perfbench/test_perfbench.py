"""Tests of the benchmark itself: inputs, reference checks, tracer and output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from child import audit_record  # noqa: E402
from workloads import audit_n, audit_vectors  # noqa: E402

from zeta3forms import chain, cli, linear_form  # noqa: E402


def test_same_seed_gives_same_vectors():
    assert audit_vectors(7) == audit_vectors(7)
    assert audit_vectors(7) != audit_vectors(8)
    for c in audit_vectors(7):
        assert 2 <= len(c) <= 5 and c[-1] != 0 and all(abs(x) <= 10 for x in c)


def test_apery_reference_reproduces_linear_form():
    for n, (alpha, beta) in enumerate(checks.apery_forms(40)):
        form = linear_form(n)
        assert (form.alpha, form.beta) == (alpha, beta)


def _cli_stdout(capsys, argv: list[str]) -> tuple[str, int]:
    code = cli.main(argv + ["--quiet"])
    return capsys.readouterr().out, code


def test_zeta3_check_rejects_a_corrupted_digit(capsys):
    text, code = _cli_stdout(capsys, ["zeta3", "--digits", "300"])
    ref = checks.Zeta3Reference(300)
    assert ref.check(text, code).wrong == 0
    i = 150
    corrupted = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]
    assert ref.check(corrupted, code).wrong == 300


def test_verify_check_accepts_program_output_and_rejects_corruption(capsys):
    text, code = _cli_stdout(capsys, ["verify", "--n-max", "12", "--csv"])
    ref = checks.FormReference(12)
    assert checks.check_verify(text, code, ref, 12).wrong == 0
    lines = text.splitlines()
    cells = lines[5].split(",")
    lhs = cells[3]
    for corrupt in ({1: "fails"}, {3: str(int(lhs[0]) % 9 + 1) + lhs[1:]}):
        bad = [cells[k] if k not in corrupt else corrupt[k] for k in range(len(cells))]
        bad_text = "\n".join(lines[:5] + [",".join(bad)] + lines[6:]) + "\n"
        assert checks.check_verify(bad_text, code, ref, 12).wrong >= 1
    assert checks.check_verify(text, 3, ref, 12).wrong == 1


def test_audit_check_rejects_an_R_that_misses_its_reference():
    vectors = audit_vectors(3, count=6)
    records = [audit_record(chain.audit(audit_n(i), chain.CoeffVector(c), 60)) for i, c in enumerate(vectors)]
    ref = checks.FormReference(20)
    text = "".join(json.dumps(r) + "\n" for r in records)
    outcome = checks.check_audits(text, 0, vectors, ref)
    assert (outcome.wrong, outcome.uncertified) == (0, 0)

    records[2]["R"] = records[3]["R"]  # R_4's enclosure reported for n = 3
    text = "".join(json.dumps(r) + "\n" for r in records)
    assert checks.check_audits(text, 0, vectors, ref).wrong == 1


def test_tracer_wraps_every_reference_to_a_function():
    code = """
import zeta3forms.cli
from zeta3forms import beukers, bounds
from spans import Tracer
t = Tracer()
t.install()
assert bounds.linear_form is beukers.linear_form is zeta3forms.linear_form
bounds.form_abs_enclosure(4, 30)
s = t.summary(1.0)
assert s["calls"]["beukers.linear_form"] == 1, s["calls"]
assert s["calls"]["zeta3.zeta3"] == 1, s["calls"]
assert s["exactnum_ops"] >= 3 and s["missing"] == [], s
"""
    env = {"PYTHONPATH": f"{HERE}:{ROOT / 'src'}", "PATH": "/usr/bin:/bin"}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    done = _run("--workload", "zeta3_digits", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "audit_corpus", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
